"""The exact per-round outcome law, walked from the amplitude model: the
source of the sampling plan, the expected figures of merit and the honest
abort baseline."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

from .adversary import honest_outcome_branches, single_path_branches
from .channel import (
    AttackConfig,
    AttackKind,
    AttackTarget,
    ChannelConfig,
    return_leg,
    transmit_onward,
)
from .photonics import (
    Action,
    Arm,
    Branches,
    EveProbePair,
    Outcome,
    dark_click_branches,
    detection_branches,
    emit,
    helstrom_p_one,
    party_action_branches,
    recombine_at_bs,
)

#: Distinct (attack, channel) pairs whose law and what derives from it stay cached.
_LAW_CACHE_SIZE = 32

#: A round's contingency cell: (setting_b, setting_c, outcome_alice,
#: click_b, click_c, multi_count).
Cell = tuple[Action, Action, Outcome, bool, bool, bool]

#: Settings cells (setting_b, setting_c) in table order.
_CELLS = (
    (Action.F, Action.F),
    (Action.F, Action.A),
    (Action.A, Action.F),
    (Action.A, Action.A),
)
_SOURCE_ATTACKS = (AttackKind.ALICE_SINGLE_PATH, AttackKind.ALICE_DOUBLE_PATH)
_TARGET_BRANCHES = {
    AttackTarget.B: [(1.0, Arm.B)],
    AttackTarget.C: [(1.0, Arm.C)],
    AttackTarget.RANDOM: [(0.5, Arm.B), (0.5, Arm.C)],
}


@dataclass(frozen=True, slots=True)
class LawRow:
    """One outcome of a round in a given table of the law.  ``p_one`` is
    the probability that Eve's Helstrom measurement guesses bit 1 on a D1
    row whose round carries her probe, None on every other row."""

    probability: float
    outcome: Outcome
    click_b: bool
    click_c: bool
    multi_count: bool
    p_one: float | None


#: (setting_b, setting_c, attacked) -> the rows of that table, every one
#: with positive probability.  ``attacked`` marks the rounds a source
#: attacker took over; only source attacks have attacked tables.
OutcomeLaw = Mapping[tuple[Action, Action, bool], tuple[LawRow, ...]]


def _probe_p_one(theta: float, amp_d1: tuple[complex, ...]) -> float:
    probe = EveProbePair(theta=theta, collapsed_state=amp_d1)
    # A dark D1 click on a double reflection whose port D1 amplitude
    # vanishes (a zero-strength probe) leaves no probe amplitude: the probe
    # then carries no which-arm information and Eve's guess is a fair coin.
    # Such rounds have correlated settings, so they carry no key bit.
    return 0.5 if probe.is_null() else helstrom_p_one(probe)


#: (probability, announced outcome, source clicks, click_b, click_c, p_one)
#: of one branch of a round, before the stations' dark counts.
_Branch = tuple[float, Outcome, int, bool, bool, float | None]


def _photon_branches(
    setting_b: Action, setting_c: Action, attack: AttackConfig, channel_cfg: ChannelConfig
) -> Iterator[_Branch]:
    """Branches of a round whose split photon runs the interferometer."""
    state = transmit_onward(emit(), attack)
    for p_b, (state_b, absorbed_b) in party_action_branches(state, Arm.B, setting_b):
        for p_c, (state_c, absorbed_c) in party_action_branches(state_b, Arm.C, setting_c):
            returned = return_leg(state_c)
            absorbed = absorbed_b or absorbed_c
            if absorbed:
                zeros = (0j,) * returned.probe_dim
                amp_d1, amp_d2 = zeros, zeros
            else:
                amp_d1, amp_d2 = recombine_at_bs(returned)
            for p_d, detection in detection_branches(
                amp_d1, amp_d2, channel_cfg.loss_rate, channel_cfg.dark_rate
            ):
                p_one = None
                if detection.outcome is Outcome.D1 and returned.probe_dim > 1 and not absorbed:
                    p_one = _probe_p_one(attack.theta, amp_d1)
                yield (
                    p_b * p_c * p_d,
                    detection.outcome,
                    detection.click_count,
                    absorbed_b,
                    absorbed_c,
                    p_one,
                )


def _source_attack_branches(
    setting_b: Action, setting_c: Action, attack: AttackConfig
) -> Iterator[_Branch]:
    """Branches of a round a source attacker took over.  Her bare
    photons and fabricated announcement bypass the channel loss and the
    source's dark counts; at most one announced click is hers."""
    if attack.kind is AttackKind.ALICE_DOUBLE_PATH:
        for p, outcome in honest_outcome_branches(setting_b, setting_c):
            clicks = int(outcome is not Outcome.NULL)
            yield p, outcome, clicks, setting_b is Action.A, setting_c is Action.A, None
        return
    for p_t, target in _TARGET_BRANCHES[attack.target]:
        returned = (setting_b if target is Arm.B else setting_c) is Action.F
        for p_a, outcome in single_path_branches(attack.strategy, returned):
            clicks = int(outcome is not Outcome.NULL)
            click_b = target is Arm.B and not returned
            click_c = target is Arm.C and not returned
            yield p_t * p_a, outcome, clicks, click_b, click_c, None


def _station_branches(setting: Action, clicked: bool, dark_rate: float) -> Branches[bool]:
    """An absorbing station's detector dark-fires when it holds no click."""
    if setting is Action.A and not clicked:
        return dark_click_branches(dark_rate)
    return [(1.0, clicked)]


@functools.lru_cache(maxsize=_LAW_CACHE_SIZE)
def outcome_law(attack: AttackConfig, channel_cfg: ChannelConfig) -> OutcomeLaw:
    """The exact per-round outcome law, walked without random draws.

    Each table follows every branch of one round in a settings cell: the
    source attacker taking the round over or not, absorption at each
    station, a real click or a loss, dark counts at each source detector
    with the two-click tie, and dark counts at each absorbing station.
    Branches that end in the same announced outcome, station clicks,
    multiple-count flag and probe guess probability add up into one row.
    Each (attack, channel) pair is walked once and its law kept read-only.
    """
    law = {}
    dark = channel_cfg.dark_rate
    attacked_options = (False, True) if attack.kind in _SOURCE_ATTACKS else (False,)
    for attacked in attacked_options:
        for setting_b, setting_c in _CELLS:
            if attacked:
                branches = _source_attack_branches(setting_b, setting_c, attack)
            else:
                branches = _photon_branches(setting_b, setting_c, attack, channel_cfg)
            rows: dict[tuple, float] = {}
            for p, outcome, source_clicks, click_b, click_c, p_one in branches:
                for p_b, final_b in _station_branches(setting_b, click_b, dark):
                    for p_c, final_c in _station_branches(setting_c, click_c, dark):
                        multi = source_clicks + final_b + final_c >= 2
                        key = (outcome, final_b, final_c, multi, p_one)
                        rows[key] = rows.get(key, 0.0) + p * p_b * p_c
            law[(setting_b, setting_c, attacked)] = tuple(
                LawRow(prob, *key) for key, prob in rows.items() if prob > 0.0
            )
    return MappingProxyType(law)


def _weighted_rows(
    attack: AttackConfig, channel_cfg: ChannelConfig
) -> Iterator[tuple[Cell, float, float | None]]:
    """Every row of the law in table order, as its contingency cell, its
    probability in a round and Eve's ``p_one``: every settings cell weighs
    1/4, and a source attacker's tables weigh p against 1 - p for the
    untouched rounds."""
    p = attack.p if attack.kind in _SOURCE_ATTACKS else 0.0
    for (setting_b, setting_c, attacked), rows in outcome_law(attack, channel_cfg).items():
        weight = 0.25 * (p if attacked else 1.0 - p)
        for r in rows:
            cell = (setting_b, setting_c, r.outcome, r.click_b, r.click_c, r.multi_count)
            yield cell, weight * r.probability, r.p_one


@functools.lru_cache(maxsize=_LAW_CACHE_SIZE)
def outcome_table(attack: AttackConfig, channel_cfg: ChannelConfig) -> Mapping[Cell, float]:
    """The law as one probability per contingency cell: ``_weighted_rows``
    summed by cell, read-only and computed once per (attack, channel)."""
    table: dict[Cell, float] = {}
    for cell, probability, _ in _weighted_rows(attack, channel_cfg):
        table[cell] = table.get(cell, 0.0) + probability
    return MappingProxyType(table)
