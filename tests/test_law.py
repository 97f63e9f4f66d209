"""The exact per-round outcome law: normalization, the paper's closed
forms read off it exactly, the sampling plan's joint CDF and its row
selection against ``np.searchsorted``, and the bulk sampler and the
per-round primitives checked against it by one goodness-of-fit test."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    _exact_single_path_merits,
    assert_matches_law,
    branch_law,
    load_workloads,
    rng_with,
    tabulate,
)

from cqca.adversary import (
    alice_double_path,
    alice_single_path,
    honest_outcome_branches,
    single_path_branches,
)
from cqca.analysis import error_rate_theory, visibility_theory
from cqca.channel import (
    AttackConfig,
    AttackKind,
    AttackTarget,
    ChannelConfig,
    FakeStrategy,
    return_leg,
    transmit_onward,
)
from cqca.law import outcome_law, outcome_table
from cqca.metrics import expected_multi_rate
from cqca.parties import _ROUNDS, _sampling_plan, _select_rows, _stream, run_rounds
from cqca.photonics import (
    Action,
    Arm,
    EveProbePair,
    Outcome,
    apply_party_action,
    attach_eve_probe,
    detection_branches,
    emit,
    helstrom_guess,
    helstrom_p_one,
    helstrom_success_probability,
    party_action_branches,
    probe_branch_vectors,
    recombine_at_bs,
    sample_detection,
)

F, A = Action.F, Action.A
LOSSY = ChannelConfig(loss_rate=0.2, dark_rate=0.01)


def _probability(attack, channel, predicate) -> float:
    """P(predicate(*cell)) over one round: a sum over the outcome table's
    cells (setting_b, setting_c, outcome, click_b, click_c, multi_count)."""
    return sum(p for cell, p in outcome_table(attack, channel).items() if predicate(*cell))


def _conditional(law, sb, sc, outcome) -> float:
    return sum(r.probability for r in law[(sb, sc, False)] if r.outcome is outcome)


def _error_rate(attack, channel) -> float:
    d1 = _probability(attack, channel, lambda sb, sc, o, *_: o is Outcome.D1)
    corr = _probability(attack, channel, lambda sb, sc, o, *_: o is Outcome.D1 and sb is sc)
    return corr / d1


ATTACKS = [
    AttackConfig.none(),
    AttackConfig.eve_probe(0.3),
    *(
        AttackConfig.alice_single_path(0.5, strategy, target)
        for strategy, target in itertools.product(FakeStrategy, AttackTarget)
    ),
    AttackConfig.alice_double_path(0.5),
]


@pytest.mark.parametrize(
    "attack", ATTACKS, ids=lambda a: f"{a.kind.value}-{a.strategy.value}-{a.target.value}"
)
@pytest.mark.parametrize("loss", [0.0, 0.2])
@pytest.mark.parametrize("dark", [0.0, 0.01])
def test_every_table_sums_to_one(attack, loss, dark):
    law = outcome_law(attack, ChannelConfig(loss_rate=loss, dark_rate=dark))
    source = attack.kind in (AttackKind.ALICE_SINGLE_PATH, AttackKind.ALICE_DOUBLE_PATH)
    assert len(law) == (8 if source else 4)
    for key, rows in law.items():
        assert all(r.probability > 0.0 for r in rows)
        assert math.fsum(r.probability for r in rows) == pytest.approx(1.0, abs=1e-12), key


@pytest.mark.parametrize("walk", [outcome_law, outcome_table], ids=lambda f: f.__name__)
def test_each_law_is_walked_once_and_read_only(walk):
    attack, channel = AttackConfig.eve_probe(0.3), ChannelConfig(loss_rate=0.2, dark_rate=0.01)
    law = walk(attack, channel)
    assert walk(AttackConfig.eve_probe(0.3), ChannelConfig(loss_rate=0.2, dark_rate=0.01)) is law
    key = next(iter(law))
    with pytest.raises(TypeError):
        law[key] = law[key]
    with pytest.raises(TypeError):
        del law[key]


def test_sampling_plan_is_derived_once_and_read_only():
    attack, channel = AttackConfig.alice_double_path(0.5), LOSSY
    plan = _sampling_plan(attack, channel)
    assert _sampling_plan(AttackConfig.alice_double_path(0.5), LOSSY) is plan
    layout = plan.layout
    for array in (plan.cdf, plan.first, plan.unsure, layout.tallies, layout.d1, layout.bit_b,
                  layout.bit_c, layout.sifted_bit, layout.p_one, layout.probe):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    with pytest.raises(AttributeError):
        plan.cdf = plan.cdf.copy()
    assert plan.first.shape == plan.unsure.shape == (1024,)


def _attacked_share(attack) -> float:
    """The share p of rounds a source attacker takes over; 0 for the rest."""
    source = attack.kind in (AttackKind.ALICE_SINGLE_PATH, AttackKind.ALICE_DOUBLE_PATH)
    return attack.p if source else 0.0


def _raws_at(values, rng) -> np.ndarray:
    """Raw draws whose uniform ``(raw >> 11) * 2**-53`` is the 53-bit grid
    point at or below each value in [0, 1), and the one above it, under
    random low bits."""
    grid = np.floor(np.asarray(values) * 2.0**53).astype(np.uint64)
    grid = np.concatenate([grid, np.minimum(grid + 1, 2**53 - 1)])
    return grid << 11 | rng.integers(0, 2**11, len(grid), dtype=np.uint64)


@pytest.mark.parametrize(
    "attack", ATTACKS, ids=lambda a: f"{a.kind.value}-{a.strategy.value}-{a.target.value}"
)
@pytest.mark.parametrize("channel", [ChannelConfig(), LOSSY], ids=["lossless", "lossy"])
def test_row_selection_is_searchsorted_on_each_table(attack, channel):
    law = outcome_law(attack, channel)
    plan = _sampling_plan(attack, channel)
    rng = rng_with(308)
    p = _attacked_share(attack)
    weights, cells, p_one = [], [], []
    for (sb, sc, attacked), rows in law.items():
        weights += [0.25 * (p if attacked else 1.0 - p) * r.probability for r in rows]
        cells += [(sb, sc, r.outcome, r.click_b, r.click_c, r.multi_count) for r in rows]
        p_one += [np.nan if r.p_one is None else r.p_one for r in rows]
    assert plan.layout.cells == tuple(cells)
    np.testing.assert_array_equal(plan.layout.p_one, p_one)  # NaN matches NaN
    np.testing.assert_array_equal(plan.layout.probe, ~np.isnan(p_one))
    cdf = np.cumsum(weights) / math.fsum(weights)
    np.testing.assert_allclose(plan.cdf, cdf, rtol=0.0, atol=1e-15)
    assert plan.cdf[-1] == 1.0 and np.all(np.diff(plan.cdf) >= 0.0)

    inside = plan.cdf[plan.cdf < 1.0]
    crafted = [
        inside,
        np.nextafter(inside, 0.0),
        np.nextafter(inside, 1.0),
        np.arange(1024) / 1024,  # every bucket edge, 0 among them
        [np.nextafter(1.0, 0.0)],
    ]
    random = rng.integers(0, 2**64, 500, dtype=np.uint64)
    raws = np.concatenate([_raws_at(np.concatenate(crafted), rng), random])
    u = (raws >> 11) * 2.0**-53
    assert np.all((0.0 <= u) & (u < 1.0))
    np.testing.assert_array_equal(
        _select_rows(plan, raws), np.searchsorted(plan.cdf, u, side="right")
    )


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1])
def test_raw_draw_is_the_generators_uniform(seed):
    # the row lookup's uniform is bit for bit the one Generator.random makes
    raw = _stream(seed, _ROUNDS).bit_generator.random_raw(100_000)
    np.testing.assert_array_equal((raw >> 11) * 2.0**-53, _stream(seed, _ROUNDS).random(100_000))


_POINTS = (*load_workloads().SCAN, *load_workloads().DEFECT_SCAN)


@pytest.mark.parametrize("point", _POINTS, ids=lambda p: p.label)
def test_plan_weights_fold_to_the_outcome_table(point):
    plan = _sampling_plan(point.attack, point.channel)
    folded: dict = {}
    for cell, weight in zip(plan.layout.cells, np.diff(plan.cdf, prepend=0.0).tolist()):
        folded[cell] = folded.get(cell, 0.0) + weight
    table = outcome_table(point.attack, point.channel)
    assert folded.keys() == table.keys()
    for cell, p in table.items():
        assert folded[cell] == pytest.approx(p, abs=1e-15), cell


@pytest.mark.parametrize(
    "attack",
    [*ATTACKS, AttackConfig.alice_single_path(0.1), AttackConfig.alice_double_path(1.0)],
    ids=lambda a: f"{a.kind.value}-{a.strategy.value}-{a.target.value}-{a.p}",
)
@pytest.mark.parametrize("channel", [ChannelConfig(), LOSSY], ids=["lossless", "lossy"])
def test_plan_weighs_each_settings_cell_a_quarter(attack, channel):
    plan = _sampling_plan(attack, channel)
    weights = np.diff(plan.cdf, prepend=0.0)
    attacked_mass, cell_mass, start = 0.0, Counter(), 0
    for (sb, sc, attacked), rows in outcome_law(attack, channel).items():
        mass = math.fsum(weights[start : start + len(rows)])
        start += len(rows)
        cell_mass[(sb, sc)] += mass
        attacked_mass += mass if attacked else 0.0
    assert start == len(plan.cdf)
    for cell in itertools.product((F, A), repeat=2):
        assert cell_mass[cell] == pytest.approx(0.25, abs=1e-15), cell
    assert attacked_mass == pytest.approx(_attacked_share(attack), abs=1e-15)


def test_fully_attacked_source_never_draws_an_untouched_row():
    attack = AttackConfig.alice_double_path(1.0)
    for channel in (ChannelConfig(), LOSSY):
        law = outcome_law(attack, channel)
        untouched = sum(len(rows) for (_, _, attacked), rows in law.items() if not attacked)
        plan = _sampling_plan(attack, channel)
        assert np.all(plan.cdf[:untouched] == 0.0)
        edges = _raws_at(np.arange(1024) / 1024, rng_with(309))
        assert _select_rows(plan, edges).min() == untouched
        rows = run_rounds(20_000, attack, channel, seed=310).rounds.row_ids
        assert rows.min() >= untouched


def test_honest_law_is_the_outcome_table():
    law = outcome_law(AttackConfig.none(), ChannelConfig())
    assert _conditional(law, F, F, Outcome.D1) == 0.0
    assert _conditional(law, F, F, Outcome.D2) == 1.0
    for sb, sc in ((A, F), (F, A)):
        assert _conditional(law, sb, sc, Outcome.D1) == pytest.approx(0.25, abs=1e-15)
        assert _conditional(law, sb, sc, Outcome.D2) == pytest.approx(0.25, abs=1e-15)
        assert _conditional(law, sb, sc, Outcome.NULL) == pytest.approx(0.5, abs=1e-15)
    assert _conditional(law, A, A, Outcome.NULL) == 1.0
    # double absorption fires exactly one station detector
    assert all(r.click_b != r.click_c for r in law[(A, A, False)])


@pytest.mark.parametrize("theta", [0.1, 0.3, 0.4185071162, 0.6, 1.2, math.pi / 2])
def test_eve_law_reproduces_the_closed_forms(theta):
    attack = AttackConfig.eve_probe(theta)
    law = outcome_law(attack, ChannelConfig())
    n1 = _conditional(law, F, F, Outcome.D1)
    n2 = _conditional(law, F, F, Outcome.D2)
    assert (n2 - n1) / (n1 + n2) == pytest.approx(visibility_theory(theta), abs=1e-12)
    e = _error_rate(attack, ChannelConfig())
    assert e == pytest.approx(error_rate_theory(theta), abs=1e-12)
    helstrom = helstrom_success_probability(theta)
    for (sb, sc), bit in (((A, F), 0), ((F, A), 1)):
        assert _conditional(law, sb, sc, Outcome.D1) == pytest.approx(0.25, abs=1e-12)
        (d1_row,) = [r for r in law[(sb, sc, False)] if r.outcome is Outcome.D1]
        p_correct = d1_row.p_one if bit == 1 else 1.0 - d1_row.p_one
        assert p_correct == pytest.approx(helstrom, abs=1e-12)


@pytest.mark.parametrize("loss,dark", [(0.0, 0.01), (0.0, 0.03), (0.2, 0.01), (0.5, 0.1)])
def test_law_multi_rate_matches_dark_model(loss, dark):
    channel = ChannelConfig(loss_rate=loss, dark_rate=dark)
    multi = _probability(AttackConfig.none(), channel, lambda *cell: cell[5])
    assert multi == pytest.approx(expected_multi_rate(dark, loss), abs=1e-12)


@pytest.mark.parametrize("p,strategy,d1_weight", [
    *((p, FakeStrategy.RANDOM_QUARTER, Fraction(1, 4)) for p in (0.2, 0.4, 0.8, 1.0)),
    # at p = 1 the D2-only fake announces no D1 at all, so e is undefined
    *((p, FakeStrategy.ALWAYS_D2, Fraction(0)) for p in (0.2, 0.4, 0.8)),
])
@pytest.mark.parametrize("target", [AttackTarget.RANDOM, AttackTarget.B])
def test_single_path_law_matches_exact_enumeration(p, strategy, d1_weight, target):
    attack = AttackConfig.alice_single_path(p, strategy, target)
    exact_e, exact_bias = _exact_single_path_merits(
        Fraction(p), d1_weight, split=target is AttackTarget.RANDOM
    )
    if strategy is FakeStrategy.RANDOM_QUARTER:
        assert exact_e == Fraction(p) / 2
    assert _error_rate(attack, ChannelConfig()) == pytest.approx(float(exact_e), abs=1e-12)
    biases = []
    for sb, sc in ((A, F), (F, A)):
        def in_cell(outcome):
            key = (sb, sc, outcome)
            return _probability(attack, ChannelConfig(), lambda *cell: cell[:3] == key)

        biases.append(abs(in_cell(Outcome.D1) - in_cell(Outcome.D2)) / 0.25)
    assert max(biases) == pytest.approx(float(exact_bias), abs=1e-12)


def test_null_probe_row_guesses_a_fair_coin():
    # a dark D1 on a lost double reflection under a zero-strength probe
    # leaves no probe amplitude
    law = outcome_law(AttackConfig.eve_probe(0.0), ChannelConfig(loss_rate=0.5, dark_rate=0.1))
    d1_rows = [r for r in law[(F, F, False)] if r.outcome is Outcome.D1]
    assert d1_rows and all(r.p_one == 0.5 for r in d1_rows)
    result = run_rounds(2_000, AttackConfig.eve_probe(0.0), ChannelConfig(0.5, 0.1), seed=3)
    ff_d1 = [
        r.round_id
        for r in result.rounds
        if (r.setting_b, r.setting_c, r.outcome_alice) == (F, F, Outcome.D1)
    ]
    assert ff_d1 and set(ff_d1) <= {e.round_id for e in result.eve_records}


def test_settings_follow_the_station_coins():
    # Bob's and Charlie's settings behave as two independent fair coins:
    # the 2x2 settings table fits the product law, and Pearson's
    # independence statistic on its own margins (1 dof) stays small
    n = 40_000
    rounds = run_rounds(n, AttackConfig.alice_single_path(0.5), seed=17).rounds
    counts = np.bincount(rounds.row_ids, minlength=len(rounds.cells))
    table = Counter()
    for cell, count in zip(rounds.cells, counts.tolist()):
        table[cell[:2]] += count
    quarter = {cell: 0.25 for cell in itertools.product((F, A), repeat=2)}
    assert_matches_law(table, quarter, n, "settings")
    (ff, fa), (af, aa) = [[table[(sb, sc)] for sc in (F, A)] for sb in (F, A)]
    statistic = n * (ff * aa - fa * af) ** 2 / ((ff + fa) * (af + aa) * (ff + af) * (fa + aa))
    assert math.erfc(math.sqrt(statistic / 2)) > 1e-4, statistic


SAMPLED = [
    ("honest", AttackConfig.none(), ChannelConfig(), 301),
    ("eve-0.3", AttackConfig.eve_probe(0.3), ChannelConfig(), 302),
    ("eve-0.6-lossy", AttackConfig.eve_probe(0.6), LOSSY, 303),
    ("single-quarter-lossy", AttackConfig.alice_single_path(0.5), LOSSY, 304),
    ("double-lossy", AttackConfig.alice_double_path(0.5), LOSSY, 305),
]


@pytest.mark.parametrize("label,attack,channel,seed", SAMPLED, ids=[s[0] for s in SAMPLED])
def test_bulk_sampler_draws_from_the_law(label, attack, channel, seed):
    n = 40_000
    result = run_rounds(n, attack, channel, seed=seed)
    assert_matches_law(tabulate(result.rounds), outcome_table(attack, channel), n, label)
    if channel.dark_rate == 0.0:
        # without dark counts every D1 round carries the probe, if any
        d1 = sum(r.outcome_alice is Outcome.D1 for r in result.rounds)
        assert len(result.eve_records) == (d1 if attack.kind is AttackKind.EVE_PROBE else 0)


def _reference_round(sb, sc, attack, channel, rng):
    """One unattacked round through the per-round primitives."""
    state = transmit_onward(emit(), attack)
    state, absorbed_b = apply_party_action(state, Arm.B, sb, rng)
    state, absorbed_c = apply_party_action(state, Arm.C, sc, rng)
    state = return_leg(state)
    if absorbed_b or absorbed_c:
        zeros = (0j,) * state.probe_dim
        amp_d1, amp_d2 = zeros, zeros
    else:
        amp_d1, amp_d2 = recombine_at_bs(state)
    detection = sample_detection(amp_d1, amp_d2, channel.loss_rate, channel.dark_rate, rng)
    click_b = absorbed_b or (sb is A and rng.random() < channel.dark_rate)
    click_c = absorbed_c or (sc is A and rng.random() < channel.dark_rate)
    multi = detection.click_count + click_b + click_c >= 2
    return (sb, sc, detection.outcome, click_b, click_c, multi)


def test_per_round_primitives_follow_the_law():
    attack, channel = AttackConfig.eve_probe(0.6), LOSSY
    rng = rng_with(306)
    n = 20_000
    cells = [(F, F), (F, A), (A, F), (A, A)]
    observed = Counter(
        _reference_round(*cells[int(i)], attack, channel, rng) for i in rng.integers(0, 4, n)
    )
    assert_matches_law(observed, outcome_table(attack, channel), n, "per-round")


_PROBED_FF = recombine_at_bs(attach_eve_probe(emit(), 0.6))
_PROBE = EveProbePair(0.4, probe_branch_vectors(0.4)[0])
#: Each per-round sampler as (one draw, the branch list it draws from).
SAMPLERS = {
    "apply_party_action": (
        lambda rng: apply_party_action(emit(), Arm.B, A, rng),
        party_action_branches(emit(), Arm.B, A),
    ),
    "sample_detection": (
        lambda rng: sample_detection(*_PROBED_FF, 0.2, 0.1, rng),
        detection_branches(*_PROBED_FF, 0.2, 0.1),
    ),
    "helstrom_guess": (
        lambda rng: helstrom_guess(_PROBE, rng),
        [(helstrom_p_one(_PROBE), 1), (1.0 - helstrom_p_one(_PROBE), 0)],
    ),
    "alice_single_path": (
        lambda rng: alice_single_path(FakeStrategy.RANDOM_QUARTER, True, rng),
        single_path_branches(FakeStrategy.RANDOM_QUARTER, True),
    ),
    "alice_double_path": (
        lambda rng: alice_double_path(A, F, rng),
        honest_outcome_branches(A, F),
    ),
}


@pytest.mark.parametrize("name", SAMPLERS)
def test_sampler_draws_from_its_branch_list(name):
    draw, branches = SAMPLERS[name]
    rng = rng_with(307)
    n = 4_000
    assert_matches_law(Counter(draw(rng) for _ in range(n)), branch_law(branches), n, name)
