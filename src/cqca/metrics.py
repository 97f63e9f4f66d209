"""Estimators for the protocol's figures of merit and the abort decision.

The stations judge a run from the disclosed sample: the coincidence rate
among double-absorption rounds, the interference visibility under double
reflection, the announcement bias on anti-correlated settings, and the raw
key error rate among D1 announcements.  Two channel figures, the
multiple-count rate and the loss rate, are estimated from the full
announcement stream since they need no setting information.  Every
estimate reads its counts off one contingency table of the rounds over
settings, outcome, station clicks and the multiple-count flag; run on the
exact outcome law as a table of probabilities (``parties.outcome_table``,
n = 1), the same estimators give the expected values.

The abort rule has fixed tolerances.  It gates the cheating signatures
(coincidence, bias, multi count, loss) by max(``TOLERANCE_FLOOR``,
``TOLERANCE_Z`` standard errors) around their values under the honest law
of the run's channel, and gates the smoothly degrading figures (error rate
and visibility) by ``ERROR_RATE_CEILING``, the error rate beyond which no
secret key is distillable.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .analysis import error_from_visibility, security_threshold
from .channel import _LAW_CACHE_SIZE, AttackConfig, ChannelConfig
from .photonics import Action, Outcome

if TYPE_CHECKING:
    from .parties import RoundTable  # parties imports this module

#: Raw-key error rate e* at which the key rate crosses zero; the abort rule
#: enforces this ceiling on the measured error rate and on the error rate
#: implied by the measured visibility.
ERROR_RATE_CEILING = security_threshold()[1]
#: A signature gate fails a figure that deviates from its honest value by
#: more than max(TOLERANCE_FLOOR, TOLERANCE_Z * its standard error).
TOLERANCE_FLOOR = 0.02
TOLERANCE_Z = 4.0


class InsufficientSample(ValueError):
    """The disclosed sample has no rounds in a required conditional cell."""


@dataclass(frozen=True, slots=True)
class Verdict:
    key_produced: bool
    abort_reasons: tuple[str, ...] = ()

    def __str__(self) -> str:
        if self.key_produced:
            return "KeyProduced"
        return f"Aborted({','.join(self.abort_reasons)})"


@dataclass(frozen=True, slots=True)
class MeritReport:
    """Point estimates of all figures of merit plus their sample counts."""

    n: int
    coincidence_rate: float
    visibility: float
    bias: float
    error_rate: float
    multi_rate: float
    loss_rate: float
    counts: dict[str, int] = field(default_factory=dict)


def tabulate(rounds: RoundTable) -> Counter:
    """Count the rounds in each contingency cell (setting_b, setting_c,
    outcome_alice, click_b, click_c, multi_count): one count over a round
    table's row ids, folded onto its cells.  Every estimate below reads its
    counts off such a table."""
    table = Counter()
    counts = np.bincount(rounds.row_ids, minlength=len(rounds.cells)).tolist()
    for cell, k in zip(rounds.cells, counts):
        if k:
            table[cell] += k
    return table


def _coincidence_rate(table: Mapping) -> float:
    cell = both = 0
    for (setting_b, setting_c, _, click_b, click_c, _), k in table.items():
        if setting_b is Action.A and setting_c is Action.A:
            cell += k
            if click_b and click_c:
                both += k
    if not cell:
        raise InsufficientSample("no disclosed (A,A) rounds")
    return both / cell


def _visibility(table: Mapping) -> float:
    n1 = n2 = 0
    for (setting_b, setting_c, outcome, *_), k in table.items():
        if setting_b is Action.F and setting_c is Action.F:
            if outcome is Outcome.D1:
                n1 += k
            elif outcome is Outcome.D2:
                n2 += k
    if n1 + n2 == 0:
        raise InsufficientSample("no disclosed (F,F) rounds with a click")
    return (n2 - n1) / (n1 + n2)


def _anti_correlated_cells(table: Mapping) -> list[list]:
    """[rounds, D1, D2] in each anti-correlated settings cell."""
    cells = {(Action.A, Action.F): [0, 0, 0], (Action.F, Action.A): [0, 0, 0]}
    for (setting_b, setting_c, outcome, *_), k in table.items():
        counts = cells.get((setting_b, setting_c))
        if counts is not None:
            counts[0] += k
            if outcome is Outcome.D1:
                counts[1] += k
            elif outcome is Outcome.D2:
                counts[2] += k
    return list(cells.values())


def _bias(table: Mapping) -> float:
    diffs = [abs(n1 - n2) / total for total, n1, n2 in _anti_correlated_cells(table) if total > 0]
    if not diffs:
        raise InsufficientSample("no disclosed anti-correlated rounds")
    return max(diffs)


def _error_rate(table: Mapping) -> float:
    d1_rounds = corr = 0
    for (setting_b, setting_c, outcome, *_), k in table.items():
        if outcome is Outcome.D1:
            d1_rounds += k
            if setting_b is setting_c:
                corr += k
    if d1_rounds == 0:
        raise InsufficientSample("no disclosed D1 rounds")
    return corr / d1_rounds


def _null_fraction(table: Mapping, n: float) -> float:
    return sum(k for cell, k in table.items() if cell[2] is Outcome.NULL) / n


def _multi_and_loss_rates(table: Mapping, n: float) -> tuple[float, float]:
    """The loss estimate inverts the dark-free honest NULL law (1 + L)/2,
    clamped to [0, 1]; dark clicks announce some NULL rounds, so on a
    dark-counting channel its honest expectation lies below L."""
    multi = sum(k for cell, k in table.items() if cell[5])
    loss = min(1.0, max(0.0, 2.0 * _null_fraction(table, n) - 1.0))
    return multi / n, loss


def expected_multi_rate(dark_rate: float, loss_rate: float = 0.0) -> float:
    """Honest multiple-count rate implied by the dark-count model, in
    closed form: the independent reference the outcome law is tested against.

    Each active detector (both source ports always; a station detector only
    when that station absorbs) fires independently with the dark rate when
    it holds no real click.  Averaged over the four equally likely setting
    cells.
    """
    d = dark_rate
    keep = 1.0 - loss_rate

    def at_least_one(k: int) -> float:
        return 1.0 - (1.0 - d) ** k

    def at_least_two_of_three() -> float:
        return 1.0 - (1.0 - d) ** 3 - 3.0 * d * (1.0 - d) ** 2

    # (F,F): real click at a source port unless lost; station detectors idle.
    p_ff = keep * at_least_one(1) + loss_rate * d * d
    # anti-correlated: absorbed half leaves the station click plus two free
    # source ports; the surviving half leaves one free port and the free
    # station detector, or three free detectors if the photon was lost.
    p_anti = 0.5 * at_least_one(2) + 0.5 * (
        keep * at_least_one(2) + loss_rate * at_least_two_of_three()
    )
    # (A,A): exactly one station click, three free detectors.
    p_aa = at_least_one(3)
    return (p_ff + 2.0 * p_anti + p_aa) / 4.0


_CELL_COUNTS = {(Action.A, Action.A): "aa", (Action.A, Action.F): "af", (Action.F, Action.A): "fa"}


_FIGURES = (
    ("coincidence_rate", _coincidence_rate),
    ("visibility", _visibility),
    ("bias", _bias),
    ("error_rate", _error_rate),
)


def table_merits(
    table: Mapping, stream: Mapping, n: float, partial: bool = False
) -> dict[str, float]:
    """Every figure of merit read off the contingency tables of the disclosed
    rounds and of the full stream of n rounds; on tables of probabilities
    (n = 1) they are expected values.  A figure whose conditional cell is
    empty raises ``InsufficientSample``, or is left out when ``partial``."""
    merits = {}
    for name, estimate in _FIGURES:
        try:
            merits[name] = estimate(table)
        except InsufficientSample:
            if not partial:
                raise
    merits["multi_rate"], merits["loss_rate"] = _multi_and_loss_rates(stream, n)
    return merits


def compute_merit_report(disclosed: RoundTable, all_rounds: RoundTable, n: int) -> MeritReport:
    """Estimate every figure of merit from a disclosed sample plus the full
    announcement stream, each tabulated once."""
    table = tabulate(disclosed)
    stream = table if all_rounds is disclosed else tabulate(all_rounds)

    counts = {"disclosed": 0, "aa": 0, "ff_clicks": 0, "af": 0, "fa": 0, "d1": 0}
    for (setting_b, setting_c, outcome, *_), k in table.items():
        counts["disclosed"] += k
        if setting_b is Action.F and setting_c is Action.F:
            if outcome is not Outcome.NULL:
                counts["ff_clicks"] += k
        else:
            counts[_CELL_COUNTS[setting_b, setting_c]] += k
        if outcome is Outcome.D1:
            counts["d1"] += k
    return MeritReport(n=n, counts=counts, **table_merits(table, stream, n))


def _binom_sigma(p: float, m: int) -> float:
    if m <= 0:
        return float("inf")
    return math.sqrt(max(p * (1.0 - p), 0.0) / m)


@dataclass(frozen=True, slots=True)
class _HonestBaseline:
    """What the abort gates read off the honest law of one channel: the
    expected figures of merit, the per-round variance of an anti-correlated
    cell's (n1 - n2)/m, and the NULL fraction."""

    expected: Mapping[str, float]
    bias_variance: float
    null_fraction: float


@functools.lru_cache(maxsize=_LAW_CACHE_SIZE)
def _honest_baseline(channel_cfg: ChannelConfig) -> _HonestBaseline:
    from .parties import outcome_table  # parties imports this module

    honest = outcome_table(AttackConfig.none(), channel_cfg)
    # A cell's D1 and D2 counts are multinomial: Var((n1 - n2)/m) is
    # (p1 + p2 - (p1 - p2)^2)/m.  The honest law treats both cells alike.
    total, n1, n2 = map(sum, zip(*_anti_correlated_cells(honest)))
    p1, p2 = n1 / total, n2 / total
    return _HonestBaseline(
        expected=MappingProxyType(table_merits(honest, honest, 1)),
        bias_variance=p1 + p2 - (p1 - p2) ** 2,
        null_fraction=_null_fraction(honest, 1),
    )


def abort_decision(report: MeritReport, channel_cfg: ChannelConfig = ChannelConfig()) -> Verdict:
    """Judge a merit report by the fixed abort rule.

    Fails a signature figure when it deviates from its value under the
    honest law of ``channel_cfg`` by more than max(TOLERANCE_FLOOR,
    TOLERANCE_Z * sigma); the error rate and the visibility are instead
    gated by ``ERROR_RATE_CEILING``, since they degrade smoothly and stay
    acceptable while a positive key rate survives.  The honest baseline is
    derived once per channel.
    """
    baseline = _honest_baseline(channel_cfg)
    expected = baseline.expected

    def deviates(figure: str, sigma: float) -> bool:
        tolerance = max(TOLERANCE_FLOOR, TOLERANCE_Z * sigma)
        return abs(getattr(report, figure) - expected[figure]) > tolerance

    counts = report.counts
    coincidence_sigma = _binom_sigma(expected["coincidence_rate"], counts.get("aa", 0))
    m_cell = min(counts.get("af", 0), counts.get("fa", 0))
    bias_sigma = math.sqrt(baseline.bias_variance / m_cell) if m_cell > 0 else math.inf
    multi_sigma = _binom_sigma(expected["multi_rate"], report.n)
    # The loss estimate is 2 * (NULL fraction) - 1, twice a binomial rate.
    loss_sigma = 2.0 * _binom_sigma(baseline.null_fraction, report.n)
    gates = (
        ("coincidence", deviates("coincidence_rate", coincidence_sigma)),
        ("visibility", error_from_visibility(report.visibility) >= ERROR_RATE_CEILING),
        ("bias", deviates("bias", bias_sigma)),
        ("errorRate", report.error_rate >= ERROR_RATE_CEILING),
        ("multiRate", deviates("multi_rate", multi_sigma)),
        ("lossRate", deviates("loss_rate", loss_sigma)),
    )
    failures = tuple(reason for reason, failed in gates if failed)
    return Verdict(key_produced=not failures, abort_reasons=failures)


#: Each figure of merit's report field and printed label, in report order.
LABELS = (
    ("coincidence_rate", "kappa"),
    ("visibility", "visibility"),
    ("bias", "bias"),
    ("error_rate", "errorRate"),
    ("multi_rate", "r"),
    ("loss_rate", "lambda"),
)
CSV_HEADER = ",".join(("n", *(label for _, label in LABELS), "verdict"))


def report_csv_row(report: MeritReport, verdict: Verdict) -> str:
    verdict_text = "pass" if verdict.key_produced else "abort:" + "+".join(verdict.abort_reasons)
    figures = ",".join(f"{getattr(report, key):.12g}" for key, _ in LABELS)
    return f"{report.n},{figures},{verdict_text}"


def report_text_block(
    report: MeritReport, verdict: Verdict, expected: dict[str, float] | None = None
) -> str:
    """Flat key-value rendering, with each expected value given beside its
    estimate."""
    lines = [f"n = {report.n}"]
    for key, label in LABELS:
        line = f"{label} = {getattr(report, key):.6f}"
        if expected is not None and key in expected:
            line += f"    (expected {expected[key]:.6f})"
        lines.append(line)
    for key, value in sorted(report.counts.items()):
        lines.append(f"count_{key} = {value}")
    lines.append(f"verdict = {verdict}")
    return "\n".join(lines)
