"""Estimators for the protocol's figures of merit and the abort decision.

The stations judge a run from the disclosed sample: the coincidence rate
among double-absorption rounds, the interference visibility under double
reflection, the announcement bias on anti-correlated settings, and the raw
key error rate among D1 announcements.  Two channel figures, the
multiple-count rate and the loss rate, are estimated from the full
announcement stream since they need no setting information.  Every
estimate is arithmetic on a few integer tallies (``TALLIES``), each a sum
over contingency cells (settings, outcome, station clicks and the
multiple-count flag).  A sample's tallies are one product of its cell
layout's tally matrix with its count per cell; summed over the exact
outcome law as probabilities (``law.outcome_table``, n = 1), the same
tallies give the expected values.

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
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .analysis import error_from_visibility, security_threshold
from .channel import AttackConfig, ChannelConfig
from .law import _LAW_CACHE_SIZE, Cell, outcome_table
from .photonics import Action, Outcome

if TYPE_CHECKING:
    from .parties import RoundTable, RowCounts  # parties imports this module

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


_A, _F = Action.A, Action.F
_D1, _D2, _NULL = Outcome.D1, Outcome.D2, Outcome.NULL

#: The counts the figures of merit read off a sample, each a predicate on a
#: contingency cell (setting_b, setting_c, outcome_alice, click_b, click_c,
#: multi_count).  The sample's own NULL and multiple-count tallies give way
#: to the full stream's.
TALLIES = MappingProxyType({
    "disclosed": lambda cell: True,
    "aa": lambda cell: cell[:2] == (_A, _A),
    "aa_both_clicked": lambda cell: cell[:2] == (_A, _A) and cell[3] and cell[4],
    "ff_d1": lambda cell: cell[:3] == (_F, _F, _D1),
    "ff_d2": lambda cell: cell[:3] == (_F, _F, _D2),
    "ff_clicks": lambda cell: cell[:2] == (_F, _F) and cell[2] is not _NULL,
    "af": lambda cell: cell[:2] == (_A, _F),
    "af_d1": lambda cell: cell[:3] == (_A, _F, _D1),
    "af_d2": lambda cell: cell[:3] == (_A, _F, _D2),
    "fa": lambda cell: cell[:2] == (_F, _A),
    "fa_d1": lambda cell: cell[:3] == (_F, _A, _D1),
    "fa_d2": lambda cell: cell[:3] == (_F, _A, _D2),
    "d1": lambda cell: cell[2] is _D1,
    "d1_correlated": lambda cell: cell[2] is _D1 and cell[0] is cell[1],
    "null": lambda cell: cell[2] is _NULL,
    "multi": lambda cell: cell[5],
})


def tally_matrix(cells: Sequence[Cell]) -> np.ndarray:
    """Read-only 0/1 matrix of shape (tally, cell): which cells each of
    ``TALLIES`` counts, so a sample's tallies are this matrix times its
    count per cell."""
    matrix = np.array(
        [[member(cell) for cell in cells] for member in TALLIES.values()], dtype=np.int64
    )
    matrix.flags.writeable = False
    return matrix


def _figures(t: Mapping[str, float], n: float, partial: bool = False) -> dict[str, float]:
    """Every figure of merit from the tallies of a sample out of a stream of
    n rounds; on tallies of probabilities (n = 1) they are expected values.
    A figure whose conditional cell is empty raises ``InsufficientSample``,
    in report order, or is left out when ``partial``.

    The loss estimate inverts the dark-free honest NULL law (1 + L)/2,
    clamped to [0, 1]; dark clicks announce some NULL rounds, so on a
    dark-counting channel its honest expectation lies below L.
    """
    n1, n2 = t["ff_d1"], t["ff_d2"]
    anti = [(t[c], t[c + "_d1"], t[c + "_d2"]) for c in ("af", "fa")]
    figures = (
        ("coincidence_rate", t["aa"], "no disclosed (A,A) rounds",
         lambda: t["aa_both_clicked"] / t["aa"]),
        ("visibility", n1 + n2, "no disclosed (F,F) rounds with a click",
         lambda: (n2 - n1) / (n1 + n2)),
        ("bias", any(m > 0 for m, _, _ in anti), "no disclosed anti-correlated rounds",
         lambda: max(abs(d1 - d2) / m for m, d1, d2 in anti if m > 0)),
        ("error_rate", t["d1"], "no disclosed D1 rounds",
         lambda: t["d1_correlated"] / t["d1"]),
    )
    merits = {}
    for name, support, missing, value in figures:
        if support:
            merits[name] = value()
        elif not partial:
            raise InsufficientSample(missing)
    merits["multi_rate"] = t["multi"] / n
    merits["loss_rate"] = min(1.0, max(0.0, 2.0 * (t["null"] / n) - 1.0))
    return merits


def _table_tallies(table: Mapping[Cell, float]) -> dict[str, float]:
    """Each tally of a table of counts or probabilities per cell, summed in
    cell order with Python ``sum``: a float matrix product would move the
    last bits of the expected figures."""
    weights = list(table.values())
    rows = tally_matrix(tuple(table)).tolist()
    return {
        name: sum(w for w, member in zip(weights, row) if member)
        for name, row in zip(TALLIES, rows)
    }


def table_merits(
    table: Mapping[Cell, float], n: float = 1, partial: bool = False
) -> dict[str, float]:
    """Every figure of merit of a table of counts or probabilities per
    cell, itself the full stream of n rounds; on the exact outcome law
    (``law.outcome_table``, n = 1) they are expected values."""
    return _figures(_table_tallies(table), n, partial)


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


def _sample_tallies(rounds: RoundTable | RowCounts) -> dict[str, int]:
    return dict(zip(TALLIES, (rounds.layout.tallies @ rounds.row_counts()).tolist()))


def compute_merit_report(
    disclosed: RoundTable | RowCounts, all_rounds: RoundTable | RowCounts, n: int
) -> MeritReport:
    """Estimate every figure of merit from a disclosed sample plus the full
    announcement stream: each one's count per row, times its cell layout's
    tally matrix.  Each may be a table of rounds or ``parties.RowCounts``;
    only their layout and ``row_counts()`` are read."""
    tallies = _sample_tallies(disclosed)
    if all_rounds is not disclosed:
        stream = _sample_tallies(all_rounds)
        tallies["null"], tallies["multi"] = stream["null"], stream["multi"]
    counts = {name: tallies[name] for name in ("disclosed", "aa", "ff_clicks", "af", "fa", "d1")}
    return MeritReport(n=n, counts=counts, **_figures(tallies, n))


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
    t = _table_tallies(outcome_table(AttackConfig.none(), channel_cfg))
    # A cell's D1 and D2 counts are multinomial: Var((n1 - n2)/m) is
    # (p1 + p2 - (p1 - p2)^2)/m.  The honest law treats both cells alike.
    total = t["af"] + t["fa"]
    p1, p2 = (t["af_d1"] + t["fa_d1"]) / total, (t["af_d2"] + t["fa_d2"]) / total
    return _HonestBaseline(
        expected=MappingProxyType(_figures(t, 1)),
        bias_variance=p1 + p2 - (p1 - p2) ** 2,
        null_fraction=t["null"],
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
