"""Estimators for the protocol's figures of merit and the abort decision.

The stations judge a run from the disclosed sample: the coincidence rate
among double-absorption rounds, the interference visibility under double
reflection, the announcement bias on anti-correlated settings, and the raw
key error rate among D1 announcements.  Two channel figures, the
multiple-count rate and the loss rate, are estimated from the full
announcement stream since they need no setting information.  Every
estimate reads its counts off one contingency table of the rounds over
settings, outcome, station clicks and the multiple-count flag.

The abort policy gates the cheating signatures (coincidence, bias, multi
count, loss) by a statistical tolerance around their expected values, and
gates the smoothly degrading figures (error rate and visibility) by the
security ceiling on the error rate beyond which no secret key is
distillable.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable

from .analysis import error_from_visibility, security_threshold
from .photonics import Action, Outcome

#: Raw-key error rate e* at which the key rate crosses zero; the abort rule
#: enforces this ceiling on the measured error rate and on the error rate
#: implied by the measured visibility.
ERROR_RATE_CEILING = security_threshold()[1]


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
class TolerancePolicy:
    """Abort tolerances.  ``floor`` is an absolute deviation allowance,
    ``z`` scales the binomial standard error of each estimate, and the
    expected_* fields carry the channel-derived baselines the estimates are
    compared against."""

    floor: float = 0.02
    z: float = 4.0
    error_ceiling: float = ERROR_RATE_CEILING
    expected_coincidence: float = 0.0
    expected_multi: float = 0.0
    expected_loss: float = 0.0


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


#: A round's contingency cell: (setting_b, setting_c, outcome_alice,
#: click_b, click_c, multi_count).
_CELL_OF = attrgetter(
    "setting_b", "setting_c", "outcome_alice", "click_b", "click_c", "multi_count"
)


def tabulate(rounds: Iterable) -> Counter:
    """Count the rounds in each contingency cell, in one pass.  Every
    estimate below reads its counts off such a table."""
    return Counter(map(_CELL_OF, rounds))


def _coincidence_rate(table: Counter) -> float:
    cell = both = 0
    for (setting_b, setting_c, _, click_b, click_c, _), k in table.items():
        if setting_b is Action.A and setting_c is Action.A:
            cell += k
            if click_b and click_c:
                both += k
    if not cell:
        raise InsufficientSample("no disclosed (A,A) rounds")
    return both / cell


def _visibility(table: Counter) -> float:
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


def _bias(table: Counter) -> float:
    cells = {(Action.A, Action.F): [0, 0, 0], (Action.F, Action.A): [0, 0, 0]}
    for (setting_b, setting_c, outcome, *_), k in table.items():
        counts = cells.get((setting_b, setting_c))
        if counts is not None:
            counts[0] += k
            if outcome is Outcome.D1:
                counts[1] += k
            elif outcome is Outcome.D2:
                counts[2] += k
    diffs = [abs(n1 - n2) / total for total, n1, n2 in cells.values() if total > 0]
    if not diffs:
        raise InsufficientSample("no disclosed anti-correlated rounds")
    return max(diffs)


def _error_rate(table: Counter) -> float:
    d1_rounds = corr = 0
    for (setting_b, setting_c, outcome, *_), k in table.items():
        if outcome is Outcome.D1:
            d1_rounds += k
            if setting_b is setting_c:
                corr += k
    if d1_rounds == 0:
        raise InsufficientSample("no disclosed D1 rounds")
    return corr / d1_rounds


def _multi_and_loss_rates(table: Counter, n: int) -> tuple[float, float]:
    multi = sum(k for cell, k in table.items() if cell[5])
    nulls = sum(k for cell, k in table.items() if cell[2] is Outcome.NULL)
    null_fraction = nulls / n
    loss = min(1.0, max(0.0, 2.0 * null_fraction - 1.0))
    return multi / n, loss


def estimate_coincidence_rate(sample: Iterable) -> float:
    """Fraction of disclosed double-absorption rounds with clicks at both
    station detectors.  Honest expectation: 0 (exactly one click)."""
    return _coincidence_rate(tabulate(sample))


def estimate_visibility(sample: Iterable) -> float:
    """Interference contrast on disclosed double-reflection rounds:
    (N_D2 - N_D1) / (N_D1 + N_D2).  Honest expectation: 1."""
    return _visibility(tabulate(sample))


def estimate_bias(sample: Iterable) -> float:
    """Largest |P(D1|cell) - P(D2|cell)| over the two anti-correlated
    setting cells, with each probability taken per disclosed cell round so
    the honest values sit at 1/4 each.  Honest expectation: 0."""
    return _bias(tabulate(sample))


def estimate_error_rate(sample: Iterable) -> float:
    """Fraction of disclosed D1 rounds whose settings were correlated
    (both reflect or both absorb).  Honest expectation: 0."""
    return _error_rate(tabulate(sample))


def estimate_multi_and_loss_rates(rounds: Iterable, n: int) -> tuple[float, float]:
    """Channel figures from the full announcement stream.

    The multi rate is the fraction of rounds with two or more clicks across
    all detectors.  The loss estimate inverts the honest NULL law: with
    aggregate loss L the NULL fraction is (1 + L)/2, so L = 2*null - 1,
    clamped to [0, 1].
    """
    return _multi_and_loss_rates(tabulate(rounds), n)


def expected_multi_rate(dark_rate: float, loss_rate: float = 0.0) -> float:
    """Honest multiple-count rate implied by the dark-count model.

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


def compute_merit_report(disclosed: Iterable, all_rounds: Iterable, n: int) -> MeritReport:
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
    multi_rate, loss_rate = _multi_and_loss_rates(stream, n)
    return MeritReport(
        n=n,
        coincidence_rate=_coincidence_rate(table),
        visibility=_visibility(table),
        bias=_bias(table),
        error_rate=_error_rate(table),
        multi_rate=multi_rate,
        loss_rate=loss_rate,
        counts=counts,
    )


def _binom_sigma(p: float, m: int) -> float:
    if m <= 0:
        return float("inf")
    return math.sqrt(max(p * (1.0 - p), 0.0) / m)


def abort_decision(report: MeritReport, policy: TolerancePolicy) -> Verdict:
    """Apply the tolerance policy to a merit report.

    Fails a figure when it deviates from its expected value by more than
    max(floor, z * binomial sigma); the error rate and the visibility are
    instead gated by the security ceiling, since they degrade smoothly and
    stay acceptable as long as a positive key rate survives.
    """
    failures = []
    counts = report.counts
    tol = max(
        policy.floor,
        policy.z * _binom_sigma(policy.expected_coincidence, counts.get("aa", 0)),
    )
    if abs(report.coincidence_rate - policy.expected_coincidence) > tol:
        failures.append("coincidence")
    if error_from_visibility(report.visibility) >= policy.error_ceiling:
        failures.append("visibility")
    m_cell = min(counts.get("af", 0), counts.get("fa", 0))
    sigma_bias = math.sqrt(2.0 * 0.25 * 0.75 / m_cell) if m_cell > 0 else float("inf")
    if report.bias > max(policy.floor, policy.z * sigma_bias):
        failures.append("bias")
    if report.error_rate >= policy.error_ceiling:
        failures.append("errorRate")
    tol = max(policy.floor, policy.z * _binom_sigma(policy.expected_multi, report.n))
    if abs(report.multi_rate - policy.expected_multi) > tol:
        failures.append("multiRate")
    null_expected = (1.0 + policy.expected_loss) / 2.0
    tol = max(policy.floor, policy.z * 2.0 * _binom_sigma(null_expected, report.n))
    if abs(report.loss_rate - policy.expected_loss) > tol:
        failures.append("lossRate")
    return Verdict(key_produced=not failures, abort_reasons=tuple(failures))


CSV_HEADER = "n,kappa,visibility,bias,errorRate,r,lambda,verdict"


def report_csv_row(report: MeritReport, verdict: Verdict) -> str:
    verdict_text = "pass" if verdict.key_produced else "abort:" + "+".join(verdict.abort_reasons)
    return (
        f"{report.n},{report.coincidence_rate:.12g},{report.visibility:.12g},"
        f"{report.bias:.12g},{report.error_rate:.12g},{report.multi_rate:.12g},"
        f"{report.loss_rate:.12g},{verdict_text}"
    )


def report_text_block(
    report: MeritReport, verdict: Verdict, expected: dict[str, float] | None = None
) -> str:
    """Flat key-value rendering, with expected values beside the estimates
    when closed forms are available."""
    rows = [
        ("kappa", report.coincidence_rate, "coincidence_rate"),
        ("visibility", report.visibility, "visibility"),
        ("bias", report.bias, "bias"),
        ("errorRate", report.error_rate, "error_rate"),
        ("r", report.multi_rate, "multi_rate"),
        ("lambda", report.loss_rate, "loss_rate"),
    ]
    lines = [f"n = {report.n}"]
    for label, value, key in rows:
        line = f"{label} = {value:.6f}"
        if expected is not None and key in expected:
            line += f"    (expected {expected[key]:.6f})"
        lines.append(line)
    for key, value in sorted(report.counts.items()):
        lines.append(f"count_{key} = {value}")
    lines.append(f"verdict = {verdict}")
    return "\n".join(lines)
