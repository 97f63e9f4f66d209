"""Acceptance suite.

Each test checks one acceptance criterion at its stated tolerance and
prints a `[PASS]`/`[FAIL]` line (run with `pytest -s` to see every line).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import _exact_single_path_merits, binom_sigma, rng_with

from cqca.adversary import empirical_mutual_information
from cqca.analysis import (
    binary_entropy,
    error_rate_theory,
    eve_probe_density_matrix,
    holevo_bound,
    security_threshold,
    sweep_security_curve,
    visibility_theory,
    von_neumann_entropy,
)
from cqca.channel import AttackConfig, ChannelConfig, FakeStrategy
from cqca.metrics import compute_merit_report
from cqca.parties import run_protocol, run_rounds
from cqca.photonics import (
    Action,
    Outcome,
    emit,
    recombine_at_bs,
)

N_FULL = 100_000


def _report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    return ok


@pytest.fixture(scope="module")
def honest_run():
    start = time.perf_counter()
    result = run_rounds(N_FULL, seed=20_001)
    elapsed = time.perf_counter() - start
    return result.rounds, elapsed


def _cell_stats(rounds, setting_b, setting_c):
    cell = [r for r in rounds if r.setting_b is setting_b and r.setting_c is setting_c]
    m = len(cell)
    freq = {
        tag: sum(1 for r in cell if r.outcome_alice is tag) / m
        for tag in (Outcome.D1, Outcome.D2, Outcome.NULL)
    }
    return freq, m


def test_criterion_1_outcome_table(honest_run):
    rounds, elapsed = honest_run
    checks = []

    # exact amplitude statement: the dark port is strictly empty under (F,F)
    amp_d1, _ = recombine_at_bs(emit())
    checks.append(sum(abs(z) ** 2 for z in amp_d1) == 0.0)

    ff, m_ff = _cell_stats(rounds, Action.F, Action.F)
    checks.append(ff[Outcome.D1] == 0.0)
    checks.append(ff[Outcome.D2] == 1.0)

    for sb, sc in ((Action.A, Action.F), (Action.F, Action.A)):
        freq, m = _cell_stats(rounds, sb, sc)
        checks.append(abs(freq[Outcome.D1] - 0.25) <= 3 * binom_sigma(0.25, m))
        checks.append(abs(freq[Outcome.D2] - 0.25) <= 3 * binom_sigma(0.25, m))
        checks.append(abs(freq[Outcome.NULL] - 0.5) <= 3 * binom_sigma(0.5, m))

    aa, m_aa = _cell_stats(rounds, Action.A, Action.A)
    checks.append(aa[Outcome.NULL] == 1.0)
    checks.append(elapsed < 10.0)

    ok = all(checks)
    assert _report(
        "criterion 1 outcome-table reproduction",
        ok,
        f"P(D2|FF)={ff[Outcome.D2]:.4f}, P(NULL|AA)={aa[Outcome.NULL]:.4f}, "
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_2_sift_efficiency(honest_run):
    rounds, _ = honest_run
    d1_fraction = sum(r.outcome_alice is Outcome.D1 for r in rounds) / len(rounds)
    tol = 3 * binom_sigma(0.125, len(rounds))
    ok = abs(d1_fraction - 0.125) <= tol
    assert _report(
        "criterion 2 sift efficiency 1/8",
        ok,
        f"P(D1)={d1_fraction:.5f} vs 0.125 +- {tol:.5f}",
    )


def test_criterion_3_sifted_key_length():
    n, f = 40_000, 0.25
    transcript = run_protocol(n, f, seed=20_003)
    kept = n - int(n * f)
    expected = kept / 8
    sigma = math.sqrt(kept * (1 / 8) * (7 / 8))
    length_ok = abs(len(transcript.key_bob) - expected) <= 3 * sigma
    agree_ok = transcript.key_bob == transcript.key_charlie and transcript.verdict.key_produced
    ok = length_ok and agree_ok
    assert _report(
        "criterion 3 sifted-key length and agreement",
        ok,
        f"length {len(transcript.key_bob)} vs {expected:.0f} +- {3 * sigma:.0f}, "
        f"keys identical: {transcript.key_bob == transcript.key_charlie}",
    )


def test_criterion_4_probe_attack_statistics():
    failures = []
    for theta in (0.1, 0.2, 0.3, 0.4):
        result = run_rounds(N_FULL, AttackConfig.eve_probe(theta), seed=20_004)
        rounds = result.rounds
        report = compute_merit_report(rounds, rounds, N_FULL)

        v_theory = visibility_theory(theta)
        m_ff = report.counts["ff_clicks"]
        sigma_v = 2 * binom_sigma((1 - v_theory) / 2, m_ff)
        if abs(report.visibility - v_theory) > 3 * sigma_v:
            failures.append(f"V(theta={theta})={report.visibility:.4f} vs {v_theory:.4f}")

        e_theory = error_rate_theory(theta)
        sigma_e = binom_sigma(e_theory, report.counts["d1"])
        if abs(report.error_rate - e_theory) > 3 * sigma_e:
            failures.append(f"e(theta={theta})={report.error_rate:.4f} vs {e_theory:.4f}")

        for sb, sc, label in ((Action.A, Action.F, "AF"), (Action.F, Action.A, "FA")):
            freq, m = _cell_stats(rounds, sb, sc)
            if abs(freq[Outcome.D1] - 0.25) > 3 * binom_sigma(0.25, m):
                failures.append(f"P(D1|{label}, theta={theta})={freq[Outcome.D1]:.4f}")
    ok = not failures
    assert _report(
        "criterion 4 probe-attack statistics match closed forms",
        ok,
        "; ".join(failures) if failures else "V, e, and sift rates agree for theta in {0.1..0.4}",
    )


def test_criterion_5_security_threshold():
    start = time.perf_counter()
    theta_star, e_star = security_threshold()
    elapsed = time.perf_counter() - start
    ok = 0.41 <= theta_star <= 0.43 and 0.140 <= e_star <= 0.145 and elapsed < 1.0
    assert _report(
        "criterion 5 security threshold",
        ok,
        f"theta*={theta_star:.10f}, e*={e_star:.10f}, runtime {elapsed * 1000:.1f}ms",
    )


def test_criterion_6_probe_spectrum():
    rng = rng_with(20_006)
    worst_eig = worst_third = worst_entropy = 0.0
    for theta in rng.uniform(0.0, math.pi / 2, size=100):
        rho = eve_probe_density_matrix(theta)
        vals = np.linalg.eigvalsh(rho)
        cos2t = math.cos(2 * theta)
        e1, e2 = (1 - cos2t) / 4, (3 + cos2t) / 4
        worst_eig = max(worst_eig, abs(vals[1] - e1), abs(vals[2] - e2))
        worst_third = max(worst_third, abs(vals[0]))
        worst_entropy = max(worst_entropy, abs(von_neumann_entropy(rho) - binary_entropy(e1)))
    ok = worst_eig < 1e-10 and worst_third < 1e-10 and worst_entropy < 1e-10
    assert _report(
        "criterion 6 probe spectrum vs closed forms",
        ok,
        f"max |eig err|={worst_eig:.2e}, |third|={worst_third:.2e}, "
        f"|entropy err|={worst_entropy:.2e}",
    )


def test_criterion_7a_single_path_quarter_fake_error_rate():
    # each faked D1 errs iff the unprobed station reflected, so e = p/2
    # exactly; p/8 is the per-round rate of faked D1 announcements, not e
    failures = []
    details = []
    for p, seed in ((0.2, 20_071), (0.8, 20_072)):
        exact_e, _ = _exact_single_path_merits(Fraction(p), Fraction(1, 4), split=True)
        assert exact_e == Fraction(p) / 2
        expected = float(exact_e)
        result = run_rounds(N_FULL, AttackConfig.alice_single_path(p), seed=seed)
        report = compute_merit_report(result.rounds, result.rounds, N_FULL)
        tol = 3 * binom_sigma(expected, report.counts["d1"])
        details.append(f"p={p}: e={report.error_rate:.4f} vs {expected:.4f} +- {tol:.4f}")
        if abs(report.error_rate - expected) > tol:
            failures.append(p)
    ok = not failures
    assert _report(
        "criterion 7a single-path quarter-fake error rate e = p/2",
        ok,
        "; ".join(details),
    )


def test_criterion_7b_single_path_suppressed_d1():
    p = 0.4
    result = run_rounds(N_FULL, AttackConfig.alice_single_path(p, FakeStrategy.ALWAYS_D2), seed=20_073)
    report = compute_merit_report(result.rounds, result.rounds, N_FULL)
    m_cell = min(report.counts["af"], report.counts["fa"])
    sigma_b = math.sqrt(2 * 0.25 * 0.75 / m_cell)
    e_ok = report.error_rate <= 3 * binom_sigma(0.01, report.counts["d1"])
    bias_ok = abs(report.bias - p / 2) <= 3 * sigma_b
    ok = e_ok and bias_ok
    assert _report(
        "criterion 7b single-path D2-only fake: e ~ 0 and B = p/2",
        ok,
        f"e={report.error_rate:.5f}, B={report.bias:.4f} vs {p / 2:.4f} +- {3 * sigma_b:.4f}",
    )


def test_criterion_7c_double_path_coincidences_abort():
    p = 0.5
    result = run_rounds(60_000, AttackConfig.alice_double_path(p), seed=20_074)
    report = compute_merit_report(result.rounds, result.rounds, 60_000)
    kappa_ok = abs(report.coincidence_rate - p) <= 3 * binom_sigma(p, report.counts["aa"])
    transcript = run_protocol(20_000, 0.25, attack=AttackConfig.alice_double_path(p), seed=20_075)
    abort_ok = (
        not transcript.verdict.key_produced
        and "coincidence" in transcript.verdict.abort_reasons
    )
    ok = kappa_ok and abort_ok
    assert _report(
        "criterion 7c double-path coincidence rate and abort",
        ok,
        f"kappa={report.coincidence_rate:.4f} vs {p}, verdict={transcript.verdict}",
    )


def test_criterion_8_holevo_dominance():
    violations = []
    for theta in np.linspace(0.05, math.pi / 2, 20):
        result = run_rounds(20_000, AttackConfig.eve_probe(float(theta)), seed=20_008)
        mi, sigma, m = empirical_mutual_information(result.eve_records)
        chi = holevo_bound(float(theta))
        if mi > chi + 3 * sigma:
            violations.append(f"theta={theta:.3f}: MI={mi:.4f} > chi={chi:.4f} (m={m})")
    ok = not violations
    assert _report(
        "criterion 8 extracted information never exceeds the Holevo bound",
        ok,
        "; ".join(violations) if violations else "20-point grid dominated",
    )


def test_criterion_9_security_curve_reproduction():
    grid = np.linspace(0.0, math.pi / 2, 200).tolist()
    points = sweep_security_curve(grid)
    i_bc = [pt.i_bc for pt in points]
    chi = [pt.chi for pt in points]
    monotone = all(b <= a + 1e-12 for a, b in zip(i_bc, i_bc[1:])) and all(
        b >= a - 1e-12 for a, b in zip(chi, chi[1:])
    )
    signs = [pt.key_rate > 0 for pt in points]
    crossings = [i for i, (a, b) in enumerate(zip(signs, signs[1:])) if a != b]
    theta_star, _ = security_threshold()
    single_crossing = len(crossings) == 1 and (
        grid[crossings[0]] <= theta_star <= grid[crossings[0] + 1]
    )
    ok = monotone and single_crossing
    assert _report(
        "criterion 9 security curves: falling I_BC, rising chi, one crossing",
        ok,
        f"crossing bracket around theta*={theta_star:.4f}"
        if ok
        else f"monotone={monotone}, crossings={len(crossings)}",
    )
