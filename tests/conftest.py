"""Shared helpers for the statistical test suite."""

import functools
import importlib.util
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def binom_sigma(p: float, m: int) -> float:
    return math.sqrt(p * (1.0 - p) / m)


def assert_within_3sigma(observed: float, expected: float, p: float, m: int, label: str = ""):
    """Binomial 3-sigma band around the expected rate; p is the success
    probability governing the variance (usually the expected rate itself,
    but ratio estimators pass their own)."""
    tol = 3.0 * binom_sigma(p, m)
    assert abs(observed - expected) <= tol, (
        f"{label}: observed {observed:.5f} vs expected {expected:.5f} "
        f"(tolerance {tol:.5f}, m={m})"
    )


def chi_square_p_value(statistic: float, dof: int) -> float:
    """Upper tail of the chi-square law, by the Wilson-Hilferty cube-root
    normal approximation (good to a few percent of the tail at dof >= 2)."""
    if dof < 1:
        return 1.0
    scale = 2.0 / (9.0 * dof)
    z = ((statistic / dof) ** (1.0 / 3.0) - (1.0 - scale)) / math.sqrt(scale)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def assert_matches_law(
    observed: dict, expected: dict, n: int, label: str = "", alpha: float = 1e-4
):
    """Pearson goodness of fit of observed counts over n trials to an exact
    law given as probabilities per key.  A key the law gives no probability
    fails outright; keys expected fewer than five times share one bin."""
    impossible = [key for key, count in observed.items() if count and expected.get(key, 0.0) <= 0.0]
    assert not impossible, f"{label}: outcomes outside the law: {impossible}"
    bins = [(observed.get(key, 0), n * p) for key, p in expected.items() if p > 0.0]
    pooled = [(o, e) for o, e in bins if e < 5.0]
    bins = [(o, e) for o, e in bins if e >= 5.0]
    if pooled:
        bins.append((sum(o for o, _ in pooled), sum(e for _, e in pooled)))
    statistic = sum((o - e) ** 2 / e for o, e in bins)
    p_value = chi_square_p_value(statistic, len(bins) - 1)
    assert p_value > alpha, (
        f"{label}: chi-square {statistic:.1f} on {len(bins) - 1} dof, p = {p_value:.2e}"
    )


def branch_law(branches) -> dict:
    """A branch list's total probability per value, zero-probability
    branches dropped."""
    law: dict = {}
    for p, value in branches:
        if p > 0.0:
            law[value] = law.get(value, 0.0) + p
    return law


def rng_with(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _exact_single_path_merits(p: Fraction, d1_weight: Fraction, split: bool):
    """Exact decision-tree enumeration of the single-path attack.

    Returns (error rate among D1 rounds, per-cell announcement bias).  A
    probed station reflects with probability 1/2; a returned probe photon
    draws announcement D1 with weight d1_weight (else D2); a non-returned
    one forces NULL.  Honest rounds follow the ideal outcome table.
    """
    half = Fraction(1, 2)
    p_d1 = (1 - p) * Fraction(1, 8) + p * half * d1_weight
    # an error needs: attacked, probed station reflected, fake says D1,
    # unprobed station also reflected
    p_corr_d1 = p * half * d1_weight * half
    error_rate = p_corr_d1 / p_d1
    # bias in one anti-correlated cell: attacked rounds whose probed station
    # reflected always announce, redistributing the honest NULL mass
    p_eff = p / 2 if split else p
    p_d1_cell = (1 - p) * Fraction(1, 4) + p_eff * d1_weight
    p_d2_cell = (1 - p) * Fraction(1, 4) + p_eff * (1 - d1_weight)
    bias = abs(p_d1_cell - p_d2_cell)
    return error_rate, bias


def tabulate(rounds) -> Counter:
    """Count the rounds in each contingency cell (setting_b, setting_c,
    outcome_alice, click_b, click_c, multi_count), one ``RoundRecord`` at a
    time: the record-level oracle for the bulk counts and tallies."""
    return Counter(
        (r.setting_b, r.setting_c, r.outcome_alice, r.click_b, r.click_c, r.multi_count)
        for r in rounds
    )


def table_from_records(records, keyed: bool = False):
    """A ``RoundTable`` of the records in order, from each one's cell and
    sampled flag alone: a round's id is its position, and its sifted bit
    follows from ``keyed``.  The layout holds the cells in order of first
    appearance, none of them probed by Eve."""
    from cqca.parties import CellLayout, RoundTable

    index: dict = {}
    rows, sampled = [], []
    for r in records:
        cell = (r.setting_b, r.setting_c, r.outcome_alice, r.click_b, r.click_c, r.multi_count)
        rows.append(index.setdefault(cell, len(index)))
        sampled.append(r.sampled)
    return RoundTable(
        np.array(rows, dtype=np.int16),
        CellLayout.of(tuple(index), [None] * len(index)),
        np.array(sampled, dtype=bool),
        keyed,
    )


def one_shot_draw(n, attack, channel_cfg, seed):
    """The reference for ``parties._draw_rounds``: each round's row, from
    all n raw draws of the round stream looked up on the law at once."""
    from cqca import parties

    plan = parties._sampling_plan(attack, channel_cfg)
    raw = parties._stream(seed, parties._ROUNDS).bit_generator.random_raw(n)
    return parties._select_rows(plan, raw)


@functools.cache
def load_workloads():
    """The benchmark's workload module, for its scan points and checks."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module
