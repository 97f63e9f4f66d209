"""Adversary-model tests: the single- and double-path source attacks with
their measurable signatures, and the probe measurement's information yield."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import _exact_single_path_merits, assert_within_3sigma, branch_law, rng_with

from cqca.adversary import (
    EveGuesses,
    alice_single_path,
    empirical_mutual_information,
    eve_extract_bit,
    honest_outcome_branches,
    single_path_branches,
)
from cqca.analysis import binary_entropy, holevo_bound
from cqca.channel import AttackConfig, AttackTarget, ChannelConfig, FakeStrategy
from cqca.law import outcome_law
from cqca.metrics import compute_merit_report
from cqca.parties import run_rounds
from cqca.photonics import (
    Action,
    EveProbePair,
    Outcome,
    helstrom_success_probability,
    probe_branch_vectors,
)


class TestSinglePathAnnouncements:
    def test_not_returned_forces_null(self):
        for strategy in FakeStrategy:
            assert single_path_branches(strategy, returned=False) == [(1.0, Outcome.NULL)]
            assert alice_single_path(strategy, returned=False, rng=rng_with(0)) is Outcome.NULL

    def test_random_quarter_frequencies(self):
        branches = single_path_branches(FakeStrategy.RANDOM_QUARTER, returned=True)
        assert branches == [(0.25, Outcome.D1), (0.75, Outcome.D2)]

    def test_always_d2(self):
        assert single_path_branches(FakeStrategy.ALWAYS_D2, returned=True) == [(1.0, Outcome.D2)]
        announced = alice_single_path(FakeStrategy.ALWAYS_D2, returned=True, rng=rng_with(2))
        assert announced is Outcome.D2


class TestSinglePathSignatures:
    def test_random_quarter_error_rate_is_half_p(self):
        # mechanism check: the faked D1 rate equals the honest D1 rate, and
        # each faked D1 errs iff the unprobed station reflected (prob 1/2),
        # so the D1-conditional error rate is p/2
        p = 0.4
        expected_e, expected_bias = _exact_single_path_merits(
            Fraction(2, 5), Fraction(1, 4), split=True
        )
        assert expected_e == Fraction(1, 5)
        n = 120_000
        result = run_rounds(n, AttackConfig.alice_single_path(p), seed=31)
        report = compute_merit_report(result.rounds, result.rounds, n)
        assert_within_3sigma(
            report.error_rate, float(expected_e), float(expected_e), report.counts["d1"], "e"
        )
        sigma_bias = math.sqrt(2 * 0.25 * 0.75 / report.counts["af"])
        assert abs(report.bias - float(expected_bias)) <= 3 * sigma_bias

    def test_always_d2_kills_errors_and_biases_announcements(self):
        p = 0.4
        n = 120_000
        result = run_rounds(
            n, AttackConfig.alice_single_path(p, FakeStrategy.ALWAYS_D2), seed=37
        )
        report = compute_merit_report(result.rounds, result.rounds, n)
        assert report.error_rate == 0.0
        _, expected_bias = _exact_single_path_merits(Fraction(2, 5), Fraction(0), split=True)
        assert expected_bias == Fraction(1, 5)
        sigma_bias = math.sqrt(2 * 0.25 * 0.75 / report.counts["af"])
        assert abs(report.bias - float(expected_bias)) <= 3 * sigma_bias

    def test_fixed_target_doubles_the_bias(self):
        p = 0.3
        n = 120_000
        result = run_rounds(
            n,
            AttackConfig.alice_single_path(p, FakeStrategy.ALWAYS_D2, AttackTarget.B),
            seed=41,
        )
        report = compute_merit_report(result.rounds, result.rounds, n)
        _, expected_bias = _exact_single_path_merits(Fraction(3, 10), Fraction(0), split=False)
        assert expected_bias == Fraction(3, 10)
        sigma_bias = math.sqrt(2 * 0.25 * 0.75 / report.counts["fa"])
        assert abs(report.bias - float(expected_bias)) <= 3 * sigma_bias

    def test_announcement_carries_no_information_on_unprobed_station(self):
        n = 60_000
        result = run_rounds(
            n, AttackConfig.alice_single_path(1.0, target=AttackTarget.B), seed=43
        )
        d1_rounds = [r for r in result.rounds if r.outcome_alice is Outcome.D1]
        unprobed_f = sum(r.setting_c is Action.F for r in d1_rounds)
        assert_within_3sigma(
            unprobed_f / len(d1_rounds), 0.5, 0.5, len(d1_rounds), "P(C=F | fake D1)"
        )

    def test_every_fake_d1_with_reflecting_partner_is_a_key_error(self):
        n = 40_000
        result = run_rounds(n, AttackConfig.alice_single_path(1.0), seed=47)
        for r in result.rounds:
            if r.outcome_alice is not Outcome.D1:
                continue
            bob_bit = 0 if r.setting_b is Action.A else 1
            charlie_bit = 0 if r.setting_c is Action.F else 1
            if r.setting_b is r.setting_c:
                assert bob_bit != charlie_bit  # correlated settings mismatch
            else:
                assert bob_bit == charlie_bit


SETTINGS = [(Action.F, Action.F), (Action.F, Action.A), (Action.A, Action.F), (Action.A, Action.A)]


class TestDoublePath:
    def test_mimic_matches_honest_outcome_law(self):
        honest = outcome_law(AttackConfig.none(), ChannelConfig())
        for settings in SETTINGS:
            photon_law = branch_law((r.probability, r.outcome) for r in honest[(*settings, False)])
            mimic = branch_law(honest_outcome_branches(*settings))
            assert mimic == pytest.approx(photon_law, abs=1e-15), settings

    def test_inference_is_deterministic(self):
        # the station clicks of an attacked round, which the attacker sees
        # as her photons' return pattern, are fixed by the settings
        law = outcome_law(AttackConfig.alice_double_path(0.5), ChannelConfig())
        for setting_b, setting_c in SETTINGS:
            clicks = {(r.click_b, r.click_c) for r in law[(setting_b, setting_c, True)]}
            assert clicks == {(setting_b is Action.A, setting_c is Action.A)}

    def test_double_absorption_rounds_click_both_detectors(self):
        n = 30_000
        result = run_rounds(n, AttackConfig.alice_double_path(1.0), seed=53)
        aa = [r for r in result.rounds if r.setting_b is Action.A and r.setting_c is Action.A]
        assert aa and all(r.click_b and r.click_c for r in aa)
        assert all(r.multi_count for r in aa)

    def test_coincidence_rate_tracks_attack_probability(self):
        n = 60_000
        p = 0.5
        result = run_rounds(n, AttackConfig.alice_double_path(p), seed=59)
        report = compute_merit_report(result.rounds, result.rounds, n)
        assert_within_3sigma(report.coincidence_rate, p, p, report.counts["aa"], "kappa")


class TestEveMeasurement:
    def test_requires_d1_announcement(self):
        rng = rng_with(5)
        probe = EveProbePair(0.3, probe_branch_vectors(0.3)[0])
        with pytest.raises(ValueError):
            eve_extract_bit(probe, Outcome.D2, rng)
        assert eve_extract_bit(probe, Outcome.D1, rng) in (0, 1)

    def test_mutual_information_units(self):
        ids = np.arange(400)
        perfect = EveGuesses(ids, ids % 2, ids % 2)
        mi, _, m = empirical_mutual_information(perfect)
        assert m == 400
        assert mi == pytest.approx(1.0, abs=1e-12)
        independent = EveGuesses(ids, (ids // 2) % 2, ids % 2)
        mi, _, _ = empirical_mutual_information(independent)
        assert mi == pytest.approx(0.0, abs=1e-9)
        # rounds without a shared bit do not count
        unkeyed = EveGuesses(ids, ids % 2, np.full(400, -1))
        assert empirical_mutual_information(unkeyed)[2] == 0
        assert empirical_mutual_information(EveGuesses(ids[:0], ids[:0], ids[:0]))[2] == 0

    def test_guesses_iterate_as_records(self):
        result = run_rounds(2_000, AttackConfig.eve_probe(0.3), seed=5)
        records = list(result.eve_records)
        assert len(records) == len(result.eve_records) > 0
        assert all(r.guess in (0, 1) and r.true_bit in (0, 1, None) for r in records)
        assert [r.round_id for r in records] == result.eve_records.round_ids.tolist()

    def test_no_probe_information_at_theta_zero(self):
        result = run_rounds(20_000, AttackConfig.eve_probe(0.0), seed=61)
        mi, sigma, m = empirical_mutual_information(result.eve_records)
        assert m > 1000
        assert mi <= 9.0 / (2.0 * m * math.log(2)) + 3 * sigma  # plug-in bias + noise

    def test_full_information_at_orthogonal_probes(self):
        result = run_rounds(20_000, AttackConfig.eve_probe(math.pi / 2), seed=67)
        mi, _, m = empirical_mutual_information(result.eve_records)
        assert m > 1000
        assert mi == pytest.approx(1.0, abs=0.01)

    def test_extracted_information_matches_helstrom_and_respects_holevo(self):
        theta = 0.3
        result = run_rounds(60_000, AttackConfig.eve_probe(theta), seed=71)
        mi, sigma, m = empirical_mutual_information(result.eve_records)
        q = 1.0 - helstrom_success_probability(theta)
        expected = 1.0 - binary_entropy(q)
        assert abs(mi - expected) <= 4 * sigma + 0.01
        assert mi <= holevo_bound(theta) + 3 * sigma
