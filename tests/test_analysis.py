"""Closed-form analysis tests: entropies, the probe spectrum against its
eigensolver, the degradation laws, the key rate, and the threshold."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rng_with

from cqca.analysis import (
    CURVE_CSV_HEADER,
    binary_entropy,
    curve_to_csv,
    error_from_visibility,
    error_rate_theory,
    eve_probe_density_matrix,
    holevo_bound,
    key_rate,
    probe_spectrum,
    security_threshold,
    sweep_security_curve,
    theoretical_merits,
    visibility_theory,
    von_neumann_entropy,
)
from cqca.channel import AttackConfig, AttackTarget, ChannelConfig, FakeStrategy
from cqca.metrics import expected_multi_rate
from cqca.photonics import probe_branch_vectors

# independently computed with a 30-digit arbitrary-precision evaluation
H_QUARTER = 0.8112781244591328
K_PI_QUARTER = -0.7295739585136224
THETA_STAR = 0.4185071162
E_STAR = 0.1417476020


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_edges_vanish(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter_value(self):
        assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-14)

    def test_domain_errors(self):
        for bad in (-0.01, 1.01, float("nan")):
            with pytest.raises(ValueError):
                binary_entropy(bad)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetric_and_bounded(self, x):
        value = binary_entropy(x)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


class TestProbeDensityMatrix:
    def test_invariants_on_grid(self):
        for theta in np.linspace(0.0, math.pi / 2, 50):
            rho = eve_probe_density_matrix(theta)
            assert np.allclose(rho, rho.conj().T, atol=1e-12)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            vals = np.linalg.eigvalsh(rho)
            assert vals.min() >= -1e-10
            assert (vals > 1e-10).sum() <= 2  # rank at most 2

    def test_no_probe_rotation_leaves_pure_ready_state(self):
        rho = eve_probe_density_matrix(0.0)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected, atol=1e-15)

    def test_orthogonal_probes_give_even_two_state_mixture(self):
        rho = eve_probe_density_matrix(math.pi / 2)
        assert np.allclose(rho, np.diag([0.0, 0.5, 0.5]), atol=1e-15)

    def test_spectrum_matches_closed_forms(self):
        rng = rng_with(5)
        for theta in rng.uniform(0.0, math.pi / 2, size=100):
            e1, e2 = probe_spectrum(eve_probe_density_matrix(theta))
            cos2t = math.cos(2.0 * theta)
            assert abs(e1 - (1.0 - cos2t) / 4.0) < 1e-10
            assert abs(e2 - (3.0 + cos2t) / 4.0) < 1e-10
            third = np.linalg.eigvalsh(eve_probe_density_matrix(theta))[0]
            assert abs(third) < 1e-10

    def test_spectrum_examples(self):
        assert probe_spectrum(eve_probe_density_matrix(0.0)) == pytest.approx((0.0, 1.0), abs=1e-10)
        assert probe_spectrum(eve_probe_density_matrix(math.pi / 2)) == pytest.approx(
            (0.5, 0.5), abs=1e-10
        )
        assert probe_spectrum(eve_probe_density_matrix(math.pi / 4)) == pytest.approx(
            (0.25, 0.75), abs=1e-10
        )

    def test_rejects_full_rank_matrix(self):
        with pytest.raises(ValueError):
            probe_spectrum(np.eye(3) / 3)


class TestHolevoBound:
    def test_limits(self):
        assert holevo_bound(0.0) == 0.0
        assert holevo_bound(math.pi / 2) == pytest.approx(1.0, abs=1e-14)

    def test_pi_quarter_value(self):
        assert holevo_bound(math.pi / 4) == pytest.approx(H_QUARTER, abs=1e-14)

    def test_equals_eigensolver_entropy(self):
        rng = rng_with(6)
        for theta in rng.uniform(0.0, math.pi / 2, size=100):
            entropy = von_neumann_entropy(eve_probe_density_matrix(theta))
            assert abs(entropy - holevo_bound(theta)) < 1e-10

    def test_pure_branch_probes_carry_no_entropy(self):
        # the averaged pure-state term of the bound vanishes
        for theta in (0.1, 0.7, 1.3):
            for vec in probe_branch_vectors(theta):
                v = np.asarray(vec, dtype=complex)
                projector = np.outer(v, v.conj())
                assert von_neumann_entropy(projector) < 1e-12


class TestDegradationLaws:
    def test_limits(self):
        assert error_rate_theory(0.0) == 0.0
        assert visibility_theory(0.0) == 1.0
        assert error_rate_theory(math.pi / 2) == pytest.approx(0.5, abs=1e-14)
        assert visibility_theory(math.pi / 2) == pytest.approx(0.0, abs=1e-14)

    def test_near_threshold_error_value(self):
        assert error_rate_theory(0.42) == pytest.approx(0.142564576394643, abs=1e-12)

    def test_visibility_at_pi_quarter(self):
        assert visibility_theory(math.pi / 4) == pytest.approx(0.5, abs=1e-14)

    def test_error_visibility_identity(self):
        for theta in np.linspace(0.0, math.pi / 2, 100):
            e = error_rate_theory(theta)
            v = visibility_theory(theta)
            assert abs(e - error_from_visibility(v)) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            error_rate_theory(-0.1)
        with pytest.raises(ValueError):
            visibility_theory(math.pi)


class TestKeyRate:
    def test_no_probe_full_rate(self):
        point = key_rate(0.0)
        assert point.key_rate == pytest.approx(1.0, abs=1e-14)
        assert point.i_bc == pytest.approx(1.0, abs=1e-14)
        assert point.chi == 0.0

    def test_pi_quarter_value(self):
        point = key_rate(math.pi / 4)
        assert point.key_rate == pytest.approx(K_PI_QUARTER, abs=1e-12)
        assert point.key_rate < 0.0

    def test_eigenvalues_sum_to_one(self):
        for theta in np.linspace(0.0, math.pi / 2, 25):
            point = key_rate(theta)
            assert point.e1 + point.e2 == pytest.approx(1.0, abs=1e-12)

    def test_sign_change_around_threshold(self):
        theta_star, _ = security_threshold()
        assert key_rate(theta_star - 0.01).key_rate > 0.0
        assert key_rate(theta_star + 0.01).key_rate < 0.0


class TestSecurityThreshold:
    def test_threshold_bands(self):
        theta_star, e_star = security_threshold()
        assert 0.41 <= theta_star <= 0.43
        assert 0.140 <= e_star <= 0.145

    def test_golden_values(self):
        theta_star, e_star = security_threshold()
        assert theta_star == pytest.approx(THETA_STAR, abs=1e-9)
        assert e_star == pytest.approx(E_STAR, abs=1e-9)

    def test_grid_scan_oracle(self):
        # independent vectorized evaluation of the key-rate sign on a fine grid
        thetas = np.linspace(1e-9, math.pi / 2 - 1e-9, 1_000_000)
        e1 = (1.0 - np.cos(2.0 * thetas)) / 4.0
        s2 = np.sin(thetas) ** 2
        e = s2 / (1.0 + s2)

        def h(x):
            return -(x * np.log2(x) + (1.0 - x) * np.log2(1.0 - x))

        k = (1.0 - h(e[1:])) - h(e1[1:])  # skip the degenerate first point
        signs = np.sign(k)
        flips = np.nonzero(np.diff(signs))[0]
        assert len(flips) == 1
        lo, hi = thetas[1:][flips[0]], thetas[1:][flips[0] + 1]
        theta_star, _ = security_threshold()
        assert lo <= theta_star <= hi


class TestSecurityCurve:
    def test_monotone_and_single_crossing(self):
        grid = np.linspace(0.0, math.pi / 2, 200).tolist()
        points = sweep_security_curve(grid)
        i_bc = [p.i_bc for p in points]
        chi = [p.chi for p in points]
        assert all(b <= a + 1e-12 for a, b in zip(i_bc, i_bc[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(chi, chi[1:]))
        signs = [p.key_rate > 0 for p in points]
        crossings = sum(a != b for a, b in zip(signs, signs[1:]))
        assert crossings == 1
        theta_star, _ = security_threshold()
        idx = next(i for i, (a, b) in enumerate(zip(signs, signs[1:])) if a != b)
        assert grid[idx] <= theta_star <= grid[idx + 1]

    def test_singleton_grid(self):
        points = sweep_security_curve([0.0])
        assert len(points) == 1
        assert points[0].key_rate == pytest.approx(1.0, abs=1e-14)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            sweep_security_curve([0.3, 0.1])

    def test_csv_format(self):
        points = sweep_security_curve([0.0, 0.3, 1.0])
        text = curve_to_csv(points)
        lines = text.strip().splitlines()
        assert lines[0] == CURVE_CSV_HEADER
        assert len(lines) == 4
        row = lines[2].split(",")
        assert float(row[0]) == pytest.approx(0.3, abs=1e-12)
        assert float(row[4]) == pytest.approx(holevo_bound(0.3), rel=1e-11)


class TestTheoreticalMerits:
    def test_honest(self):
        merits = theoretical_merits(AttackConfig.none(), ChannelConfig())
        assert merits["visibility"] == 1.0 and merits["error_rate"] == 0.0

    def test_probe_attack(self):
        merits = theoretical_merits(AttackConfig.eve_probe(0.3), ChannelConfig())
        assert merits["error_rate"] == pytest.approx(error_rate_theory(0.3))
        assert merits["visibility"] == pytest.approx(visibility_theory(0.3))

    def test_source_attacks(self):
        merits = theoretical_merits(AttackConfig.alice_double_path(0.5), ChannelConfig())
        assert merits["coincidence_rate"] == 0.5
        merits = theoretical_merits(
            AttackConfig.alice_single_path(0.4, FakeStrategy.ALWAYS_D2), ChannelConfig()
        )
        assert merits["bias"] == pytest.approx(0.2)
        merits = theoretical_merits(
            AttackConfig.alice_single_path(0.4, FakeStrategy.ALWAYS_D2, AttackTarget.B),
            ChannelConfig(),
        )
        assert merits["bias"] == pytest.approx(0.4)
        merits = theoretical_merits(AttackConfig.alice_single_path(0.4), ChannelConfig())
        assert merits["error_rate"] == pytest.approx(0.2)


class TestMeritsFromTheLaw:
    """Expected values the estimators read off the exact law, each against
    an independent closed form."""

    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    def test_double_path_multi_rate(self, p):
        # attacked rounds: both stations click on (A,A), the absorbing
        # station plus half the fabricated announcements on (A,F) and (F,A)
        merits = theoretical_merits(AttackConfig.alice_double_path(p), ChannelConfig())
        assert merits["multi_rate"] == pytest.approx(p / 2.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.2, 0.4, 1.0])
    def test_quarter_fake_visibility(self, p):
        # attacked (F,F) rounds always return the probe and announce D1 a
        # quarter of the time
        merits = theoretical_merits(AttackConfig.alice_single_path(p), ChannelConfig())
        assert merits["visibility"] == pytest.approx(1.0 - p / 2.0, abs=1e-12)

    @pytest.mark.parametrize("loss,dark", [(0.0, 0.05), (0.2, 0.01), (0.5, 0.1)])
    def test_honest_dark_channel(self, loss, dark):
        merits = theoretical_merits(
            AttackConfig.none(), ChannelConfig(loss_rate=loss, dark_rate=dark)
        )
        # one station click on (A,A); the other fires only by a dark count
        assert merits["coincidence_rate"] == pytest.approx(dark, abs=1e-12)
        assert merits["multi_rate"] == pytest.approx(expected_multi_rate(dark, loss), abs=1e-12)

    @pytest.mark.parametrize("loss", [0.05, 0.2, 0.6])
    def test_dark_free_loss(self, loss):
        merits = theoretical_merits(AttackConfig.none(), ChannelConfig(loss_rate=loss))
        assert merits["loss_rate"] == pytest.approx(loss, abs=1e-12)

    def test_undefined_error_rate_is_left_out(self):
        # the D2-only fake at p = 1 never announces D1
        merits = theoretical_merits(
            AttackConfig.alice_single_path(1.0, FakeStrategy.ALWAYS_D2), ChannelConfig()
        )
        assert "error_rate" not in merits
        assert merits["bias"] == pytest.approx(0.5, abs=1e-12)
