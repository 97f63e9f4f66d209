"""Amplitude-model tests: emission, probe attachment, collapse, the beam
splitter, detection, and the probe discrimination measurement, each
checked exactly on its branch list."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import branch_law, rng_with

from cqca.photonics import (
    Action,
    Arm,
    DetectionSample,
    EveProbePair,
    JointState,
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
)


def _norm2(amp):
    return sum(abs(z) ** 2 for z in amp)


def _inner(u, v):
    return sum(a.conjugate() * b for a, b in zip(u, v))


class TestEmit:
    def test_equal_superposition(self):
        state = emit()
        assert _norm2(state.amp_b) == pytest.approx(0.5, abs=1e-15)
        assert _norm2(state.amp_c) == pytest.approx(0.5, abs=1e-15)

    def test_reflected_arm_carries_phase_i(self):
        state = emit()
        ratio = state.amp_b[0] / state.amp_c[0]
        assert cmath.isclose(ratio, 1j, abs_tol=1e-15)

    def test_unit_norm_and_trivial_probe(self):
        state = emit()
        assert state.norm2() == pytest.approx(1.0, abs=1e-15)
        assert state.probe_dim == 1
        state.validate()


class TestProbeAttachment:
    def test_theta_zero_probes_identical(self):
        state = attach_eve_probe(emit(), 0.0)
        assert state.probe_dim == 4
        # both branches ride on |y,y>; the stats cannot differ from no attack
        assert state.amp_b[1] == 0 and state.amp_b[2] == 0 and state.amp_b[3] == 0
        assert state.amp_c[1] == 0 and state.amp_c[2] == 0 and state.amp_c[3] == 0

    def test_theta_pi_half_probes_orthogonal(self):
        vec_b, vec_c = probe_branch_vectors(math.pi / 2)
        assert abs(_inner(vec_b, vec_c)) < 1e-15
        assert vec_b[1] == pytest.approx(1.0)  # |y,yp>
        assert vec_c[2] == pytest.approx(1.0)  # |yp,y>

    def test_overlap_is_cos_squared(self):
        rng = rng_with(11)
        for theta in rng.uniform(0.0, math.pi / 2, size=100):
            vec_b, vec_c = probe_branch_vectors(theta)
            overlap = _inner(vec_b, vec_c)
            assert abs(overlap - math.cos(theta) ** 2) < 1e-12

    def test_overlap_at_pi_quarter(self):
        vec_b, vec_c = probe_branch_vectors(math.pi / 4)
        assert _inner(vec_b, vec_c).real == pytest.approx(0.5, abs=1e-12)

    def test_norm_preserved(self):
        state = attach_eve_probe(emit(), 0.7)
        assert state.norm2() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_out_of_range_theta(self):
        with pytest.raises(ValueError):
            attach_eve_probe(emit(), -0.1)
        with pytest.raises(ValueError):
            attach_eve_probe(emit(), math.pi / 2 + 0.1)

    def test_rejects_double_attachment(self):
        state = attach_eve_probe(emit(), 0.4)
        with pytest.raises(ValueError):
            attach_eve_probe(state, 0.4)


def _absorption_law(first: Arm, second: Arm) -> dict:
    """Law of (B absorbed, C absorbed) when both stations absorb, testing
    ``first`` then ``second``."""
    branches = []
    for p1, (state, absorbed_1) in party_action_branches(emit(), first, Action.A):
        for p2, (_, absorbed_2) in party_action_branches(state, second, Action.A):
            absorbed = {first: absorbed_1, second: absorbed_2}
            branches.append((p1 * p2, (absorbed[Arm.B], absorbed[Arm.C])))
    return branch_law(branches)


class TestPartyAction:
    def test_reflect_is_identity(self):
        rng = rng_with(0)
        state = attach_eve_probe(emit(), 0.3)
        after, absorbed = apply_party_action(state, Arm.B, Action.F, rng)
        assert not absorbed
        assert after == state

    def test_absorption_probability_half_on_fresh_state(self):
        branches = party_action_branches(emit(), Arm.B, Action.A)
        assert [(p, absorbed) for p, (_, absorbed) in branches] == [(0.5, True), (0.5, False)]

    def test_negative_test_zeroes_arm_without_renormalizing(self):
        (_, (state, absorbed)) = party_action_branches(emit(), Arm.B, Action.A)[1]
        assert not absorbed
        assert all(z == 0 for z in state.amp_b)
        assert state.norm2() == pytest.approx(0.5, abs=1e-12)

    def test_both_absorbers_fire_exactly_once(self):
        assert _absorption_law(Arm.B, Arm.C) == {(True, False): 0.5, (False, True): 0.5}

    def test_absorption_order_is_observationally_irrelevant(self):
        assert _absorption_law(Arm.B, Arm.C) == _absorption_law(Arm.C, Arm.B)


def _random_state(rng) -> JointState:
    dim = 1 if rng.random() < 0.5 else 4
    raw_b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    raw_c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    scale = math.sqrt(_norm2(raw_b) + _norm2(raw_c)) / math.sqrt(rng.uniform(0.1, 1.0))
    return JointState(
        amp_b=tuple(complex(z / scale) for z in raw_b),
        amp_c=tuple(complex(z / scale) for z in raw_c),
    )


class TestRecombination:
    def test_norm_conservation_over_random_states(self):
        rng = rng_with(21)
        for _ in range(10_000):
            state = _random_state(rng)
            amp_d1, amp_d2 = recombine_at_bs(state)
            assert abs(_norm2(amp_d1) + _norm2(amp_d2) - state.norm2()) < 1e-12

    def test_honest_double_reflection_dark_port_exact(self):
        amp_d1, amp_d2 = recombine_at_bs(emit())
        # counterfactual phase check: exact zero, not merely small
        assert _norm2(amp_d1) == 0.0
        assert _norm2(amp_d2) == pytest.approx(1.0, abs=1e-12)

    def test_single_arm_splits_evenly(self):
        # Bob absorbed nothing on his A test, Charlie reflected
        state = JointState(amp_b=(0j,), amp_c=(complex(1 / math.sqrt(2)),))
        amp_d1, amp_d2 = recombine_at_bs(state)
        assert _norm2(amp_d1) == pytest.approx(0.25, abs=1e-12)
        assert _norm2(amp_d2) == pytest.approx(0.25, abs=1e-12)

    def test_probed_double_reflection_at_pi_half(self):
        state = attach_eve_probe(emit(), math.pi / 2)
        amp_d1, amp_d2 = recombine_at_bs(state)
        assert _norm2(amp_d1) == pytest.approx(0.5, abs=1e-12)
        assert _norm2(amp_d2) == pytest.approx(0.5, abs=1e-12)

    def test_probed_dark_port_follows_half_sin_squared(self):
        for theta in (0.2, 0.7, 1.1):
            state = attach_eve_probe(emit(), theta)
            amp_d1, _ = recombine_at_bs(state)
            assert _norm2(amp_d1) == pytest.approx(0.5 * math.sin(theta) ** 2, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=1),
    st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False), min_size=8, max_size=8),
)
def test_recombination_conserves_norm_property(dim_choice, raw):
    dim = (1, 4)[dim_choice]
    amp_b = tuple(raw[:dim])
    amp_c = tuple(raw[4 : 4 + dim])
    total = _norm2(amp_b) + _norm2(amp_c)
    if total > 1.0:
        scale = math.sqrt(total)
        amp_b = tuple(z / scale for z in amp_b)
        amp_c = tuple(z / scale for z in amp_c)
    state = JointState(amp_b=amp_b, amp_c=amp_c)
    amp_d1, amp_d2 = recombine_at_bs(state)
    assert abs(_norm2(amp_d1) + _norm2(amp_d2) - state.norm2()) < 1e-12


class TestDetectionSampling:
    def test_certain_event(self):
        law = branch_law(detection_branches((0j,), (1 + 0j,), 0.0, 0.0))
        assert law == {DetectionSample(Outcome.D2, 1): 1.0}

    def test_loss_thins_detections(self):
        amp_d1, amp_d2 = recombine_at_bs(emit())
        law = branch_law(detection_branches(amp_d1, amp_d2, 0.1, 0.0))
        assert law[DetectionSample(Outcome.NULL, 0)] == pytest.approx(0.1, abs=1e-15)

    def test_full_round_one_absorber_gives_quarter_d1(self):
        p_d1 = 0.0
        for p_b, (state, absorbed) in party_action_branches(emit(), Arm.B, Action.A):
            if not absorbed:
                law = branch_law(detection_branches(*recombine_at_bs(state), 0.0, 0.0))
                p_d1 += p_b * law.get(DetectionSample(Outcome.D1, 1), 0.0)
        assert p_d1 == pytest.approx(0.25, abs=1e-15)

    def test_dark_counts_fire_idle_detectors(self):
        dark = 0.05
        law = branch_law(detection_branches((0j,), (0j,), 0.0, dark))
        assert all(d.outcome is not Outcome.NULL for d in law if d.click_count)
        clicks = sum(p for d, p in law.items() if d.click_count)
        assert clicks == pytest.approx(1.0 - (1.0 - dark) ** 2, abs=1e-15)

    def test_double_click_flags_multiple_count(self):
        law = branch_law(detection_branches((0j,), (1 + 0j,), 0.0, 0.2))
        assert law == pytest.approx(
            {DetectionSample(Outcome.D2, 1): 0.8, DetectionSample(Outcome.D2, 2): 0.2}, abs=1e-15
        )


class TestHelstrom:
    def test_closed_form_matches_trace_norm_oracle(self):
        # independent oracle: optimal success is 1/2 + |P1 - P0|_1 / 4
        for theta in np.linspace(0.0, math.pi / 2, 25):
            vec_b, vec_c = probe_branch_vectors(theta)
            v1 = np.asarray(vec_b)
            v0 = np.asarray(vec_c)
            gamma = np.outer(v1, v1.conj()) - np.outer(v0, v0.conj())
            trace_norm = float(np.abs(np.linalg.eigvalsh(gamma)).sum())
            assert helstrom_success_probability(theta) == pytest.approx(
                0.5 + trace_norm / 4.0, abs=1e-12
            )

    def test_value_at_pi_quarter(self):
        assert helstrom_success_probability(math.pi / 4) == pytest.approx(
            0.9330127018922193, abs=1e-12
        )

    def test_guess_success_rates(self):
        for theta in (0.0, 0.4, math.pi / 4, math.pi / 2):
            vec_b, vec_c = probe_branch_vectors(theta)
            expected = helstrom_success_probability(theta)
            assert helstrom_p_one(EveProbePair(theta, vec_b)) == pytest.approx(expected, abs=1e-12)
            assert 1.0 - helstrom_p_one(EveProbePair(theta, vec_c)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_orthogonal_probes_always_distinguished(self):
        vec_b, vec_c = probe_branch_vectors(math.pi / 2)
        assert helstrom_p_one(EveProbePair(math.pi / 2, vec_b)) == pytest.approx(1.0, abs=1e-12)
        assert helstrom_p_one(EveProbePair(math.pi / 2, vec_c)) == pytest.approx(0.0, abs=1e-12)

    def test_random_measurements_never_beat_helstrom(self):
        rng = rng_with(12)
        theta = 0.6
        vec_b, vec_c = probe_branch_vectors(theta)
        v1 = np.asarray(vec_b)
        v0 = np.asarray(vec_c)
        best = 0.0
        for _ in range(200):
            random_matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            basis, _ = np.linalg.qr(random_matrix)
            for split in range(1, 4):
                projector = basis[:, :split] @ basis[:, :split].conj().T
                p1 = float(np.real(v1.conj() @ projector @ v1))
                p0 = 1.0 - float(np.real(v0.conj() @ projector @ v0))
                best = max(best, 0.5 * (p1 + p0))
        assert best <= helstrom_success_probability(theta) + 1e-9

    def test_rejects_null_probe(self):
        rng = rng_with(13)
        with pytest.raises(ValueError):
            helstrom_guess(EveProbePair(0.3, (0j, 0j, 0j, 0j)), rng)
