"""Amplitude-exact model of a single photon in a two-arm interferometer.

The source splits each photon into a superposition of arm B (reflected
branch, toward Bob) and arm C (transmitted branch, toward Charlie).  An
optional eavesdropper probe pair extends each branch into a four-dimensional
product space spanned by {|y,y>, |y,yp>, |yp,y>, |yp,yp>}, where |y> is a
probe's ready state and |yp> the state orthogonal to it.

Probabilities are bookkept on the amplitudes themselves: a negative
absorption test zeroes the tested arm *without* renormalizing, so squared
norms shrink monotonically, and every later sampling step conditions on the
surviving total norm.  This reproduces the exact per-round outcome law
(dark port strictly empty on double reflection, absorption at exactly one
detector when both parties absorb) rather than an approximation of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: A stochastic step's possible results, each with its probability given
#: everything before the step.  Samplers pick one; the exact outcome law
#: walks them all.
Branches = Sequence[tuple[float, T]]

INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Probe space sizes: a bare photon carries a trivial one-dimensional probe
#: factor; an attached probe pair expands it to the 2x2 product space.
PROBE_DIM_OFF = 1
PROBE_DIM_ON = 4

_NORM_EPS = 1e-12


class Arm(Enum):
    """Interferometer arm: B runs to Bob's station, C to Charlie's."""

    B = "B"
    C = "C"


class Action(Enum):
    """Per-round station operation: Faraday reflect (F) or absorb (A)."""

    F = "F"
    A = "A"


class Outcome(Enum):
    """Detector tags.  D1/D2 are the source's interferometer ports, DB/DC
    the stations' photon-number-resolving detectors, NULL means no click."""

    D1 = "1"
    D2 = "2"
    DB = "B"
    DC = "C"
    NULL = "N"


@dataclass(frozen=True, slots=True)
class JointState:
    """Pure state of (photon arm occupancy) x (optional probe pair).

    ``amp_b`` / ``amp_c`` hold the complex amplitudes of the photon-in-B and
    photon-in-C branches over the probe basis (length 1 without a probe,
    4 with one attached).
    """

    amp_b: tuple[complex, ...]
    amp_c: tuple[complex, ...]

    @property
    def probe_dim(self) -> int:
        return len(self.amp_b)

    def arm_amplitudes(self, arm: Arm) -> tuple[complex, ...]:
        return self.amp_b if arm is Arm.B else self.amp_c

    def norm2(self) -> float:
        return _norm2(self.amp_b) + _norm2(self.amp_c)

    def validate(self) -> None:
        """Assert representation invariants (used by tests, not hot paths)."""
        if len(self.amp_b) != len(self.amp_c):
            raise ValueError("branch probe dimensions differ")
        if self.probe_dim not in (PROBE_DIM_OFF, PROBE_DIM_ON):
            raise ValueError(f"unsupported probe dimension {self.probe_dim}")
        total = self.norm2()
        if not math.isfinite(total) or total > 1.0 + 1e-12:
            raise ValueError(f"state norm {total} outside [0, 1]")


@dataclass(frozen=True, slots=True)
class DetectionSample:
    """One sampled read-out of the source's detector pair.

    ``click_count`` includes injected dark clicks; two clicks in one round
    flag a multiple-count candidate.
    """

    outcome: Outcome
    click_count: int


@dataclass(frozen=True, slots=True)
class EveProbePair:
    """Probe pair state conditioned on the public announcement of a round.

    ``collapsed_state`` is the (possibly unnormalized) probe vector left
    after the photon outcome collapsed the branch structure.
    """

    theta: float
    collapsed_state: tuple[complex, ...]

    def is_null(self) -> bool:
        """No probe amplitude survived the collapse, so no measurement on
        it is defined."""
        return _norm2(self.collapsed_state) <= _NORM_EPS * _NORM_EPS


def pick_branch(branches: Branches[T], rng: np.random.Generator) -> T:
    """Draw one branch by inverse CDF on a single uniform; a step with one
    branch draws nothing."""
    if len(branches) == 1:
        return branches[0][1]
    u = rng.random()
    cumulative = 0.0
    for p, value in branches[:-1]:
        cumulative += p
        if u < cumulative:
            return value
    return branches[-1][1]


def _norm2(amp: tuple[complex, ...]) -> float:
    total = 0.0
    for z in amp:
        total += z.real * z.real + z.imag * z.imag
    return total


def emit() -> JointState:
    """Fresh photon behind the source beam splitter.

    The transmitted (Charlie) branch carries amplitude 1/sqrt(2), the
    reflected (Bob) branch i/sqrt(2); no probe attached.
    """
    return JointState(amp_b=(1j * INV_SQRT2,), amp_c=(INV_SQRT2 + 0j,))


def probe_branch_vectors(theta: float) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Probe pair vectors riding on each branch after an onward-leg probe.

    The photon-in-B branch carries |y,n> and the photon-in-C branch |n,y>,
    with |n> = cos(theta)|y> + sin(theta)|yp>, expanded in the product basis
    {|y,y>, |y,yp>, |yp,y>, |yp,yp>}.  Their overlap is cos(theta)^2.
    """
    c = complex(math.cos(theta))
    s = complex(math.sin(theta))
    return (c, s, 0j, 0j), (c, 0j, s, 0j)


def attach_eve_probe(state: JointState, theta: float) -> JointState:
    """Entangle a fresh probe pair with the two arms (number preserving).

    Requires a freshly emitted state (trivial probe factor) and a coupling
    angle in [0, pi/2].  The total norm is unchanged.
    """
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError(f"probe angle {theta} outside [0, pi/2]")
    if state.probe_dim != PROBE_DIM_OFF:
        raise ValueError("probe already attached to this state")
    vec_b, vec_c = probe_branch_vectors(theta)
    b = state.amp_b[0]
    c = state.amp_c[0]
    return JointState(
        amp_b=tuple(b * x for x in vec_b),
        amp_c=tuple(c * x for x in vec_c),
    )


def party_action_branches(
    state: JointState, arm: Arm, action: Action
) -> Branches[tuple[JointState, bool]]:
    """A station's per-round operation on its arm, as (state, absorbed)
    branches.

    F reflects without adding a phase, leaving the state untouched.  A
    tests for the photon: the absorption probability is the arm's share of
    the surviving norm, so a second absorber facing the only remaining
    branch fires with certainty.  On a click the other branch is projected
    away and the absorbed arm keeps its (unnormalized) probe amplitudes as
    the collapsed record; on a negative test the tested arm is zeroed
    without renormalizing.
    """
    if action is Action.F:
        return [(1.0, (state, False))]
    total = state.norm2()
    p_absorb = 0.0
    if total > _NORM_EPS:
        p_absorb = min(1.0, _norm2(state.arm_amplitudes(arm)) / total)
    zeros = (0j,) * state.probe_dim
    if arm is Arm.B:
        absorbed, passed = JointState(state.amp_b, zeros), JointState(zeros, state.amp_c)
    else:
        absorbed, passed = JointState(zeros, state.amp_c), JointState(state.amp_b, zeros)
    return [(p_absorb, (absorbed, True)), (1.0 - p_absorb, (passed, False))]


def apply_party_action(
    state: JointState, arm: Arm, action: Action, rng: np.random.Generator
) -> tuple[JointState, bool]:
    """Apply a station's per-round operation to its arm: one draw from
    ``party_action_branches`` when the station absorbs, none when it
    reflects."""
    return pick_branch(party_action_branches(state, arm, action), rng)


def recombine_at_bs(state: JointState) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Mix the returning arms on the source beam splitter.

    amp_d1 = (amp_b - i amp_c)/sqrt(2), amp_d2 = (amp_b + i amp_c)/sqrt(2);
    the total squared norm is preserved.  With the emission phases above the
    honest double-reflection round leaves port D1 strictly dark.
    """
    amp_d1 = tuple((b - 1j * c) * INV_SQRT2 for b, c in zip(state.amp_b, state.amp_c))
    amp_d2 = tuple((b + 1j * c) * INV_SQRT2 for b, c in zip(state.amp_b, state.amp_c))
    return amp_d1, amp_d2


def real_click_branches(
    amp_d1: tuple[complex, ...], amp_d2: tuple[complex, ...], loss_rate: float
) -> Branches[Outcome]:
    """Where the photon itself is detected: D1 or D2 with the ports' share
    of the surviving norm, thinned once by the aggregate channel loss; NULL
    otherwise, and with certainty when no amplitude reaches the ports."""
    n1 = _norm2(amp_d1)
    n2 = _norm2(amp_d2)
    total = n1 + n2
    if total <= _NORM_EPS:
        return [(1.0, Outcome.NULL)]
    keep = 1.0 - loss_rate
    return [
        (keep * n1 / total, Outcome.D1),
        (keep * n2 / total, Outcome.D2),
        (loss_rate, Outcome.NULL),
    ]


def dark_click_branches(dark_rate: float) -> Branches[bool]:
    """Whether one idle detector fires a dark count this round."""
    if dark_rate > 0.0:
        return [(dark_rate, True), (1.0 - dark_rate, False)]
    return [(1.0, False)]


def detection_branches(
    amp_d1: tuple[complex, ...],
    amp_d2: tuple[complex, ...],
    loss_rate: float,
    dark_rate: float,
) -> Branches[DetectionSample]:
    """Every read-out of the source's detector pair, with its probability.

    The real click comes first, then a dark count at each idle detector.
    The reported outcome is the real click when there is one, else the
    dark click, with a fair tie-break when both ports fired dark.
    """
    branches = []
    for p_real, real in real_click_branches(amp_d1, amp_d2, loss_rate):
        idle = [d for d in (Outcome.D1, Outcome.D2) if d is not real]
        for fires in itertools.product(dark_click_branches(dark_rate), repeat=len(idle)):
            clicked = [real] if real is not Outcome.NULL else []
            clicked += [d for d, (_, fired) in zip(idle, fires) if fired]
            p_clicks = p_real * math.prod(p for p, _ in fires)
            reported = [real] if real is not Outcome.NULL else clicked or [Outcome.NULL]
            for outcome in reported:
                branches.append((p_clicks / len(reported), DetectionSample(outcome, len(clicked))))
    return branches


def sample_detection(
    amp_d1: tuple[complex, ...],
    amp_d2: tuple[complex, ...],
    loss_rate: float,
    dark_rate: float,
    rng: np.random.Generator,
) -> DetectionSample:
    """Sample which of the source's detectors fires this round: one draw
    from ``detection_branches``.  Two clicks flag a multiple-count
    candidate via ``click_count``."""
    return pick_branch(detection_branches(amp_d1, amp_d2, loss_rate, dark_rate), rng)


def helstrom_success_probability(theta: float) -> float:
    """Success probability of the minimum-error two-state discrimination.

    The two equiprobable probe states |y,n> and |n,y> overlap by
    cos(theta)^2, giving (1 + sqrt(1 - cos(theta)^4)) / 2.
    """
    overlap = math.cos(theta) ** 2
    return 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - overlap * overlap)))


@lru_cache(maxsize=64)
def _helstrom_positive_projector(theta: float) -> np.ndarray:
    """Projector onto the positive eigenspace of (P_bit1 - P_bit0).

    bit 1 corresponds to the photon-in-B probe |y,n>, bit 0 to |n,y>.
    Probability mass in the null eigenspace is split evenly by the caller.
    """
    vec_b, vec_c = probe_branch_vectors(theta)
    v1 = np.asarray(vec_b, dtype=complex)
    v0 = np.asarray(vec_c, dtype=complex)
    gamma = np.outer(v1, v1.conj()) - np.outer(v0, v0.conj())
    vals, vecs = np.linalg.eigh(gamma)
    positive = vecs[:, vals > 1e-12]
    null = vecs[:, np.abs(vals) <= 1e-12]
    return positive @ positive.conj().T + 0.5 * (null @ null.conj().T)


def helstrom_p_one(probe: EveProbePair) -> float:
    """Probability that the minimum-error measurement on a collapsed probe
    pair guesses bit 1.  For a probe conditioned on an anti-correlated D1
    round the success probability equals
    ``helstrom_success_probability(theta)``."""
    if probe.is_null():
        raise ValueError("collapsed probe state is null")
    psi = np.asarray(probe.collapsed_state, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    effect = _helstrom_positive_projector(probe.theta)
    p_one = float(np.real(psi.conj() @ effect @ psi))
    return min(1.0, max(0.0, p_one))


def helstrom_guess(probe: EveProbePair, rng: np.random.Generator) -> int:
    """Measure a collapsed probe pair with the minimum-error measurement
    and return the guessed secret bit."""
    p_one = helstrom_p_one(probe)
    return pick_branch([(p_one, 1), (1.0 - p_one, 0)], rng)
