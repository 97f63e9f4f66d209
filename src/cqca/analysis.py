"""Closed-form security analysis of the probe attack.

A symmetric probe of strength theta leaves the sift rate untouched but
degrades the double-reflection visibility to (1 + cos(2 theta))/2 and lifts
the raw-key error rate to sin^2(theta) / (1 + sin^2(theta)).  The
eavesdropper's information per sifted bit is bounded by the Holevo quantity
of her reduced probe ensemble, which for this attack is the binary entropy
of the smaller eigenvalue (1 - cos(2 theta))/4 of a rank-2 density matrix.
The distillable key rate is the stations' mutual information 1 - H(e) minus
that bound; its unique zero on [0, pi/2] is the security threshold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import AttackConfig, ChannelConfig
from .law import outcome_table

_EIG_TOL = 1e-12
#: Width of the bracket at which ``security_threshold`` stops bisecting.
_THRESHOLD_TOL = 1e-10


def binary_entropy(x: float) -> float:
    """Shannon binary entropy in bits, with H(0) = H(1) = 0 by the
    x log x -> 0 limit."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def eve_probe_density_matrix(theta: float) -> np.ndarray:
    """Reduced density matrix of the probe pair after a probed round.

    Basis {|y,y>, |y,yp>, |yp,y>}; the |yp,yp> direction lies outside the
    support and is omitted.  Equal mixture of the two branch probe vectors.
    """
    _check_angle(theta)
    c = math.cos(theta)
    s = math.sin(theta)
    return 0.5 * np.array(
        [
            [2.0 * c * c, c * s, c * s],
            [c * s, s * s, 0.0],
            [c * s, 0.0, s * s],
        ],
        dtype=complex,
    )


def probe_spectrum(rho: np.ndarray) -> tuple[float, float]:
    """The two non-vanishing eigenvalues of the probe density matrix,
    smaller first.  The third eigenvalue must be numerically zero (the
    matrix has rank at most 2); closed forms are (1 -+ cos(2 theta))/4 and
    (3 + cos(2 theta))/4."""
    vals = np.linalg.eigvalsh(rho)
    if abs(vals[0]) > 1e-9:
        raise ValueError(f"probe matrix has unexpected rank: smallest eigenvalue {vals[0]}")
    return float(vals[1]), float(vals[2])


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Spectral entropy in bits; zero eigenvalues contribute nothing."""
    vals = np.linalg.eigvalsh(rho)
    total = 0.0
    for v in vals:
        if v > _EIG_TOL:
            total -= v * math.log2(v)
    return total


def holevo_bound(theta: float) -> float:
    """Upper bound on the eavesdropper's information per sifted bit:
    H((1 - cos(2 theta))/4), the entropy of the probe ensemble (the
    average of the pure-state entropies vanishes)."""
    _check_angle(theta)
    return binary_entropy((1.0 - math.cos(2.0 * theta)) / 4.0)


def visibility_theory(theta: float) -> float:
    """Double-reflection visibility under a symmetric probe of strength
    theta: (1 + cos(2 theta))/2."""
    _check_angle(theta)
    return (1.0 + math.cos(2.0 * theta)) / 2.0


def error_rate_theory(theta: float) -> float:
    """Raw-key error rate under the probe: sin^2 / (1 + sin^2).  The dark
    port leaks sin^2/2 of the double-reflection rounds into D1 while the
    sift rate stays at 1/4 per anti-correlated cell, and the quotient of
    those rates gives this form."""
    _check_angle(theta)
    s2 = math.sin(theta) ** 2
    return s2 / (1.0 + s2)


def error_from_visibility(visibility: float) -> float:
    """Error rate implied by a measured visibility, (1 - V)/(2 - V); the
    closed forms above satisfy this identity for every probe strength."""
    return (1.0 - visibility) / (2.0 - visibility)


@dataclass(frozen=True, slots=True)
class SecurityPoint:
    """One row of the security curve."""

    theta: float
    error_rate: float
    visibility: float
    e1: float
    e2: float
    chi: float
    i_bc: float
    key_rate: float


def key_rate(theta: float) -> SecurityPoint:
    """Distillable key rate K = [1 - H(e)] - chi at probe strength theta,
    with every intermediate figure filled in."""
    _check_angle(theta)
    e = error_rate_theory(theta)
    cos2t = math.cos(2.0 * theta)
    e1 = (1.0 - cos2t) / 4.0
    chi = holevo_bound(theta)
    i_bc = 1.0 - binary_entropy(e)
    return SecurityPoint(
        theta=theta,
        error_rate=e,
        visibility=visibility_theory(theta),
        e1=e1,
        e2=(3.0 + cos2t) / 4.0,
        chi=chi,
        i_bc=i_bc,
        key_rate=i_bc - chi,
    )


@functools.cache
def security_threshold() -> tuple[float, float]:
    """Probe strength at which the key rate crosses zero, by bisection.

    K is 1 at theta = 0 and -1 at theta = pi/2, so the root is bracketed;
    returns (theta_star, error rate at theta_star), bisected once per
    process.
    """
    lo, hi = 0.0, math.pi / 2
    k_lo = key_rate(lo).key_rate
    k_hi = key_rate(hi).key_rate
    if k_lo <= 0.0 or k_hi >= 0.0:
        raise RuntimeError("key rate does not bracket a root on [0, pi/2]")
    while hi - lo > _THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if key_rate(mid).key_rate > 0.0:
            lo = mid
        else:
            hi = mid
    theta_star = 0.5 * (lo + hi)
    return theta_star, error_rate_theory(theta_star)


def sweep_security_curve(grid: Sequence[float]) -> list[SecurityPoint]:
    """Security curve over a sorted grid of probe strengths in [0, pi/2]."""
    thetas = list(grid)
    if any(b < a for a, b in zip(thetas, thetas[1:])):
        raise ValueError("theta grid must be sorted ascending")
    return [key_rate(t) for t in thetas]


CURVE_CSV_HEADER = "theta,e,visibility,e1,chi,i_bc,key_rate"


def curve_to_csv(points: Sequence[SecurityPoint]) -> str:
    lines = [CURVE_CSV_HEADER]
    for pt in points:
        lines.append(
            f"{pt.theta:.12g},{pt.error_rate:.12g},{pt.visibility:.12g},"
            f"{pt.e1:.12g},{pt.chi:.12g},{pt.i_bc:.12g},{pt.key_rate:.12g}"
        )
    return "\n".join(lines) + "\n"


def theoretical_merits(attack: AttackConfig, channel_cfg: ChannelConfig) -> dict[str, float]:
    """Expected figures of merit for a configured run: the sample
    estimators run on the run's exact outcome law.  A figure with no
    probability in its conditional cell, such as the error rate when no D1
    is ever announced, is left out."""
    from . import metrics  # metrics reads security_threshold() at import

    return metrics.table_merits(outcome_table(attack, channel_cfg), partial=True)


def _check_angle(theta: float) -> None:
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError(f"probe angle {theta} outside [0, pi/2]")
