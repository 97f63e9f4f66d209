"""Quantum-channel model: loss, dark counts, and attack insertion.

The channel itself is trivial for a well-behaved run (identity on
amplitudes); its job is to carry the knobs that perturb a round (aggregate
loss and per-detector dark counts) and to host
the two hooks where an eavesdropper can touch the light: the onward leg,
where a probe pair may be entangled with the arms, and the return leg,
where probing gains nothing and which therefore stays an explicit identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .photonics import JointState, attach_eve_probe


@dataclass(frozen=True, slots=True)
class ChannelConfig:
    """Channel figures: aggregate loss and dark-count rate."""

    loss_rate: float = 0.0
    dark_rate: float = 0.0

    def validate(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate {self.loss_rate} outside [0, 1)")
        if not 0.0 <= self.dark_rate < 1.0:
            raise ValueError(f"dark_rate {self.dark_rate} outside [0, 1)")


class AttackKind(Enum):
    NONE = "none"
    EVE_PROBE = "eve"
    ALICE_SINGLE_PATH = "alice-single"
    ALICE_DOUBLE_PATH = "alice-double"


class AttackTarget(Enum):
    """Arm probed by the single-path source attack.  RANDOM picks the arm
    uniformly per attacked round (probing one named station exclusively
    doubles the bias signature, so the symmetric split is the default)."""

    B = "b"
    C = "c"
    RANDOM = "random"


class FakeStrategy(Enum):
    """Announcement policy of the single-path attacker once her probe photon
    returned: mimic the honest conditional statistics (D1 with probability
    1/4, D2 with 3/4) or suppress D1 entirely."""

    RANDOM_QUARTER = "random-quarter"
    ALWAYS_D2 = "always-d2"


@dataclass(frozen=True, slots=True)
class AttackConfig:
    """Adversary selection plus its parameters.  Exactly one kind applies;
    fields not used by the active kind are ignored."""

    kind: AttackKind = AttackKind.NONE
    theta: float = 0.0
    p: float = 0.0
    target: AttackTarget = AttackTarget.RANDOM
    strategy: FakeStrategy = FakeStrategy.RANDOM_QUARTER

    def validate(self) -> None:
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError(f"theta {self.theta} outside [0, pi/2]")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"attack probability {self.p} outside [0, 1]")

    @classmethod
    def none(cls) -> "AttackConfig":
        return cls()

    @classmethod
    def eve_probe(cls, theta: float) -> "AttackConfig":
        return cls(kind=AttackKind.EVE_PROBE, theta=theta)

    @classmethod
    def alice_single_path(
        cls,
        p: float,
        strategy: FakeStrategy = FakeStrategy.RANDOM_QUARTER,
        target: AttackTarget = AttackTarget.RANDOM,
    ) -> "AttackConfig":
        return cls(kind=AttackKind.ALICE_SINGLE_PATH, p=p, strategy=strategy, target=target)

    @classmethod
    def alice_double_path(cls, p: float) -> "AttackConfig":
        return cls(kind=AttackKind.ALICE_DOUBLE_PATH, p=p)


def transmit_onward(state: JointState, attack: AttackConfig) -> JointState:
    """Onward leg from the source to the stations.

    An eavesdropper entangles her probe pair here on every round.
    Source-side attacks bypass this hook entirely.
    """
    if attack.kind is AttackKind.EVE_PROBE:
        return attach_eve_probe(state, attack.theta)
    return state


def return_leg(state: JointState) -> JointState:
    """Return leg from the stations back to the source.

    Probing here gains the eavesdropper nothing (the announcement-relevant
    branch structure is already fixed), so this hook is an identity kept
    explicit to document that claim and to anchor the regression tests.
    """
    return state
