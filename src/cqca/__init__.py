"""Amplitude-exact simulator and security analysis for a tripartite
counterfactual certificate-authorization protocol."""

from .analysis import (
    SecurityPoint,
    binary_entropy,
    error_rate_theory,
    holevo_bound,
    key_rate,
    security_threshold,
    sweep_security_curve,
    visibility_theory,
)
from .channel import AttackConfig, AttackKind, AttackTarget, ChannelConfig, FakeStrategy
from .metrics import MeritReport, Verdict, compute_merit_report
from .parties import RoundRecord, Transcript, run_protocol, run_rounds, sift_key
from .photonics import Action, Arm, JointState, Outcome, emit

__version__ = "0.1.0"

__all__ = [
    "Action",
    "Arm",
    "AttackConfig",
    "AttackKind",
    "AttackTarget",
    "ChannelConfig",
    "FakeStrategy",
    "JointState",
    "MeritReport",
    "Outcome",
    "RoundRecord",
    "SecurityPoint",
    "Transcript",
    "Verdict",
    "binary_entropy",
    "compute_merit_report",
    "emit",
    "error_rate_theory",
    "holevo_bound",
    "key_rate",
    "run_protocol",
    "run_rounds",
    "security_threshold",
    "sift_key",
    "sweep_security_curve",
    "visibility_theory",
]
