"""Adversary models and their information extraction.

Two adversaries are simulated.  A semihonest source operator can replace a
round's split photon with bare probe photons: down one arm (learning that
station's setting from the return, then faking her public announcement) or
down both arms (learning both settings, then mimicking the honest outcome
law; the double clicks she causes when both stations absorb are what the
coincidence check looks for).  An eavesdropper entangles a probe pair with
the arms on the onward leg and measures it after the announcements with the
minimum-error (Helstrom) measurement, whose extracted information the
closed-form Holevo bound must dominate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .channel import FakeStrategy
from .photonics import Action, Branches, EveProbePair, Outcome, helstrom_guess, pick_branch


@dataclass(frozen=True, slots=True)
class EveRecord:
    """Eavesdropper's per-round book-keeping: her measured guess and, where
    one is defined, the bit the stations actually shared."""

    round_id: int
    guess: int
    true_bit: int | None


@dataclass(frozen=True, slots=True, eq=False)
class EveGuesses:
    """Eve's guesses on the rounds she measured, as columns: each round's
    id, her guessed bit, and the bit the stations shared (-1 where the
    round's settings carry none).  Iterating yields one ``EveRecord`` per
    round."""

    round_ids: np.ndarray
    guesses: np.ndarray
    true_bits: np.ndarray

    def __len__(self) -> int:
        return len(self.round_ids)

    def __iter__(self) -> Iterator[EveRecord]:
        columns = (self.round_ids, self.guesses, self.true_bits)
        for round_id, guess, bit in zip(*(c.tolist() for c in columns)):
            yield EveRecord(round_id, guess, None if bit < 0 else bit)


def single_path_branches(strategy: FakeStrategy, returned: bool) -> Branches[Outcome]:
    """Announcements of a single-path attacked round, given whether the
    probe photon came back (it returns exactly when the probed station
    reflected).  A non-returned photon was registered by the probed station,
    so the only announcement consistent with a later disclosure is NULL and
    no key bit arises.  Once the photon returned, RANDOM_QUARTER reproduces
    the honest conditional law (D1 with probability 1/4, D2 with 3/4) and
    ALWAYS_D2 suppresses D1 at the price of a detectable announcement bias."""
    if not returned:
        return [(1.0, Outcome.NULL)]
    if strategy is FakeStrategy.ALWAYS_D2:
        return [(1.0, Outcome.D2)]
    return [(0.25, Outcome.D1), (0.75, Outcome.D2)]


def alice_single_path(strategy: FakeStrategy, returned: bool, rng: np.random.Generator) -> Outcome:
    """The announcement of one single-path attacked round, drawn from
    ``single_path_branches``.  The attacker learns the probed station's
    setting either way but stays ignorant of the other station's coin."""
    return pick_branch(single_path_branches(strategy, returned), rng)


def honest_outcome_branches(setting_b: Action, setting_c: Action) -> Branches[Outcome]:
    """The honest per-cell outcome law of a lossless, dark-free round.

    Double reflection gives D2 with certainty, double absorption NULL, and
    anti-correlated settings D1 or D2 with probability 1/4 each (NULL
    otherwise).
    """
    if setting_b is Action.F and setting_c is Action.F:
        return [(1.0, Outcome.D2)]
    if setting_b is Action.A and setting_c is Action.A:
        return [(1.0, Outcome.NULL)]
    return [(0.25, Outcome.D1), (0.25, Outcome.D2), (0.5, Outcome.NULL)]


def alice_double_path(setting_b: Action, setting_c: Action, rng: np.random.Generator) -> Outcome:
    """The announcement of one double-path attacked round: bare photons
    down both arms.

    The return pattern reveals both settings deterministically, so the
    attacker knows every would-be key bit; she then announces an outcome
    drawn from ``honest_outcome_branches`` for those settings.  Rounds where both
    stations absorbed leave clicks at both station detectors, which is the
    signature the coincidence check measures.
    """
    return pick_branch(honest_outcome_branches(setting_b, setting_c), rng)


def eve_extract_bit(
    probe: EveProbePair, announced: Outcome, rng: np.random.Generator
) -> int:
    """Measure the probe pair after the public announcement.

    Only D1 rounds generate key material, so measuring on anything else is
    a caller bug.
    """
    if announced is not Outcome.D1:
        raise ValueError("probe measurement is only defined after a D1 announcement")
    return helstrom_guess(probe, rng)


def empirical_mutual_information(guesses: EveGuesses) -> tuple[float, float, int]:
    """Plug-in mutual information between the shared bit and the guess.

    Uses the rounds where the shared bit is defined.  Returns (mi, sigma,
    count) where sigma is a delta-method standard error of the
    binary-symmetric estimate, floored at 1/count so boundary cases keep a
    usable tolerance.
    """
    known = guesses.true_bits >= 0
    m = int(np.count_nonzero(known))
    if m == 0:
        return 0.0, float("inf"), 0
    pairs = 2 * guesses.true_bits[known] + guesses.guesses[known]
    counts = np.bincount(pairs, minlength=4).reshape(2, 2)
    joint = counts / m
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    mi = 0.0
    for i in range(2):
        for j in range(2):
            if joint[i, j] > 0.0:
                mi += joint[i, j] * math.log2(joint[i, j] / (px[i] * py[j]))
    mismatch = float(counts[0, 1] + counts[1, 0]) / m
    q = min(max(mismatch, 0.5 / m), 1.0 - 0.5 / m)
    slope = abs(math.log2((1.0 - q) / q))
    sigma = max(slope * math.sqrt(q * (1.0 - q) / m), 1.0 / m)
    return mi, sigma, m
