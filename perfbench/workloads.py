"""The benchmark's workloads and the checks on their outputs.

A workload turns the benchmark seed into blocks of sessions.  A session is
one timed call into the program plus a check of what it returned; a block
is the unit the throughput figures take their median over.  Blocks are
derived from (seed, block index) alone, so a traced replay runs exactly
the sessions an untraced pass ran.

Every check is one of three kinds:

* law: the output disagrees with a closed form of the paper.  Distributional
  laws use a band of ``Z_LAW`` binomial standard errors plus one count, so
  a correct program fails one with probability of order 1e-8; exact laws
  are compared exactly.  No check compares a transcript or a sample path
  with a stored one, so a change to how random numbers are drawn passes.
* verdict: the abort decision is wrong -- a point that must abort released
  a key, or a session released a key whose measured error rate is at or
  above the threshold e*.
* error: the call raised.

Any of them marks the session failed; a law disagreement also makes the
run incorrect.  A session whose point should produce a key but that
aborted is a false abort, not a failure: the gates are z = 4 tests on
several figures, so a correct rule aborts about ``FALSE_ABORT_RATE`` of
honest sessions.  Their count per run must stay inside the binomial band
of that rate, or the run is incorrect.

The timed ``abort-scan`` keeps to points where the program's verdict is
right.  ``abort-defects`` runs the points where the abort rule's known
defects show, and counts each wrong verdict, false aborts included, as a
failed session; it is not one of the timed workloads.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from cqca import adversary, analysis, cli, metrics, parties
from cqca.channel import AttackConfig, AttackKind, ChannelConfig, FakeStrategy
from cqca.photonics import Action, Outcome, helstrom_success_probability

Z_LAW = 6.0
#: An Eve point whose closed-form error rate lies fewer of its own binomial
#: standard errors than this from e* has no fixed verdict at the session size.
Z_VERDICT = 3.0
THETA_STAR = 0.4185071162
#: Share of honest sessions a correct abort rule aborts: two bias cells,
#: two-sided at z = 4, plus the one-sided loss gate.
FALSE_ABORT_RATE = 2e-4


@dataclass
class Checked:
    law: list[str] = field(default_factory=list)
    verdict: list[str] = field(default_factory=list)
    key_bits: int = 0
    #: The point's verdict is "key"; ``false_abort`` names the gates when
    #: such a session aborted anyway.
    key_expected: bool = False
    false_abort: str | None = None


def false_abort_excess(key_sessions: int, aborts: int) -> str | None:
    """A law failure when more key-expected sessions aborted than the
    band around ``FALSE_ABORT_RATE`` allows."""
    expected = key_sessions * FALSE_ABORT_RATE
    allowed = expected + Z_LAW * math.sqrt(expected) + 1.0
    if aborts > allowed:
        return f"{aborts} of {key_sessions} key-expected sessions aborted, at most {allowed:.3g} allowed"
    return None


@dataclass
class Session:
    label: str
    rounds: int
    run: Callable[[], object]
    check: Callable[[object], Checked]


def _band(law: list[str], label: str, observed: float, expected: float, p: float, m: int,
          scale: float = 1.0) -> None:
    """Binomial band around ``expected`` for a rate ``scale * k/m``."""
    if m <= 0:
        law.append(f"{label}: empty sample")
        return
    tol = scale * (Z_LAW * math.sqrt(max(p * (1.0 - p), 0.0) / m) + 1.0 / m)
    if abs(observed - expected) > tol:
        law.append(f"{label}: {observed:.6g} vs {expected:.6g} +- {tol:.3g} (m={m})")


def _key_length_band(law: list[str], bits: int, n: int, f: float) -> None:
    """Honest lossless: each unsampled round is a key round with probability 1/8."""
    unsampled = n - int(n * f)
    _band(law, "key length", bits / unsampled, 1.0 / 8.0, 1.0 / 8.0, unsampled)


def _session_seeds(seed: int, index: int, count: int) -> tuple[np.random.Generator, list[int]]:
    rng = np.random.default_rng([seed, index])
    return rng, [int(s) for s in rng.integers(1, 2**31, size=count)]


class SimulateEve:
    """``cqca simulate --attack eve --theta 0.3 --n 100000`` plus the Holevo
    check the CLI leaves out."""

    name = "simulate-eve"
    N = 100_000
    THETA = 0.3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.attack = AttackConfig.eve_probe(self.THETA)
        self.channel = ChannelConfig()

    def _session(self, n: int, seed: int) -> Session:
        def run():
            result = parties.run_rounds(n, self.attack, self.channel, seed)
            report = metrics.compute_merit_report(result.rounds, result.rounds, n)
            info = adversary.empirical_mutual_information(result.eve_records)
            return result.eve_records, report, info

        return Session("eve-0.3", n, run, self.check)

    def warm_up(self) -> Session:
        return self._session(2_000, self.seed)

    def block(self, index: int) -> list[Session]:
        _, (seed,) = _session_seeds(self.seed, index, 1)
        return [self._session(self.N, seed)]

    def check(self, out) -> Checked:
        eve_records, report, (mi, sigma, m) = out
        theta = self.THETA
        c = report.counts
        law: list[str] = []
        q = (1.0 - analysis.visibility_theory(theta)) / 2.0
        _band(law, "visibility", report.visibility, 1.0 - 2.0 * q, q, c["ff_clicks"], 2.0)
        e = analysis.error_rate_theory(theta)
        _band(law, "error rate", report.error_rate, e, e, c["d1"])
        pairs = [(r.true_bit, r.guess) for r in eve_records if r.true_bit is not None]
        hits = sum(1 for bit, guess in pairs if bit == guess)
        p_h = helstrom_success_probability(theta)
        _band(law, "helstrom hit rate", hits / max(len(pairs), 1), p_h, p_h, len(pairs))
        if mi > analysis.holevo_bound(theta) + Z_LAW * sigma:
            law.append(f"mutual information {mi:.6g} above Holevo {analysis.holevo_bound(theta):.6g}")
        if len(eve_records) != c["d1"]:
            law.append(f"eve measured {len(eve_records)} rounds, {c['d1']} D1 announced")
        return Checked(law=law, key_bits=m)


class ProtocolSession:
    """``cqca protocol --n 100000 --f 0.25``, in-process, files in a work dir."""

    name = "protocol-session"
    N = 100_000
    F = 0.25

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = workdir / "transcript.txt"

    def _session(self, n: int, seed: int) -> Session:
        argv = ["protocol", "--n", str(n), "--f", str(self.F), "--seed", str(seed),
                "--output", str(self.path)]

        def run():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            return code, stdout.getvalue()

        return Session("protocol", n, run, lambda out: self.check(n, out))

    def warm_up(self) -> Session:
        return self._session(2_000, self.seed)

    def block(self, index: int) -> list[Session]:
        _, (seed,) = _session_seeds(self.seed, index, 1)
        return [self._session(self.N, seed)]

    def check(self, n: int, out) -> Checked:
        code, stdout = out
        checked = Checked(key_expected=True)
        law = checked.law
        if code == 2 and "ABORT reasons=" in stdout:
            checked.false_abort = stdout.rsplit("ABORT reasons=", 1)[-1].strip()
            return checked
        if code != 0 or "verdict = KeyProduced" not in stdout:
            checked.verdict.append(f"exit code {code}, no key")
            return checked
        lines = self.path.read_text().splitlines()
        if len(lines) != n:
            law.append(f"transcript has {len(lines)} lines, expected {n}")
        sampled = 0
        key_ids, bob, charlie = [], [], []
        for i, line in enumerate(lines):
            r = parties.line_to_round(line)
            if parties.round_to_line(r) != line or r.round_id != i:
                law.append(f"line {i} does not round-trip: {line!r}")
                break
            sampled += r.sampled
            d1 = r.outcome_alice is Outcome.D1
            if d1 and r.setting_b is r.setting_c:
                law.append(f"round {i}: D1 on correlated settings (error rate must be 0)")
                break
            if r.click_b and r.click_c or r.multi_count:
                law.append(f"round {i}: coincidence or multiple count on a dark-free channel")
                break
            if (r.sifted_bit is not None) != (d1 and not r.sampled):
                law.append(f"round {i}: sifted bit {r.sifted_bit} on a non-key round")
                break
            if r.sifted_bit is not None:
                key_ids.append(r.round_id)
                bob.append(0 if r.setting_b is Action.A else 1)
                charlie.append(0 if r.setting_c is Action.F else 1)
        if sampled != int(n * self.F):
            law.append(f"{sampled} rounds sampled, expected {int(n * self.F)}")
        keys = dict(
            line.split(" = ", 1)
            for line in self.path.with_name(self.path.name + ".keys").read_text().splitlines()
        )
        bits = int(keys["key_bits"])
        if keys["key_bob_hex"] != keys["key_charlie_hex"] or bob != charlie:
            law.append("Bob's and Charlie's keys differ on an honest lossless channel")
        if keys["key_bob_hex"] != _hex(bob) or bits != len(bob):
            law.append("key file does not match the key rounds of the transcript")
        if keys["key_round_ids"] != ",".join(map(str, key_ids)):
            law.append("key_round_ids do not match the transcript")
        _key_length_band(law, bits, n, self.F)
        checked.key_bits = bits
        return checked


def _hex(bits: list[int]) -> str:
    if not bits:
        return ""
    width = (len(bits) + 7) // 8
    return int("".join(map(str, bits)) + "0" * (8 * width - len(bits)), 2).to_bytes(width, "big").hex()


@dataclass(frozen=True)
class Point:
    label: str
    attack: AttackConfig
    channel: ChannelConfig = ChannelConfig()
    #: Verdict fixed by a closed form; Eve points derive theirs from K(theta).
    expect: str | None = None


_QUARTER, _D2 = FakeStrategy.RANDOM_QUARTER, FakeStrategy.ALWAYS_D2
_LOSSY = ChannelConfig(loss_rate=0.2, dark_rate=0.01)
SCAN = (
    Point("honest", AttackConfig.none(), expect="key"),
    # Dark-free: with dark clicks the loss estimate is biased (abort-defects).
    Point("honest-loss-0.2", AttackConfig.none(), ChannelConfig(loss_rate=0.2), expect="key"),
    *(Point(f"eve-{t}", AttackConfig.eve_probe(t)) for t in (0.20, 0.60)),
    Point("eve-0.6-lossy", AttackConfig.eve_probe(0.60), _LOSSY),
    Point("single-quarter-0.1", AttackConfig.alice_single_path(0.1, _QUARTER)),
    Point("single-quarter-0.5", AttackConfig.alice_single_path(0.5, _QUARTER)),
    # D1-conditional error rate p/2 = 0.5, far above e*.
    Point("single-quarter-1.0", AttackConfig.alice_single_path(1.0, _QUARTER), expect="abort"),
    Point("single-d2-0.3", AttackConfig.alice_single_path(0.3, _D2)),
    # Announcement bias p/2 = 0.45 against a tolerance near 0.14.  At p = 1
    # no D1 is ever announced and every session raises InsufficientSample.
    Point("single-d2-0.9", AttackConfig.alice_single_path(0.9, _D2), expect="abort"),
    Point("double-0.1", AttackConfig.alice_double_path(0.1)),
    # Coincidence rate p against a tolerance of 0.02.
    Point("double-0.5", AttackConfig.alice_double_path(0.5), expect="abort"),
    Point("double-0.5-lossy", AttackConfig.alice_double_path(0.5), _LOSSY, expect="abort"),
    Point("double-1.0", AttackConfig.alice_double_path(1.0), expect="abort"),
)
#: Points where the abort rule's known defects show.  Honest sessions on a
#: lossy, dark-counting channel abort on lossRate (the loss estimate ignores
#: dark clicks), and Eve near theta* gets keys released at measured error
#: rates in [e*, 0.1425), below the hard-coded ceiling.  Both are rare per
#: session: a run of two minutes shows one or two.
DEFECT_SCAN = (
    Point("honest-lossy", AttackConfig.none(), _LOSSY, expect="key"),
    *(Point(f"eve-{t}", AttackConfig.eve_probe(t)) for t in (0.40, 0.41, 0.42, 0.43)),
)


class AbortScan:
    """Short sessions through ``parties.run_protocol`` over ``SCAN``; one
    block is one sweep of every point in a seeded order."""

    name = "abort-scan"
    N = 5_000
    F = 0.25
    scan = SCAN
    #: A false abort is a failed session, not only a count.
    strict = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def _expected_verdict(self, point: Point, e_star: float) -> str | None:
        if point.attack.kind is not AttackKind.EVE_PROBE:
            return point.expect
        theta = point.attack.theta
        m = self.N * self.F * (1.0 + math.sin(theta) ** 2) / 8.0  # disclosed D1 rounds
        e = analysis.error_rate_theory(theta)
        if abs(e - e_star) < Z_VERDICT * math.sqrt(e * (1.0 - e) / m):
            return None
        return "key" if analysis.key_rate(theta).key_rate > 0.0 else "abort"

    def _session(self, point: Point, seed: int) -> Session:
        def run():
            theta_star, e_star = analysis.security_threshold()
            expect = self._expected_verdict(point, e_star)
            transcript = parties.run_protocol(
                self.N, self.F, point.attack, seed, channel_cfg=point.channel
            )
            return transcript, theta_star, e_star, expect

        return Session(point.label, self.N, run, lambda out: self.check(point, out))

    def warm_up(self) -> Session:
        return self._session(self.scan[0], self.seed)

    def block(self, index: int) -> list[Session]:
        rng, seeds = _session_seeds(self.seed, index, len(self.scan))
        return [self._session(self.scan[i], seeds[i]) for i in rng.permutation(len(self.scan))]

    def check(self, point: Point, out) -> Checked:
        t, theta_star, e_star, expect = out
        checked = Checked(key_expected=expect == "key")
        law = checked.law
        if abs(theta_star - THETA_STAR) > 1e-9:
            law.append(f"theta* = {theta_star:.12g}, expected {THETA_STAR}")
        keyed = t.verdict.key_produced
        if expect is not None and keyed != (expect == "key"):
            if keyed or self.strict:
                checked.verdict.append(f"{point.label}: {t.verdict}, expected {expect}")
            else:
                checked.false_abort = f"{point.label}: {t.verdict}"
        if keyed and t.report.error_rate >= e_star:
            checked.verdict.append(
                f"{point.label}: key released at error rate {t.report.error_rate:.6g} >= e*"
            )
        if not keyed:
            return checked
        if not len(t.key_bob) == len(t.key_charlie) == len(t.key_round_ids):
            law.append(f"{point.label}: key lengths differ")
        checked.key_bits = sum(1 for b, c in zip(t.key_bob, t.key_charlie) if b == c)
        if point.label == "honest":
            r = t.report
            if t.key_bob != t.key_charlie:
                law.append("honest: Bob's and Charlie's keys differ")
            if (r.error_rate, r.visibility, r.coincidence_rate, r.multi_rate) != (0.0, 1.0, 0.0, 0.0):
                law.append(f"honest: merits {r} not exact")
            _key_length_band(law, len(t.key_bob), self.N, self.F)
        return checked


class AbortDefects(AbortScan):
    """``abort-scan``'s sessions over ``DEFECT_SCAN``, every wrong verdict a
    failure.  Not timed: it shows the abort rule's known defects."""

    name = "abort-defects"
    scan = DEFECT_SCAN
    strict = True


WORKLOADS = {w.name: w for w in (SimulateEve, ProtocolSession, AbortScan, AbortDefects)}
