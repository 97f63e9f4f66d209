"""Command-line entry point.

Four subcommands: ``simulate`` runs a statistics-only Monte Carlo and
prints the figures of merit beside their expectations under the exact
outcome law, ``protocol`` runs a full session and writes the transcript
plus the sifted keys, ``analyze`` tabulates the security curve to CSV, and
``threshold`` prints the probe-strength and error-rate thresholds.

Options may come from flags or from a flat ``key = value`` config file
(flags win).  Every run echoes its effective configuration to stderr in the
same format, so a run is reproducible from its own output.  Exit codes:
0 success, 1 usage, configuration or file error, 2 protocol abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import stat
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import analysis, metrics, parties
from .channel import AttackConfig, AttackKind, AttackTarget, ChannelConfig, FakeStrategy


class CliError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    n: int = 100_000
    f: float = 0.25
    seed: int = 1
    attack: str = "none"
    theta: float = 0.3
    p: float = 0.25
    strategy: str = "random-quarter"
    target: str = "random"
    loss: float = 0.0
    dark_rate: float = 0.0
    grid_points: int = 200
    output: str | None = None
    format: str = "text"

    def attack_config(self) -> AttackConfig:
        """The attack built by its kind's constructor, so the fields the kind
        ignores stay at their defaults (and out of the law's cache key)."""
        kind = AttackKind(self.attack)
        if kind is AttackKind.EVE_PROBE:
            return AttackConfig.eve_probe(self.theta)
        if kind is AttackKind.ALICE_SINGLE_PATH:
            return AttackConfig.alice_single_path(
                self.p, FakeStrategy(self.strategy), AttackTarget(self.target)
            )
        if kind is AttackKind.ALICE_DOUBLE_PATH:
            return AttackConfig.alice_double_path(self.p)
        return AttackConfig.none()

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(loss_rate=self.loss, dark_rate=self.dark_rate)


def _parse_path(text: str) -> str | None:
    """A path, or None for ``""`` or ``none``; no path holds a NUL byte."""
    if "\0" in text:
        raise ValueError("a path cannot hold a NUL byte")
    return None if text in ("", "none") else text


#: A config value's parser, by the annotation of its ``RunConfig`` field.
_ANNOTATION_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "str | None": _parse_path,
}
#: Each config key's parser, which also parses its flag.  ``command`` is
#: accepted for round-tripping echoes; the subcommand wins.
_FIELD_PARSERS = {fld.name: _ANNOTATION_PARSERS[fld.type] for fld in dataclasses.fields(RunConfig)}
#: The allowed values of each enumerated field, for its flag and its config key.
_CHOICES = {
    "attack": [k.value for k in AttackKind],
    "strategy": [s.value for s in FakeStrategy],
    "target": [t.value for t in AttackTarget],
    "format": ["csv", "json-lines", "text"],
}
#: Each subcommand's help line.
_SUBCOMMANDS = {
    "simulate": "statistics run with merit report",
    "protocol": "full session with transcript and keys",
    "analyze": "security curve CSV over a theta grid",
    "threshold": "probe-strength and error-rate thresholds",
}
#: The subcommands that take a field's flag and check its bounds, where
#: not the two that run rounds.
_TAKEN_BY = {
    "f": ("protocol",),
    "format": ("simulate",),
    "grid_points": ("analyze",),
    "output": tuple(_SUBCOMMANDS),
}
#: Each bounded field's range, as a test and the message when it fails.
_BOUNDS = {
    "n": (lambda n: n >= 1, "must be positive"),
    "f": (lambda f: 0.0 < f < 1.0, "must lie in (0, 1)"),
    "seed": (lambda seed: seed >= 0, "must be non-negative"),
    "theta": (lambda theta: 0.0 <= theta <= math.pi / 2, "must lie in [0, pi/2]"),
    "p": (lambda p: 0.0 <= p <= 1.0, "must lie in [0, 1]"),
    "loss": (lambda loss: 0.0 <= loss < 1.0, "must lie in [0, 1)"),
    "dark_rate": (lambda rate: 0.0 <= rate < 1.0, "must lie in [0, 1)"),
    "grid_points": (lambda points: points >= 1, "must be positive"),
}


def _takes(command: str, key: str) -> bool:
    return command in _TAKEN_BY.get(key, ("simulate", "protocol"))


def _strip_comment(text: str) -> str:
    """``text`` without surrounding whitespace or a comment: a ``#`` at its
    start or after whitespace, and all that follows."""
    return re.split(r"(?:^|\s)#", text, maxsplit=1)[0].strip()


def parse_config_file(text: str) -> dict:
    """Flat ``key = value`` format, ``#`` comments, unknown keys rejected."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_PARSERS:
            raise CliError(f"line {lineno}: unknown config key {key!r}")
        if key in _CHOICES and value not in _CHOICES[key]:
            allowed = ", ".join(map(repr, _CHOICES[key]))  # as argparse words it for a flag
            raise CliError(
                f"line {lineno}: {key}: invalid choice: {value!r} (choose from {allowed})"
            )
        try:
            values[key] = _FIELD_PARSERS[key](value)
        except ValueError as exc:
            raise CliError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return values


def format_effective_config(cfg: RunConfig) -> str:
    lines = [f"command = {cfg.command}"]
    for fld in dataclasses.fields(cfg):
        if fld.name == "command":
            continue
        value = getattr(cfg, fld.name)
        if value is None:
            value = "none"
        lines.append(f"{fld.name} = {value}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise CliError(message)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on the first call and reused after.

    Each ``RunConfig`` field but ``command`` is one flag, its name with
    dashes, parsed like its config key and registered on the subcommands
    that take it.  A flag left out is absent from the parsed namespace.
    """
    parser = _Parser(prog="cqca", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, text in _SUBCOMMANDS.items()}
    for command in commands.values():
        command.add_argument("--config", help="flat key = value config file")
    for fld in dataclasses.fields(RunConfig)[1:]:
        for name, command in commands.items():
            if _takes(name, fld.name):
                command.add_argument(
                    f"--{fld.name.replace('_', '-')}",
                    type=_FIELD_PARSERS[fld.name],
                    choices=_CHOICES.get(fld.name),
                    default=argparse.SUPPRESS,
                    help=f"default {fld.default}",
                )
    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    flags = dict(vars(args))
    config = flags.pop("config")
    if config:
        path = Path(config)
        try:
            text = path.read_text(encoding="utf-8-sig")
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise CliError(f"cannot read {path}: {exc}") from exc
        values.update(parse_config_file(text))
    for key, value in flags.items():  # its echo reads back as one line, unstripped
        if isinstance(value, str) and [_strip_comment(value)] != value.splitlines(True):
            raise CliError(
                f"{key} {value!r} would not survive its echo: a config value cannot "
                "start or end with whitespace, hold a line break, or '#' after whitespace"
            )
    values.update(flags)
    cfg = RunConfig(**values)
    for key, (in_range, message) in _BOUNDS.items():
        if _takes(cfg.command, key) and not in_range(getattr(cfg, key)):
            raise CliError(f"{key} {message}")
    return cfg


def _write(path: Path, chunks: Iterable[bytes | np.ndarray]) -> None:
    """Write the byte chunks to ``path`` in order, over what it held.

    The file is not truncated when opened but, if it is a regular file,
    cut to the bytes written once they are written, also when a write
    fails part way, so no byte of an earlier file stays past the new ones.
    Any other target (``/dev/null``, a FIFO, a tty) is only written.
    """
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb", buffering=0) as out:
            regular = stat.S_ISREG(os.fstat(out.fileno()).st_mode)
            written = 0
            try:
                for chunk in chunks:
                    view = memoryview(chunk).cast("B")
                    while view:
                        count = out.write(view)
                        written += count
                        view = view[count:]
            finally:
                if regular:
                    out.truncate(written)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _remove_stale(path: Path) -> None:
    """Remove a regular file an earlier run left at ``path``; leave anything
    else there alone."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output is None:
        print(text)
    else:
        _write(Path(output), [(text if text.endswith("\n") else text + "\n").encode()])


def _report_payload(cfg: RunConfig, report, verdict, expected) -> str:
    if cfg.format == "csv":
        return metrics.CSV_HEADER + "\n" + metrics.report_csv_row(report, verdict)
    if cfg.format == "json-lines":
        payload = {
            "n": report.n,
            **{label: getattr(report, key) for key, label in metrics.LABELS},
            "expected": expected,
            "counts": report.counts,
            "verdict": str(verdict),
        }
        return json.dumps(payload)
    return metrics.report_text_block(report, verdict, expected)


def _abort_insufficient(exc: metrics.InsufficientSample) -> int:
    """A sample too small to estimate some figure of merit cannot vouch for
    a key: abort, naming the estimate that had no rounds."""
    print(f"insufficient sample: {exc}", file=sys.stderr)
    print("ABORT reasons=insufficientSample")
    return 2


def cmd_simulate(cfg: RunConfig) -> int:
    attack = cfg.attack_config()
    channel_cfg = cfg.channel_config()
    result = parties.run_rounds(cfg.n, attack, channel_cfg, cfg.seed)
    try:
        report = metrics.compute_merit_report(result.rounds, result.rounds, cfg.n)
    except metrics.InsufficientSample as exc:
        return _abort_insufficient(exc)
    verdict = metrics.abort_decision(report, channel_cfg)
    expected = analysis.theoretical_merits(attack, channel_cfg)
    _emit(_report_payload(cfg, report, verdict, expected), cfg.output)
    if not verdict.key_produced:
        print(f"ABORT reasons={','.join(verdict.abort_reasons)}")
        return 2
    return 0


def cmd_protocol(cfg: RunConfig) -> int:
    """Run a session; an abort leaves no earlier run's keys at the output."""
    out_path = Path(cfg.output) if cfg.output else Path("cqca-transcript.txt")
    keys_path = Path(f"{out_path}.keys")
    try:
        transcript = parties.run_protocol(
            cfg.n,
            cfg.f,
            attack=cfg.attack_config(),
            seed=cfg.seed,
            channel_cfg=cfg.channel_config(),
        )
    except metrics.InsufficientSample as exc:
        _remove_stale(keys_path)
        _remove_stale(out_path)
        return _abort_insufficient(exc)
    _write(out_path, parties.transcript_chunks(transcript.rounds))
    print(f"transcript = {out_path}")
    print(f"rounds = {len(transcript.rounds)}")
    print(f"verdict = {transcript.verdict}")
    if not transcript.verdict.key_produced:
        _remove_stale(keys_path)
        print(f"ABORT reasons={','.join(transcript.verdict.abort_reasons)}")
        return 2
    key_lines = [
        f"key_bits = {len(transcript.key_bob)}",
        f"key_bob_hex = {parties.key_to_hex(transcript.key_bob)}",
        f"key_charlie_hex = {parties.key_to_hex(transcript.key_charlie)}",
        "key_round_ids = ",
    ]
    key_ids = parties.joined_decimal(transcript.key_round_ids)
    _write(keys_path, ["\n".join(key_lines).encode(), *key_ids, b"\n"])
    print("\n".join(key_lines[:3]))
    print(f"keys_file = {keys_path}")
    return 0


def cmd_analyze(cfg: RunConfig) -> int:
    grid = np.linspace(0.0, math.pi / 2, cfg.grid_points)
    points = analysis.sweep_security_curve(grid.tolist())
    _emit(analysis.curve_to_csv(points), cfg.output)
    return 0


def cmd_threshold(cfg: RunConfig) -> int:
    theta_star, e_star = analysis.security_threshold()
    text = f"theta_star = {theta_star:.10g}\ne_star = {e_star:.10g}"
    _emit(text, cfg.output)
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "protocol": cmd_protocol,
    "analyze": cmd_analyze,
    "threshold": cmd_threshold,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _build_config(args)
        print("# effective-config", file=sys.stderr)
        print(format_effective_config(cfg), file=sys.stderr)
        return _COMMANDS[cfg.command](cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
