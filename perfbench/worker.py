"""One workload in one fresh interpreter; started by run.py.

With ``--setup-only`` it imports the package, builds the workload and
prints ``ready``.  Otherwise it runs whole blocks of sessions for about
``--seconds`` and prints one JSON line.  Untraced, that line
holds the end-to-end figures.  Traced, it runs the same number of blocks
twice -- untraced, then under the tracer -- and holds the per-layer
figures; the ratio of the two passes is the tracing overhead.

Every session's time is scaled to the calibration kernel's reference
speed (calibrate.py), stretch by stretch of at most ``TICK_S``; the
figures are taken from the scaled times, the raw ones are recorded.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate

SRC = Path(__file__).resolve().parent.parent / "src"
TICK_S = 0.2


def measure(workload, seconds: float, blocks: int | None = None, tracer=None,
            tick_s: float | None = TICK_S) -> dict:
    """Run whole blocks while the next one is expected to end within
    ``seconds`` (or exactly ``blocks`` of them)."""
    block_stats, times, raw_times, failures = [], [], [], []
    attempted = failed = incorrect = 0
    key_expected = false_aborts = 0
    start_all = time.perf_counter()
    clock = calibrate.Clock(tick_s)
    index = 0
    while True:
        elapsed = time.perf_counter() - start_all
        if blocks is None and index and elapsed * (index + 1) / index > seconds:
            break
        if blocks is not None and index >= blocks:
            break
        rounds = key_bits = 0
        busy = 0.0
        sessions = workload.block(index)
        for session in sessions:
            attempted += 1
            clock.start()
            try:
                out = session.run() if tracer is None else tracer.run_root(session.run)
                error = None
            except Exception:
                out, error = None, traceback.format_exc(limit=3)
            raw, took = clock.stop()
            raw_times.append(raw)
            busy += took
            times.append(took)
            rounds += session.rounds
            problems = [f"{session.label}: raised {error}"] if error else []
            if error is None:
                try:
                    checked = session.check(out)
                except Exception:
                    problems.append(f"{session.label}: check raised {traceback.format_exc(limit=3)}")
                    incorrect += 1
                else:
                    key_bits += checked.key_bits
                    problems += checked.law + checked.verdict
                    incorrect += bool(checked.law)
                    key_expected += checked.key_expected
                    if checked.false_abort is not None:
                        false_aborts += 1
                        failures.append(f"false abort: {checked.false_abort}")
            del out
            if problems:
                failed += 1
                failures.extend(problems)
        block_stats.append((rounds, key_bits, len(sessions), busy))
        index += 1
    return {
        "blocks": block_stats,
        "times": times,
        "raw_times": raw_times,
        "false_aborts": false_aborts,
        "key_expected": key_expected,
        "attempted": attempted,
        "failed": failed,
        "incorrect": incorrect,
        "failures": failures,
    }


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten sessions beyond it, as (value,
    percentile); the maximum when that percentile would not reach p50."""
    ordered = sorted(times)
    k = len(ordered) - 10 if len(ordered) >= 20 else len(ordered)
    return ordered[k - 1], 100.0 * k / len(ordered)


def end_to_end(m: dict) -> tuple[dict, dict]:
    blocks = m["blocks"]
    value, pct = tail(m["times"])
    metrics = {
        "rounds_per_s": statistics.median(r / t for r, _, _, t in blocks),
        "key_bits_per_s": statistics.median(k / t for _, k, _, t in blocks),
        "sessions_per_s": statistics.median(s / t for _, _, s, t in blocks),
        "session_p50_s": statistics.median(m["times"]),
        "session_tail_s": value,
        "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (m["attempted"] - m["failed"]) / m["attempted"],
    }
    details = {"session_tail_percentile": pct, "sessions": len(m["times"]),
               "false_aborts": f"{m['false_aborts']}/{m['key_expected']}",
               "block_s": [t for *_, t in blocks], "session_s": m["times"],
               "raw_session_s": m["raw_times"]}
    return metrics, details


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy

    import cqca
    from workloads import WORKLOADS, false_abort_excess

    if not Path(cqca.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"cqca imported from {cqca.__file__}, not from {SRC}")
    args.out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=args.out))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        try:
            workload.warm_up().run()
        except Exception:
            pass  # the measured sessions record the failure
        result = {"numpy": numpy.__version__}
        if args.trace:
            from tracing import Tracer

            half = args.seconds / 2.0
            plain = measure(workload, half, tick_s=None)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, half, blocks=len(plain["blocks"]), tracer=tracer,
                                 tick_s=None)
            finally:
                tracer.uninstall()
            if not tracer.self_times_add_up():
                sys.exit("per-layer self times do not add up to the traced wall time")
            layers = tracer.per_session(len(traced["times"]))
            layers["trace.overhead_frac"] = sum(traced["times"]) / sum(plain["times"]) - 1.0
            tracer.write(args.out / f"{args.workload}.spans.npz")
            runs = (plain, traced)
            result["metrics"] = layers
            result["details"] = {"spans": len(tracer.starts), "spans_dropped": tracer.dropped,
                                 "sessions": len(traced["times"])}
        else:
            run = measure(workload, args.seconds)
            runs = (run,)
            result["metrics"], result["details"] = end_to_end(run)
        for r in runs:
            excess = false_abort_excess(r["key_expected"], r["false_aborts"])
            if excess is not None:
                r["failures"].append(excess)
                r["incorrect"] += 1
        result["attempted"] = sum(r["attempted"] for r in runs)
        result["failed"] = sum(r["failed"] for r in runs)
        result["correct"] = all(r["incorrect"] == 0 for r in runs) and result["failed"] < result["attempted"]
        result["failures"] = [f for r in runs for f in r["failures"]][:50]
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
