"""The cqca benchmark: three closed-loop workloads, timed from outside.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh interpreter (worker.py), on one CPU, with
the BLAS and OpenMP pools pinned to one thread and ``cqca`` imported from
this checkout's ``src/``.  Set-up time is the median over several more fresh
interpreters of the time to import the package and build the workload.
Without ``--workload`` every timed workload runs in turn.

Every time is scaled to the reference speed of a fixed calibration kernel
timed right before and after it (calibrate.py), because the speed of a
shared host's core drifts by up to half within a run; the raw times are
recorded next to the scaled ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end figures with
``--trace 0``, the per-layer figures with ``--trace 1``.  The lines before
it name every figure with its unit, the session counts, and the
environment (git sha when there is one, a hash of ``src/cqca``, Python,
numpy, nproc).  The same record, with any failure messages, is written to
``perfbench/out/``; a traced run also writes its spans there.

Workloads (one session = one timed call into the program, then a check):

* simulate-eve: ``run_rounds`` of 1e5 rounds under Eve's probe at
  theta = 0.3, the full-stream merit report and Eve's mutual information.
  Photonics does most of the work; the packet log and transcript are
  never used.
* protocol-session: ``cqca protocol --n 100000 --f 0.25`` through
  ``cli.main`` in-process on an honest lossless channel, transcript and
  keys written to a work directory.  Parties and cli do most of the work;
  photonics takes its one-dimensional path.
* abort-scan: sessions of 5000 rounds through ``run_protocol`` over a
  fixed scan of honest, Eve and source-attack points, some on a lossy,
  dark-counting channel.  Per-session costs weigh most; it is the only
  workload on the loss and dark-count paths, and source-attacked rounds
  skip photonics.

Metric ``ok_frac`` is the share of sessions that did not fail; a session
fails when it raises, when its output disagrees with the paper's closed
forms, or when its abort verdict is wrong (see workloads.py).

``--workload abort-defects`` is not timed and not run by default: it runs
the scan points where the abort rule's known defects show, and counts
each wrong verdict as a failed session.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("simulate-eve", "protocol-session", "abort-scan")
DEFECTS = "abort-defects"
SETUP_STARTS = 15
#: Whole run, set-up included, must end well inside three minutes.
DEADLINE_S = 170.0

END_TO_END = {
    "rounds_per_s": "rounds/s",
    "key_bits_per_s": "bits/s",
    "sessions_per_s": "1/s",
    "session_p50_s": "s",
    "session_tail_s": "s",
    "peak_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}
PER_LAYER = {
    **{
        f"{layer}.{kind}": unit
        for layer in ("photonics", "channel", "adversary", "parties", "metrics", "analysis", "cli")
        for kind, unit in (("calls", "calls/session"), ("self_s", "s/session"))
    },
    "parties.packets": "packets/session",
    "parties.sift_yield": "bits/round",
    "bench.self_s": "s/session",
    "trace.wall_s": "s/session",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cqca").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def worker_cmd(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(OUT), *extra]


def measure_setup(workload: str, seed: int, env: dict) -> tuple[list[float], list[float]]:
    """Fresh interpreter to the first session being ready, several times;
    scaled and raw times."""
    times, raw = [], []
    cal = calibrate.timed()
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        with subprocess.Popen(worker_cmd(workload, seed, "--setup-only"), cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise BenchError(f"set-up of {workload} did not exit") from None
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up of {workload} failed (exit {proc.returncode})")
        cal_after = calibrate.timed()
        raw.append(elapsed)
        times.append(elapsed * calibrate.scale(cal, cal_after))
        cal = cal_after
    return times, raw


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    env = worker_env()
    setup, setup_raw = ([], []) if trace else measure_setup(workload, seed, env)
    cmd = worker_cmd(workload, seed, "--seconds", str(seconds), "--trace", str(trace))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish before the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["details"]["setup_starts_s"] = setup
        result["details"]["raw_setup_starts_s"] = setup_raw
    return result


def report(workload: str, seed: int, trace: int, result: dict, env: dict) -> dict:
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    details = result["details"]
    print(f"# workload={workload} seed={seed} trace={trace} " +
          " ".join(f"{k}={v}" for k, v in {**env, "numpy": result["numpy"]}.items()))
    for name, m in metrics.items():
        extra = ""
        if name == "session_tail_s":
            extra = f"  (p{details['session_tail_percentile']:.1f} of {details['sessions']} sessions)"
        print(f"{name:<22} {m['value']:>16.6g} {m['unit']}{extra}")
    print(f"failed_frac = {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.4f}")
    if "false_aborts" in details:
        print(f"false aborts of key-expected sessions = {details['false_aborts']}")
    for failure in result["failures"][:8]:
        print(f"# failed: {failure.splitlines()[-1]}")
    OUT.mkdir(exist_ok=True)
    record = {**line, "workload": workload, "seed": seed, "trace": trace,
              "environment": {**env, "numpy": result["numpy"]},
              "details": details, "failures": result["failures"]}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, DEFECTS), default=None,
                        help="one workload (default: every timed one, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "cqca" / "__init__.py").is_file():
        print(f"error: no cqca package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    # One core for the whole run.  The last one: CPU 0 also takes the
    # virtual machine's interrupts and shows more stolen time.
    env["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu"]})
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    lines = {}
    try:
        for name in workloads:
            result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            lines[name] = report(name, args.seed, args.trace, result, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        print(json.dumps(lines[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(x["correct"] for x in lines.values()),
            "attempted": sum(x["attempted"] for x in lines.values()),
            "failed": sum(x["failed"] for x in lines.values()),
            "metrics": {f"{w}.{k}": v for w, x in lines.items() for k, v in x["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
