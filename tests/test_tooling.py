"""Guards on what the benchmark harness and the scripts rely on: every
module imports on its own and at module level (the outcome law's module
below the protocol), every function the per-layer tracer wraps still
exists under its name, a session calls the merit report and the
abort decision through the module attributes the tracer wraps, its packet
counter reads a session's packet log, each timed workload's warm-up
session, one abort-scan session of every scan point and a protocol
session long enough for several transcript chunks pass the workload's own
check, the attack sweep script runs, and one function in the package opens
files for writing."""

import ast
import importlib
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = ("photonics", "channel", "adversary", "parties", "metrics", "analysis", "cli")

# Registers the package without running its __init__, whose fixed import
# order would otherwise hide a cycle between the modules.
_IMPORT_ALONE = """
import importlib, importlib.util, sys
spec = importlib.util.spec_from_file_location(
    "cqca", {init!r}, submodule_search_locations=[{pkg!r}]
)
sys.modules["cqca"] = importlib.util.module_from_spec(spec)
importlib.import_module("cqca." + {module!r})
"""


@pytest.mark.parametrize("module", (*MODULES, "law"))
def test_module_imports_first_on_its_own(module):
    pkg = SRC / "cqca"
    code = _IMPORT_ALONE.format(init=str(pkg / "__init__.py"), pkg=str(pkg), module=module)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def _import_targets(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The modules an import statement reads, ``cqca`` ones by bare name."""
    if isinstance(node, ast.Import) or node.module is None:  # ``from . import x``
        names = [alias.name for alias in node.names]
    else:
        names = [node.module]
    return [name.removeprefix("cqca.") for name in names]


def test_imports_sit_at_module_level_and_the_law_below_the_protocol():
    # A call-time import hides a cycle between the modules.  The one kept:
    # metrics calls analysis.security_threshold() at import.
    pkg = SRC / "cqca"
    late = set()
    for path in sorted(pkg.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        late.update((path.stem, function.name, t) for t in _import_targets(node))
    assert late == {("analysis", "theoretical_merits", "metrics")}
    modules = {path.stem for path in pkg.glob("*.py")}
    law_reads = {
        target
        for node in ast.walk(ast.parse((pkg / "law.py").read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for target in _import_targets(node)
    }
    assert law_reads & modules == {"photonics", "channel", "adversary"}


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether a call opens a file for writing: ``os.open``, ``write_text``,
    ``write_bytes``, or ``open``/``Path.open`` with a writing mode."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return True
    # builtin open(file, mode) or Path.open(mode)
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    return any(
        not isinstance(mode, ast.Constant) or any(c in str(mode.value) for c in "wax+")
        for mode in modes
    )


def test_cli_write_is_the_one_writer():
    # every output goes through the in-place writer
    writers = set()
    for path in sorted((SRC / "cqca").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # each node's innermost function, else the module's code
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), function.name) for node in ast.walk(function))
        writers.update(
            (path.stem, owner.get(id(node), "<module>"))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _opens_for_writing(node)
        )
    assert writers == {("cli", "_write")}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_resolve():
    tracing = _load_tracing()
    assert set(tracing.LAYERS) == set(MODULES)
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"cqca.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"{layer}: {missing}"


def test_a_session_calls_report_and_verdict_once_by_module_attribute(monkeypatch):
    # the tracer charges the merit report and the abort decision to metrics
    # by wrapping those module attributes, so a session must look them up there
    from cqca import metrics
    from cqca.channel import AttackConfig
    from cqca.parties import run_protocol

    calls = []
    for name in ("compute_merit_report", "abort_decision"):
        def counted(*args, _name=name, _function=getattr(metrics, name), **kwargs):
            calls.append(_name)
            return _function(*args, **kwargs)

        monkeypatch.setattr(metrics, name, counted)
    for attack in (
        AttackConfig.none(), AttackConfig.eve_probe(0.6), AttackConfig.alice_double_path(1.0)
    ):
        calls.clear()
        run_protocol(2_000, 0.25, attack, seed=2)
        assert calls == ["compute_merit_report", "abort_decision"], attack.kind


def test_packet_counter_reads_the_derived_stream():
    from cqca.parties import run_protocol

    tracer = _load_tracing().Tracer()
    tracer._observe_protocol(run_protocol(2_000, 0.25, seed=1))
    # 4 set-up controls, 4 packets per round, 1 sample-id packet, the
    # sample acknowledgement and 2 disclosures per sampled round
    assert tracer.counters["packets"] == 4 + 4 * 2_000 + 1 + 1 + 2 * 500 == 9_006
    assert tracer.counters["protocol_rounds"] == 2_000


@pytest.fixture(scope="module")
def workloads():
    return load_workloads()


@pytest.mark.parametrize("name", ["simulate-eve", "protocol-session", "abort-scan"])
def test_workload_warm_up_passes_its_check(workloads, tmp_path, name):
    session = workloads.WORKLOADS[name](seed=1, workdir=tmp_path).warm_up()
    checked = session.check(session.run())
    assert checked.law == [] and checked.verdict == []
    assert checked.false_abort is None


def test_abort_scan_check_passes_on_every_point(workloads, tmp_path):
    # one block is one session of every scan point, in a seeded order
    workload = workloads.AbortScan(seed=1, workdir=tmp_path)
    sessions = workload.block(0)
    assert sorted(s.label for s in sessions) == sorted(p.label for p in workload.scan)
    for session in sessions:
        checked = session.check(session.run())
        assert (checked.law, checked.verdict) == ([], []), session.label


def test_protocol_session_check_passes_across_chunks(workloads, tmp_path):
    # 40,000 rounds: three transcript chunks and five-digit round ids
    workload = workloads.ProtocolSession(seed=1, workdir=tmp_path)
    session = workload._session(40_000, 1)
    checked = session.check(session.run())
    assert checked.law == [] and checked.verdict == []
    assert checked.false_abort is None


def test_attack_sweep_prints_one_row_per_point(monkeypatch, capsys):
    path = ROOT / "scripts" / "attack_sweep.py"
    spec = importlib.util.spec_from_file_location("attack_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr(sys, "argv", ["attack_sweep.py", "--rounds", "2000", "--points", "2"])
    sweep.main()
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["theta", "V_emp", "V_thy", "e_emp", "e_thy", "I_E_emp", "chi"]
    assert set(rule) == {"-"}
    assert len(rows) == 2
    for row in rows:
        mi = float(row.split()[5])
        assert math.isfinite(mi) and mi <= 1.0
