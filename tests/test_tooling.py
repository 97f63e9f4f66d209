"""Guards on the package's structure that the benchmark harness relies on:
every module imports on its own, and every function the per-layer tracer
wraps still exists under its name."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_on_its_own(module):
    pkg = SRC / "cqca"
    code = _IMPORT_ALONE.format(init=str(pkg / "__init__.py"), pkg=str(pkg), module=module)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert set(tracing.LAYERS) == set(MODULES)
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"cqca.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"{layer}: {missing}"
