"""Every package name the benchmark under solbench/ reaches for still resolves.

The benchmark's tracer wraps package functions by name and its checks
import package names, so deleting or renaming one of them breaks every
benchmark run without failing any other test.  These tests only read
solbench/; they change nothing there.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import solenoidlab

SOLBENCH = Path(__file__).resolve().parents[1] / "solbench"


def _resolves(module: str, name: str) -> bool:
    """module.name exists, as an attribute or (`from solenoidlab import cli`) a submodule."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    return hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None


def test_tracer_hooks_resolve():
    spec = importlib.util.spec_from_file_location("solbench_tracer", SOLBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooks = [(mod, fn) for mod, fn, *_ in tracer.TRACED] + list(tracer.WRITERS)
    assert hooks
    missing = [f"{mod}.{fn}" for mod, fn in hooks if not _resolves(f"solenoidlab.{mod}", fn)]
    assert missing == []


@pytest.mark.parametrize("path", sorted(SOLBENCH.glob("*.py")), ids=lambda p: p.name)
def test_solbench_imports_resolve(path):
    missing = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "solenoidlab":
            missing += [f"{node.module}.{a.name}" for a in node.names if not _resolves(node.module, a.name)]
    assert missing == []


@pytest.mark.parametrize(
    "module",
    [m.name for m in pkgutil.iter_modules(solenoidlab.__path__) if not m.name.startswith("__")],
)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"solenoidlab.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_package_all_resolves():
    assert [name for name in solenoidlab.__all__ if not hasattr(solenoidlab, name)] == []
