"""The benchmark traces and meters attnatr from outside the package by
patching functions and methods by name (``benchmark/spans.py`` and the
``desk_protocol`` meters in ``benchmark/workloads.py``).  A rename under
``src/`` would break those hooks only when the benchmark runs; this test
finds it in tier 1.  It constructs no tracer or workload, so nothing stays
patched."""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
SRC = ROOT / "src" / "attnatr"


def _patch_add_calls(path: Path) -> list:
    """(owner, attr) of each ``….add("owner", "attr", wrapper)`` call in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "add" and len(node.args) == 3 \
                and all(isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                        for arg in node.args[:2]):
            found.append((node.args[0].value, node.args[1].value))
    return found


def test_benchmark_hooks_resolve_to_functions_under_src(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    meters = _patch_add_calls(BENCH / "workloads.py")
    assert meters, "no Patch.add call found in workloads.py"
    hooks = [(owner, attr) for owner, attr, _ in spans.TARGETS] + meters \
        + _patch_add_calls(BENCH / "spans.py")
    broken = []
    for owner, attr in hooks:
        importlib.import_module(owner.partition(":")[0])
        target = getattr(spans._resolve(owner), attr, None)
        if not callable(target) or not Path(inspect.getsourcefile(target)).is_relative_to(SRC):
            broken.append(f"{owner}.{attr}")
    assert broken == []
