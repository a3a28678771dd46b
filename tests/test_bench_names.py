"""Every fadelab function the benchmark's per-layer metrics look up by name
(``bench/run.py``) is a public function of the module it names, so that the
traced run (``--trace 1``) finds each one.  The benchmark script is parsed,
not run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"
LOOKUPS = ("self_time", "calls", "count", "tags", "rate")


def looked_up_names() -> set[str]:
    """String arguments of the ``Layers`` lookups, and the names in ``BUILD``."""
    names = set()
    for node in ast.walk(ast.parse(RUN.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in LOOKUPS):
            names.update(a.value for a in node.args
                         if isinstance(a, ast.Constant) and isinstance(a.value, str))
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "BUILD" for t in node.targets)):
            # BUILD is a self-contained tuple expression: evaluate it alone
            scope = {}
            exec(compile(ast.Module(body=[node], type_ignores=[]), str(RUN), "exec"), scope)
            names.update(scope["BUILD"])
    return names


def test_the_script_is_parsed():
    names = looked_up_names()
    assert {"spectra.make_model", "spectra.autocorr", "mi.mi_monte_carlo",
            "cli.execute"} <= names


@pytest.mark.parametrize("name", sorted(looked_up_names()))
def test_bench_name_is_a_public_function(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"fadelab.{module_name}")
    fn = getattr(module, attr, None)
    assert not attr.startswith("_") and inspect.isfunction(fn), name
    assert fn.__module__ == module.__name__, name
