"""The benchmark's tracer wraps modalkit functions and ModelSlab methods by
name; every name it lists must resolve, or the traced runs break."""

import ast
import importlib
from pathlib import Path

from modalkit.bitgrid import ModelSlab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
TRACER_TEST = "test_tracer_wraps_every_binding_and_restores_it"


def _tracer() -> dict:
    # executed from its text, so nothing is written beside it
    tracer = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)
    return tracer


def _asserted_bindings() -> tuple[tuple[str, str], ...]:
    """The (module, attribute) pairs the benchmark's own tracer test loops
    over, read from its source."""
    tree = ast.parse((PERFBENCH / "test_perfbench.py").read_text(encoding="utf-8"))
    test = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == TRACER_TEST)
    loop = next(node for node in ast.walk(test) if isinstance(node, ast.For))
    return ast.literal_eval(loop.iter)


def test_every_traced_hook_resolves():
    tracer = _tracer()
    for mod, attr, _ in tracer["FUNCTIONS"]:
        assert callable(getattr(importlib.import_module("modalkit." + mod), attr, None)), \
            (mod, attr)
    # the tracer patches the methods the class itself defines
    for attr, _ in tracer["SLAB_METHODS"]:
        assert callable(vars(ModelSlab).get(attr)), attr


def test_the_tracer_wraps_every_binding_the_benchmark_asserts():
    pairs = _asserted_bindings()
    assert ("classify", "find_countermodel") in pairs
    modules = {mod: importlib.import_module("modalkit." + mod) for mod, _ in pairs}

    def bound():
        return {(mod, attr): getattr(modules[mod], attr) for mod, attr in pairs}

    before = bound()
    t = _tracer()["Tracer"]()
    t.install()
    try:
        wrapped = {pair: hasattr(fn, "__wrapped__") for pair, fn in bound().items()}
    finally:
        t.uninstall()
    assert all(wrapped.values()), wrapped
    assert bound() == before
