"""The benchmark's tracer wraps modalkit functions and ModelSlab methods by
name; every name it lists must resolve, or the traced runs break."""

import importlib
from pathlib import Path

from modalkit.bitgrid import ModelSlab

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_hook_resolves():
    # executed from its text, so nothing is written beside it
    tracer = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)
    for mod, attr, _ in tracer["FUNCTIONS"]:
        assert callable(getattr(importlib.import_module("modalkit." + mod), attr, None)), \
            (mod, attr)
    # the tracer patches the methods the class itself defines
    for attr, _ in tracer["SLAB_METHODS"]:
        assert callable(vars(ModelSlab).get(attr)), attr
