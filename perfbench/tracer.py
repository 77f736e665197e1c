"""Outside-in tracing of modalkit: spans around its public entry points.

The tracer replaces each traced function at every place it is bound (the
defining module and every modalkit module that imported it) and the traced
ModelSlab methods on the class.  Each call records a span (name, parent
span, request id, start, end) in flat arrays; self times and the per-layer
counters are derived from the spans afterwards.  uninstall() puts every
original binding back.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (module, function, span name)
FUNCTIONS = (
    ("syntax", "parse", "syntax.parse"),
    ("syntax", "desugar", "syntax.desugar"),
    ("syntax", "enumerate_formulas", "syntax.enumerate_formulas"),
    ("kripke", "eval_deep", "kripke.eval_deep"),
    ("kripke", "has_property", "kripke.has_property"),
    ("kripke", "load_model", "kripke.load_model"),
    ("translate", "translate_max", "translate.translate"),
    ("translate", "translate_min", "translate.translate"),
    ("translate", "check_faithfulness", "translate.check_faithfulness"),
    ("countermodel", "find_countermodel", "countermodel.find_countermodel"),
    ("decide", "decide", "decide.decide"),
    ("decide", "cross_check", "decide.cross_check"),
    ("hilbert", "parse_proof_script", "hilbert.parse_proof_script"),
    ("hilbert", "check_proof", "hilbert.check_proof"),
    ("classify", "classify", "classify.classify"),
    ("classify", "classify_corpus", "classify.classify_corpus"),
    ("correspond", "correspondence_check", "correspond.correspondence_check"),
    ("correspond", "loeb_suite", "correspond.loeb_suite"),
    ("cli", "main", "cli.main"),
)

# ModelSlab method -> span name; validity_mask counts as deep truth
SLAB_METHODS = (
    ("__init__", "bitgrid.slab"),
    ("core_truth", "bitgrid.core_truth"),
    ("deep_truth", "bitgrid.deep_truth"),
    ("validity_mask", "bitgrid.deep_truth"),
    ("property_mask", "bitgrid.property_mask"),
    ("schema_validity_mask", "bitgrid.schema_validity_mask"),
    ("model_at", "bitgrid.model_at"),
)


def _int_bits(value) -> int:
    """Bits of the integers a value holds, through lists, tuples and dicts."""
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return 0
    return sum(_int_bits(v) for v in value)


def _slab_note(args, result):
    """Models in the slab and the bits of the masks it holds once built."""
    slab = args[0]
    return (slab.count, sum(_int_bits(v) for v in vars(slab).values()))


def _admitted_note(args, result):
    return (result.bit_count(), args[0].count)


# spans whose arguments or result feed a counter
NOTES = {
    "bitgrid.slab": _slab_note,
    "bitgrid.property_mask": _admitted_note,
    "countermodel.find_countermodel": lambda args, result: result is not None,
    "hilbert.check_proof": lambda args, result: len(args[0].steps),
}

# (metric, unit), in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("translate.translate.calls", "count"),
    ("translate.translate.self_s", "s"),
    ("translate.check_faithfulness.self_s", "s"),
    ("syntax.enumerate_formulas.self_s", "s"),
    ("bitgrid.core_truth.calls", "count"),
    ("bitgrid.core_truth.self_s", "s"),
    ("bitgrid.deep_truth.calls", "count"),
    ("bitgrid.deep_truth.self_s", "s"),
    ("bitgrid.slab.builds", "count"),
    ("bitgrid.slab.build_s", "s"),
    ("bitgrid.slab.pattern_mib", "MiB"),
    ("bitgrid.property_mask.calls", "count"),
    ("bitgrid.property_mask.self_s", "s"),
    ("bitgrid.property_mask.admitted_ratio", "ratio"),
    ("bitgrid.schema_validity_mask.calls", "count"),
    ("bitgrid.schema_validity_mask.self_s", "s"),
    ("bitgrid.model_at.calls", "count"),
    ("bitgrid.model_at.self_s", "s"),
    ("countermodel.find_countermodel.calls", "count"),
    ("countermodel.find_countermodel.self_s", "s"),
    ("countermodel.found_ratio", "ratio"),
    ("decide.decide.calls", "count"),
    ("decide.decide.self_s", "s"),
    ("decide.fallbacks", "count"),
    ("decide.resource_limits", "count"),
    ("hilbert.parse_proof_script.self_s", "s"),
    ("hilbert.check_proof.calls", "count"),
    ("hilbert.check_proof.self_s", "s"),
    ("hilbert.steps_checked", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("syntax.parse.calls", "count"),
    ("syntax.parse.self_s", "s"),
    ("syntax.desugar.self_s", "s"),
    ("kripke.eval_deep.calls", "count"),
    ("kripke.eval_deep.self_s", "s"),
    ("kripke.has_property.calls", "count"),
    ("kripke.has_property.self_s", "s"),
    ("kripke.load_model.self_s", "s"),
    ("correspond.correspondence_check.self_s", "s"),
    ("correspond.loeb_suite.self_s", "s"),
    ("correspond.frames_checked", "count"),
    ("classify.classify.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
)


def program_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "modalkit" or name.startswith("modalkit."))]


def bindings() -> dict:
    """Every module attribute and ModelSlab method, by identity, for
    checking that uninstall() restored them."""
    out = {(m.__name__, k): id(v) for m in program_modules() for k, v in vars(m).items()}
    slab = sys.modules["modalkit.bitgrid"].ModelSlab
    out.update((("ModelSlab", k), id(v)) for k, v in vars(slab).items())
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.request_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self.raised: dict[int, str] = {}
        self.request = -1
        self._stack = [-1]
        self._name_stack = [-1]
        self._restore: list = []

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod, attr, span in FUNCTIONS:
            fn = getattr(sys.modules["modalkit." + mod], attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, span))
        for m in program_modules():
            for attr, value in list(vars(m).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((m, attr, value))
                    setattr(m, attr, hit[1])
        slab = sys.modules["modalkit.bitgrid"].ModelSlab
        for attr, span in SLAB_METHODS:
            fn = vars(slab)[attr]
            self._restore.append((slab, attr, fn))
            setattr(slab, attr, self._wrap(fn, span))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _wrap(self, fn, span: str):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        note = NOTES.get(span)
        name, parent, request_of = self.name, self.parent, self.request_of
        start, end, stack, name_stack = self.start, self.end, self._stack, self._name_stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if name_stack[-1] == nid:   # recursion folds into the outer span
                return fn(*args, **kwargs)
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            request_of.append(tracer.request)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            name_stack.append(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer.raised[idx] = type(e).__name__
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
                name_stack.pop()
            if note is not None:
                tracer.notes[idx] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- derived metrics ----------------------------------------------------------

    def layer_metrics(self, round_wall: float, untraced_wall: float) -> dict:
        """Every LAYER_METRICS entry for one traced round."""
        count = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * count
        covered = 0.0
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                covered += dur[i]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i in range(count):
            span = self.names[self.name[i]]
            calls[span] = calls.get(span, 0) + 1
            self_s[span] = self_s.get(span, 0.0) + dur[i] - child[i]

        def of(span: str) -> list:
            nid = self._ids.get(span)
            return [i for i in range(count) if self.name[i] == nid]

        slabs = of("bitgrid.slab")
        admitted = [self.notes[i] for i in of("bitgrid.property_mask") if i in self.notes]
        searches = of("countermodel.find_countermodel")
        decide_id = self._ids["decide.decide"]
        correspond_ids = {self._ids["correspond.correspondence_check"],
                          self._ids["correspond.loeb_suite"]}
        frames = 0
        for i in slabs:
            p = self.parent[i]
            while p >= 0 and self.name[p] not in correspond_ids:
                p = self.parent[p]
            if p >= 0 and i in self.notes:
                frames += self.notes[i][0]
        values = {
            "bitgrid.slab.builds": len(slabs),
            "bitgrid.slab.build_s": sum(dur[i] - child[i] for i in slabs),
            "bitgrid.slab.pattern_mib":
                sum(self.notes[i][1] for i in slabs if i in self.notes) / 8 / 2 ** 20,
            "bitgrid.property_mask.admitted_ratio":
                sum(a for a, _ in admitted) / max(1, sum(t for _, t in admitted)),
            "countermodel.found_ratio":
                sum(1 for i in searches if self.notes.get(i)) / max(1, len(searches)),
            "decide.fallbacks":
                sum(1 for i in searches if self.parent[i] >= 0
                    and self.name[self.parent[i]] == decide_id),
            "decide.resource_limits":
                sum(1 for i in of("decide.decide")
                    if self.raised.get(i) == "ResourceLimitExceeded"),
            "hilbert.steps_checked":
                sum(self.notes.get(i, 0) for i in of("hilbert.check_proof")),
            "correspond.frames_checked": frames,
            "trace.coverage": covered / round_wall if round_wall > 0 else 0.0,
            "trace.overhead_s": round_wall - untraced_wall,
        }
        out = {}
        for metric, unit in LAYER_METRICS:
            if metric not in values:
                span, _, kind = metric.rpartition(".")
                values[metric] = (calls.get(span, 0) if kind == "calls"
                                  else self_s.get(span, 0.0))
            out[metric] = {"value": values[metric], "unit": unit}
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as JSON: span names and one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[self.names[n], p, r, s, e] for n, p, r, s, e in
                zip(self.name, self.parent, self.request_of, self.start, self.end)]
        path.write_text(json.dumps({
            "columns": ["name", "parent", "request", "start", "end"], "spans": rows,
            "raised": {str(k): v for k, v in self.raised.items()}}), encoding="utf-8")
