"""Labeled-tableau validity decision for the modal cube.

To decide f in a logic we saturate a tableau for "f false at a root world",
applying the logic's frame conditions as edge-closure rules on the fly.  If
every branch closes, f is valid.  An open saturated branch is read off into a
concrete model, closed under the frame properties, and re-checked with the
reference evaluator before being trusted; the re-check is mandatory and a
branch that fails it is simply abandoned.  When the tableau hits its label
budget without a definitive answer, a bounded exhaustive search takes over,
and if that also comes up empty the caller gets an explicit resource error
rather than a guess.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .countermodel import find_countermodel
from .errors import ResourceLimitExceeded
from .hilbert import AxiomSchemaId, Logic
from .kripke import FrameProperty, KripkeModel, eval_deep, has_property
from .syntax import (Atom, Box, Formula, Implies, Not, Signature, atoms_of,
                     desugar, sorted_signature)

LOGIC_FRAME_PROPERTIES: dict[AxiomSchemaId, FrameProperty] = {
    AxiomSchemaId.T: FrameProperty.REFLEXIVE,
    AxiomSchemaId.B: FrameProperty.SYMMETRIC,
    AxiomSchemaId.FOUR: FrameProperty.TRANSITIVE,
}


def frame_properties(logic: Logic) -> frozenset[FrameProperty]:
    return frozenset(LOGIC_FRAME_PROPERTIES[s] for s in logic.schemata)


@dataclass
class TableauTrace:
    branches: int = 0
    rule_applications: int = 0


@dataclass
class Valid:
    trace: TableauTrace

    def __bool__(self):
        return True


@dataclass
class Invalid:
    model: KripkeModel
    world: int

    def __bool__(self):
        return False


TableauResult = Valid | Invalid

_MAX_RULES = 200_000
_FALLBACK_WORLDS = 4


class _Branch:
    """One tableau branch: signed formulas per label plus the frame built
    so far.  Copied wholesale at disjunctive choice points."""

    __slots__ = ("signs", "edges", "succs", "universals", "labels",
                 "parent", "todo", "pending", "incomplete")

    def __init__(self):
        self.signs: dict[tuple[int, Formula], bool] = {}
        self.edges: set[tuple[int, int]] = set()
        self.succs: dict[int, list[int]] = {}
        self.universals: dict[int, list[Formula]] = {}
        self.labels = 0
        self.parent: dict[int, int | None] = {}
        self.todo: deque[tuple[int, bool, Formula]] = deque()
        # false boxes whose expansion was deferred by blocking; rechecked at
        # saturation because later arrivals can break the blocking subset
        self.pending: list[tuple[int, Formula]] = []
        # set when a rule could not be applied (budget / final blocking), so
        # an open outcome is unreliable and a closed outcome unreachable
        self.incomplete = False

    def copy(self) -> "_Branch":
        b = _Branch.__new__(_Branch)
        b.signs = dict(self.signs)
        b.edges = set(self.edges)
        b.succs = {w: list(v) for w, v in self.succs.items()}
        b.universals = {w: list(v) for w, v in self.universals.items()}
        b.labels = self.labels
        b.parent = dict(self.parent)
        b.todo = deque(self.todo)
        b.pending = list(self.pending)
        b.incomplete = self.incomplete
        return b


class _Tableau:
    def __init__(self, goal: Formula, props: frozenset[FrameProperty],
                 max_labels: int, trace: TableauTrace):
        self.goal = goal
        self.reflexive = FrameProperty.REFLEXIVE in props
        self.symmetric = FrameProperty.SYMMETRIC in props
        self.transitive = FrameProperty.TRANSITIVE in props
        self.max_labels = max_labels
        self.trace = trace
        self.any_incomplete = False

    # -- frame construction --------------------------------------------------

    def new_label(self, b: _Branch, parent: int | None) -> int | None:
        if b.labels >= self.max_labels:
            b.incomplete = True
            return None
        w = b.labels
        b.labels += 1
        b.parent[w] = parent
        b.succs[w] = []
        b.universals[w] = []
        if self.reflexive:
            self.add_edge(b, w, w)
        return w

    def add_edge(self, b: _Branch, u: int, v: int) -> None:
        queue = [(u, v)]
        while queue:
            x, y = queue.pop()
            if (x, y) in b.edges:
                continue
            b.edges.add((x, y))
            b.succs[x].append(y)
            for g in b.universals[x]:
                b.todo.append((y, True, g))
            if self.symmetric:
                queue.append((y, x))
            if self.transitive:
                for z in list(b.succs[y]):
                    queue.append((x, z))
                for w, ws in list(b.succs.items()):
                    if x in ws:
                        queue.append((w, y))

    # -- blocking -------------------------------------------------------------

    def blocked_by(self, b: _Branch, w: int) -> int | None:
        """An ancestor whose signed-formula set includes w's, if any."""
        mine = {(f, s) for (lab, f), s in b.signs.items() if lab == w}
        anc = b.parent.get(w)
        while anc is not None:
            theirs = {(f, s) for (lab, f), s in b.signs.items() if lab == anc}
            if mine <= theirs:
                return anc
            anc = b.parent.get(anc)
        return None

    # -- saturation -----------------------------------------------------------

    def run(self, b: _Branch, alternatives: list[_Branch]) -> _Branch | None:
        """Apply rules until the branch clashes (None) or saturates.

        Saturation alternates draining the work queue with rechecking
        deferred box expansions; a block that went stale (the label gained
        formulas its blocker lacks) is undone by expanding after all.
        """
        while True:
            out = self._drain(b, alternatives)
            if out is None:
                return None
            if b.incomplete:
                return b
            if not self._expand_pending(b) and not b.todo:
                break
        if b.pending:
            # still blocked at saturation: open status is unverified
            b.incomplete = True
            self.any_incomplete = True
        return b

    def _expand_pending(self, b: _Branch) -> bool:
        expanded = False
        for item in list(b.pending):
            w, f = item
            if self.blocked_by(b, w) is not None:
                continue
            b.pending.remove(item)
            v = self.new_label(b, parent=w)
            if v is None:
                self.any_incomplete = True
                continue
            b.todo.append((v, False, f.body))
            self.add_edge(b, w, v)
            expanded = True
        return expanded

    def _drain(self, b: _Branch, alternatives: list[_Branch]) -> _Branch | None:
        """Process queued signed formulas; None means the branch closed.

        Disjunctive choice points push a copy of the branch onto
        alternatives; successors of a true box arriving later are handled
        by add_edge via the per-label universals list.
        """
        while b.todo:
            if self.trace.rule_applications >= _MAX_RULES:
                b.incomplete = True
                self.any_incomplete = True
                return b
            self.trace.rule_applications += 1
            w, sign, f = b.todo.popleft()
            key = (w, f)
            prev = b.signs.get(key)
            if prev is not None:
                if prev != sign:
                    return None  # clash: branch closes
                continue
            b.signs[key] = sign
            if isinstance(f, Atom):
                continue
            if isinstance(f, Not):
                b.todo.append((w, not sign, f.body))
            elif isinstance(f, Implies):
                if sign:
                    alt = b.copy()
                    alt.todo.append((w, True, f.right))
                    alternatives.append(alt)
                    b.todo.append((w, False, f.left))
                else:
                    b.todo.append((w, True, f.left))
                    b.todo.append((w, False, f.right))
            elif isinstance(f, Box):
                if sign:
                    b.universals[w].append(f.body)
                    for v in list(b.succs[w]):
                        b.todo.append((v, True, f.body))
                else:
                    if self.blocked_by(b, w) is not None:
                        b.pending.append((w, f))
                        continue
                    v = self.new_label(b, parent=w)
                    if v is None:
                        self.any_incomplete = True
                        continue
                    b.todo.append((v, False, f.body))
                    self.add_edge(b, w, v)
            else:
                raise AssertionError(f"unexpected node in core formula: {f!r}")
        return b


def _extract(b: _Branch, sig: Signature, props: frozenset[FrameProperty]) -> tuple[KripkeModel, int]:
    n = max(b.labels, 1)
    rel = set(b.edges)
    changed = True
    while changed:
        changed = False
        if FrameProperty.REFLEXIVE in props:
            for w in range(n):
                if (w, w) not in rel:
                    rel.add((w, w))
                    changed = True
        if FrameProperty.SYMMETRIC in props:
            for (u, v) in list(rel):
                if (v, u) not in rel:
                    rel.add((v, u))
                    changed = True
        if FrameProperty.TRANSITIVE in props:
            for (u, v) in list(rel):
                for (x, y) in list(rel):
                    if v == x and (u, y) not in rel:
                        rel.add((u, y))
                        changed = True
    val = {a: {w for w in range(n) if b.signs.get((w, Atom(a))) is True}
           for a in sig.atoms}
    model = KripkeModel(n, set(range(n)), rel, val, sig)
    return model, 0


def decide(f: Formula, logic: Logic, *, sig: Signature | None = None,
           max_labels: int = 64) -> TableauResult:
    """Decide validity of f over all frames of the logic's class.

    Returns Valid with a trace, or Invalid with a finite model that
    falsifies f at the named world and has the logic's frame properties.
    Raises ResourceLimitExceeded when neither outcome can be certified
    within the budget.
    """
    if sig is None:
        sig = sorted_signature(atoms_of(f))
    goal = desugar(f, sig)
    props = frame_properties(logic)
    trace = TableauTrace()
    tab = _Tableau(goal, props, max_labels, trace)

    root_branch = _Branch()
    tab.new_label(root_branch, parent=None)
    root_branch.todo.append((0, False, goal))

    alternatives: list[_Branch] = [root_branch]
    while alternatives:
        cur = alternatives.pop()
        trace.branches += 1
        open_branch = tab.run(cur, alternatives)
        if open_branch is None:
            continue  # closed
        model, world = _extract(open_branch, sig, props)
        if (not eval_deep(model, world, goal)
                and all(has_property(model, p) for p in props)):
            return Invalid(model, world)
        # extraction did not survive the mandatory re-check; keep searching
        tab.any_incomplete = True

    if not tab.any_incomplete:
        return Valid(trace)

    # the tableau was cut short somewhere: fall back to bounded search
    found = find_countermodel(f, set(props), _FALLBACK_WORLDS, sig)
    if found is not None:
        return Invalid(found[0], found[1])
    raise ResourceLimitExceeded(
        f"tableau hit its budget on {f} and no countermodel exists with "
        f"up to {_FALLBACK_WORLDS} worlds")


@dataclass
class CrossCheckReport:
    formula: Formula
    logic: Logic
    tableau_valid: bool | None   # None when decide hit the resource limit
    finder_found: bool | None    # None when the finder's slab was over budget
    consistent: bool
    detail: str = ""


def cross_check(f: Formula, logic: Logic, max_worlds: int) -> CrossCheckReport:
    """Run the tableau and the bounded finder on the same question and
    confirm they never both answer positively."""
    sig = sorted_signature(atoms_of(f))
    props = frame_properties(logic)
    try:
        found = find_countermodel(f, set(props), max_worlds, sig)
    except ResourceLimitExceeded as e:
        found, found_any, note = None, None, f"finder: {e}"
    else:
        found_any, note = found is not None, ""
    if found is not None:
        model, world = found
        if eval_deep(model, world, desugar(f, sig)):
            return CrossCheckReport(f, logic, None, True, False,
                                    "finder returned a non-falsifying model")
    try:
        result = decide(f, logic, sig=sig)
    except ResourceLimitExceeded as e:
        detail = f"{note}; {e}" if note else str(e)
        return CrossCheckReport(f, logic, None, found_any, True, detail)
    if isinstance(result, Valid):
        ok = found is None
        detail = note if ok else "tableau says valid but the finder has a model"
        return CrossCheckReport(f, logic, True, found_any, ok, detail)
    ok = not eval_deep(result.model, result.world, desugar(f, sig))
    detail = note if ok else "tableau countermodel fails re-evaluation"
    return CrossCheckReport(f, logic, False, found_any, ok, detail)
