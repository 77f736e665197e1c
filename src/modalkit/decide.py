"""Labeled-tableau validity decision for the modal cube.

To decide f in a logic we saturate a tableau for "f false at a root world",
applying the logic's frame conditions as edge-closure rules on the fly.  A
branch keeps its state per label (signed formulas, successors, true-box
bodies, parent), and add_edge keeps its relation closed under the frame
properties after every edge.  If every branch closes, f is valid.  In the
transitive logics a false box at a label whose signed formulas are a subset
of an ancestor's is blocked rather than expanded (the S4/K4 loop check).  An
open saturated branch is read off into a concrete model: each blocked label
gets an edge to every successor of its blocker, added through add_edge so
the relation stays closed.  The model is re-checked with the reference
evaluator before being trusted; the re-check is mandatory and a branch that
fails it is simply abandoned.  A clash closes a branch even where a label
or rule budget cut it short, so f is valid whenever no branch was
abandoned.  Only when an open branch could not be certified does a bounded
exhaustive search take over, and if that also comes up empty the caller
gets an explicit resource error rather than a guess.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .bitgrid import ISOMORPH_FREE_WORLDS
from .countermodel import find_countermodel
from .errors import ResourceLimitExceeded
from .hilbert import Logic
from .kripke import FrameProperty, KripkeModel, eval_deep, has_property
from .syntax import (Atom, Box, Formula, Implies, Not, Signature, desugar,
                     signature_for)


@dataclass
class TableauTrace:
    branches: int = 0
    rule_applications: int = 0
    blocked: int = 0        # loop edges added at extraction
    abandoned: int = 0      # open branches whose model failed the re-check
    fallback: bool = False  # whether the bounded search ran


@dataclass
class Valid:
    trace: TableauTrace

    def __bool__(self):
        return True


@dataclass
class Invalid:
    model: KripkeModel
    world: int
    trace: TableauTrace | None = None

    def __bool__(self):
        return False


TableauResult = Valid | Invalid

_MAX_RULES = 200_000


class _Branch:
    """One tableau branch, held per label: signed formulas, successors,
    true-box bodies and parent, each a list indexed by label.  Copied
    wholesale at disjunctive choice points."""

    __slots__ = ("signs", "succs", "universals", "parent", "todo", "pending")

    def __init__(self):
        self.signs: list[dict[Formula, bool]] = []
        self.succs: list[list[int]] = []
        self.universals: list[list[Formula]] = []
        self.parent: list[int | None] = []
        self.todo: deque[tuple[int, bool, Formula]] = deque()
        # false boxes whose expansion was deferred by blocking; rechecked at
        # saturation because later arrivals can break the blocking subset,
        # and read off as loop edges if still blocked there
        self.pending: list[tuple[int, Formula]] = []

    def copy(self) -> "_Branch":
        b = _Branch.__new__(_Branch)
        b.signs = [dict(s) for s in self.signs]
        b.succs = [list(v) for v in self.succs]
        b.universals = [list(v) for v in self.universals]
        b.parent = list(self.parent)
        b.todo = deque(self.todo)
        b.pending = list(self.pending)
        return b


class _Tableau:
    def __init__(self, props: frozenset[FrameProperty], max_labels: int,
                 trace: TableauTrace):
        self.reflexive = FrameProperty.REFLEXIVE in props
        self.symmetric = FrameProperty.SYMMETRIC in props
        self.transitive = FrameProperty.TRANSITIVE in props
        self.max_labels = max_labels
        self.trace = trace

    # -- frame construction --------------------------------------------------

    def new_label(self, b: _Branch, parent: int | None) -> int | None:
        w = len(b.parent)
        if w >= self.max_labels:
            return None
        b.signs.append({})
        b.succs.append([])
        b.universals.append([])
        b.parent.append(parent)
        if self.reflexive:
            self.add_edge(b, w, w)
        return w

    def add_edge(self, b: _Branch, u: int, v: int) -> None:
        """Add u -> v and every edge the frame properties then demand."""
        queue = [(u, v)]
        while queue:
            x, y = queue.pop()
            if y in b.succs[x]:
                continue
            b.succs[x].append(y)
            for g in b.universals[x]:
                b.todo.append((y, True, g))
            if self.symmetric:
                queue.append((y, x))
            if self.transitive:
                for z in b.succs[y]:
                    queue.append((x, z))
                for w, ws in enumerate(b.succs):
                    if x in ws:
                        queue.append((w, y))

    def witness(self, b: _Branch, w: int, f: Box) -> None:
        """Open a successor of w where the body of the false box f is false,
        unless the label budget refuses it."""
        v = self.new_label(b, parent=w)
        if v is not None:
            b.todo.append((v, False, f.body))
            self.add_edge(b, w, v)

    # -- blocking -------------------------------------------------------------

    def blocked_by(self, b: _Branch, w: int) -> int | None:
        """An ancestor whose signed-formula set includes w's, if any.

        Only the transitive logics block.  Without transitivity every edge
        joins a label to its parent or to itself, and a label receives only
        the body of the false box that made it and the bodies of true boxes
        at its parent, at itself (reflexive) or at a child (symmetric).  By
        induction every formula at a label of tree depth k then has modal
        depth at most d - k, for a goal of depth d, so no false box sits
        below depth d - 1 and saturation stops by itself: each label has
        finitely many false boxes.  Transitivity pushes the true boxes
        themselves, not only their bodies, down every path, which is what
        makes blocking necessary there.
        """
        if not self.transitive:
            return None
        mine = b.signs[w].items()
        anc = b.parent[w]
        while anc is not None:
            if mine <= b.signs[anc].items():
                return anc
            anc = b.parent[anc]
        return None

    # -- saturation -----------------------------------------------------------

    def run(self, b: _Branch, alternatives: list[_Branch]) -> _Branch | None:
        """Apply rules until the branch clashes (None) or saturates.

        Each pass drains the work queue, then retries the deferred box
        expansions: a block that went stale (the label gained formulas its
        blocker lacks) is undone by expanding after all.  The branch is
        returned once a retry expands nothing (saturated, or cut short by
        the label budget), and as it stands at the rule budget.
        Disjunctive choice points push a copy of the branch onto
        alternatives; successors of a true box arriving later are handled
        by add_edge via the per-label universals list.
        """
        while True:
            while b.todo:
                if self.trace.rule_applications >= _MAX_RULES:
                    return b
                self.trace.rule_applications += 1
                w, sign, f = b.todo.popleft()
                signs = b.signs[w]
                prev = signs.get(f)
                if prev is not None:
                    if prev != sign:
                        return None  # clash: branch closes
                    continue
                signs[f] = sign
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
                        for v in b.succs[w]:
                            b.todo.append((v, True, f.body))
                    elif self.blocked_by(b, w) is not None:
                        b.pending.append((w, f))
                    else:
                        self.witness(b, w, f)
                else:
                    raise AssertionError(f"unexpected node in core formula: {f!r}")
            # a witness only queues work when the label budget admits it
            pending, b.pending = b.pending, []
            for w, f in pending:
                if self.blocked_by(b, w) is not None:
                    b.pending.append((w, f))
                else:
                    self.witness(b, w, f)
            if not b.todo:
                return b

    # -- extraction -------------------------------------------------------------

    def extract(self, b: _Branch, sig: Signature) -> KripkeModel:
        """Read the branch off as a model closed under the frame properties;
        the root is label 0.

        A label still blocked at saturation gets an edge to every successor
        of its blocker, which holds all of its signed formulas and has its
        false boxes witnessed there.  The loop edges go in through add_edge,
        so the relation stays closed; the branch is not run again.
        """
        loops = []
        for w in {w for w, _ in b.pending}:
            blocker = self.blocked_by(b, w)
            if blocker is None:  # went stale on a branch the budget cut short
                continue
            loops += [(w, v) for v in b.succs[blocker] if v not in b.succs[w]]
        self.trace.blocked += len(loops)
        for w, v in loops:
            self.add_edge(b, w, v)
        n = len(b.parent)
        rel = [(w, v) for w in range(n) for v in b.succs[w]]
        val = {a: {w for w in range(n) if b.signs[w].get(Atom(a)) is True}
               for a in sig.atoms}
        return KripkeModel(n, set(range(n)), rel, val, sig)


def decide(f: Formula, logic: Logic, *, sig: Signature | None = None,
           max_labels: int = 64) -> TableauResult:
    """Decide validity of f over all frames of the logic's class.

    Returns Valid with a trace, or Invalid with a finite model that
    falsifies f at the named world and has the logic's frame properties.
    When an open branch fails the re-check, a search up to
    bitgrid.ISOMORPH_FREE_WORLDS worlds looks for the model instead.
    Raises ResourceLimitExceeded when neither outcome can be certified
    within the budget, and ValueError when max_labels leaves no room for
    the root label or f has an atom outside sig.
    """
    if max_labels < 1:
        raise ValueError(f"max_labels must be at least 1, got {max_labels}")
    sig = signature_for(f, sig)
    goal = desugar(f, sig)
    props = logic.frame_properties
    trace = TableauTrace()
    tab = _Tableau(props, max_labels, trace)

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
        model = tab.extract(open_branch, sig)
        if (not eval_deep(model, 0, goal)
                and all(has_property(model, p) for p in props)):
            return Invalid(model, 0, trace)
        # extraction did not survive the mandatory re-check; keep searching
        trace.abandoned += 1

    if not trace.abandoned:
        return Valid(trace)

    # an open branch could not be certified: fall back to bounded search
    trace.fallback = True
    found = find_countermodel(f, set(props), ISOMORPH_FREE_WORLDS, sig)
    if found is not None:
        return Invalid(found[0], found[1], trace)
    raise ResourceLimitExceeded(
        f"tableau hit its budget on {f} and no countermodel exists with "
        f"up to {ISOMORPH_FREE_WORLDS} worlds")


@dataclass
class CrossCheckReport:
    formula: Formula
    logic: Logic
    tableau_valid: bool | None   # None when decide hit the resource limit
    finder_found: bool | None    # None when the finder was over its budget
    consistent: bool
    detail: str = ""


def cross_check(f: Formula, logic: Logic, max_worlds: int) -> CrossCheckReport:
    """Compare the verdicts of two routes on one question, the tableau and
    the bounded finder, and confirm they never both answer positively.

    Each route certifies its own models where it builds them: decide
    re-checks each open branch's model (test_decide::test_tableau_counters)
    and find_countermodel the model it returns, under python -O too
    (test_countermodel::test_the_search_re_checks_its_model_under_python_O).
    So only the verdicts are compared here."""
    sig = signature_for(f)
    try:
        found = find_countermodel(f, set(logic.frame_properties), max_worlds, sig)
    except ResourceLimitExceeded as e:
        found_any, note = None, f"finder: {e}"
    else:
        found_any, note = found is not None, ""
    try:
        result = decide(f, logic, sig=sig)
    except ResourceLimitExceeded as e:
        detail = f"{note}; {e}" if note else str(e)
        return CrossCheckReport(f, logic, None, found_any, True, detail)
    valid = isinstance(result, Valid)
    if valid and found_any:
        return CrossCheckReport(f, logic, True, True, False,
                                "tableau says valid but the finder has a model")
    return CrossCheckReport(f, logic, valid, found_any, True, note)
