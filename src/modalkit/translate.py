"""Translations of modal formulas into explicit-quantifier forms.

translate_max guards each box quantifier with the designated-set predicate W
and the accessibility predicate R; translate_min keeps only the R guard.
Both leave a single free world variable named w.  A box at box depth d
binds the variable v{d}: the outermost box binds v0 and sibling boxes share
a name.  An inner binder's name differs from every enclosing one, so no
variable is captured, and a subformula at a given box depth always
translates to the same form; the guards of a depth are built once.  The
forms are syntax.CoreForm nodes.  check_faithfulness grinds the two
translations against the structural evaluator over an exhaustive
formula/model grid, up to symmetry (one designated set per size, one
top-depth formula per atom renaming), and reports any disagreement.  A
slab's formulas below the top depth fill its memos, and each top-depth
formula is checked one node deep from its children's entries: the top
pass writes no shared memo (see _check_slab).

A top-depth formula's two translations depend on the formula alone.  On
grids of three worlds or more they are built on the first slab and kept
for the rest: there each formula is checked on at least 1 + 2 + 3 = 6
slabs, and the work budget admits at most 15,008 top-depth formulas (p,q
at depth 3), whose kept forms take about 4.3 MiB.  Smaller grids
translate them again on each slab: one world is a single slab, and two
worlds are 1 + 2 = 3 slabs for up to 712,340 top-depth formulas (4 atoms
at depth 3), where keeping the forms would buy little time for much
memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from operator import and_
from typing import Callable

from .bitgrid import MAX_WORK, charge, slabs, work
from .reporting import CheckReport, Violation
from .syntax import (
    Atom, Box, CImp, CNot, CoreForm, ForallWorld, Formula, Implies, Not,
    PredR, PredV, PredW, Signature, enumerate_formulas, pretty,
)


FREE_WORLD_VAR = "w"


@cache
def _world_var(depth: int) -> str:
    """The free world variable of a subformula at this box depth."""
    return f"v{depth - 1}" if depth else FREE_WORLD_VAR


@cache
def _binder(depth: int) -> tuple[str, PredR, PredW]:
    """The variable a box at this depth binds, with its R and W guards."""
    v = f"v{depth}"
    return v, PredR(_world_var(depth), v), PredW(v)


def _translate(g: Formula, depth: int, guarded: bool, memo: dict,
               scratch: dict | None = None, top: bool = False) -> CoreForm:
    # with a scratch dict, entries missing from memo are read from and
    # written to scratch, so memo does not grow; a top call neither reads
    # nor writes g's own entry
    if not top:
        key = (g, depth)
        hit = memo.get(key)
        if hit is None and scratch is not None:
            hit = scratch.get(key)
        if hit is not None:
            return hit
    t = type(g)
    if t is Atom:
        out = PredV(g.name, _world_var(depth))
    elif t is Not:
        out = CNot(_translate(g.body, depth, guarded, memo, scratch))
    elif t is Implies:
        out = CImp(_translate(g.left, depth, guarded, memo, scratch),
                   _translate(g.right, depth, guarded, memo, scratch))
    elif t is Box:
        v, reach, designated = _binder(depth)
        out = CImp(reach, _translate(g.body, depth + 1, guarded, memo, scratch))
        if guarded:
            out = CImp(designated, out)
        out = ForallWorld(v, out)
    else:
        # sugar is caught where it is met: a memo hit stands for a
        # subtree that was checked when it was stored
        raise ValueError("translation expects a desugared formula")
    if not top:
        (memo if scratch is None else scratch)[key] = out
    return out


def translate_max(f: Formula, *, memo: dict | None = None) -> CoreForm:
    """Box becomes a quantifier guarded by both W and R.

    memo maps (subformula, box depth) to its translation; passing the same
    dict to several calls makes equal subformulas translate to one object.
    """
    return _translate(f, 0, True, {} if memo is None else memo)


def translate_min(f: Formula, *, memo: dict | None = None) -> CoreForm:
    """Box becomes a quantifier guarded by R alone; no W nodes appear.
    memo is as for translate_max, and must not be shared between the two."""
    return _translate(f, 0, False, {} if memo is None else memo)


CHECK_TRUTH_DEEP_MAX = "truth-deep-max"
CHECK_VALIDITY_DEEP_MAX = "validity-deep-max"
CHECK_TRUTH_DEEP_MIN = "truth-deep-min"
CHECK_TRUTH_MAX_MIN = "truth-max-min"

CHECK_NAMES = (
    CHECK_TRUTH_DEEP_MAX,
    CHECK_VALIDITY_DEEP_MAX,
    CHECK_TRUTH_DEEP_MIN,
    CHECK_TRUTH_MAX_MIN,
)

_MAX_EXAMPLES = 10


@dataclass
class FaithfulnessReport:
    checks: list[CheckReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.violation_count == 0 for c in self.checks)

    def by_name(self, name: str) -> CheckReport:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def render(self) -> str:
        return "\n".join(c.render() for c in self.checks)


Translation = Callable[[Formula], CoreForm]

def _formula_count(n_atoms: int, max_depth: int, limit: int) -> int:
    """len(enumerate_formulas) over k atoms in closed form, c(d) = k +
    2c(d-1) + c(d-1)**2, or the first c(d) over limit."""
    count = n_atoms
    for _ in range(max_depth):
        if count > limit:
            break
        count = n_atoms + 2 * count + count * count
    return count


def _record(check: CheckReport, slab, f: Formula, rows) -> None:
    """Count and sample the models where a row's two masks differ."""
    for w, x, y in rows:
        diff = x ^ y
        if diff:
            check.violation_count += diff.bit_count()
            if len(check.examples) < _MAX_EXAMPLES:
                model = slab.model_at(slab.first_index(diff))
                check.examples.append(Violation(
                    check=check.name, formula=pretty(f), model=model.describe(), world=w))


def _check_slab(slab, formulas: list[Formula], n_lower: int,
                translate_max_fn: Translation | None, translate_min_fn: Translation | None,
                translation_memos: list[dict], top_forms: list | None,
                report: FaithfulnessReport) -> None:
    """Add one slab's violations and examples to the report.

    A route whose translation function is None takes the module's own,
    which keeps its translations in the route's memo of translation_memos.
    The n_lower formulas below the top depth fill the slab's deep memo, a
    core memo per route and those translation memos.  Each top-depth
    formula is then checked one node deep: its children are lower formulas,
    so its translation and masks are built from their entries, and its own
    are neither read nor stored.  What only it brings, a box's body at box
    depth 1 or an injected translation's foreign forms, goes to a scratch
    dict per route that is dropped with it, so the top pass writes no
    shared memo.

    top_forms is None, and each top-depth formula is translated on every
    slab, or the list of (max, min) translations of the top-depth formulas
    in order.  The slab that finds it empty, the grid's first, which has
    one world and so is totally designated, fills it, and later slabs read
    their forms from it; the check_faithfulness docstring says which grids
    keep the list.
    """
    truth_max, validity_max, truth_min, max_min = report.checks
    ds = sorted(slab.designated)
    is_total = len(ds) == slab.n

    max_memo, min_memo = translation_memos
    deep_memo, max_core, min_core = {}, {}, {}
    bindings = [{FREE_WORLD_VAR: w} for w in ds]
    # the top-depth forms this slab reads, or None where it translates them
    kept = top_forms or None
    for i, f in enumerate(formulas):
        if i < n_lower:
            deep = [slab.deep_truth(f, w, deep_memo) for w in ds]
            c = translate_max_fn(f) if translate_max_fn else translate_max(f, memo=max_memo)
            tmax = [slab.core_truth(c, b, max_core) for b in bindings]
            if is_total:
                c = translate_min_fn(f) if translate_min_fn else translate_min(f, memo=min_memo)
                tmin = [slab.core_truth(c, b, min_core) for b in bindings]
        else:
            # a scratch dict takes translations keyed by formulas and masks
            # keyed by forms, which never compare equal
            scratch = {}
            deep = [slab._deep(f, w, deep_memo, None) for w in ds]
            if kept is not None:
                cmax, cmin = kept[i - n_lower]
            else:
                cmax = (translate_max_fn(f) if translate_max_fn
                        else _translate(f, 0, True, max_memo, scratch, True))
            tmax = [slab._core(cmax, b, max_core, scratch, True) for b in bindings]
            if is_total:
                scratch = {}
                if kept is None:
                    cmin = (translate_min_fn(f) if translate_min_fn
                            else _translate(f, 0, False, min_memo, scratch, True))
                tmin = [slab._core(cmin, b, min_core, scratch, True) for b in bindings]
            if top_forms is not None and kept is None:
                top_forms.append((cmax, cmin))
        if deep != tmax:
            _record(truth_max, slab, f, zip(ds, deep, tmax))
            _record(validity_max, slab, f,
                    [(None, reduce(and_, deep), reduce(and_, tmax))])
        if is_total:
            if deep != tmin:
                _record(truth_min, slab, f, zip(ds, deep, tmin))
            if tmax != tmin:
                _record(max_min, slab, f, zip(ds, tmax, tmin))


def check_faithfulness(sig: Signature, max_depth: int, max_worlds: int, *,
                       translate_max_fn: Translation | None = None,
                       translate_min_fn: Translation | None = None) -> FaithfulnessReport:
    """Compare the structural evaluator with both translations over every
    formula up to max_depth and every model up to max_worlds.

    Four checks run: truth and validity agreement between the structural
    route and the W-guarded translation over all designated subsets, and
    truth agreement of the minimal translation against both on the models
    whose designated set is the whole domain.  Alternative translation
    functions can be injected, which is how the mutation tests drive the
    grid.

    The grid is walked up to symmetry, in the slabs of bitgrid.slabs.
    Relabelling the worlds maps the models of a designated set onto those
    of any set of its size and keeps deep truth and every CoreForm's truth,
    so world count n walks range(d) for d = 1..n, 6 slab families up to 3
    worlds instead of 11, injected translations included.  Renaming the
    atoms permutes a slab's valuations, and _translate and ModelSlab._deep
    read an atom by its name alone, so they commute with it: with neither
    translation injected and 2 atoms or more, the top-depth formulas
    checked are those whose atoms, in order of first occurrence, are a
    prefix of sig.atoms, one per orbit.  An injected translation need not
    commute and meets every formula; the lower formulas fill the memos and
    are all walked.  Instances count every set and formula.  A world count
    whose representatives show a violation drops their results and is
    walked again set by set over every formula, so counts and examples are
    the labelled walk's; one world with no orbit skipped is that walk.

    Every formula is evaluated on every slab it meets; the top-depth ones
    are checked one node deep and write no shared memo.  With max_worlds
    of 3 or more, each top-depth formula is translated once, on the first
    slab, and its forms are kept for the at least 5 slabs that follow: the
    budget admits at most 15,008 top-depth formulas there, about 4.3 MiB
    of forms.  Below 3 worlds they are translated on every slab: one world
    has a single slab, and two worlds have 3 for up to 712,340 top-depth
    formulas; kept, the forms took p at depth 4 on 2 worlds from 79 to 198
    MiB peak to save 6% of its time over 4 slabs.  A formula on d
    designated worlds takes about 12*d mask operations over the three
    routes, so one formula over every set of n worlds takes 3*n*2**(n+1).
    The whole labelled grid, every designated set and every formula, is
    charged to the work budget before any formula or slab exists, and
    raises ResourceLimitExceeded over it; a negative depth or fewer than
    one world raises ValueError.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be at least 0")
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    k = len(sig.atoms)
    what = f"a grid of depth {max_depth} over {k} atoms and up to {max_worlds} worlds"
    per_formula = 0
    for n in range(1, max_worlds + 1):
        per_formula = charge(per_formula + work(3 * n << n + 1, 1 << n * (n + k)), what)
    n_formulas = _formula_count(k, max_depth, MAX_WORK // per_formula)
    charge(n_formulas * per_formula, what)

    formulas = enumerate_formulas(sig, max_depth)
    # the enumeration is ordered by depth, so the formulas below max_depth
    # are a prefix of it
    n_lower = _formula_count(k, max_depth - 1, n_formulas) if max_depth else 0
    walked = formulas
    if k > 1 and translate_max_fn is None and translate_min_fn is None:
        # the lower formulas, then the top-depth ones whose atoms in order
        # of first occurrence are a prefix of sig.atoms
        walked, first_atoms = formulas[:n_lower], {}
        for i, f in enumerate(formulas):
            t = type(f)
            if t is Atom:
                seen = (f.name,)
            elif t is Implies:
                seen = tuple(dict.fromkeys(first_atoms[f.left] + first_atoms[f.right]))
            else:
                seen = first_atoms[f.body]
            if i < n_lower:
                first_atoms[f] = seen
            elif seen == sig.atoms[:len(seen)]:
                walked.append(f)
    # the module's own translations share a memo per route across slabs; an
    # injected one keeps none
    memos: list[dict] = [{}, {}]
    # keep the top-depth forms where each formula meets at least 6 slabs
    top_forms = [] if max_worlds >= 3 else None
    report = FaithfulnessReport([CheckReport(name, 0, 0) for name in CHECK_NAMES])
    truth_max, validity_max, truth_min, max_min = report.checks

    def walk(n, sets, fs, kept):
        for ds in sets:
            for slab in slabs(n, sig.atoms, designated=ds):
                _check_slab(slab, fs, n_lower, translate_max_fn, translate_min_fn,
                            memos, kept, report)

    for n in range(1, max_worlds + 1):
        # the 2**n - 1 designated sets hold n * 2**(n-1) worlds
        models = len(formulas) << n * (n + k)
        truth_max.instances += models * n << n - 1
        validity_max.instances += models * ((1 << n) - 1)
        truth_min.instances += models * n
        max_min.instances += models * n
        marks = [(c.violation_count, len(c.examples)) for c in report.checks]
        walk(n, [range(d) for d in range(1, n + 1)], walked, top_forms)
        if (n > 1 or walked is not formulas) and any(
                c.violation_count > v for c, (v, _) in zip(report.checks, marks)):
            for c, (v, e) in zip(report.checks, marks):
                c.violation_count = v
                del c.examples[e:]
            walk(n, ([w for w in range(n) if bits >> w & 1] for bits in range(1, 1 << n)),
                 formulas, top_forms if walked is formulas else None)
    return report
