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
formula/model grid, one walk of bitgrid.slabs per designated set, and
reports any disagreement.  A slab's formulas below the top depth fill its
memos, and each top-depth formula is checked one node deep from its
children's entries: the top pass writes no shared memo (see _check_slab).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from operator import and_
from typing import Callable, Mapping

from .bitgrid import slabs
from .errors import ResourceLimitExceeded
from .kripke import KripkeModel
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


@dataclass
class CoreEnv:
    """Evaluation context: a model plus a binding of world variables."""

    model: KripkeModel
    binding: Mapping[str, int]


def eval_core(c: CoreForm, env: CoreEnv) -> bool:
    """Truth of a translated form.  Quantifiers range over the whole domain;
    the W predicate tests the designated set."""
    return _eval_core(c, env.model, dict(env.binding))


def _eval_core(c: CoreForm, m: KripkeModel, binding: dict[str, int]) -> bool:
    t = type(c)
    try:
        if t is PredW:
            return binding[c.var] in m.worlds
        if t is PredR:
            return (binding[c.src], binding[c.dst]) in m.rel
        if t is PredV:
            if c.atom not in m.val:
                raise ValueError(f"atom {c.atom!r} is not in the model's signature")
            return binding[c.var] in m.val[c.atom]
    except KeyError as e:
        raise ValueError(f"unbound world variable {e.args[0]!r}") from None
    if t is CNot:
        return not _eval_core(c.body, m, binding)
    if t is CImp:
        return (not _eval_core(c.left, m, binding)) or _eval_core(c.right, m, binding)
    if t is ForallWorld:
        inner = dict(binding)
        for d in range(m.n_worlds):
            inner[c.var] = d
            if not _eval_core(c.body, m, inner):
                return False
        return True
    raise TypeError(f"not a translated form: {c!r}")


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

MAX_GRID_FORMULAS = 10**6
MAX_GRID_INSTANCES = 2 * 10**10
MAX_GRID_STEPS = 10**6


def _formula_count(n_atoms: int, max_depth: int) -> int:
    """len(enumerate_formulas) over k atoms in closed form, c(d) = k +
    2c(d-1) + c(d-1)**2, or the first c(d) over MAX_GRID_FORMULAS."""
    count = n_atoms
    for _ in range(max_depth):
        if count > MAX_GRID_FORMULAS:
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
                translation_memos: list[dict], report: FaithfulnessReport) -> None:
    """Add one slab's instances, violations and examples to the report.

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
    """
    truth_max, validity_max, truth_min, max_min = report.checks
    ds = sorted(slab.designated)
    is_total = len(ds) == slab.n
    per_world = len(formulas) * slab.count
    truth_max.instances += per_world * len(ds)
    validity_max.instances += per_world
    if is_total:
        truth_min.instances += per_world * slab.n
        max_min.instances += per_world * slab.n

    max_memo, min_memo = translation_memos
    deep_memo, max_core, min_core = {}, {}, {}
    bindings = [{FREE_WORLD_VAR: w} for w in ds]
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
            c = (translate_max_fn(f) if translate_max_fn
                 else _translate(f, 0, True, max_memo, scratch, True))
            tmax = [slab._core(c, b, max_core, scratch, True) for b in bindings]
            if is_total:
                scratch = {}
                c = (translate_min_fn(f) if translate_min_fn
                     else _translate(f, 0, False, min_memo, scratch, True))
                tmin = [slab._core(c, b, min_core, scratch, True) for b in bindings]
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

    Each designated set is walked in the slabs of bitgrid.slabs.  Every
    formula is translated and evaluated on every slab; the top-depth ones
    are checked one node deep and write no shared memo.  A grid over the
    slab budget, MAX_GRID_FORMULAS, MAX_GRID_INSTANCES or
    MAX_GRID_STEPS raises ResourceLimitExceeded before any formula or slab
    exists; a negative depth or fewer than one world raises ValueError.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be at least 0")
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    k = len(sig.atoms)
    # a walk is held to the slab budget when it is made; walks grow with the
    # world count, so the first refused here is the first the run would reach
    walks = [slabs(n, sig.atoms, designated=[w for w in range(n) if bits >> w & 1])
             for n in range(1, max_worlds + 1) for bits in range(1, 1 << n)]
    n_formulas = _formula_count(k, max_depth)
    if n_formulas > MAX_GRID_FORMULAS:
        raise ResourceLimitExceeded(
            f"a grid of depth {max_depth} over {k} atoms lists "
            f"more than {MAX_GRID_FORMULAS} formulas, the grid budget")
    # validity is checked once per formula and model; n worlds give 2**n - 1
    # designated sets of 2**(n*n + n*k) models each
    instances = n_formulas * sum(((1 << n) - 1) << n * (n + k)
                                 for n in range(1, max_worlds + 1))
    if instances > MAX_GRID_INSTANCES:
        raise ResourceLimitExceeded(
            f"a grid of depth {max_depth} over {k} atoms and up to {max_worlds} "
            f"worlds checks {instances} validity instances, over the "
            f"{MAX_GRID_INSTANCES} work budget")
    # a step checks one formula on one of those designated sets
    steps = n_formulas * sum((1 << n) - 1 for n in range(1, max_worlds + 1))
    if steps > MAX_GRID_STEPS:
        raise ResourceLimitExceeded(
            f"a grid of depth {max_depth} over {k} atoms and up to {max_worlds} "
            f"worlds takes {steps} formula-slab steps, over the "
            f"{MAX_GRID_STEPS} step budget")

    formulas = enumerate_formulas(sig, max_depth)
    # the enumeration is ordered by depth, so the formulas below max_depth
    # are a prefix of it
    n_lower = _formula_count(k, max_depth - 1) if max_depth else 0
    # the module's own translations share a memo per route across slabs; an
    # injected one keeps none
    memos: list[dict] = [{}, {}]
    report = FaithfulnessReport([CheckReport(name, 0, 0) for name in CHECK_NAMES])
    for walk in walks:
        for slab in walk:
            _check_slab(slab, formulas, n_lower, translate_max_fn, translate_min_fn,
                        memos, report)
    return report
