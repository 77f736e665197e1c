"""Translations of modal formulas into explicit-quantifier forms.

translate_max guards each box quantifier with the designated-set predicate W
and the accessibility predicate R; translate_min keeps only the R guard.
Both leave a single free world variable named w.  A box at box depth d
binds the variable v{d}: the outermost box binds v0 and sibling boxes share
a name.  An inner binder's name differs from every enclosing one, so no
variable is captured, and a subformula at a given box depth always
translates to the same form; the guards of a depth are built once.
check_faithfulness grinds the two translations against the structural
evaluator over an exhaustive formula/model grid and reports any
disagreement.  A slab's formulas share its memos; a top-depth formula's own
entries are dropped once it is checked (see _check_slab).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial, reduce
from operator import and_
from typing import Callable, Mapping

from .errors import ResourceLimitExceeded
from .kripke import KripkeModel
from .reporting import CheckReport, Violation
from .syntax import (
    Atom, Box, Formula, Implies, Node, Not, Signature, enumerate_formulas,
    pretty,
)


class CoreForm(Node):
    """Base class for translated forms, with the free world variables
    precomputed.  A form's repr lists the fields its class declares."""

    __slots__ = ("free_sorted",)

    def __repr__(self):
        args = ", ".join(repr(getattr(self, name)) for name in self.__slots__)
        return f"{type(self).__name__}({args})"

    def __str__(self):
        return print_core(self)


class PredW(CoreForm):
    """Membership of a world variable in the designated set."""

    __slots__ = ("var",)

    def __init__(self, var: str):
        self.var = var
        self.free_sorted = (var,)
        self._hash = hash(("W", var))

    def _key(self):
        return self.var


class PredR(CoreForm):
    """Accessibility between two world variables."""

    __slots__ = ("src", "dst")

    def __init__(self, src: str, dst: str):
        self.src = src
        self.dst = dst
        self.free_sorted = (src,) if src == dst else tuple(sorted((src, dst)))
        self._hash = hash(("R", src, dst))

    def _key(self):
        return (self.src, self.dst)


class PredV(CoreForm):
    """Truth of an atom at a world variable."""

    __slots__ = ("atom", "var")

    def __init__(self, atom: str, var: str):
        self.atom = atom
        self.var = var
        self.free_sorted = (var,)
        self._hash = hash(("V", atom, var))

    def _key(self):
        return (self.atom, self.var)


class CNot(CoreForm):
    __slots__ = ("body",)

    def __init__(self, body: CoreForm):
        self.body = body
        self.free_sorted = body.free_sorted
        self._hash = hash(("cnot", body._hash))

    def _key(self):
        return self.body


class CImp(CoreForm):
    __slots__ = ("left", "right")

    def __init__(self, left: CoreForm, right: CoreForm):
        self.left = left
        self.right = right
        free = left.free_sorted
        if free != right.free_sorted:
            free = tuple(sorted({*free, *right.free_sorted}))
        self.free_sorted = free
        self._hash = hash(("cimp", left._hash, right._hash))

    def _key(self):
        return (self.left, self.right)


class ForallWorld(CoreForm):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: CoreForm):
        self.var = var
        self.body = body
        self.free_sorted = tuple(v for v in body.free_sorted if v != var)
        self._hash = hash(("forall", var, body._hash))

    def _key(self):
        return (self.var, self.body)


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


def _translate(g: Formula, depth: int, guarded: bool, memo: dict) -> CoreForm:
    key = (g, depth)
    hit = memo.get(key)
    if hit is not None:
        return hit
    t = type(g)
    if t is Atom:
        out = PredV(g.name, _world_var(depth))
    elif t is Not:
        out = CNot(_translate(g.body, depth, guarded, memo))
    elif t is Implies:
        out = CImp(_translate(g.left, depth, guarded, memo),
                   _translate(g.right, depth, guarded, memo))
    elif t is Box:
        v, reach, designated = _binder(depth)
        out = CImp(reach, _translate(g.body, depth + 1, guarded, memo))
        if guarded:
            out = CImp(designated, out)
        out = ForallWorld(v, out)
    else:
        # sugar is caught where it is met: a memo hit stands for a
        # subtree that was checked when it was stored
        raise ValueError("translation expects a desugared formula")
    memo[key] = out
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


def print_core(c: CoreForm) -> str:
    """Render a translated form; predicates print bare, compound operands of
    an implication or negation are parenthesised."""
    t = type(c)
    if t is PredW:
        return f"W({c.var})"
    if t is PredR:
        return f"R({c.src},{c.dst})"
    if t is PredV:
        return f"V({c.atom},{c.var})"
    if t is CNot:
        return "~" + _operand(c.body)
    if t is CImp:
        return _operand(c.left) + " -> " + _operand(c.right)
    if t is ForallWorld:
        return f"∀{c.var}. " + print_core(c.body)
    raise TypeError(f"not a translated form: {c!r}")


def _operand(c: CoreForm) -> str:
    if type(c) in (CImp, ForallWorld):
        return "(" + print_core(c) + ")"
    return print_core(c)


# ---------------------------------------------------------------------------
# Faithfulness grid
# ---------------------------------------------------------------------------

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


def _check_slab(slab, formulas: list[Formula], n_lower: int, translate_max_fn: Translation,
                translate_min_fn: Translation, translation_memos: list[dict],
                report: FaithfulnessReport) -> None:
    """Add one slab's instances, violations and examples to the report.

    The slab's formulas share its deep memo, a core memo per route and the
    grid's translation memos.  From the first top-depth formula, the
    n_lower-th, every memo is cut back after each formula to its size at
    that point: a memo only grows and a dict pops its newest entry first,
    so the cut drops exactly that formula's entries.
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

    deep_memo, max_core, min_core = {}, {}, {}
    memos = [deep_memo, max_core, min_core, *translation_memos]
    sizes: list[int] = []
    for i, f in enumerate(formulas):
        if i == n_lower:
            sizes = [len(memo) for memo in memos]
        deep = [slab.deep_truth(f, w, deep_memo) for w in ds]
        c = translate_max_fn(f)
        tmax = [slab.core_truth(c, {FREE_WORLD_VAR: w}, max_core) for w in ds]
        if deep != tmax:
            _record(truth_max, slab, f, zip(ds, deep, tmax))
            _record(validity_max, slab, f,
                    [(None, reduce(and_, deep), reduce(and_, tmax))])
        if is_total:
            c = translate_min_fn(f)
            tmin = [slab.core_truth(c, {FREE_WORLD_VAR: w}, min_core) for w in ds]
            if deep != tmin:
                _record(truth_min, slab, f, zip(ds, deep, tmin))
            if tmax != tmin:
                _record(max_min, slab, f, zip(ds, tmax, tmin))
        for memo, size in zip(memos, sizes):
            while len(memo) > size:
                memo.popitem()


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

    A grid over the slab budget, MAX_GRID_FORMULAS, MAX_GRID_INSTANCES or
    MAX_GRID_STEPS raises ResourceLimitExceeded before any formula or slab
    exists.
    """
    from .bitgrid import ModelSlab, _check_slab_budget

    k = len(sig.atoms)
    # slabs grow with the world count, so the first one refused here is the
    # first one the run would have reached
    for n in range(1, max_worlds + 1):
        _check_slab_budget(n, k, 1 << n * n)
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
    # a step checks one formula on one slab, one of those designated sets
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
    # the module's translations are looked up at call time, so a wrapped
    # module attribute is honoured; an injected one keeps no memo
    memos: list[dict] = [{}, {}]
    translate_max_fn = translate_max_fn or partial(translate_max, memo=memos[0])
    translate_min_fn = translate_min_fn or partial(translate_min, memo=memos[1])
    report = FaithfulnessReport([CheckReport(name, 0, 0) for name in CHECK_NAMES])
    for n in range(1, max_worlds + 1):
        for bits in range(1, 1 << n):
            slab = ModelSlab(n, sig.atoms, [w for w in range(n) if bits >> w & 1])
            _check_slab(slab, formulas, n_lower, translate_max_fn, translate_min_fn,
                        memos, report)
    return report
