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
entries are dropped once it is checked (see _run_slab).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cache, reduce
from operator import and_
from typing import Callable, Mapping

from .errors import ResourceLimitExceeded
from .kripke import KripkeModel
from .reporting import CheckReport, Violation
from .syntax import (
    Atom, Box, Formula, Implies, Not, Signature, enumerate_formulas,
    pretty,
)


class CoreForm:
    """Base class for translated forms; immutable, hashable, with the free
    world variables precomputed."""

    __slots__ = ("_hash", "free_sorted")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(self) is not type(other) or self._hash != other._hash:
            return False
        return self._key() == other._key()

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

    def __repr__(self):
        return f"PredW({self.var!r})"


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

    def __repr__(self):
        return f"PredR({self.src!r}, {self.dst!r})"


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

    def __repr__(self):
        return f"PredV({self.atom!r}, {self.var!r})"


class CNot(CoreForm):
    __slots__ = ("body",)

    def __init__(self, body: CoreForm):
        self.body = body
        self.free_sorted = body.free_sorted
        self._hash = hash(("cnot", body._hash))

    def _key(self):
        return self.body

    def __repr__(self):
        return f"CNot({self.body!r})"


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

    def __repr__(self):
        return f"CImp({self.left!r}, {self.right!r})"


class ForallWorld(CoreForm):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: CoreForm):
        self.var = var
        self.body = body
        self.free_sorted = tuple(v for v in body.free_sorted if v != var)
        self._hash = hash(("forall", var, body._hash))

    def _key(self):
        return (self.var, self.body)

    def __repr__(self):
        return f"ForallWorld({self.var!r}, {self.body!r})"


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


def _slab_jobs(max_worlds: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every (world count, designated subset) pair, subsets by ascending bitmask."""
    return [(n, tuple(w for w in range(n) if bits >> w & 1))
            for n in range(1, max_worlds + 1) for bits in range(1, 1 << n)]


def _run_slab(n: int, designated: tuple[int, ...], sig: Signature, max_depth: int,
              translate_max_fn: Callable[[Formula], CoreForm] | None,
              translate_min_fn: Callable[[Formula], CoreForm] | None):
    """Counts and violation samples for one slab.  Returns, per check name,
    (instances, violations, examples).

    A translation function of None stands for the module's own translation,
    whose route keeps one translation memo and one core memo for the slab.
    Once a top-depth formula is checked, (f, 0) leaves the translation memo
    and (its form, w) the core memo for each designated w.  It stored
    nothing else: bound variables are named by box depth, so every other
    node of its translation with one free variable is the stored translation
    of a lower formula, and the guards have two free variables, which
    core_truth never memoises.  The memos thus hold at most the lower
    formulas at each box depth, times n in the core memo.  An injected
    translation gets a fresh core memo per formula, which bounds it without
    assuming any sharing.
    """
    from .bitgrid import ModelSlab

    slab = ModelSlab(n, sig.atoms, designated)
    formulas = enumerate_formulas(sig, max_depth)
    # the enumeration is ordered by depth, so the formulas below max_depth
    # are a prefix of it
    n_lower = len(enumerate_formulas(sig, max_depth - 1))
    ds = sorted(slab.designated)
    is_total = len(ds) == n
    violations = dict.fromkeys(CHECK_NAMES, 0)
    examples: dict[str, list[Violation]] = {name: [] for name in CHECK_NAMES}

    def record(name: str, f: Formula, rows):
        """Count and sample the models where a row's two masks differ."""
        for w, x, y in rows:
            diff = x ^ y
            if diff:
                violations[name] += diff.bit_count()
                if len(examples[name]) < _MAX_EXAMPLES:
                    model = slab.model_at(slab.first_index(diff))
                    examples[name].append(Violation(
                        check=name, formula=pretty(f), model=model.describe(), world=w))

    def route(f: Formula, top: bool, translate, translate_fn, memo: dict, core: dict):
        """Truth masks of f's translation at the designated worlds."""
        if translate_fn is not None:
            c = translate_fn(f)
            return [slab.core_truth(c, {FREE_WORLD_VAR: w}, {}) for w in ds]
        c = translate(f, memo=memo)
        masks = [slab.core_truth(c, {FREE_WORLD_VAR: w}, core) for w in ds]
        if top:
            del memo[(f, 0)]
            for w in ds:
                core.pop((c, w), None)  # predicates have no entry
        return masks

    deep_memo: dict = {}
    max_memos: tuple[dict, dict] = ({}, {})
    min_memos: tuple[dict, dict] = ({}, {})
    for i, f in enumerate(formulas):
        top = i >= n_lower
        deep = [slab.deep_truth(f, w, deep_memo) for w in ds]
        # the module's translations are looked up at call time, so a wrapped
        # module attribute is honoured
        tmax = route(f, top, translate_max, translate_max_fn, *max_memos)
        if deep != tmax:
            record(CHECK_TRUTH_DEEP_MAX, f, zip(ds, deep, tmax))
            record(CHECK_VALIDITY_DEEP_MAX, f,
                   [(None, reduce(and_, deep), reduce(and_, tmax))])
        if is_total:
            tmin = route(f, top, translate_min, translate_min_fn, *min_memos)
            if deep != tmin:
                record(CHECK_TRUTH_DEEP_MIN, f, zip(ds, deep, tmin))
            if tmax != tmin:
                record(CHECK_TRUTH_MAX_MIN, f, zip(ds, tmax, tmin))
        if top:
            for w in ds:
                del deep_memo[(f, w)]

    per_world = len(formulas) * slab.count
    min_count = per_world * n if is_total else 0
    counts = {
        CHECK_TRUTH_DEEP_MAX: per_world * len(ds),
        CHECK_VALIDITY_DEEP_MAX: per_world,
        CHECK_TRUTH_DEEP_MIN: min_count,
        CHECK_TRUTH_MAX_MIN: min_count,
    }
    return counts, violations, examples


MAX_GRID_FORMULAS = 10**6


def _formula_count(n_atoms: int, max_depth: int) -> int:
    """len(enumerate_formulas) over k atoms in closed form, c(d) = k +
    2c(d-1) + c(d-1)**2, or the first c(d) over MAX_GRID_FORMULAS."""
    count = n_atoms
    for _ in range(max_depth):
        if count > MAX_GRID_FORMULAS:
            break
        count = n_atoms + 2 * count + count * count
    return count


def check_faithfulness(sig: Signature, max_depth: int, max_worlds: int, *,
                       translate_max_fn: Callable[[Formula], CoreForm] | None = None,
                       translate_min_fn: Callable[[Formula], CoreForm] | None = None,
                       jobs: int = 1) -> FaithfulnessReport:
    """Compare the structural evaluator with both translations over every
    formula up to max_depth and every model up to max_worlds.

    Four checks run: truth and validity agreement between the structural
    route and the W-guarded translation over all designated subsets, and
    truth agreement of the minimal translation against both on the models
    whose designated set is the whole domain.  Alternative translation
    functions can be injected, which is how the mutation tests drive the
    grid.

    A grid over the slab budget or MAX_GRID_FORMULAS raises
    ResourceLimitExceeded before any formula, slab or process exists.  The
    pool has at most one process per slab and per CPU.
    """
    from .bitgrid import _check_slab_budget

    # slabs grow with the world count, so the first one refused here is the
    # first one the run would have reached
    for n in range(1, max_worlds + 1):
        _check_slab_budget(n, len(sig.atoms), 1 << n * n)
    if _formula_count(len(sig.atoms), max_depth) > MAX_GRID_FORMULAS:
        raise ResourceLimitExceeded(
            f"a grid of depth {max_depth} over {len(sig.atoms)} atoms lists "
            f"more than {MAX_GRID_FORMULAS} formulas, the grid budget")
    slabs = _slab_jobs(max_worlds)
    args = [(n, designated, sig, max_depth, translate_max_fn, translate_min_fn)
            for n, designated in slabs]
    jobs = min(jobs, len(slabs), os.cpu_count() or 1)
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            results = pool.starmap(_run_slab, args)
    else:
        results = [_run_slab(*a) for a in args]

    report = FaithfulnessReport()
    for name in CHECK_NAMES:
        instances = sum(r[0][name] for r in results)
        count = sum(r[1][name] for r in results)
        examples = [v for r in results for v in r[2][name]][:_MAX_EXAMPLES]
        report.checks.append(CheckReport(
            name=name, instances=instances, violation_count=count, examples=examples))
    return report
