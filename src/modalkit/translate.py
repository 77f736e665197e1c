"""Translations of modal formulas into explicit-quantifier forms.

translate_max guards each box quantifier with the designated-set predicate W
and the accessibility predicate R; translate_min keeps only the R guard.
Both leave a single free world variable named w.  A box at box depth d
binds the variable v{d}: the outermost box binds v0 and sibling boxes share
a name.  An inner binder's name differs from every enclosing one, so no
variable is captured, and a subformula at a given box depth always
translates to the same form.  check_faithfulness grinds the two translations
against the structural evaluator over an exhaustive formula/model grid and
reports any disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

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

    def __ne__(self, other):
        return not self.__eq__(other)

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
        merged = set(left.free_sorted)
        merged.update(right.free_sorted)
        self.free_sorted = tuple(sorted(merged))
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


def _translate(f: Formula, guarded: bool, memo: dict | None) -> CoreForm:
    if memo is None:
        memo = {}

    def go(g: Formula, depth: int) -> CoreForm:
        key = (g, depth)
        hit = memo.get(key)
        if hit is not None:
            return hit
        cur = f"v{depth - 1}" if depth else FREE_WORLD_VAR
        t = type(g)
        if t is Atom:
            out = PredV(g.name, cur)
        elif t is Not:
            out = CNot(go(g.body, depth))
        elif t is Implies:
            out = CImp(go(g.left, depth), go(g.right, depth))
        elif t is Box:
            v = f"v{depth}"
            body = CImp(PredR(cur, v), go(g.body, depth + 1))
            if guarded:
                body = CImp(PredW(v), body)
            out = ForallWorld(v, body)
        else:
            # sugar is caught where it is met: a memo hit stands for a
            # subtree that was checked when it was stored
            raise ValueError("translation expects a desugared formula")
        memo[key] = out
        return out

    return go(f, 0)


def translate_max(f: Formula, *, memo: dict | None = None) -> CoreForm:
    """Box becomes a quantifier guarded by both W and R.

    memo maps (subformula, box depth) to its translation; passing the same
    dict to several calls makes equal subformulas translate to one object.
    """
    return _translate(f, True, memo)


def translate_min(f: Formula, *, memo: dict | None = None) -> CoreForm:
    """Box becomes a quantifier guarded by R alone; no W nodes appear.
    memo is as for translate_max, and must not be shared between the two."""
    return _translate(f, False, memo)


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
    jobs = []
    for n in range(1, max_worlds + 1):
        for bits in range(1, 1 << n):
            jobs.append((n, tuple(w for w in range(n) if bits >> w & 1)))
    return jobs


class _SlabRoute:
    """One translated route through a slab: the translation memo and the
    core-truth memo that every formula of the slab shares.

    Only the formulas below the grid's top depth keep their entries; they
    are few, and every proper subformula of the grid is one of them.  A
    top-depth formula is evaluated through the shared entries and forget()
    then drops its own, which bounds the memos by the lower formulas.  An
    injected translation is called without a memo; the core memo still
    serves it, since its keys are structural.
    """

    def __init__(self, n_worlds: int, guarded: bool,
                 translate_fn: Callable[[Formula], CoreForm] | None):
        self.n = n_worlds
        self.guarded = guarded
        self.injected = translate_fn
        self.translations: dict = {}
        self.core_memo: dict = {}
        self.kept: set[CoreForm] = set()

    def translate(self, f: Formula, keep: bool) -> CoreForm:
        if self.injected is not None:
            c = self.injected(f)
            if keep:
                self.kept.add(c)
            return c
        memo = self.translations
        size = len(memo)
        # looked up at call time, so a wrapped module attribute is honoured
        c = (translate_max if self.guarded else translate_min)(f, memo=memo)
        if not keep:
            del memo[(f, 0)]
        if len(memo) != size:
            self.kept.update(memo.values())
        return c

    def forget(self, c: CoreForm) -> None:
        """Drop the core-memo entries of c's nodes above its kept forms.
        core_truth keys a form over one world variable by (form, world) and
        gives predicates no entries."""
        memo = self.core_memo
        stack = [c]
        while stack:
            node = stack.pop()
            t = type(node)
            if t is PredW or t is PredR or t is PredV or node in self.kept:
                continue
            if t is CImp:
                stack += (node.left, node.right)
            else:
                stack.append(node.body)
            if len(node.free_sorted) == 1:
                for w in range(self.n):
                    memo.pop((node, w), None)


def _run_slab(n: int, designated: tuple[int, ...], sig: Signature, max_depth: int,
              translate_max_fn: Callable[[Formula], CoreForm] | None,
              translate_min_fn: Callable[[Formula], CoreForm] | None):
    """Counts and violation samples for one slab.  Returns, per check name,
    (instances, violations, examples).  A translation function of None
    stands for the module's own translation, run through a shared memo."""
    from .bitgrid import ModelSlab

    slab = ModelSlab(n, sig.atoms, designated)
    formulas = enumerate_formulas(sig, max_depth)
    # the enumeration is ordered by depth, so the formulas below max_depth
    # are a prefix of it
    n_kept = len(enumerate_formulas(sig, max_depth - 1))
    ds = sorted(slab.designated)
    is_total = len(ds) == n
    full = slab.full
    counts = {name: 0 for name in CHECK_NAMES}
    violations = {name: 0 for name in CHECK_NAMES}
    examples: dict[str, list[Violation]] = {name: [] for name in CHECK_NAMES}

    def record(name: str, diff: int, f: Formula, w: int | None):
        bad = diff.bit_count()
        violations[name] += bad
        if bad and len(examples[name]) < _MAX_EXAMPLES:
            model = slab.model_at(slab.first_index(diff))
            examples[name].append(
                Violation(check=name, formula=pretty(f), model=model.describe(), world=w))

    max_route = _SlabRoute(n, True, translate_max_fn)
    min_route = _SlabRoute(n, False, translate_min_fn)
    deep_memo: dict = {}
    for i, f in enumerate(formulas):
        keep = i < n_kept
        max_form = max_route.translate(f, keep)
        deep_by_w = {}
        max_by_w = {}
        for w in ds:
            deep_mask = slab.deep_truth(f, w, deep_memo)
            max_mask = slab.core_truth(max_form, {FREE_WORLD_VAR: w}, max_route.core_memo)
            deep_by_w[w] = deep_mask
            max_by_w[w] = max_mask
            counts[CHECK_TRUTH_DEEP_MAX] += slab.count
            record(CHECK_TRUTH_DEEP_MAX, deep_mask ^ max_mask, f, w)
        deep_valid = full
        max_valid = full
        for w in ds:
            deep_valid &= deep_by_w[w]
            max_valid &= max_by_w[w]
        counts[CHECK_VALIDITY_DEEP_MAX] += slab.count
        record(CHECK_VALIDITY_DEEP_MAX, deep_valid ^ max_valid, f, None)
        if is_total:
            min_form = min_route.translate(f, keep)
            for w in ds:
                min_mask = slab.core_truth(min_form, {FREE_WORLD_VAR: w}, min_route.core_memo)
                counts[CHECK_TRUTH_DEEP_MIN] += slab.count
                record(CHECK_TRUTH_DEEP_MIN, deep_by_w[w] ^ min_mask, f, w)
                counts[CHECK_TRUTH_MAX_MIN] += slab.count
                record(CHECK_TRUTH_MAX_MIN, max_by_w[w] ^ min_mask, f, w)
            if not keep:
                min_route.forget(min_form)
        if not keep:
            max_route.forget(max_form)
            for w in ds:
                del deep_memo[(f, w)]
    return counts, violations, examples


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
    """
    slabs = _slab_jobs(max_worlds)
    args = [(n, designated, sig, max_depth, translate_max_fn, translate_min_fn)
            for n, designated in slabs]
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
        examples: list[Violation] = []
        for r in results:
            for v in r[2][name]:
                if len(examples) < _MAX_EXAMPLES:
                    examples.append(v)
        report.checks.append(CheckReport(
            name=name, instances=instances, violation_count=count, examples=examples))
    return report
