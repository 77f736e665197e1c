"""Shared strategies, the test oracles and a reference lexer.

The naive evaluator here is deliberately written from scratch against the
connective semantics (including sugar) rather than reusing the package's
desugaring pipeline, so differential tests compare two genuinely separate
routes to the same truth value.  The other oracles, the reference model
enumeration, the scalar evaluator of translated forms and schema validity
on a bare frame, serve the tests alone and share no code with the
bit-packed engines they are compared with.  So do the formula helpers: the
core test, AST depth, schema instantiation and the atoms a search assigns.
Two helpers are exceptions and run the engines themselves.  The admitted
frame lists are bitgrid.admitted's own, which the tests check against the
scalar property checks of kripke.has_property.  The per-logic
classification evidence runs the tableau and, where its model has more
than 4 worlds, the countermodel search, logic by logic, so that it states
classify's rule on the same engines.
"""

import random
import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, product
from typing import Mapping

import hypothesis.strategies as st

from modalkit import bitgrid
from modalkit.bitgrid import ModelSlab
from modalkit.countermodel import find_countermodel
from modalkit.decide import Invalid, decide
from modalkit.errors import ResourceLimitExceeded
from modalkit.hilbert import ALL_LOGICS
from modalkit.kripke import KripkeModel, valid_in_model
from modalkit.syntax import (And, Atom, Bot, Box, CImp, CNot, CoreForm,
                             Dia, ForallWorld, Formula, Implies, LexError,
                             MetaVar, Not, Or, PredR, PredV, PredW,
                             Signature, Top, atoms_of, desugar, map_leaves,
                             sorted_signature)

SIG_P = Signature(("p",))
SIG_PQ = Signature(("p", "q"))


def formulas(sig=SIG_PQ, max_leaves=10, core_only=False):
    atoms = st.sampled_from([Atom(a) for a in sig.atoms])
    if core_only:
        leaves = atoms
        unary = [Not, Box]
        binary = [Implies]
    else:
        leaves = st.one_of(atoms, st.just(Top()), st.just(Bot()))
        unary = [Not, Box, Dia]
        binary = [Implies, And, Or]

    def extend(children):
        return st.one_of(
            st.builds(lambda f, c: f(c), st.sampled_from(unary), children),
            st.builds(lambda f, a, b: f(a, b), st.sampled_from(binary),
                      children, children),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def seeded_formulas(seed: int, count: int, sig=SIG_PQ, max_depth=4,
                    leaf=0.2) -> list[Formula]:
    """count formulas over sig of depth at most max_depth, drawn from
    random.Random(seed); each node above depth 0 stops as a leaf with
    chance leaf, and a leaf is each atom four times as often as true or as
    false."""
    rng = random.Random(seed)
    leaves = [Atom(a) for a in sig.atoms] * 4 + [Top(), Bot()]

    def draw(depth: int) -> Formula:
        if depth == 0 or rng.random() < leaf:
            return rng.choice(leaves)
        op = rng.choice((Not, Box, Dia, Implies, And, Or))
        if op in (Not, Box, Dia):
            return op(draw(depth - 1))
        return op(draw(depth - 1), draw(depth - 1))

    return [draw(max_depth) for _ in range(count)]


@st.composite
def models(draw, sig=SIG_PQ, max_worlds=3, full_designated=False):
    n = draw(st.integers(min_value=1, max_value=max_worlds))
    dom = st.integers(min_value=0, max_value=n - 1)
    if full_designated:
        worlds = frozenset(range(n))
    else:
        worlds = frozenset(draw(st.sets(dom, min_size=1)))
    rel = draw(st.sets(st.tuples(dom, dom)))
    val = {a: draw(st.sets(dom)) for a in sig.atoms}
    return KripkeModel(n, worlds, rel, val, sig)


def index_of(slab, m: KripkeModel) -> int:
    """Inverse of slab.model_at for models with the slab's shape."""
    if m.n_worlds != slab.n or tuple(m.sig.atoms) != slab.atoms:
        raise ValueError("model does not match this slab")
    n = slab.n
    rel_bits = sum(1 << (i * n + j) for i, j in m.rel)
    rank = bisect_left(slab.frames, rel_bits)
    if rank == len(slab.frames) or slab.frames[rank] != rel_bits:
        raise ValueError("the model's frame is not admitted by this slab")
    val_bits = sum(1 << (ai * n + w) for ai, a in enumerate(slab.atoms) for w in m.val[a])
    # a window inside one frame starts part way through its valuations
    index = (rank << len(slab.atoms) * n | val_bits) - (slab.window.start & (1 << len(slab.atoms) * n) - 1)
    if not 0 <= index < slab.count:
        raise ValueError("the model's valuation is outside this slab's window")
    return index


def naive_eval(m: KripkeModel, w: int, f) -> bool:
    """Straight recursive semantics over all connectives, sugar included."""
    succ = [v for v in sorted(m.worlds) if (w, v) in m.rel]
    if isinstance(f, Atom):
        return w in m.val[f.name]
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Not):
        return not naive_eval(m, w, f.body)
    if isinstance(f, Implies):
        return not naive_eval(m, w, f.left) or naive_eval(m, w, f.right)
    if isinstance(f, And):
        return naive_eval(m, w, f.left) and naive_eval(m, w, f.right)
    if isinstance(f, Or):
        return naive_eval(m, w, f.left) or naive_eval(m, w, f.right)
    if isinstance(f, Box):
        return all(naive_eval(m, v, f.body) for v in succ)
    if isinstance(f, Dia):
        return any(naive_eval(m, v, f.body) for v in succ)
    raise TypeError(f"unknown node {f!r}")


_REFERENCE_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<arrow>->)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<metavar>\?[A-Za-z][A-Za-z0-9_]*)|(?P<punct>[~&|()])")


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The lexer as a match loop: one anchored match per token, and a
    LexError at the first position where no token starts."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if m is None:
            raise LexError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


def _operands(f: Formula) -> tuple[Formula, ...]:
    """The operands of f, left to right; a leaf or constant has none."""
    if isinstance(f, (Not, Box, Dia)):
        return (f.body,)
    if isinstance(f, (Implies, And, Or)):
        return (f.left, f.right)
    return ()


def is_core(f: Formula) -> bool:
    """True when f uses only atoms, negation, implication and box."""
    return type(f) in (Atom, Not, Implies, Box) and all(map(is_core, _operands(f)))


def depth(f: Formula) -> int:
    """AST depth; atoms and other leaves sit at depth 0."""
    return 1 + max(map(depth, _operands(f)), default=-1)


class SchemaError(ValueError):
    """Raised for bad schema instantiations (missing metavariable bindings)."""


def substitute_metavars(f: Formula, subst: Mapping[str, Formula]) -> Formula:
    """Replace every metavariable leaf using subst; missing names raise SchemaError."""

    def leaf(g: Formula) -> Formula:
        if type(g) is not MetaVar:
            return g
        try:
            return subst[g.name]
        except KeyError:
            raise SchemaError(f"no binding for metavariable ?{g.name}") from None

    return map_leaves(f, leaf)


def unguarded_min(f):
    """Deliberately broken minimal translation: drops the R guard.  The
    mutation tests inject it into the faithfulness grid."""

    def go(g, cur, counter):
        t = type(g)
        if t is Atom:
            return PredV(g.name, cur)
        if t is Not:
            return CNot(go(g.body, cur, counter))
        if t is Implies:
            return CImp(go(g.left, cur, counter), go(g.right, cur, counter))
        v = f"v{counter[0]}"
        counter[0] += 1
        return ForallWorld(v, go(g.body, v, counter))

    return go(f, "w", [0])


def search_atoms(f: Formula, sig: Signature) -> tuple[str, ...]:
    """The atoms a countermodel search has to assign: those in f after
    desugaring (so true/false contribute the signature's first atom)."""
    return tuple(sorted(atoms_of(desugar(f, sig))))


def enumerate_models(n_worlds: int, atoms: tuple[str, ...]):
    """Yield every model with the given domain size in canonical order.

    This is the reference enumeration: 2^(n*n) relations, each with
    2^(len(atoms)*n) valuations, relation bitmask major, where pair (i, j)
    is bit i*n + j and atom k at world w is bit k*n + w.  It shares no code
    with the slabs of find_countermodel; tests compare the two.
    """
    n = n_worlds
    pairs = [(i, j) for i in range(n) for j in range(n)]
    cells = [(a, w) for a in atoms for w in range(n)]
    sig = Signature(atoms)
    for rel_bits, val_bits in product(range(1 << len(pairs)), range(1 << len(cells))):
        rel = [pair for k, pair in enumerate(pairs) if rel_bits >> k & 1]
        val = {a: [] for a in atoms}
        for k, (a, w) in enumerate(cells):
            if val_bits >> k & 1:
                val[a].append(w)
        yield KripkeModel(n, range(n), rel, val, sig)


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


def schema_valid_on_frame(worlds: set, rel: set, s: Formula) -> bool:
    """True when s holds on the bare frame under propositional quantification.

    Every metavariable (and any concrete atom in the schema) ranges over
    arbitrary subsets of the worlds; the instance must hold at every world.
    """
    if not worlds:
        raise ValueError("a frame needs at least one world")
    bad = [pair for pair in rel if pair[0] not in worlds or pair[1] not in worlds]
    if bad:
        raise ValueError(f"relation pair {bad[0]} leaves the world set")
    # every leaf, metavariable or atom, becomes an atom of its own, so ?p
    # stays distinct from p
    body = desugar(s, sorted_signature(atoms_of(s)))
    fresh: dict = {}
    f = map_leaves(body, lambda leaf: fresh.setdefault((type(leaf), leaf.name),
                                                       Atom(f"m{len(fresh)}")))
    names = tuple(a.name for a in fresh.values())
    ordered = sorted(worlds)
    subsets = [frozenset(c) for k in range(len(ordered) + 1)
               for c in combinations(ordered, k)]
    # one model of the frame, whose valuation alone varies
    m = KripkeModel(ordered[-1] + 1, worlds, rel, dict.fromkeys(names, ()), Signature(names))
    for val in product(subsets, repeat=len(names)):
        m.val = dict(zip(names, val))
        if not valid_in_model(m, f):
            return False
    return True


def admitted_frames(n_worlds: int, props) -> list[int] | None:
    """Ascending relation bitmasks of the n-world frames with every property
    in props, as bitgrid.admitted lists them; None, meaning every frame,
    when props is empty."""
    props = frozenset(props)
    return list(bitgrid.admitted(n_worlds, props)) if props else None


def recorded_slab_counts(monkeypatch):
    """Record (world count, atom count, model count) of every slab built."""
    built = []
    init = ModelSlab.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self.n, len(self.atoms), self.count))

    monkeypatch.setattr(ModelSlab, "__init__", recording)
    return built


def per_logic_evidence(f: Formula, sig: Signature) -> dict:
    """classify's evidence logic by logic: the tableau's verdict, None when
    it is over its budget, and an Invalid one of more than 4 worlds replaced
    by the logic's own search's first countermodel up to 4 worlds, unless
    there is none or the search is over the work budget."""
    evidence = {}
    for logic in ALL_LOGICS:
        try:
            result = decide(f, logic, sig=sig)
        except ResourceLimitExceeded:
            result = None
        if isinstance(result, Invalid) and result.model.n_worlds > 4:
            try:
                small = find_countermodel(f, set(logic.frame_properties), 4, sig)
            except ResourceLimitExceeded:
                small = None
            if small is not None:
                result = Invalid(small[0], small[1])
        evidence[logic.name] = result
    return evidence
