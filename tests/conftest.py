"""Shared strategies, an independent reference evaluator and a reference
lexer.

The naive evaluator here is deliberately written from scratch against the
connective semantics (including sugar) rather than reusing the package's
desugaring pipeline, so differential tests compare two genuinely separate
routes to the same truth value.
"""

import re
from bisect import bisect_left

import hypothesis.strategies as st

from modalkit.kripke import KripkeModel
from modalkit.syntax import (And, Atom, Bot, Box, Dia, Implies, LexError, Not,
                             Or, Signature, Top)
from modalkit.translate import CImp, CNot, ForallWorld, PredV

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
    return (rank << len(slab.atoms) * n) | val_bits


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
