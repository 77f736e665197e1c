"""Bulk evaluation over exhaustively enumerated model families.

A ModelSlab fixes a world count, an atom list and a designated world subset,
and represents *every* (relation, valuation) combination at once.  Model
index m encodes a relation bitmask in its high bits and a valuation bitmask
in its low bits, so ascending index order is exactly the canonical search
order: relation bitmask first, then valuation bitmask.

Truth values across the whole family are Python integers with one bit per
model, which makes the connectives single big-integer operations.  The
scalar evaluators in kripke and translate stay the reference semantics; the
test suite pins the two routes against each other.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .kripke import FrameProperty, KripkeModel
from .syntax import (
    Atom, Box, Formula, Implies, MetaVar, Not, Schema, Signature,
)
from .translate import CImp, CNot, CoreForm, ForallWorld, PredR, PredV, PredW


def _bit_pattern(total_index_bits: int, bit: int) -> int:
    """Mask over all 2**total_index_bits indices whose binary digit `bit` is set."""
    run = 1 << bit
    mask = ((1 << run) - 1) << run
    width = run << 1
    size = 1 << total_index_bits
    while width < size:
        mask |= mask << width
        width <<= 1
    return mask


class ModelSlab:
    """All models with a fixed world count, atom list and designated subset."""

    def __init__(self, n_worlds: int, atoms: Iterable[str],
                 designated: Iterable[int] | None = None):
        self.n = n_worlds
        self.atoms = tuple(atoms)
        if designated is None:
            self.designated = frozenset(range(n_worlds))
        else:
            self.designated = frozenset(designated)
        if not self.designated or not all(0 <= w < n_worlds for w in self.designated):
            raise ValueError("designated set must be a non-empty subset of the domain")
        self._dsorted = tuple(sorted(self.designated))
        self._val_bits = len(self.atoms) * n_worlds
        self._rel_bits = n_worlds * n_worlds
        total = self._val_bits + self._rel_bits
        self.count = 1 << total
        self.full = (1 << self.count) - 1
        self._rel = [
            [_bit_pattern(total, self._val_bits + i * n_worlds + j)
             for j in range(n_worlds)]
            for i in range(n_worlds)
        ]
        self._val = {
            a: [_bit_pattern(total, ai * n_worlds + w) for w in range(n_worlds)]
            for ai, a in enumerate(self.atoms)
        }
        self._props: dict[FrameProperty, int] = {}

    # -- decoding ----------------------------------------------------------

    def model_at(self, index: int) -> KripkeModel:
        """The concrete model behind a bit position."""
        if not 0 <= index < self.count:
            raise IndexError(f"model index {index} out of range")
        val_bits = index & ((1 << self._val_bits) - 1)
        rel_bits = index >> self._val_bits
        n = self.n
        rel = [(i, j) for i in range(n) for j in range(n)
               if rel_bits >> (i * n + j) & 1]
        val = {a: [w for w in range(n) if val_bits >> (ai * n + w) & 1]
               for ai, a in enumerate(self.atoms)}
        return KripkeModel(n, self.designated, rel, val, Signature(self.atoms))

    def frame_at(self, index: int) -> tuple[int, frozenset[tuple[int, int]]]:
        """World count and relation behind a bit position, ignoring the
        valuation.  Works on atom-free slabs where model_at cannot."""
        if not 0 <= index < self.count:
            raise IndexError(f"model index {index} out of range")
        rel_bits = index >> self._val_bits
        n = self.n
        rel = frozenset((i, j) for i in range(n) for j in range(n)
                        if rel_bits >> (i * n + j) & 1)
        return n, rel

    def index_of(self, m: KripkeModel) -> int:
        """Inverse of model_at for models with this slab's shape."""
        if m.n_worlds != self.n or tuple(m.sig.atoms) != self.atoms:
            raise ValueError("model does not match this slab")
        n = self.n
        rel_bits = 0
        for i, j in m.rel:
            rel_bits |= 1 << (i * n + j)
        val_bits = 0
        for ai, a in enumerate(self.atoms):
            for w in m.val[a]:
                val_bits |= 1 << (ai * n + w)
        return (rel_bits << self._val_bits) | val_bits

    @staticmethod
    def first_index(mask: int) -> int:
        """Position of the lowest set bit, i.e. the canonically first model."""
        if mask == 0:
            raise ValueError("empty mask")
        return (mask & -mask).bit_length() - 1

    # -- formula truth -----------------------------------------------------

    def deep_truth(self, f: Formula, w: int, memo: dict | None = None) -> int:
        """Truth mask of a core formula at world w across the family.

        Box steps only into designated worlds, mirroring eval_deep.
        """
        if memo is None:
            memo = {}
        return self._deep(f, w, memo, None)

    def _deep(self, f, w, memo, assignment):
        # metavariable leaves read their truth from the assigned world sets,
        # which is how schema_validity_mask evaluates instances
        key = (f, w)
        hit = memo.get(key)
        if hit is not None:
            return hit
        t = type(f)
        if t is Atom:
            try:
                out = self._val[f.name][w]
            except KeyError:
                raise ValueError(f"atom {f.name!r} is not in this slab") from None
        elif t is MetaVar:
            if assignment is None:
                raise ValueError("metavariable outside schema evaluation")
            out = self.full if w in assignment[f.name] else 0
        elif t is Not:
            out = self.full ^ self._deep(f.body, w, memo, assignment)
        elif t is Implies:
            out = ((self.full ^ self._deep(f.left, w, memo, assignment))
                   | self._deep(f.right, w, memo, assignment))
        elif t is Box:
            out = self.full
            for v in self._dsorted:
                out &= (self.full ^ self._rel[w][v]) | self._deep(f.body, v, memo, assignment)
        else:
            raise TypeError(f"cannot evaluate {f!r} (desugar first)")
        memo[key] = out
        return out

    def validity_mask(self, f: Formula, memo: dict | None = None) -> int:
        """Models where f holds at every designated world."""
        if memo is None:
            memo = {}
        out = self.full
        for w in self._dsorted:
            out &= self._deep(f, w, memo, None)
        return out

    # -- translated-form truth ---------------------------------------------

    def core_truth(self, c: CoreForm, binding: Mapping[str, int],
                   memo: dict | None = None) -> int:
        """Truth mask of a translated form under a world-variable binding.

        Quantifiers range over the whole domain; the designated-set guard is
        the W predicate, which is constant per slab.
        """
        if memo is None:
            memo = {}
        return self._core(c, dict(binding), memo)

    def _core(self, c, binding, memo):
        key = (c, tuple(binding[v] for v in c.free_sorted))
        hit = memo.get(key)
        if hit is not None:
            return hit
        t = type(c)
        if t is PredW:
            out = self.full if binding[c.var] in self.designated else 0
        elif t is PredR:
            out = self._rel[binding[c.src]][binding[c.dst]]
        elif t is PredV:
            try:
                out = self._val[c.atom][binding[c.var]]
            except KeyError:
                raise ValueError(f"atom {c.atom!r} is not in this slab") from None
        elif t is CNot:
            out = self.full ^ self._core(c.body, binding, memo)
        elif t is CImp:
            out = (self.full ^ self._core(c.left, binding, memo)) | self._core(c.right, binding, memo)
        elif t is ForallWorld:
            body = c.body
            # a leading designated-set guard lets us skip the worlds it rules out
            if type(body) is CImp and type(body.left) is PredW and body.left.var == c.var:
                domain = self._dsorted
            else:
                domain = range(self.n)
            out = self.full
            inner = dict(binding)
            for d in domain:
                inner[c.var] = d
                out &= self._core(body, inner, memo)
        else:
            raise TypeError(f"not a translated form: {c!r}")
        memo[key] = out
        return out

    # -- schemas -----------------------------------------------------------

    def schema_validity_mask(self, s: Schema) -> int:
        """Models where every instantiation of s's metavariables by subsets
        of the designated worlds is valid.

        Concrete atoms read the valuation, so on an atom-free slab a schema
        whose leaves are all metavariables gives schema validity on the frame.
        """
        names = s.metavars
        body = s.body
        out = self.full
        ds = self._dsorted
        for choice in range(1 << (len(names) * len(ds))):
            assignment = {}
            for i, name in enumerate(names):
                bits = choice >> (i * len(ds))
                assignment[name] = frozenset(w for k, w in enumerate(ds) if bits >> k & 1)
            memo: dict = {}
            for w in ds:
                out &= self._deep(body, w, memo, assignment)
            if out == 0:
                break
        return out

    # -- frame properties ----------------------------------------------------

    def property_mask(self, p: FrameProperty) -> int:
        """Models whose relation, restricted to the designated set, has p."""
        cached = self._props.get(p)
        if cached is not None:
            return cached
        ds = self._dsorted
        full = self.full
        rel = self._rel
        if p is FrameProperty.REFLEXIVE:
            out = full
            for w in ds:
                out &= rel[w][w]
        elif p is FrameProperty.SYMMETRIC:
            out = full
            for i, w in enumerate(ds):
                for v in ds[i + 1:]:
                    out &= full ^ (rel[w][v] ^ rel[v][w])
        elif p is FrameProperty.TRANSITIVE:
            out = full
            for w in ds:
                for v in ds:
                    step = rel[w][v]
                    for u in ds:
                        out &= (full ^ (step & rel[v][u])) | rel[w][u]
        elif p is FrameProperty.SERIAL:
            out = full
            for w in ds:
                some = 0
                for v in ds:
                    some |= rel[w][v]
                out &= some
        elif p is FrameProperty.EUCLIDEAN:
            out = full
            for w in ds:
                for v in ds:
                    step = rel[w][v]
                    for u in ds:
                        out &= (full ^ (step & rel[w][u])) | rel[v][u]
        elif p is FrameProperty.IRREFLEXIVE:
            out = full
            for w in ds:
                out &= full ^ rel[w][w]
        elif p is FrameProperty.CONVERSE_WELL_FOUNDED:
            # cycle-free inside the designated set: union the diagonals of the
            # first |ds| powers of the restricted adjacency matrix
            paths = {(w, v): rel[w][v] for w in ds for v in ds}
            step = dict(paths)
            cyc = 0
            for w in ds:
                cyc |= step[(w, w)]
            for _ in range(len(ds) - 1):
                nxt = {}
                for w in ds:
                    for v in ds:
                        acc = 0
                        for u in ds:
                            acc |= step[(w, u)] & paths[(u, v)]
                        nxt[(w, v)] = acc
                step = nxt
                for w in ds:
                    cyc |= step[(w, w)]
            out = full ^ cyc
        else:
            raise TypeError(f"unknown frame property {p!r}")
        self._props[p] = out
        return out

    def properties_mask(self, props: Iterable[FrameProperty]) -> int:
        out = self.full
        for p in props:
            out &= self.property_mask(p)
        return out
