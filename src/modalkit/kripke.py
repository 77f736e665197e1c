"""Finite Kripke models: evaluation, validity, frame properties, file format."""

from __future__ import annotations

import json
from enum import Enum
from typing import Iterable, Mapping

from .syntax import (
    Atom, Box, Formula, Implies, Not, Signature, desugar,
)


class FrameProperty(Enum):
    REFLEXIVE = "reflexive"
    SYMMETRIC = "symmetric"
    TRANSITIVE = "transitive"
    SERIAL = "serial"
    EUCLIDEAN = "euclidean"
    IRREFLEXIVE = "irreflexive"
    CONVERSE_WELL_FOUNDED = "converse-well-founded"

    @classmethod
    def from_name(cls, name: str) -> "FrameProperty":
        key = name.strip().lower()
        try:
            return _PROPERTY_NAMES[key]
        except KeyError:
            raise ValueError(f"unknown frame property {name!r}") from None


_PROPERTY_NAMES = {
    "r": FrameProperty.REFLEXIVE,
    "reflexive": FrameProperty.REFLEXIVE,
    "s": FrameProperty.SYMMETRIC,
    "symmetric": FrameProperty.SYMMETRIC,
    "t": FrameProperty.TRANSITIVE,
    "transitive": FrameProperty.TRANSITIVE,
    "serial": FrameProperty.SERIAL,
    "euclidean": FrameProperty.EUCLIDEAN,
    "irreflexive": FrameProperty.IRREFLEXIVE,
    "cwf": FrameProperty.CONVERSE_WELL_FOUNDED,
    "converse-well-founded": FrameProperty.CONVERSE_WELL_FOUNDED,
}


class ModelError(ValueError):
    """Malformed model: bad ids, non-total valuation, or empty world set."""


class KripkeModel:
    """A finite model over worlds 0..n_worlds-1.

    `worlds` is the designated non-empty subset that evaluation quantifies
    over; `rel` may mention any domain ids; `val` maps every signature atom
    to the set of worlds where it is true.
    """

    __slots__ = ("n_worlds", "worlds", "rel", "val", "sig", "_succ")

    def __init__(self, n_worlds: int,
                 worlds: Iterable[int],
                 rel: Iterable[tuple[int, int]],
                 val: Mapping[str, Iterable[int]],
                 sig: Signature):
        self.n_worlds = n_worlds
        self.worlds = frozenset(worlds)
        self.rel = frozenset((int(a), int(b)) for a, b in rel)
        self.val = {a: frozenset(ws) for a, ws in val.items()}
        self.sig = sig
        domain = range(n_worlds)
        if not self.worlds:
            raise ModelError("the designated world set is empty")
        if not all(w in domain for w in self.worlds):
            raise ModelError("designated world outside the domain")
        if not all(a in domain and b in domain for a, b in self.rel):
            raise ModelError("relation pair outside the domain")
        if set(self.val) != set(sig.atoms):
            raise ModelError("valuation does not cover exactly the signature atoms")
        for a, ws in self.val.items():
            if not all(w in domain for w in ws):
                raise ModelError(f"valuation of {a!r} mentions a world outside the domain")
        # successors inside the designated set, per world, in ascending
        # order: one pass over the sorted relation
        succ: dict[int, list[int]] = {w: [] for w in self.worlds}
        for w, v in sorted(self.rel):
            if w in succ and v in self.worlds:
                succ[w].append(v)
        self._succ = {w: tuple(vs) for w, vs in succ.items()}

    def __eq__(self, other):
        if not isinstance(other, KripkeModel):
            return NotImplemented
        return (self.n_worlds == other.n_worlds
                and self.worlds == other.worlds
                and self.rel == other.rel
                and self.val == other.val
                and self.sig == other.sig)

    __hash__ = None

    def __repr__(self):
        return (f"KripkeModel(n_worlds={self.n_worlds}, worlds={sorted(self.worlds)}, "
                f"rel={sorted(self.rel)}, val={{{', '.join(f'{a}: {sorted(ws)}' for a, ws in self.val.items())}}})")

    def atom_true(self, name: str, w: int) -> bool:
        return w in self.val[name]

    def describe(self) -> str:
        """One-line summary used in reports and CLI output."""
        vals = ", ".join(f"{a}@{sorted(ws)}" for a, ws in self.val.items())
        return (f"worlds={self.n_worlds} in={sorted(self.worlds)} "
                f"rel={sorted(self.rel)} val[{vals}]")


def eval_deep(m: KripkeModel, w: int, f: Formula) -> bool:
    """Truth of f at world w by structural recursion.

    Box quantifies over accessible worlds inside the designated set.  Sugar
    is eliminated on entry; w must be designated and every atom must belong
    to the model's signature.
    """
    if w not in m.worlds:
        raise ValueError(f"world {w} is not in the designated world set")
    return _eval(m, w, desugar(f, m.sig), {})


def _eval(m: KripkeModel, w: int, f: Formula, memo: dict) -> bool:
    """memo holds each box's truth per world for one top-level call, so
    nested boxes on a dense relation are not re-walked along every path."""
    t = type(f)
    if t is Atom:
        if f.name not in m.val:
            raise ValueError(f"atom {f.name!r} is not in the model's signature")
        return w in m.val[f.name]
    if t is Not:
        return not _eval(m, w, f.body, memo)
    if t is Implies:
        return (not _eval(m, w, f.left, memo)) or _eval(m, w, f.right, memo)
    if t is Box:
        key = (f, w)
        value = memo.get(key)
        if value is None:
            value = memo[key] = all(_eval(m, v, f.body, memo) for v in m._succ[w])
        return value
    raise TypeError(f"cannot evaluate {f!r}")


def valid_in_model(m: KripkeModel, f: Formula) -> bool:
    """True when f holds at every designated world."""
    g = desugar(f, m.sig)
    memo: dict = {}
    return all(_eval(m, w, g, memo) for w in sorted(m.worlds))


def has_property(m: KripkeModel, p: FrameProperty) -> bool:
    """Check a frame condition on the relation restricted to the designated set."""
    ws = sorted(m.worlds)
    rel = m.rel
    if p is FrameProperty.REFLEXIVE:
        return all((w, w) in rel for w in ws)
    if p is FrameProperty.SYMMETRIC:
        return all((v, w) in rel for w in ws for v in ws if (w, v) in rel)
    if p is FrameProperty.TRANSITIVE:
        return all((w, u) in rel
                   for w in ws for v in ws if (w, v) in rel
                   for u in ws if (v, u) in rel)
    if p is FrameProperty.SERIAL:
        return all(any((w, v) in rel for v in ws) for w in ws)
    if p is FrameProperty.EUCLIDEAN:
        return all((v, u) in rel
                   for w in ws for v in ws if (w, v) in rel
                   for u in ws if (w, u) in rel)
    if p is FrameProperty.IRREFLEXIVE:
        return all((w, w) not in rel for w in ws)
    if p is FrameProperty.CONVERSE_WELL_FOUNDED:
        return _acyclic(ws, rel)
    raise TypeError(f"unknown frame property {p!r}")


def _acyclic(ws: list[int], rel: frozenset[tuple[int, int]]) -> bool:
    """No directed cycle (self-loops included) within the designated worlds."""
    colors = {w: 0 for w in ws}  # 0 fresh, 1 on stack, 2 done
    inside = set(ws)
    for start in ws:
        if colors[start]:
            continue
        stack = [(start, iter(ws))]
        colors[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for v in it:
                if v not in inside or (node, v) not in rel:
                    continue
                if colors[v] == 1:
                    return False
                if colors[v] == 0:
                    colors[v] = 1
                    stack.append((v, iter(ws)))
                    advanced = True
                    break
            if not advanced:
                colors[node] = 2
                stack.pop()
    return True


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------
#
# Four lines, in this order:
#
#   worlds: 3
#   in: [0, 1, 2]
#   rel: [[0, 0], [0, 1]]
#   val: {"p": [0, 2]}
#
# The signature is the val key order.  dump_model writes the canonical form
# (sorted ids and pairs), and load_model(dump_model(m)) == m exactly.

class ModelFormatError(ValueError):
    pass


def dump_model(m: KripkeModel) -> str:
    lines = [
        f"worlds: {m.n_worlds}",
        f"in: {json.dumps(sorted(m.worlds))}",
        f"rel: {json.dumps(sorted([list(p) for p in m.rel]))}",
        "val: " + json.dumps({a: sorted(m.val[a]) for a in m.sig.atoms}),
    ]
    return "\n".join(lines) + "\n"


def _is_world_list(value) -> bool:
    return isinstance(value, list) and all(type(w) is int for w in value)


def load_model(text: str) -> KripkeModel:
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ModelFormatError(f"line {lineno}: expected 'key: value'")
        key = key.strip()
        if key not in ("worlds", "in", "rel", "val"):
            raise ModelFormatError(f"line {lineno}: unknown field {key!r}")
        if key in fields:
            raise ModelFormatError(f"line {lineno}: duplicate field {key!r}")
        try:
            fields[key] = json.loads(value)
        except json.JSONDecodeError as e:
            raise ModelFormatError(f"line {lineno}: bad value for {key!r}: {e}") from None
    missing = [k for k in ("worlds", "in", "rel", "val") if k not in fields]
    if missing:
        raise ModelFormatError(f"missing fields: {', '.join(missing)}")
    n = fields["worlds"]
    if type(n) is not int or n <= 0:
        raise ModelFormatError("'worlds' must be a positive world count")
    if not _is_world_list(fields["in"]):
        raise ModelFormatError("'in' must be a list of world ids")
    if not (isinstance(fields["val"], dict)
            and all(_is_world_list(ws) for ws in fields["val"].values())):
        raise ModelFormatError("'val' must map atom names to world lists")
    rel = fields["rel"]
    if not (isinstance(rel, list)
            and all(_is_world_list(pair) and len(pair) == 2 for pair in rel)):
        raise ModelFormatError("'rel' must be a list of [i, j] pairs")
    try:
        sig = Signature(tuple(fields["val"].keys()))
        return KripkeModel(n, fields["in"], rel, fields["val"], sig)
    except ValueError as e:  # a bad atom name or a ModelError
        raise ModelFormatError(str(e)) from None
