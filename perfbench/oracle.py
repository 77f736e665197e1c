"""The benchmark's own reference semantics, written apart from modalkit.

Formulas are nested tuples: ("atom", name), ("top",), ("bot",), ("not", a),
("box", a), ("dia", a), ("and", a, b), ("or", a, b), ("imp", a, b).  Models
are plain (n, designated worlds, relation pairs, valuation) tuples.  Nothing
here imports modalkit, so an answer checked against this module is checked
against a result the program did not compute.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

PROPERTIES = ("reflexive", "symmetric", "transitive", "serial", "euclidean",
              "irreflexive", "cwf")

# the modal cube: each logic's frame class, by property name
LOGIC_PROPS = {
    "K": (),
    "KT": ("reflexive",),
    "KB": ("symmetric",),
    "K4": ("transitive",),
    "KTB": ("reflexive", "symmetric"),
    "S4": ("reflexive", "transitive"),
    "KB4": ("symmetric", "transitive"),
    "S5": ("reflexive", "symmetric", "transitive"),
}


class Model(NamedTuple):
    n: int
    worlds: frozenset
    rel: frozenset
    val: dict


# -- syntax -------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(->|[~&|()]|[A-Za-z][A-Za-z0-9_]*)")


def parse(text: str):
    """Formula text in the README's grammar, as a tuple tree."""
    tokens, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad character at {pos} in {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    at = [0]

    def peek():
        return tokens[at[0]]

    def take():
        at[0] += 1
        return tokens[at[0] - 1]

    def implication():
        left = binary("|", "or", lambda: binary("&", "and", unary))
        if peek() == "->":
            take()
            return ("imp", left, implication())
        return left

    def binary(symbol, tag, operand):
        f = operand()
        while peek() == symbol:
            take()
            f = (tag, f, operand())
        return f

    def unary():
        tok = take()
        if tok in ("~", "not"):
            return ("not", unary())
        if tok in ("box", "dia"):
            return (tok, unary())
        if tok == "(":
            f = implication()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return f
        if tok == "true":
            return ("top",)
        if tok == "false":
            return ("bot",)
        if not tok or not tok[0].isalpha():
            raise ValueError(f"expected a formula in {text!r}")
        return ("atom", tok)

    f = implication()
    if peek():
        raise ValueError(f"trailing input in {text!r}")
    return f


def render(f) -> str:
    """Fully parenthesised text, so the parse tree is the tuple tree."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag in ("top", "bot"):
        return "true" if tag == "top" else "false"
    if tag in ("not", "box", "dia"):
        body = render(f[1])
        if f[1][0] in ("and", "or", "imp"):
            body = f"({body})"
        return ("~" if tag == "not" else tag + " ") + body
    symbol = {"and": "&", "or": "|", "imp": "->"}[tag]
    parts = [render(g) if g[0] not in ("and", "or", "imp") else f"({render(g)})"
             for g in f[1:]]
    return f" {symbol} ".join(parts)


def sexpr(f) -> str:
    tag = f[0]
    if tag == "atom":
        return f"(atom {f[1]})"
    if tag in ("top", "bot"):
        return f"({tag})"
    name = {"imp": "implies"}.get(tag, tag)
    return "(" + " ".join([name] + [sexpr(g) for g in f[1:]]) + ")"


def atoms(f) -> frozenset:
    if f[0] == "atom":
        return frozenset([f[1]])
    return frozenset().union(*(atoms(g) for g in f[1:] if isinstance(g, tuple)))


# -- one model ------------------------------------------------------------------

def holds(m: Model, w: int, f) -> bool:
    """Truth at w; modal steps go to related worlds inside the designated set."""
    tag = f[0]
    if tag == "atom":
        return w in m.val[f[1]]
    if tag == "top":
        return True
    if tag == "bot":
        return False
    if tag == "not":
        return not holds(m, w, f[1])
    if tag == "and":
        return holds(m, w, f[1]) and holds(m, w, f[2])
    if tag == "or":
        return holds(m, w, f[1]) or holds(m, w, f[2])
    if tag == "imp":
        return not holds(m, w, f[1]) or holds(m, w, f[2])
    succ = [v for v in sorted(m.worlds) if (w, v) in m.rel]
    if tag == "box":
        return all(holds(m, v, f[1]) for v in succ)
    if tag == "dia":
        return any(holds(m, v, f[1]) for v in succ)
    raise ValueError(f"not a formula: {f!r}")


def has(m: Model, prop: str) -> bool:
    """Frame property of the relation restricted to the designated worlds."""
    ws = sorted(m.worlds)
    r = {(a, b) for a, b in m.rel if a in m.worlds and b in m.worlds}
    if prop == "reflexive":
        return all((w, w) in r for w in ws)
    if prop == "irreflexive":
        return all((w, w) not in r for w in ws)
    if prop == "symmetric":
        return all((b, a) in r for a, b in r)
    if prop == "transitive":
        return all((a, c) in r for a, b in r for b2, c in r if b == b2)
    if prop == "euclidean":
        return all((b, c) in r for a, b in r for a2, c in r if a == a2)
    if prop == "serial":
        return all(any((w, v) in r for v in ws) for w in ws)
    if prop == "cwf":
        # finite frames: no cycle, self-loops included; peel off sinks
        left = set(ws)
        while True:
            sinks = {w for w in left if not any((w, v) in r for v in left)}
            if not sinks:
                return not left
            left -= sinks
    raise ValueError(f"unknown property {prop!r}")


def schema_valid(m: Model, f) -> bool:
    """Every atom ranges over every subset of the worlds (frame validity)."""
    names = sorted(atoms(f))
    ws = sorted(m.worlds)
    for choice in range(1 << (len(names) * len(ws))):
        val = {a: frozenset(w for k, w in enumerate(ws)
                            if choice >> (i * len(ws) + k) & 1)
               for i, a in enumerate(names)}
        inst = m._replace(val=val)
        if not all(holds(inst, w, f) for w in ws):
            return False
    return True


def read_model(text: str) -> Model:
    """The documented model file format: worlds, in, rel and val lines."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep and key.strip() in ("worlds", "in", "rel", "val"):
            fields[key.strip()] = json.loads(value)
    return Model(fields["worlds"], frozenset(fields["in"]),
                 frozenset(tuple(p) for p in fields["rel"]),
                 {a: frozenset(ws) for a, ws in fields["val"].items()})


def write_model(m: Model) -> str:
    return (f"worlds: {m.n}\nin: {json.dumps(sorted(m.worlds))}\n"
            f"rel: {json.dumps(sorted(list(p) for p in m.rel))}\n"
            f"val: {json.dumps({a: sorted(ws) for a, ws in sorted(m.val.items())})}\n")


# -- every model of a size at once ------------------------------------------------

def _column(bit: int, index_bits: int) -> int:
    """Bitset over all 2**index_bits model indices: those whose `bit` is 1.

    Built from a repeated byte pattern, little-endian."""
    size = 1 << index_bits
    if bit < 3:
        data = bytes([(0xAA, 0xCC, 0xF0)[bit]]) * max(1, size // 8)
    else:
        half = 1 << (bit - 3)
        data = (bytes(half) + b"\xff" * half) * (size // (16 * half))
    return int.from_bytes(data, "little") & ((1 << size) - 1)


class Family:
    """Every model with n worlds (all designated) over the given atoms; one
    bit per model.  Index bits: relation pairs first, then the valuation."""

    def __init__(self, n: int, names: tuple):
        self.n = n
        index_bits = n * n + len(names) * n
        self.full = (1 << (1 << index_bits)) - 1
        self.r = [[_column(i * n + j, index_bits) for j in range(n)] for i in range(n)]
        self.v = {a: [_column(n * n + k * n + w, index_bits) for w in range(n)]
                  for k, a in enumerate(names)}
        self._props: dict = {}

    def truth(self, f, w: int, memo: dict) -> int:
        key = (f, w)
        if key in memo:
            return memo[key]
        tag, full, n = f[0], self.full, self.n
        if tag == "atom":
            out = self.v[f[1]][w]
        elif tag == "top":
            out = full
        elif tag == "bot":
            out = 0
        elif tag == "not":
            out = full ^ self.truth(f[1], w, memo)
        elif tag == "and":
            out = self.truth(f[1], w, memo) & self.truth(f[2], w, memo)
        elif tag == "or":
            out = self.truth(f[1], w, memo) | self.truth(f[2], w, memo)
        elif tag == "imp":
            out = (full ^ self.truth(f[1], w, memo)) | self.truth(f[2], w, memo)
        elif tag == "box":
            out = full
            for v in range(n):
                out &= (full ^ self.r[w][v]) | self.truth(f[1], v, memo)
        elif tag == "dia":
            out = 0
            for v in range(n):
                out |= self.r[w][v] & self.truth(f[1], v, memo)
        else:
            raise ValueError(f"not a formula: {f!r}")
        memo[key] = out
        return out

    def prop(self, name: str) -> int:
        if name not in self._props:
            self._props[name] = self._prop(name)
        return self._props[name]

    def _prop(self, name: str) -> int:
        n, r, full = self.n, self.r, self.full
        out = full
        pairs = [(a, b) for a in range(n) for b in range(n)]
        if name == "reflexive":
            for w in range(n):
                out &= r[w][w]
        elif name == "irreflexive":
            for w in range(n):
                out &= full ^ r[w][w]
        elif name == "symmetric":
            for a, b in pairs:
                out &= (full ^ r[a][b]) | r[b][a]
        elif name == "transitive":
            for a, b in pairs:
                for c in range(n):
                    out &= (full ^ (r[a][b] & r[b][c])) | r[a][c]
        elif name == "euclidean":
            for a, b in pairs:
                for c in range(n):
                    out &= (full ^ (r[a][b] & r[a][c])) | r[b][c]
        elif name == "serial":
            for a in range(n):
                some = 0
                for b in range(n):
                    some |= r[a][b]
                out &= some
        elif name == "cwf":
            # walks of length 1..n; a cycle shows up as a closed walk
            walk = [row[:] for row in r]
            cyclic = 0
            for _ in range(n):
                for w in range(n):
                    cyclic |= walk[w][w]
                walk = [[_or(walk[a][m] & r[m][b] for m in range(n)) for b in range(n)]
                        for a in range(n)]
            out = full ^ cyclic
        else:
            raise ValueError(f"unknown property {name!r}")
        return out


def _or(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


class Oracle:
    """Exhaustive refutation over small model families, cached per size."""

    def __init__(self):
        self._families: dict = {}

    def family(self, n: int, names: tuple) -> Family:
        key = (n, names)
        if key not in self._families:
            self._families[key] = Family(n, names)
        return self._families[key]

    def least_countermodel_size(self, f, props, max_worlds: int):
        """Smallest world count with a model having all props where f fails
        at some world, or None within the bound."""
        names = tuple(sorted(atoms(f))) or ("p",)
        for n in range(1, max_worlds + 1):
            fam = self.family(n, names)
            admitted = fam.full
            for p in props:
                admitted &= fam.prop(p)
            memo: dict = {}
            for w in range(n):
                if admitted & (fam.full ^ fam.truth(f, w, memo)):
                    return n
        return None
