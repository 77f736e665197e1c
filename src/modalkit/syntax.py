"""Signatures, modal formulas, schemas, parsing, printing and enumeration.

The core connectives are atoms, negation, implication and box.  Disjunction,
conjunction, diamond and the constants are sugar and can be eliminated with
:func:`desugar`.  Formula objects are immutable, hashable and shareable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

RESERVED_WORDS = frozenset({"box", "dia", "not", "true", "false"})

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class FormulaSyntaxError(ValueError):
    """Problem with formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LexError(FormulaSyntaxError):
    pass


class ParseError(FormulaSyntaxError):
    pass


class UnknownAtomError(FormulaSyntaxError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown atom {name!r}", position)
        self.name = name


class SchemaError(ValueError):
    """Raised for bad schema instantiations (missing metavariable bindings)."""


@dataclass(frozen=True)
class Signature:
    """Ordered collection of distinct propositional atom names."""

    atoms: tuple[str, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("signature needs at least one atom")
        seen = set()
        for name in self.atoms:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad atom name {name!r}")
            if name in RESERVED_WORDS:
                raise ValueError(f"atom name {name!r} is a reserved word")
            if name in seen:
                raise ValueError(f"duplicate atom {name!r}")
            seen.add(name)

    def __contains__(self, name: str) -> bool:
        return name in self.atoms

    def index(self, name: str) -> int:
        return self.atoms.index(name)


def sorted_signature(names: Iterable[str]) -> Signature:
    """Signature of the given atom names in sorted order; a single atom p
    when there are none."""
    return Signature(tuple(sorted(names)) or ("p",))


class Formula:
    """Base class for formula nodes.  Instances are immutable; equality and
    hashing are structural, with the hash precomputed at construction."""

    __slots__ = ("_hash",)

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
        return pretty(self)


class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("atom", name))

    def _key(self):
        return self.name

    def __repr__(self):
        return f"Atom({self.name!r})"


class Not(Formula):
    __slots__ = ("body",)

    def __init__(self, body: Formula):
        self.body = body
        self._hash = hash(("not", body._hash))

    def _key(self):
        return self.body

    def __repr__(self):
        return f"Not({self.body!r})"


class Implies(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        self._hash = hash(("implies", left._hash, right._hash))

    def _key(self):
        return (self.left, self.right)

    def __repr__(self):
        return f"Implies({self.left!r}, {self.right!r})"


class Box(Formula):
    __slots__ = ("body",)

    def __init__(self, body: Formula):
        self.body = body
        self._hash = hash(("box", body._hash))

    def _key(self):
        return self.body

    def __repr__(self):
        return f"Box({self.body!r})"


class Or(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        self._hash = hash(("or", left._hash, right._hash))

    def _key(self):
        return (self.left, self.right)

    def __repr__(self):
        return f"Or({self.left!r}, {self.right!r})"


class And(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        self._hash = hash(("and", left._hash, right._hash))

    def _key(self):
        return (self.left, self.right)

    def __repr__(self):
        return f"And({self.left!r}, {self.right!r})"


class Dia(Formula):
    __slots__ = ("body",)

    def __init__(self, body: Formula):
        self.body = body
        self._hash = hash(("dia", body._hash))

    def _key(self):
        return self.body

    def __repr__(self):
        return f"Dia({self.body!r})"


class Top(Formula):
    __slots__ = ()

    def __init__(self):
        self._hash = hash(("top",))

    def _key(self):
        return ()

    def __repr__(self):
        return "Top()"


class Bot(Formula):
    __slots__ = ()

    def __init__(self):
        self._hash = hash(("bot",))

    def _key(self):
        return ()

    def __repr__(self):
        return "Bot()"


class MetaVar(Formula):
    """Schema placeholder leaf; never appears in a plain formula."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("metavar", name))

    def _key(self):
        return self.name

    def __repr__(self):
        return f"MetaVar({self.name!r})"


_CORE_TYPES = (Atom, Not, Implies, Box)


def is_core(f: Formula) -> bool:
    """True when f uses only atoms, negation, implication and box."""
    t = type(f)
    if t is Atom:
        return True
    if t is Not or t is Box:
        return is_core(f.body)
    if t is Implies:
        return is_core(f.left) and is_core(f.right)
    return False


def desugar(f: Formula, sig: Signature) -> Formula:
    """Rewrite sugar into the core connectives.

    The constant true becomes p -> p for the signature's first atom, false
    its negation.  Core formulas come back unchanged (the same object), so
    the function is idempotent.  Metavariable leaves are left in place so
    schema bodies can be desugared too.
    """
    t = type(f)
    if t is Atom or t is MetaVar:
        return f
    if t is Not:
        body = desugar(f.body, sig)
        return f if body is f.body else Not(body)
    if t is Implies:
        left = desugar(f.left, sig)
        right = desugar(f.right, sig)
        return f if left is f.left and right is f.right else Implies(left, right)
    if t is Box:
        body = desugar(f.body, sig)
        return f if body is f.body else Box(body)
    if t is Or:
        return Implies(Not(desugar(f.left, sig)), desugar(f.right, sig))
    if t is And:
        return Not(Implies(desugar(f.left, sig), Not(desugar(f.right, sig))))
    if t is Dia:
        return Not(Box(Not(desugar(f.body, sig))))
    if t is Top:
        first = Atom(sig.atoms[0])
        return Implies(first, first)
    if t is Bot:
        first = Atom(sig.atoms[0])
        return Not(Implies(first, first))
    raise TypeError(f"not a formula node: {f!r}")


def atoms_of(f: Formula) -> frozenset[str]:
    """Atom names occurring in f (sugar constants contribute none)."""
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is Atom:
            out.add(g.name)
        elif t in (Not, Box, Dia):
            stack.append(g.body)
        elif t in (Implies, Or, And):
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(out)


def metavars_of(f: Formula) -> tuple[str, ...]:
    """Metavariable names in order of first occurrence."""
    out: list[str] = []

    def walk(g: Formula):
        t = type(g)
        if t is MetaVar:
            if g.name not in out:
                out.append(g.name)
        elif t in (Not, Box, Dia):
            walk(g.body)
        elif t in (Implies, Or, And):
            walk(g.left)
            walk(g.right)

    walk(f)
    return tuple(out)


def depth(f: Formula) -> int:
    """AST depth; atoms and other leaves sit at depth 0."""
    t = type(f)
    if t in (Atom, MetaVar, Top, Bot):
        return 0
    if t in (Not, Box, Dia):
        return 1 + depth(f.body)
    return 1 + max(depth(f.left), depth(f.right))


def size(f: Formula) -> int:
    """Number of AST nodes."""
    t = type(f)
    if t in (Atom, MetaVar, Top, Bot):
        return 1
    if t in (Not, Box, Dia):
        return 1 + size(f.body)
    return 1 + size(f.left) + size(f.right)


@dataclass(frozen=True)
class Schema:
    """A formula shape whose metavariable leaves stand for arbitrary formulas."""

    body: Formula

    @property
    def metavars(self) -> tuple[str, ...]:
        return metavars_of(self.body)

    def __str__(self):
        return pretty(self.body)


def substitute_metavars(f: Formula, subst: Mapping[str, Formula]) -> Formula:
    """Replace every metavariable leaf using subst; missing names raise SchemaError."""
    t = type(f)
    if t is MetaVar:
        try:
            return subst[f.name]
        except KeyError:
            raise SchemaError(f"no binding for metavariable ?{f.name}") from None
    if t is Atom or t is Top or t is Bot:
        return f
    if t is Not:
        return Not(substitute_metavars(f.body, subst))
    if t is Box:
        return Box(substitute_metavars(f.body, subst))
    if t is Dia:
        return Dia(substitute_metavars(f.body, subst))
    if t is Implies:
        return Implies(substitute_metavars(f.left, subst),
                       substitute_metavars(f.right, subst))
    if t is Or:
        return Or(substitute_metavars(f.left, subst),
                  substitute_metavars(f.right, subst))
    if t is And:
        return And(substitute_metavars(f.left, subst),
                   substitute_metavars(f.right, subst))
    raise TypeError(f"not a formula node: {f!r}")


def instantiate(s: Schema, subst: Mapping[str, Formula]) -> Formula:
    """Produce the instance of schema s under a total metavariable substitution."""
    return substitute_metavars(s.body, subst)


# ---------------------------------------------------------------------------
# Lexer and parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<arrow>->)
      | (?P<name>[A-Za-z][A-Za-z0-9_]*)
      | (?P<metavar>\?[A-Za-z][A-Za-z0-9_]*)
      | (?P<punct>[~&|()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LexError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature | None, allow_metavars: bool):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = sig
        self.allow_metavars = allow_metavars

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want_text: str):
        kind, text, pos = self.peek()
        if text != want_text:
            found = repr(text) if kind != "eof" else "end of input"
            raise ParseError(f"expected {want_text!r}, found {found}", pos)
        return self.advance()

    def parse(self) -> Formula:
        f = self.implication()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return f

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "arrow":
            self.advance()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[1] == "|":
            self.advance()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek()[1] == "&":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, text, pos = self.peek()
        if text == "~" or (kind == "name" and text == "not"):
            self.advance()
            return Not(self.unary())
        if kind == "name" and text == "box":
            self.advance()
            return Box(self.unary())
        if kind == "name" and text == "dia":
            self.advance()
            return Dia(self.unary())
        return self.primary()

    def primary(self) -> Formula:
        kind, text, pos = self.peek()
        if text == "(":
            self.advance()
            f = self.implication()
            self.expect(")")
            return f
        if kind == "metavar":
            if not self.allow_metavars:
                raise ParseError(f"metavariable {text!r} not allowed here", pos)
            self.advance()
            return MetaVar(text[1:])
        if kind == "name":
            if text == "true":
                self.advance()
                return Top()
            if text == "false":
                self.advance()
                return Bot()
            if text in ("box", "dia", "not"):
                raise ParseError(f"unexpected keyword {text!r}", pos)
            self.advance()
            if self.sig is not None and text not in self.sig:
                raise UnknownAtomError(text, pos)
            return Atom(text)
        found = repr(text) if kind != "eof" else "end of input"
        raise ParseError(f"expected a formula, found {found}", pos)


def parse(text: str, sig: Signature) -> Formula:
    """Parse formula text over the given signature.

    Precedence, tightest first: the prefix operators ~ / box / dia, then &,
    then |, then the right-associative ->.
    """
    return _Parser(text, sig, allow_metavars=False).parse()


def parse_schema(text: str, sig: Signature | None = None) -> Schema:
    """Parse a schema; leaves may be ?metavariables (and atoms if sig given)."""
    return Schema(_Parser(text, sig, allow_metavars=True).parse())


def infer_signature(text: str) -> Signature:
    """Signature made of the non-keyword identifiers in text, in order of
    first occurrence.  Falls back to a single atom p when none occur."""
    names: list[str] = []
    for kind, tok, _ in _tokenize(text):
        if kind == "name" and tok not in RESERVED_WORDS and tok not in names:
            names.append(tok)
    if not names:
        names = ["p"]
    return Signature(tuple(names))


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4


def _render(f: Formula, limit: int) -> str:
    """Render f, wrapping in parens when its top precedence is below limit."""
    t = type(f)
    if t is Atom:
        return f.name
    if t is MetaVar:
        return "?" + f.name
    if t is Top:
        return "true"
    if t is Bot:
        return "false"
    if t is Not:
        return _wrap("~" + _render(f.body, _PREC_UNARY), _PREC_UNARY, limit)
    if t is Box:
        return _wrap("box " + _render(f.body, _PREC_UNARY), _PREC_UNARY, limit)
    if t is Dia:
        return _wrap("dia " + _render(f.body, _PREC_UNARY), _PREC_UNARY, limit)
    if t is And:
        body = _render(f.left, _PREC_AND) + " & " + _render(f.right, _PREC_AND + 1)
        return _wrap(body, _PREC_AND, limit)
    if t is Or:
        body = _render(f.left, _PREC_OR) + " | " + _render(f.right, _PREC_OR + 1)
        return _wrap(body, _PREC_OR, limit)
    if t is Implies:
        body = _render(f.left, _PREC_IMPLIES + 1) + " -> " + _render(f.right, _PREC_IMPLIES)
        return _wrap(body, _PREC_IMPLIES, limit)
    raise TypeError(f"not a formula node: {f!r}")


def _wrap(text: str, prec: int, limit: int) -> str:
    return "(" + text + ")" if prec < limit else text


def pretty(f: Formula) -> str:
    """Concrete syntax for f; parsing the result gives back an equal formula."""
    return _render(f, 0)


def to_sexpr(f: Formula) -> str:
    """Canonical s-expression rendering, used for golden tests."""
    t = type(f)
    if t is Atom:
        return f"(atom {f.name})"
    if t is MetaVar:
        return f"(metavar {f.name})"
    if t is Top:
        return "(top)"
    if t is Bot:
        return "(bot)"
    if t is Not:
        return f"(not {to_sexpr(f.body)})"
    if t is Box:
        return f"(box {to_sexpr(f.body)})"
    if t is Dia:
        return f"(dia {to_sexpr(f.body)})"
    if t is Implies:
        return f"(implies {to_sexpr(f.left)} {to_sexpr(f.right)})"
    if t is And:
        return f"(and {to_sexpr(f.left)} {to_sexpr(f.right)})"
    if t is Or:
        return f"(or {to_sexpr(f.left)} {to_sexpr(f.right)})"
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def enumerate_formulas(sig: Signature, max_depth: int) -> list[Formula]:
    """All core formulas over sig with AST depth <= max_depth.

    Deterministic and duplicate-free.  Atoms come first in signature order;
    each following depth level appends its negations, then implications in
    left-then-right order over the earlier listing, then boxes.  Subterms are
    shared, so the result is also closed under subformulas.
    """
    if max_depth < 0:
        return []
    current = [Atom(a) for a in sig.atoms]
    depths = [0] * len(current)
    out = list(current)
    for d in range(1, max_depth + 1):
        exact_prev = [f for f, fd in zip(out, depths) if fd == d - 1]
        new: list[Formula] = [Not(f) for f in exact_prev]
        for i, l in enumerate(out):
            dl = depths[i]
            for j, r in enumerate(out):
                if max(dl, depths[j]) == d - 1:
                    new.append(Implies(l, r))
        new.extend(Box(f) for f in exact_prev)
        out.extend(new)
        depths.extend([d] * len(new))
    return out
