"""Signatures, modal formulas, schemas, parsing, printing and enumeration.

The core connectives are atoms, negation, implication and box.  Disjunction,
conjunction, diamond and the constants are sugar and can be eliminated with
:func:`desugar`.  Formula objects are immutable, hashable and shareable, and
so are the first-order forms (CoreForm) that translate produces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable

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


def sorted_signature(names: Iterable[str]) -> Signature:
    """Signature of the given atom names in sorted order; a single atom p
    when there are none."""
    return Signature(tuple(sorted(names)) or ("p",))


class Node:
    """Base class for immutable syntax nodes: the formulas and the
    first-order forms.  Equality and hashing are structural, with the hash
    precomputed at construction; each class gives its _key."""

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


class Formula(Node):
    """Base class for formula nodes.  A connective declares only its tag,
    which seeds its hash and heads its s-expression; the base of its arity
    builds, compares and represents it."""

    __slots__ = ()
    tag: str

    # Node.__hash__ again: CPython specialises attribute reads per function,
    # and the grid hashes formulas and forms in turn (one shared: 5% slower)
    def __hash__(self):
        return self._hash

    def __str__(self):
        return pretty(self)


class _Leaf(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = hash((self.tag, name))

    def _key(self):
        return self.name

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"


class _Constant(Formula):
    __slots__ = ()

    def __init__(self):
        self._hash = hash((self.tag,))

    def _key(self):
        return ()

    def __repr__(self):
        return f"{type(self).__name__}()"


class _Unary(Formula):
    __slots__ = ("body",)

    def __init__(self, body: Formula):
        self.body = body
        self._hash = hash((self.tag, body._hash))

    def _key(self):
        return self.body

    def __repr__(self):
        return f"{type(self).__name__}({self.body!r})"


class _Binary(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        self._hash = hash((self.tag, left._hash, right._hash))

    def _key(self):
        return (self.left, self.right)

    def __repr__(self):
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"


class Atom(_Leaf):
    __slots__ = ()
    tag = "atom"


class MetaVar(_Leaf):
    """Schema placeholder leaf; never appears in a plain formula."""

    __slots__ = ()
    tag = "metavar"


class Top(_Constant):
    __slots__ = ()
    tag = "top"


class Bot(_Constant):
    __slots__ = ()
    tag = "bot"


class Not(_Unary):
    __slots__ = ()
    tag = "not"


class Box(_Unary):
    __slots__ = ()
    tag = "box"


class Dia(_Unary):
    __slots__ = ()
    tag = "dia"


class Implies(_Binary):
    __slots__ = ()
    tag = "implies"


class Or(_Binary):
    __slots__ = ()
    tag = "or"


class And(_Binary):
    __slots__ = ()
    tag = "and"


class CoreForm(Node):
    """Base class for the first-order forms, with the free world variables
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


def _children(f: Formula) -> tuple[Formula, ...]:
    """The operands of f, left to right; a leaf or constant has none."""
    if isinstance(f, _Binary):
        return (f.left, f.right)
    if isinstance(f, _Unary):
        return (f.body,)
    return ()


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


def _leaf_names(f: Formula, kind: type) -> dict[str, None]:
    """Names of f's leaves of the given kind, in order of first occurrence."""
    out: dict[str, None] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is kind:
            out[g.name] = None
        elif isinstance(g, _Binary):
            stack.append(g.right)
            stack.append(g.left)
        elif isinstance(g, _Unary):
            stack.append(g.body)
    return out


def atoms_of(f: Formula) -> frozenset[str]:
    """Atom names occurring in f (sugar constants contribute none)."""
    return frozenset(_leaf_names(f, Atom))


def metavars_of(f: Formula) -> tuple[str, ...]:
    """Metavariable names in order of first occurrence."""
    return tuple(_leaf_names(f, MetaVar))


def size(f: Formula) -> int:
    """Number of AST nodes."""
    return 1 + sum(map(size, _children(f)))


@dataclass(frozen=True)
class Schema:
    """A formula shape whose metavariable leaves stand for arbitrary formulas."""

    body: Formula

    @property
    def metavars(self) -> tuple[str, ...]:
        return metavars_of(self.body)

    def __str__(self):
        return pretty(self.body)


def map_leaves(f: Formula, leaf: Callable[[Formula], Formula]) -> Formula:
    """f with each leaf g replaced by leaf(g), leaves visited left to right."""
    if isinstance(f, _Unary):
        return type(f)(map_leaves(f.body, leaf))
    if isinstance(f, _Binary):
        return type(f)(map_leaves(f.left, leaf), map_leaves(f.right, leaf))
    return leaf(f)


# ---------------------------------------------------------------------------
# Lexer and parser
# ---------------------------------------------------------------------------

# Deepest formula the parser accepts.  Deeper text is refused while it is
# parsed, so no recursive function over formulas meets a deeper one.
MAX_FORMULA_DEPTH = 100

_PREFIX = {"~": Not, "not": Not, "box": Box, "dia": Dia}

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<arrow>->)
      | (?P<name>[A-Za-z][A-Za-z0-9_]*)
      | (?P<metavar>\?[A-Za-z][A-Za-z0-9_]*)
      | (?P<punct>[~&|()])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    # every character starts a match, so one scan covers the text
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise LexError(f"unexpected character {m[0]!r}", m.start())
        if kind != "ws":
            tokens.append((kind, m[0], m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def _within_limit(height: int, pos: int) -> int:
    """height, refused past MAX_FORMULA_DEPTH."""
    if height > MAX_FORMULA_DEPTH:
        raise ParseError(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", pos)
    return height


class _Parser:
    """Recursive descent that also tracks AST depth: each method leaves the
    depth of the formula it returns in self.height, and only a method that
    builds a node changes it.  Only parentheses recurse; chains of prefix
    operators and of -> are read in loops, so an over-deep formula is
    refused before it can exhaust the interpreter's stack."""

    def __init__(self, text: str, sig: Signature | None, allow_metavars: bool):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.height = 0
        self.parens = 0
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
        f = self.disjunction()
        tokens = self.tokens
        if tokens[self.pos][0] != "arrow":
            return f
        start = tokens[self.pos][2]
        operands = [(f, self.height)]
        while tokens[self.pos][0] == "arrow":
            self.pos += 1
            operands.append((self.disjunction(), self.height))
        f, height = operands.pop()
        for left, h in reversed(operands):
            f = Implies(left, f)
            height = (h if h > height else height) + 1
        self.height = _within_limit(height, start)
        return f

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.tokens[self.pos][1] == "|":
            height, pos = self.height, self.tokens[self.pos][2]
            self.pos += 1
            f = Or(f, self.conjunction())
            self.height = _within_limit(max(height, self.height) + 1, pos)
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.tokens[self.pos][1] == "&":
            height, pos = self.height, self.tokens[self.pos][2]
            self.pos += 1
            f = And(f, self.unary())
            self.height = _within_limit(max(height, self.height) + 1, pos)
        return f

    def unary(self) -> Formula:
        # the token texts of the prefix operators belong to no other kind
        tokens = self.tokens
        _, text, start = tokens[self.pos]
        make = _PREFIX.get(text)
        if make is None:
            return self.primary()
        ops = []
        while make is not None:
            ops.append(make)
            self.pos += 1
            make = _PREFIX.get(tokens[self.pos][1])
        f = self.primary()
        for make in reversed(ops):
            f = make(f)
        self.height = _within_limit(self.height + len(ops), start)
        return f

    def primary(self) -> Formula:
        kind, text, pos = self.tokens[self.pos]
        if text == "(":
            self.pos += 1
            self.parens = _within_limit(self.parens + 1, pos)
            f = self.implication()
            self.expect(")")
            self.parens -= 1
            return f
        self.height = 0
        if kind == "metavar":
            if not self.allow_metavars:
                raise ParseError(f"metavariable {text!r} not allowed here", pos)
            self.pos += 1
            return MetaVar(text[1:])
        if kind == "name":
            self.pos += 1
            if text == "true":
                return Top()
            if text == "false":
                return Bot()
            if self.sig is not None and text not in self.sig:
                raise UnknownAtomError(text, pos)
            return Atom(text)
        found = repr(text) if kind != "eof" else "end of input"
        raise ParseError(f"expected a formula, found {found}", pos)


def parse(text: str, sig: Signature) -> Formula:
    """Parse formula text over the given signature.

    Precedence, tightest first: the prefix operators ~ / box / dia, then &,
    then |, then the right-associative ->.  A formula deeper than
    MAX_FORMULA_DEPTH, or with parentheses nested deeper, is a ParseError.
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
    """Canonical s-expression rendering, used for golden tests: the node's
    tag, a leaf's name, then its operands."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula node: {f!r}")
    name = (f.name,) if isinstance(f, _Leaf) else ()
    return "(" + " ".join((f.tag, *name, *map(to_sexpr, _children(f)))) + ")"


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
