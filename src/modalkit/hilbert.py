"""Hilbert-style proof checking for the modal cube over K.

The fixed schema pool is H1, H2, H3 (the propositional base), the box
distribution schema, and the frame schemas T, B and 4 that individual logics
may admit.  The separately registered Loeb schema exists for the frame
correspondence suite; no logic here admits it as an axiom.

Proofs are lists of axiom-instantiation, modus-ponens and necessitation
steps.  Formulas are compared after desugaring, so scripts are free to write
diamonds and conjunctions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Mapping

from .syntax import (
    RESERVED_WORDS, Box, Dia, Formula, Implies, MetaVar, Not, Schema,
    Signature, atoms_of, desugar, instantiate, metavars_of, parse,
    parse_schema, pretty, sorted_signature, substitute_metavars,
)


class AxiomSchemaId(Enum):
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"
    KDIST = "K"
    T = "T"
    B = "B"
    FOUR = "4"
    LOEB = "LOEB"

    @classmethod
    def from_name(cls, name: str) -> "AxiomSchemaId":
        key = name.strip().upper()
        aliases = {"KDIST": cls.KDIST, "K": cls.KDIST, "4": cls.FOUR,
                   "FOUR": cls.FOUR, "M": cls.T, "L": cls.LOEB, "GL": cls.LOEB}
        if key in cls.__members__:
            return cls[key]
        if key in aliases:
            return aliases[key]
        raise ValueError(f"unknown axiom schema {name!r}")


SCHEMAS: dict[AxiomSchemaId, Schema] = {
    AxiomSchemaId.H1: parse_schema("?phi -> (?psi -> ?phi)"),
    AxiomSchemaId.H2: parse_schema("(?phi -> (?psi -> ?gamma)) -> ((?phi -> ?psi) -> (?phi -> ?gamma))"),
    AxiomSchemaId.H3: parse_schema("(~?phi -> ~?psi) -> (?psi -> ?phi)"),
    AxiomSchemaId.KDIST: parse_schema("box (?phi -> ?psi) -> (box ?phi -> box ?psi)"),
    AxiomSchemaId.T: parse_schema("box ?phi -> ?phi"),
    AxiomSchemaId.B: parse_schema("?phi -> box dia ?phi"),
    AxiomSchemaId.FOUR: parse_schema("box ?phi -> box box ?phi"),
    AxiomSchemaId.LOEB: parse_schema("box (box ?phi -> ?phi) -> box ?phi"),
}

_BASE_SCHEMAS = frozenset({AxiomSchemaId.H1, AxiomSchemaId.H2,
                           AxiomSchemaId.H3, AxiomSchemaId.KDIST})


@dataclass(frozen=True)
class Logic:
    """A member of the modal cube: K plus a subset of {T, B, 4}."""

    schemata: frozenset[AxiomSchemaId]

    def __post_init__(self):
        extra = self.schemata - {AxiomSchemaId.T, AxiomSchemaId.B, AxiomSchemaId.FOUR}
        if extra:
            raise ValueError(f"a logic may only add T, B and 4; got {sorted(x.value for x in extra)}")

    @property
    def name(self) -> str:
        return _LOGIC_NAMES[self.schemata]

    def admits(self, schema: AxiomSchemaId) -> bool:
        return schema in _BASE_SCHEMAS or schema in self.schemata

    @classmethod
    def from_name(cls, name: str) -> "Logic":
        key = name.strip().upper()
        for schemata, lname in _LOGIC_NAMES.items():
            if lname.upper() == key:
                return cls(schemata)
        raise ValueError(f"unknown logic {name!r}")

    def __str__(self):
        return self.name


_T, _B, _4 = AxiomSchemaId.T, AxiomSchemaId.B, AxiomSchemaId.FOUR

_LOGIC_NAMES: dict[frozenset[AxiomSchemaId], str] = {
    frozenset(): "K",
    frozenset({_T}): "KT",
    frozenset({_B}): "KB",
    frozenset({_4}): "K4",
    frozenset({_T, _B}): "KTB",
    frozenset({_T, _4}): "S4",
    frozenset({_B, _4}): "KB4",
    frozenset({_T, _B, _4}): "S5",
}

ALL_LOGICS: tuple[Logic, ...] = tuple(Logic(s) for s in _LOGIC_NAMES)


# ---------------------------------------------------------------------------
# Proof objects and checking
# ---------------------------------------------------------------------------

@dataclass
class AxStep:
    schema: AxiomSchemaId
    subst: dict[str, Formula]


@dataclass
class MpStep:
    premise: int      # 1-based index of the antecedent step
    implication: int  # 1-based index of the implication step


@dataclass
class NecStep:
    premise: int


ProofStep = AxStep | MpStep | NecStep


@dataclass
class Proof:
    steps: list
    conclusion: Formula


@dataclass
class CheckResult:
    """Outcome of check_proof: either ok with the proved formula, or the
    first failing step index (1-based, 0 for the conclusion line) and why."""

    ok: bool
    formula: Formula | None = None
    failed_step: int | None = None
    reason: str | None = None


def _proof_signature(proof: Proof) -> Signature:
    names: set[str] = set(atoms_of(proof.conclusion))
    for step in proof.steps:
        if isinstance(step, AxStep):
            for f in step.subst.values():
                names.update(atoms_of(f))
    return sorted_signature(names)


def check_proof(proof: Proof, logic: Logic) -> CheckResult:
    """Validate every step and match the final formula against the conclusion.

    Axiom steps must instantiate a schema the logic admits; a modus ponens
    step MP i j requires step j to be (step i) -> x and yields x;
    necessitation boxes an earlier step.  Comparison is structural after
    desugaring.
    """
    sig = _proof_signature(proof)
    derived: list[Formula] = []
    for num, step in enumerate(proof.steps, start=1):
        if isinstance(step, AxStep):
            if not logic.admits(step.schema):
                return CheckResult(False, failed_step=num,
                                   reason=f"schema {step.schema.value} is not admitted in {logic.name}")
            body = SCHEMAS[step.schema].body
            missing = [v for v in metavars_of(body) if v not in step.subst]
            if missing:
                return CheckResult(False, failed_step=num,
                                   reason=f"missing binding for ?{missing[0]}")
            formula = desugar(instantiate(SCHEMAS[step.schema], step.subst), sig)
        elif isinstance(step, MpStep):
            i, j = step.premise, step.implication
            for ref in (i, j):
                if not 1 <= ref < num:
                    return CheckResult(False, failed_step=num,
                                       reason=f"step reference {ref} must point at an earlier step")
            imp = derived[j - 1]
            if not isinstance(imp, Implies):
                return CheckResult(False, failed_step=num,
                                   reason=f"step {j} is not an implication")
            if imp.left != derived[i - 1]:
                return CheckResult(False, failed_step=num,
                                   reason=f"step {j} is not an implication with step {i} as antecedent")
            formula = imp.right
        elif isinstance(step, NecStep):
            if not 1 <= step.premise < num:
                return CheckResult(False, failed_step=num,
                                   reason=f"step reference {step.premise} must point at an earlier step")
            formula = Box(derived[step.premise - 1])
        else:
            return CheckResult(False, failed_step=num, reason=f"unknown step kind {step!r}")
        derived.append(formula)
    if not derived:
        return CheckResult(False, failed_step=0, reason="empty proof")
    want = desugar(proof.conclusion, sig)
    if derived[-1] != want:
        return CheckResult(False, failed_step=0,
                           reason="last step does not match the stated conclusion")
    return CheckResult(True, formula=proof.conclusion)


# ---------------------------------------------------------------------------
# Proof construction
# ---------------------------------------------------------------------------
#
# The builder emits concrete steps while tracking each step's (desugared)
# formula.  Hypothetical reasoning is compiled away combinator-style: a typed
# lambda term over proved steps is bracket-abstracted into applications of H1
# and H2, which is the deduction theorem in executable form.  Terms are plain
# data (_Var / _App / _Lam / _Step) so that inner lambdas may mention outer
# variables; abstraction happens innermost-first during compile.

class _Var:
    __slots__ = ("name", "type")

    def __init__(self, name: str, type_: Formula):
        self.name = name
        self.type = type_


class _App:
    __slots__ = ("fun", "arg")

    def __init__(self, fun, arg):
        self.fun = fun
        self.arg = arg


class _Lam:
    __slots__ = ("var", "body")

    def __init__(self, var: _Var, body):
        self.var = var
        self.body = body


class _Step:
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class _Builder:
    def __init__(self, sig: Signature):
        self.sig = sig
        self.steps: list = []
        self.formulas: list[Formula] = []

    def _push(self, step, formula: Formula) -> int:
        self.steps.append(step)
        self.formulas.append(desugar(formula, self.sig))
        return len(self.steps)

    def ax(self, schema: AxiomSchemaId, **subst: Formula) -> int:
        formula = instantiate(SCHEMAS[schema], subst)
        return self._push(AxStep(schema, dict(subst)), formula)

    def mp(self, premise: int, implication: int) -> int:
        imp = self.formulas[implication - 1]
        assert isinstance(imp, Implies) and imp.left == self.formulas[premise - 1], \
            "builder produced a malformed modus ponens"
        return self._push(MpStep(premise, implication), imp.right)

    def nec(self, premise: int) -> int:
        return self._push(NecStep(premise), Box(self.formulas[premise - 1]))

    # -- small derived lemmas ------------------------------------------------

    def identity(self, a: Formula) -> int:
        """The classic five-step derivation of a -> a from H1, H2."""
        aa = Implies(a, a)
        s1 = self.ax(AxiomSchemaId.H1, phi=a, psi=aa)
        s2 = self.ax(AxiomSchemaId.H2, phi=a, psi=aa, gamma=a)
        s3 = self.mp(s1, s2)
        s4 = self.ax(AxiomSchemaId.H1, phi=a, psi=a)
        return self.mp(s4, s3)

    def chain(self, ab: int, bc: int) -> int:
        """From steps a -> b and b -> c, derive a -> c."""
        fab = self.formulas[ab - 1]
        fbc = self.formulas[bc - 1]
        a, b = fab.left, fab.right
        c = fbc.right
        s1 = self.ax(AxiomSchemaId.H1, phi=Implies(b, c), psi=a)
        s2 = self.mp(bc, s1)
        s3 = self.ax(AxiomSchemaId.H2, phi=a, psi=b, gamma=c)
        s4 = self.mp(s2, s3)
        return self.mp(ab, s4)

    def double_negation_elim(self, a: Formula) -> int:
        """~~a -> a."""
        na, nna = Not(a), Not(Not(a))
        n3a, n4a = Not(Not(Not(a))), Not(Not(Not(Not(a))))
        s1 = self.ax(AxiomSchemaId.H1, phi=nna, psi=n4a)
        s2 = self.ax(AxiomSchemaId.H3, phi=n3a, psi=na)
        s3 = self.chain(s1, s2)
        s4 = self.ax(AxiomSchemaId.H3, phi=a, psi=nna)
        s5 = self.chain(s3, s4)
        s6 = self.ax(AxiomSchemaId.H2, phi=nna, psi=nna, gamma=a)
        s7 = self.mp(s5, s6)
        s8 = self.identity(nna)
        return self.mp(s8, s7)

    def double_negation_intro(self, a: Formula) -> int:
        """a -> ~~a."""
        dn = self.double_negation_elim(Not(a))
        h = self.ax(AxiomSchemaId.H3, phi=Not(Not(a)), psi=a)
        return self.mp(dn, h)

    def contra_from_negated(self, x: Formula, y: Formula) -> int:
        """(x -> ~y) -> (y -> ~x)."""
        dne = self.double_negation_elim(x)
        u = _Var("u", Implies(x, Not(y)))
        v = _Var("v", Not(Not(x)))
        lifted = self.compile(_Lam(u, _Lam(v, _App(u, _App(_Step(dne), v)))))
        h3 = self.ax(AxiomSchemaId.H3, phi=Not(x), psi=y)
        return self.chain(lifted, h3)

    def contrapose(self, x: Formula, y: Formula) -> int:
        """(x -> y) -> (~y -> ~x)."""
        dni = self.double_negation_intro(y)
        flip = self.contra_from_negated(x, Not(y))
        u = _Var("u", Implies(x, y))
        a = _Var("a", x)
        return self.compile(
            _Lam(u, _App(_Step(flip), _Lam(a, _App(_Step(dni), _App(u, a))))))

    # -- lambda compilation ---------------------------------------------------

    def compile(self, term) -> int:
        """Emit proof steps for a closed term and return the final step index."""
        if isinstance(term, _Step):
            return term.index
        if isinstance(term, _App):
            fun = self.compile(term.fun)
            arg = self.compile(term.arg)
            return self.mp(arg, fun)
        if isinstance(term, _Lam):
            return self.compile(self._abstract(term.var, term.body))
        raise TypeError("open term: a variable escaped its lambda")

    def _type_of(self, term) -> Formula:
        if isinstance(term, _Var):
            return term.type
        if isinstance(term, _Step):
            return self.formulas[term.index - 1]
        if isinstance(term, _Lam):
            return Implies(term.var.type, self._type_of(term.body))
        fun_t = self._type_of(term.fun)
        assert isinstance(fun_t, Implies), "application of a non-implication"
        return fun_t.right

    def _occurs(self, name: str, term) -> bool:
        if isinstance(term, _Var):
            return term.name == name
        if isinstance(term, _App):
            return self._occurs(name, term.fun) or self._occurs(name, term.arg)
        if isinstance(term, _Lam):
            return term.var.name != name and self._occurs(name, term.body)
        return False

    def _abstract(self, var: _Var, term):
        """Rewrite term into one not mentioning var, with type var.type -> t."""
        if isinstance(term, _Var) and term.name == var.name:
            return _Step(self.identity(var.type))
        if not self._occurs(var.name, term):
            # constant under the abstraction: lift with H1
            t = self._type_of(term)
            lift = _Step(self.ax(AxiomSchemaId.H1, phi=t, psi=var.type))
            return _App(lift, term)
        if isinstance(term, _Lam):
            return self._abstract(var, self._abstract(term.var, term.body))
        # an application with var somewhere inside: distribute with H2
        fun_t = self._type_of(term.fun)
        arg_t = self._type_of(term.arg)
        s = _Step(self.ax(AxiomSchemaId.H2, phi=var.type, psi=arg_t,
                          gamma=fun_t.right))
        return _App(_App(s, self._abstract(var, term.fun)),
                    self._abstract(var, term.arg))

    # -- modal lemmas ---------------------------------------------------------

    def dia_distribution(self, phi: Formula, psi: Formula) -> int:
        """box(phi -> psi) -> (dia phi -> dia psi), derived in plain K."""
        ab = Implies(phi, psi)
        contra = self.contrapose(phi, psi)
        boxed = self.nec(contra)
        k1 = self.ax(AxiomSchemaId.KDIST, phi=ab, psi=Implies(Not(psi), Not(phi)))
        dist = self.mp(boxed, k1)
        k2 = self.ax(AxiomSchemaId.KDIST, phi=Not(psi), psi=Not(phi))
        boxes = self.chain(dist, k2)
        flip = self.contrapose(Box(Not(psi)), Box(Not(phi)))
        return self.chain(boxes, flip)

    def proof(self, conclusion: Formula) -> Proof:
        return Proof(list(self.steps), conclusion)


_TEMPLATE_SIG = Signature(("p",))


def derive_k_dia() -> Proof:
    """A proof template of box(?phi -> ?psi) -> (dia ?phi -> dia ?psi).

    The steps carry metavariables; instantiate_proof produces a concrete,
    checkable proof for any choice of the two formulas.
    """
    phi, psi = MetaVar("phi"), MetaVar("psi")
    b = _Builder(_TEMPLATE_SIG)
    b.dia_distribution(phi, psi)
    return b.proof(Implies(Box(Implies(phi, psi)), Implies(Dia(phi), Dia(psi))))


def instantiate_proof(proof: Proof, subst: Mapping[str, Formula]) -> Proof:
    """Substitute metavariables throughout a proof template."""
    steps = []
    for step in proof.steps:
        if isinstance(step, AxStep):
            steps.append(AxStep(step.schema,
                                {k: substitute_metavars(f, subst)
                                 for k, f in step.subst.items()}))
        elif isinstance(step, MpStep):
            steps.append(MpStep(step.premise, step.implication))
        else:
            steps.append(NecStep(step.premise))
    return Proof(steps, substitute_metavars(proof.conclusion, subst))


# ---------------------------------------------------------------------------
# Script format
# ---------------------------------------------------------------------------
#
#   # comment
#   1: AX H1 [phi := "p", psi := "q"]
#   2: MP 1 3
#   3: NEC 2
#   QED "p -> p"
#
# Step numbers are consecutive from 1; the QED line closes the script.

class ProofScriptError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_STEP_RE = re.compile(r"(\d+):\s*(.*)")
_AX_RE = re.compile(r"AX\s+(\S+)\s*\[(.*)\]\s*\Z")
_MP_RE = re.compile(r"MP\s+(\d+)\s+(\d+)\s*\Z")
_NEC_RE = re.compile(r"NEC\s+(\d+)\s*\Z")
_QED_RE = re.compile(r'QED\s+"([^"]*)"\s*\Z')
_BINDING_RE = re.compile(r'\s*([A-Za-z][A-Za-z0-9_]*)\s*:=\s*"([^"]*)"\s*\Z')


def parse_proof_script(text: str) -> Proof:
    sig = _script_signature(text)
    steps: list = []
    conclusion: Formula | None = None
    expected = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if conclusion is not None:
            raise ProofScriptError("content after the QED line", lineno)
        qed = _QED_RE.match(line)
        if qed:
            try:
                conclusion = parse(qed.group(1), sig)
            except ValueError as e:
                raise ProofScriptError(f"bad conclusion: {e}", lineno) from None
            continue
        m = _STEP_RE.fullmatch(line)
        if not m:
            raise ProofScriptError("expected 'n: AX|MP|NEC ...' or a QED line", lineno)
        num = int(m.group(1))
        if num != expected:
            raise ProofScriptError(f"expected step {expected}, found {num}", lineno)
        expected += 1
        body = m.group(2).strip()
        ax = _AX_RE.match(body)
        if ax:
            try:
                schema = AxiomSchemaId.from_name(ax.group(1))
            except ValueError as e:
                raise ProofScriptError(str(e), lineno) from None
            subst: dict[str, Formula] = {}
            blob = ax.group(2).strip()
            if blob:
                for part in blob.split(","):
                    b = _BINDING_RE.match(part)
                    if not b:
                        raise ProofScriptError(f"bad binding {part.strip()!r}", lineno)
                    try:
                        subst[b.group(1)] = parse(b.group(2), sig)
                    except ValueError as e:
                        raise ProofScriptError(f"bad formula in binding: {e}", lineno) from None
            steps.append(AxStep(schema, subst))
            continue
        mp = _MP_RE.match(body)
        if mp:
            steps.append(MpStep(int(mp.group(1)), int(mp.group(2))))
            continue
        nec = _NEC_RE.match(body)
        if nec:
            steps.append(NecStep(int(nec.group(1))))
            continue
        raise ProofScriptError(f"unrecognised step {body!r}", lineno)
    if conclusion is None:
        raise ProofScriptError("missing QED line", len(text.splitlines()) or 1)
    return Proof(steps, conclusion)


def _script_signature(text: str) -> Signature:
    return sorted_signature({
        tok
        for quoted in re.findall(r'"([^"]*)"', text)
        for tok in re.findall(r"[A-Za-z][A-Za-z0-9_]*", quoted)
        if tok not in RESERVED_WORDS})


def serialize_proof(proof: Proof) -> str:
    lines = []
    for num, step in enumerate(proof.steps, start=1):
        if isinstance(step, AxStep):
            bindings = ", ".join(f'{k} := "{pretty(f)}"' for k, f in step.subst.items())
            lines.append(f"{num}: AX {step.schema.value} [{bindings}]")
        elif isinstance(step, MpStep):
            lines.append(f"{num}: MP {step.premise} {step.implication}")
        else:
            lines.append(f"{num}: NEC {step.premise}")
    lines.append(f'QED "{pretty(proof.conclusion)}"')
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Bundled proof corpus
# ---------------------------------------------------------------------------

CORPUS_NAMES = ("identity", "dia_distribution", "box_dia_conjunction")


def corpus_proof_text(name: str) -> str:
    if name not in CORPUS_NAMES:
        raise KeyError(name)
    return resources.files("modalkit.proofs").joinpath(f"{name}.proof").read_text()


def corpus_proof(name: str) -> Proof:
    return parse_proof_script(corpus_proof_text(name))


def build_identity_proof() -> Proof:
    sig = Signature(("p",))
    p = parse("p", sig)
    b = _Builder(sig)
    b.identity(p)
    return b.proof(Implies(p, p))


def build_dia_distribution_proof() -> Proof:
    sig = Signature(("p", "q"))
    p, q = parse("p", sig), parse("q", sig)
    return instantiate_proof(derive_k_dia(), {"phi": p, "psi": q})


def build_box_dia_conjunction_proof() -> Proof:
    """box p -> (dia q -> dia (p & q)), via distribution over a derived
    conjunction introduction."""
    sig = Signature(("p", "q"))
    p, q = parse("p", sig), parse("q", sig)
    conj = desugar(parse("p & q", sig), sig)     # ~(p -> ~q)
    b = _Builder(sig)
    # p -> (q -> (p & q)) from the flipped form of contra_from_negated
    flip = b.contra_from_negated(Implies(p, Not(q)), q)
    x = _Var("x", p)
    z = _Var("z", Implies(p, Not(q)))
    y = _Var("y", q)
    intro = b.compile(
        _Lam(x, _Lam(y, _App(_App(_Step(flip), _Lam(z, _App(z, x))), y))))
    boxed = b.nec(intro)
    k = b.ax(AxiomSchemaId.KDIST, phi=p, psi=Implies(q, conj))
    dist = b.mp(boxed, k)
    kd = b.dia_distribution(q, conj)
    b.chain(dist, kd)
    return b.proof(parse("box p -> (dia q -> dia (p & q))", sig))


_BUILDERS = {
    "identity": build_identity_proof,
    "dia_distribution": build_dia_distribution_proof,
    "box_dia_conjunction": build_box_dia_conjunction_proof,
}


def build_corpus_proof(name: str) -> Proof:
    return _BUILDERS[name]()
