"""Hilbert-style proof checking for the modal cube over K.

The fixed schema pool is H1, H2, H3 (the propositional base), the box
distribution schema, and the frame schemas T, B and 4 that individual logics
may admit.  The separately registered Loeb schema exists for the frame
correspondence suite; no logic here admits it as an axiom.

Proofs are lists of axiom-instantiation, modus-ponens and necessitation
steps.  Formulas are compared after desugaring, so scripts are free to write
diamonds and conjunctions.  The bundled proofs under proofs/ are data: scripts
that check_proof accepts, not generated here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .kripke import FrameProperty
from .syntax import (
    RESERVED_WORDS, Box, Formula, Implies, MetaVar, Not, Schema, Signature,
    atoms_of, desugar, parse, parse_schema, pretty, sorted_signature,
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
        try:
            return _SCHEMA_NAMES[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown axiom schema {name!r}") from None


_SCHEMA_NAMES: dict[str, AxiomSchemaId] = {
    **AxiomSchemaId.__members__, "K": AxiomSchemaId.KDIST, "4": AxiomSchemaId.FOUR,
    "M": AxiomSchemaId.T, "L": AxiomSchemaId.LOEB, "GL": AxiomSchemaId.LOEB}


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

_METAVARS = {schema: s.metavars for schema, s in SCHEMAS.items()}

_BASE_SCHEMAS = frozenset({AxiomSchemaId.H1, AxiomSchemaId.H2,
                           AxiomSchemaId.H3, AxiomSchemaId.KDIST})

# the axioms a logic may add to K, each with the frame property it
# corresponds to; a logic's axioms are read off its frame class here
FRAME_CONDITIONS: dict[AxiomSchemaId, FrameProperty] = {
    AxiomSchemaId.T: FrameProperty.REFLEXIVE,
    AxiomSchemaId.B: FrameProperty.SYMMETRIC,
    AxiomSchemaId.FOUR: FrameProperty.TRANSITIVE,
}


_R, _S, _T = FrameProperty.REFLEXIVE, FrameProperty.SYMMETRIC, FrameProperty.TRANSITIVE


class Logic(Enum):
    """A member of the modal cube, valued by its class of frames; its
    axioms are K's plus the schemas of FRAME_CONDITIONS the class admits."""

    K = frozenset()
    KT = frozenset({_R})
    KB = frozenset({_S})
    K4 = frozenset({_T})
    KTB = frozenset({_R, _S})
    S4 = frozenset({_R, _T})
    KB4 = frozenset({_S, _T})
    S5 = frozenset({_R, _S, _T})

    @property
    def frame_properties(self) -> frozenset[FrameProperty]:
        return self.value

    @property
    def schemata(self) -> frozenset[AxiomSchemaId]:
        return frozenset(s for s, p in FRAME_CONDITIONS.items() if p in self.value)

    def admits(self, schema: AxiomSchemaId) -> bool:
        return schema in _BASE_SCHEMAS or FRAME_CONDITIONS.get(schema) in self.value

    @classmethod
    def from_name(cls, name: str) -> "Logic":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown logic {name!r}") from None

    def __str__(self):
        return self.name


ALL_LOGICS: tuple[Logic, ...] = tuple(Logic)


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
    bindings = {f for step in proof.steps if isinstance(step, AxStep)
                for f in step.subst.values()}
    return sorted_signature(atoms_of(proof.conclusion).union(*map(atoms_of, bindings)))


def _hash_cons(f: Formula, leaf, table: dict) -> Formula:
    """Core formula f with each leaf g replaced by leaf(g) and equal subterms
    made one object: table keys a node by the ids of operands it also holds."""
    t = type(f)
    if t is Implies:
        left, right = _hash_cons(f.left, leaf, table), _hash_cons(f.right, leaf, table)
        key = (t, id(left), id(right))
    elif t is Not or t is Box:
        body = _hash_cons(f.body, leaf, table)
        key = (t, id(body))
    else:
        return leaf(f)
    g = table.get(key)
    if g is None:
        g = table[key] = Implies(left, right) if t is Implies else t(body)
    return g


def check_proof(proof: Proof, logic: Logic) -> CheckResult:
    """Validate every step and match the final formula against the conclusion.

    Axiom steps must instantiate a schema the logic admits; a modus ponens
    step MP i j requires step j to be (step i) -> x and yields x;
    necessitation boxes an earlier step.  Comparison is structural after
    desugaring, of each distinct binding and schema body once; derived
    formulas share equal subterms, so most comparisons end at identity.
    """
    sig = _proof_signature(proof)
    table: dict[tuple, Formula] = {}
    cores: dict[Formula, Formula] = {}

    def core(f: Formula) -> Formula:
        if f not in cores:
            cores[f] = _hash_cons(desugar(f, sig),
                                  lambda g: table.setdefault((type(g), g.name), g), table)
        return cores[f]

    derived: list[Formula] = []
    for num, step in enumerate(proof.steps, start=1):
        if isinstance(step, AxStep):
            if not logic.admits(step.schema):
                return CheckResult(False, failed_step=num,
                                   reason=f"schema {step.schema.value} is not admitted in {logic.name}")
            wanted = _METAVARS[step.schema]
            missing = [v for v in wanted if v not in step.subst]
            if missing:
                return CheckResult(False, failed_step=num,
                                   reason=f"missing binding for ?{missing[0]}")
            extra = [v for v in step.subst if v not in wanted]
            if extra:
                return CheckResult(False, failed_step=num,
                                   reason=f"schema {step.schema.value} has no ?{extra[0]}")
            bound = {v: core(f) for v, f in step.subst.items()}
            formula = _hash_cons(core(SCHEMAS[step.schema].body),
                                 lambda g: bound[g.name] if type(g) is MetaVar else g, table)
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
            box = derived[step.premise - 1]
            formula = table.setdefault((Box, id(box)), Box(box))
        else:
            return CheckResult(False, failed_step=num, reason=f"unknown step kind {step!r}")
        derived.append(formula)
    if not derived:
        return CheckResult(False, failed_step=0, reason="empty proof")
    if derived[-1] != core(proof.conclusion):
        return CheckResult(False, failed_step=0,
                           reason="last step does not match the stated conclusion")
    return CheckResult(True, formula=proof.conclusion)


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
    parsed: dict[str, Formula] = {}  # each distinct text is parsed once

    def read(quoted: str) -> Formula:
        return parsed.get(quoted) or parsed.setdefault(quoted, parse(quoted, sig))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if conclusion is not None:
            raise ProofScriptError("content after the QED line", lineno)
        if qed := _QED_RE.match(line):
            try:
                conclusion = read(qed.group(1))
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
        if ax := _AX_RE.match(body):
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
                    if b.group(1) in subst:
                        raise ProofScriptError(f"duplicate binding for ?{b.group(1)}", lineno)
                    try:
                        subst[b.group(1)] = read(b.group(2))
                    except ValueError as e:
                        raise ProofScriptError(f"bad formula in binding: {e}", lineno) from None
            steps.append(AxStep(schema, subst))
            continue
        if mp := _MP_RE.match(body):
            steps.append(MpStep(int(mp.group(1)), int(mp.group(2))))
            continue
        if nec := _NEC_RE.match(body):
            steps.append(NecStep(int(nec.group(1))))
            continue
        raise ProofScriptError(f"unrecognised step {body!r}", lineno)
    if conclusion is None:
        raise ProofScriptError("missing QED line", len(text.splitlines()) or 1)
    return Proof(steps, conclusion)


def _script_signature(text: str) -> Signature:
    quoted = " ".join(set(re.findall(r'"([^"]*)"', text)))
    return sorted_signature(set(re.findall(r"[A-Za-z][A-Za-z0-9_]*", quoted)) - RESERVED_WORDS)


def serialize_proof(proof: Proof) -> str:
    """The script text of a proof, the inverse of parse_proof_script: each
    step on its own numbered line, bindings in the step's order, formulas
    pretty-printed.  The bundled proofs are kept in this form."""
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
