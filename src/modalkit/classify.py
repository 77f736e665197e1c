"""Classification of formulas by the weakest modal-cube logics proving them.

For each of the eight cube logics the tableau decides validity; the result
is the antichain of minimal logics (under schema-set inclusion) where the
formula is valid, together with per-logic evidence.  Validity must be
monotone in the frame conditions; a violation indicates a prover bug and
raises rather than returning a bogus table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .countermodel import find_countermodel
from .decide import (Invalid, ResourceLimitExceeded, TableauResult, Valid,
                     decide)
from .hilbert import ALL_LOGICS, Logic
from .syntax import Formula, Signature, atoms_of, parse, pretty, sorted_signature

CORPUS_SIGNATURE = Signature(("p", "q"))

_CORPUS_TEXT: tuple[tuple[str, str], ...] = (
    ("F1", "dia dia p -> dia p"),
    ("F2", "dia box p -> box dia p"),
    ("F3", "dia box p -> box p"),
    ("F4", "box dia box dia p -> box dia p"),
    ("F5", "dia (p & dia q) -> (dia p & dia q)"),
    ("F6", "(box (p -> q) & dia box ~q) -> ~dia q"),
    ("F7", "dia p -> box (p | dia p)"),
    ("F8", "dia box p -> (p | dia p)"),
    ("F9", "(box dia p & box dia ~p) -> dia dia p"),
    ("F10", "(box (p -> box q) & box dia ~q) -> ~box q"),
)


def corpus() -> list[tuple[str, Formula]]:
    """The ten study formulas, parsed over the two-atom signature."""
    return [(name, parse(text, CORPUS_SIGNATURE)) for name, text in _CORPUS_TEXT]


class ClassificationError(AssertionError):
    """Validity was not monotone across the cube: a prover bug."""


@dataclass
class ClassificationResult:
    formula: Formula
    minimal: tuple[Logic, ...]
    evidence: dict[str, TableauResult | None]

    @property
    def valid_logics(self) -> tuple[Logic, ...]:
        return tuple(l for l in ALL_LOGICS
                     if isinstance(self.evidence[l.name], Valid))

    @property
    def partial(self) -> bool:
        return any(v is None for v in self.evidence.values())


def _verdict(f: Formula, logic: Logic, sig: Signature) -> TableauResult | None:
    try:
        result = decide(f, logic, sig=sig)
    except ResourceLimitExceeded:
        return None
    if isinstance(result, Invalid):
        # normalize the evidence to the canonically first small model; over
        # the work budget the tableau's certified countermodel stands
        try:
            small = find_countermodel(f, set(logic.frame_properties), 4, sig)
        except ResourceLimitExceeded:
            small = None
        if small is not None:
            result = Invalid(small[0], small[1])
    return result


def classify(f: Formula, *, sig: Signature | None = None) -> ClassificationResult:
    """Decide f in all eight logics and extract the minimal antichain."""
    if sig is None:
        sig = sorted_signature(atoms_of(f))
    evidence = {logic.name: _verdict(f, logic, sig) for logic in ALL_LOGICS}

    valid = {l for l in ALL_LOGICS if isinstance(evidence[l.name], Valid)}
    for weaker in valid:
        for stronger in ALL_LOGICS:
            if (weaker.schemata < stronger.schemata
                    and evidence[stronger.name] is not None
                    and stronger not in valid):
                raise ClassificationError(
                    f"{pretty(f)} is valid in {weaker.name} but not in "
                    f"{stronger.name}; frame conditions must preserve validity")
    minimal = tuple(l for l in ALL_LOGICS
                    if l in valid
                    and not any(o.schemata < l.schemata for o in valid))
    return ClassificationResult(f, minimal, evidence)


def classify_corpus() -> list[tuple[str, ClassificationResult]]:
    return [(name, classify(f, sig=CORPUS_SIGNATURE)) for name, f in corpus()]


def render_table(rows: list[tuple[str, ClassificationResult]]) -> str:
    """Fixed-width text table, one row per formula, one column per logic."""
    headers = ["name", "formula"] + [l.name for l in ALL_LOGICS] + ["minimal"]
    body = []
    for name, res in rows:
        marks = []
        for logic in ALL_LOGICS:
            v = res.evidence[logic.name]
            marks.append("?" if v is None else ("✓" if isinstance(v, Valid) else "✗"))
        minimal = ", ".join(l.name for l in res.minimal) or "-"
        body.append([name, pretty(res.formula)] + marks + [minimal])
    widths = [max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
              for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for r in body:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)).rstrip())
    return "\n".join(lines) + "\n"
