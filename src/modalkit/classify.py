"""Classification of formulas by the weakest modal-cube logics proving them.

For each of the eight cube logics the tableau decides validity; the result
is the antichain of minimal logics where the formula is valid, together
with per-logic evidence.  A logic is below another when its frame class
includes the other's, that is when its frame properties are a proper subset
of the other's.  Validity must be monotone in this order; a violation
indicates a prover bug and raises rather than returning a bogus table.

The evidence of an Invalid logic is the tableau's own countermodel, which
decide has re-checked.  A model read off a tableau branch can be large (F4
in KT gives 11 worlds), so one of more than bitgrid.ISOMORPH_FREE_WORLDS
(4) worlds is replaced by the logic's canonically first countermodel up to
that many worlds, when find_countermodel finds one within the work budget.
So the evidence is that small whenever a countermodel that small exists, a
search that is refused or finds nothing keeps the tableau's model, and the
verdicts never depend on the search.  The bound is the largest world count
whose search walks only the canonical frames, in milliseconds on the
corpus.  From 5 worlds on a search lists every admitted frame first: a
two-atom search takes seconds in KT and is over the work budget in K.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitgrid import ISOMORPH_FREE_WORLDS
from .countermodel import find_countermodel
from .decide import (Invalid, ResourceLimitExceeded, TableauResult, Valid,
                     decide)
from .hilbert import ALL_LOGICS, Logic
from .syntax import Formula, Signature, parse, pretty, signature_for

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


def _tableau_verdict(f: Formula, logic: Logic, sig: Signature) -> TableauResult | None:
    try:
        return decide(f, logic, sig=sig)
    except ResourceLimitExceeded:
        return None


def classify(f: Formula, *, sig: Signature | None = None) -> ClassificationResult:
    """Decide f in all eight logics, extract the minimal antichain and
    shrink the evidence of an Invalid logic to at most
    bitgrid.ISOMORPH_FREE_WORLDS worlds where a search finds a model that
    small."""
    sig = signature_for(f, sig)
    evidence = {logic.name: _tableau_verdict(f, logic, sig) for logic in ALL_LOGICS}

    valid = {l for l in ALL_LOGICS if isinstance(evidence[l.name], Valid)}
    for weaker in valid:
        for stronger in ALL_LOGICS:
            if (weaker.frame_properties < stronger.frame_properties
                    and evidence[stronger.name] is not None
                    and stronger not in valid):
                raise ClassificationError(
                    f"{pretty(f)} is valid in {weaker.name} but not in "
                    f"{stronger.name}; frame conditions must preserve validity")
    minimal = tuple(l for l in ALL_LOGICS
                    if l in valid
                    and not any(o.frame_properties < l.frame_properties for o in valid))

    for logic in ALL_LOGICS:
        result = evidence[logic.name]
        if isinstance(result, Invalid) and result.model.n_worlds > ISOMORPH_FREE_WORLDS:
            try:
                small = find_countermodel(f, logic.frame_properties, ISOMORPH_FREE_WORLDS, sig)
            except ResourceLimitExceeded:
                small = None
            if small is not None:
                evidence[logic.name] = Invalid(*small)
    return ClassificationResult(f, minimal, evidence)


def classify_corpus() -> list[tuple[str, ClassificationResult]]:
    return [(name, classify(f, sig=CORPUS_SIGNATURE)) for name, f in corpus()]


def _minimal_cell(res: ClassificationResult) -> str:
    """The minimal logics, or ? when a verdict over the resource limit could
    change them.  An unknown logic strictly above a valid one is valid but
    not minimal, and one strictly below an invalid one is invalid, so only
    the other unknown logics leave the column open."""
    valid = res.valid_logics
    invalid = [l for l in ALL_LOGICS if isinstance(res.evidence[l.name], Invalid)]
    for l in ALL_LOGICS:
        if (res.evidence[l.name] is None
                and not any(v.frame_properties < l.frame_properties for v in valid)
                and not any(l.frame_properties < i.frame_properties for i in invalid)):
            return "?"
    return ", ".join(l.name for l in res.minimal) or "-"


def render_table(rows: list[tuple[str, ClassificationResult]]) -> str:
    """Fixed-width text table, one row per formula, one column per logic."""
    headers = ["name", "formula"] + [l.name for l in ALL_LOGICS] + ["minimal"]
    body = []
    for name, res in rows:
        marks = []
        for logic in ALL_LOGICS:
            v = res.evidence[logic.name]
            marks.append("?" if v is None else ("✓" if isinstance(v, Valid) else "✗"))
        body.append([name, pretty(res.formula)] + marks + [_minimal_cell(res)])
    widths = [max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
              for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for r in body:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)).rstrip())
    return "\n".join(lines) + "\n"
