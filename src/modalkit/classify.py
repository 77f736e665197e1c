"""Classification of formulas by the weakest modal-cube logics proving them.

For each of the eight cube logics the tableau decides validity; the result
is the antichain of minimal logics where the formula is valid, together
with per-logic evidence.  A logic is below another when its frame class
includes the other's, that is when its frame properties are a proper subset
of the other's.  Validity must be monotone in this order; a violation
indicates a prover bug and raises rather than returning a bogus table.

The evidence of an Invalid logic is normalised to its canonically first
countermodel up to 4 worlds, and one walk (countermodel.find_countermodels)
finds them for every Invalid logic at once.  A formula invalid in some
logic is invalid in K, whose frames include every other logic's, so the
walk is K's own search until K is answered; after that it takes the frames
that have every property of at least one logic still waiting.  Each
logic's frames are among those, and there are no more of them than the
waiting logics' own frames together, so the walk is charged at least each
logic's own search and at most their sum.  When the work budget refuses
the walk, each logic is normalised by its own search instead, and a logic
whose own search is refused too, or that has no countermodel up to 4
worlds, keeps the tableau's certified countermodel.  So the evidence is
always each logic's own normalisation, and the verdicts do not depend on
the search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .countermodel import find_countermodel, find_countermodels
from .decide import (Invalid, ResourceLimitExceeded, TableauResult, Valid,
                     decide)
from .hilbert import ALL_LOGICS, Logic
from .kripke import FrameProperty, KripkeModel
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


def _tableau_verdict(f: Formula, logic: Logic, sig: Signature) -> TableauResult | None:
    try:
        return decide(f, logic, sig=sig)
    except ResourceLimitExceeded:
        return None


def _own_search(f: Formula, props: frozenset[FrameProperty], sig: Signature
                ) -> tuple[KripkeModel, int] | None:
    """One logic's first countermodel up to 4 worlds, or None when there is
    none or its search is over the work budget."""
    try:
        return find_countermodel(f, props, 4, sig)
    except ResourceLimitExceeded:
        return None


def classify(f: Formula, *, sig: Signature | None = None) -> ClassificationResult:
    """Decide f in all eight logics, extract the minimal antichain and
    normalise the evidence of the Invalid logics."""
    if sig is None:
        sig = sorted_signature(atoms_of(f))
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

    invalid = [l for l in ALL_LOGICS if isinstance(evidence[l.name], Invalid)]
    prop_sets = [l.frame_properties for l in invalid]
    try:
        found = find_countermodels(f, prop_sets, 4, sig)
    except ResourceLimitExceeded:
        found = [_own_search(f, props, sig) for props in prop_sets]
    for logic, small in zip(invalid, found):
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
