"""Frame correspondence checking at desk scale.

A schema is valid on a frame when every instantiation of its metavariables
by world subsets holds at every world (propositional quantification).  The
checker confirms, over all frames up to a bound, that schema validity and a
first-order frame property coincide, and runs the provability-logic suite
around the Loeb schema on the same enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitgrid import charge, slabs, work
from .hilbert import FRAME_CONDITIONS, SCHEMAS, AxiomSchemaId
from .kripke import FrameProperty
from .reporting import CheckReport, Violation
from .syntax import (Formula, MetaVar, atoms_of, desugar, map_leaves,
                     metavars_of, size, sorted_signature)


def _core_body(s: Formula) -> Formula:
    """The schema with sugar removed and every leaf renamed to its own
    metavariable, in order of first occurrence.  Concrete atoms are thus
    quantified like metavariables, and ?p stays distinct from p."""
    body = desugar(s, sorted_signature(atoms_of(s)))
    fresh: dict = {}

    def rename(leaf: Formula) -> Formula:
        return fresh.setdefault((type(leaf), leaf.name), MetaVar(f"m{len(fresh)}"))

    return map_leaves(body, rename)


def _sweep(max_worlds: int, s: Formula):
    """(n, tile, mask) for every atom-free tile with 1 to max_worlds worlds,
    in canonical order, mask being s's schema validity on the tile.  The
    whole sweep is charged to the work budget before the first tile is
    built: a schema with m letters (metavariables and atoms) may try all
    2**(m*n) valuations on an n-world tile, at about one operation per node
    and world and one per successor, and the frame properties take about
    n**3 operations.  The tiles share one hint, so each tries first the
    valuation that emptied the last one of its size."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    m, nodes = len(metavars_of(s)), size(s)
    what = f"a sweep of a schema with {m} letters over the frames of up to {max_worlds} worlds"
    spent = 0
    for n in range(1, max_worlds + 1):
        spent = charge(spent + work((n * (n + nodes) << m * n) + n ** 3, 1 << n * n), what)
    hints: dict[int, int] = {}
    return ((n, tile, tile.schema_validity_mask(s, hints))
            for n in range(1, max_worlds + 1) for tile in slabs(n))


@dataclass(frozen=True)
class Holds:
    frames_checked: int

    def __bool__(self):
        return True


@dataclass(frozen=True)
class CounterFrame:
    worlds: frozenset[int]
    rel: frozenset[tuple[int, int]]
    direction: str  # which implication failed on this frame

    PROPERTY_WITHOUT_SCHEMA = "property-holds-schema-fails"
    SCHEMA_WITHOUT_PROPERTY = "schema-holds-property-fails"

    def __bool__(self):
        return False

    def describe(self) -> str:
        return (f"worlds={sorted(self.worlds)} rel={sorted(self.rel)} "
                f"({self.direction})")


def correspondence_check(s: Formula, p: FrameProperty,
                         max_worlds: int) -> Holds | CounterFrame:
    """Check that p holds on a frame exactly when s is valid on it, over all
    frames up to max_worlds; the first frame (canonical order) violating
    either direction is returned."""
    checked = 0
    for n, slab, valid in _sweep(max_worlds, _core_body(s)):
        prop = slab.property_mask(p)
        disagree = prop ^ valid
        checked += slab.count
        if disagree:
            index = slab.first_index(disagree)
            _, rel = slab.frame_at(index)
            direction = (CounterFrame.PROPERTY_WITHOUT_SCHEMA
                         if (prop >> index) & 1
                         else CounterFrame.SCHEMA_WITHOUT_PROPERTY)
            return CounterFrame(frozenset(range(n)), rel, direction)
    return Holds(checked)


def sahlqvist_suite(max_worlds: int) -> list[tuple[str, Holds | CounterFrame]]:
    """The three schema/property equivalences, checked exhaustively."""
    out = []
    for schema_id, prop in FRAME_CONDITIONS.items():
        result = correspondence_check(SCHEMAS[schema_id], prop, max_worlds)
        out.append((f"{schema_id.value}<->{prop.value}", result))
    return out


def _frame_violation(check: str, n: int, rel) -> Violation:
    return Violation(check=check, formula=None,
                     model=f"worlds={n} rel={sorted(rel)}", world=None)


def loeb_suite(max_worlds: int) -> list[CheckReport]:
    """Provability-logic facts about the Loeb schema on finite frames.

    Checked exhaustively up to the bound: transitivity plus converse
    well-foundedness implies Loeb validity, and Loeb validity implies each
    of converse well-foundedness, irreflexivity and transitivity.
    """
    tiles = _sweep(max_worlds, _core_body(SCHEMAS[AxiomSchemaId.LOEB]))
    claims = ("transitive+cwf-implies-loeb", "loeb-implies-cwf",
              "loeb-implies-irreflexive", "loeb-implies-transitive")
    reports = {name: CheckReport(name=name, instances=0, violation_count=0,
                                 examples=[])
               for name in claims}
    for n, slab, valid in tiles:
        trans = slab.property_mask(FrameProperty.TRANSITIVE)
        cwf = slab.property_mask(FrameProperty.CONVERSE_WELL_FOUNDED)
        masks = {
            "transitive+cwf-implies-loeb": (trans & cwf) & (slab.full ^ valid),
            "loeb-implies-cwf": valid & (slab.full ^ cwf),
            "loeb-implies-irreflexive":
                valid & (slab.full ^ slab.property_mask(FrameProperty.IRREFLEXIVE)),
            "loeb-implies-transitive": valid & (slab.full ^ trans),
        }
        for name, bad in masks.items():
            rep = reports[name]
            rep.instances += slab.count
            rep.violation_count += bad.bit_count()
            while bad and len(rep.examples) < 5:
                _, rel = slab.frame_at(slab.first_index(bad))
                bad &= bad - 1
                rep.examples.append(_frame_violation(name, n, rel))
    return [reports[name] for name in claims]
