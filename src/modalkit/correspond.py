"""Frame correspondence checking at desk scale.

A schema is valid on a frame when every instantiation of its metavariables
by world subsets holds at every world (propositional quantification).  The
checker confirms, over all frames up to a bound, that schema validity and a
first-order frame property coincide, and runs the provability-logic suite
around the Loeb schema on the same enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .bitgrid import ModelSlab, frame_tiles
from .hilbert import SCHEMAS, AxiomSchemaId
from .kripke import FrameProperty, KripkeModel, valid_in_model
from .reporting import CheckReport, Violation
from .syntax import (Atom, Formula, MetaVar, Schema, Signature, atoms_of,
                     desugar, map_leaves, metavars_of, sorted_signature,
                     substitute_metavars)


def _core_body(s: Schema) -> Formula:
    """The schema body with sugar removed and every leaf renamed to its own
    metavariable, in order of first occurrence.  Concrete atoms are thus
    quantified like metavariables, and ?p stays distinct from p."""
    body = desugar(s.body, sorted_signature(atoms_of(s.body)))
    fresh: dict = {}

    def rename(leaf: Formula) -> Formula:
        return fresh.setdefault((type(leaf), leaf.name), MetaVar(f"m{len(fresh)}"))

    return map_leaves(body, rename)


def schema_valid_on_frame(worlds: set, rel: set, s: Schema) -> bool:
    """True when s holds on the bare frame under propositional quantification.

    Every metavariable (and any concrete atom in the schema) ranges over
    arbitrary subsets of the worlds; the instance must hold at every world.
    """
    if not worlds:
        raise ValueError("a frame needs at least one world")
    bad = [pair for pair in rel if pair[0] not in worlds or pair[1] not in worlds]
    if bad:
        raise ValueError(f"relation pair {bad[0]} leaves the world set")
    body = _core_body(s)
    names = metavars_of(body)
    f = substitute_metavars(body, {name: Atom(name) for name in names})
    ordered = sorted(worlds)
    subsets = [frozenset(c) for k in range(len(ordered) + 1)
               for c in combinations(ordered, k)]
    # one model of the frame, whose valuation alone varies
    m = KripkeModel(ordered[-1] + 1, worlds, rel, dict.fromkeys(names, ()), Signature(names))
    for val in product(subsets, repeat=len(names)):
        m.val = dict(zip(names, val))
        if not valid_in_model(m, f):
            return False
    return True


def _sweep(max_worlds: int):
    """(n, tile) for every atom-free tile with 1 to max_worlds worlds, in
    canonical order.  Every size is held to the slab budget before the
    first tile is built."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    sizes = [frame_tiles(n) for n in range(1, max_worlds + 1)]
    return ((n, tile) for n, tiles in enumerate(sizes, 1) for tile in tiles)


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


def correspondence_check(s: Schema, p: FrameProperty,
                         max_worlds: int) -> Holds | CounterFrame:
    """Check has_property(frame) <=> schema_valid_on_frame over all frames
    up to max_worlds; the first frame (canonical order) violating either
    direction is returned."""
    tiles = _sweep(max_worlds)
    schema = Schema(_core_body(s))
    checked = 0
    for n, slab in tiles:
        prop = slab.property_mask(p)
        valid = slab.schema_validity_mask(schema)
        disagree = prop ^ valid
        checked += slab.count
        if disagree:
            index = ModelSlab.first_index(disagree)
            _, rel = slab.frame_at(index)
            direction = (CounterFrame.PROPERTY_WITHOUT_SCHEMA
                         if (prop >> index) & 1
                         else CounterFrame.SCHEMA_WITHOUT_PROPERTY)
            return CounterFrame(frozenset(range(n)), rel, direction)
    return Holds(checked)


SAHLQVIST_PAIRS: tuple[tuple[AxiomSchemaId, FrameProperty], ...] = (
    (AxiomSchemaId.T, FrameProperty.REFLEXIVE),
    (AxiomSchemaId.B, FrameProperty.SYMMETRIC),
    (AxiomSchemaId.FOUR, FrameProperty.TRANSITIVE),
)


def sahlqvist_suite(max_worlds: int) -> list[tuple[str, Holds | CounterFrame]]:
    """The three schema/property equivalences, checked exhaustively."""
    out = []
    for schema_id, prop in SAHLQVIST_PAIRS:
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
    tiles = _sweep(max_worlds)
    loeb = Schema(_core_body(SCHEMAS[AxiomSchemaId.LOEB]))
    claims = ("transitive+cwf-implies-loeb", "loeb-implies-cwf",
              "loeb-implies-irreflexive", "loeb-implies-transitive")
    reports = {name: CheckReport(name=name, instances=0, violation_count=0,
                                 examples=[])
               for name in claims}
    for n, slab in tiles:
        valid = slab.schema_validity_mask(loeb)
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
            while bad:
                index = ModelSlab.first_index(bad)
                bad &= bad - 1
                rep.violation_count += 1
                if len(rep.examples) < 5:
                    _, rel = slab.frame_at(index)
                    rep.examples.append(_frame_violation(name, n, rel))
    return [reports[name] for name in claims]
