"""Frame correspondence: schema validity versus first-order frame conditions.

schema_valid_on_frame is the slow, obviously-correct scalar reference; the
exhaustive checks run on the packed engine.  Several tests below pit the two
against each other on complete frame enumerations.
"""

import pytest

from modalkit.bitgrid import ModelSlab
from modalkit.correspond import (
    SAHLQVIST_PAIRS,
    CounterFrame,
    Holds,
    correspondence_check,
    loeb_suite,
    sahlqvist_suite,
    schema_valid_on_frame,
)
from modalkit.hilbert import SCHEMAS, AxiomSchemaId
from modalkit.kripke import FrameProperty
from modalkit.syntax import Schema, parse_schema

T_SCHEMA = SCHEMAS[AxiomSchemaId.T]
FOUR_SCHEMA = SCHEMAS[AxiomSchemaId.FOUR]


# --- the scalar checker -------------------------------------------------------


def test_t_holds_on_a_reflexive_frame():
    assert schema_valid_on_frame({0, 1}, {(0, 0), (1, 1), (0, 1)}, T_SCHEMA)


def test_t_fails_without_reflexivity():
    assert not schema_valid_on_frame({0, 1}, {(0, 1), (1, 0)}, T_SCHEMA)


def test_four_fails_on_the_loop_frame():
    # reflexive but not transitive: 2 -> 0 -> 1 without 2 -> 1
    rel = {(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (2, 0)}
    assert schema_valid_on_frame({0, 1, 2}, rel, FOUR_SCHEMA) is False


def test_trivial_schema_holds_everywhere():
    s = parse_schema("?phi -> ?phi")
    assert schema_valid_on_frame({0}, set(), s)
    assert schema_valid_on_frame({0, 1, 2}, {(0, 1), (1, 2)}, s)


def test_schema_with_concrete_atoms_quantifies_them():
    # box p -> p with a real atom behaves like the T schema on frames
    s = parse_schema("box p -> p")
    assert schema_valid_on_frame({0}, {(0, 0)}, s)
    assert not schema_valid_on_frame({0, 1}, {(0, 1)}, s)
    # ?p and p are distinct leaves: p need not be true where ?p is
    assert not schema_valid_on_frame({0}, set(), parse_schema("?p -> p"))


def test_frame_input_validation():
    with pytest.raises(ValueError):
        schema_valid_on_frame(set(), set(), T_SCHEMA)
    with pytest.raises(ValueError):
        schema_valid_on_frame({0}, {(0, 3)}, T_SCHEMA)


def test_scalar_and_packed_schema_validity_agree():
    from modalkit.correspond import _core_body

    schema = Schema(parse_schema("box ?phi -> box box ?phi").body)
    slab = ModelSlab(2, ())
    mask = slab.schema_validity_mask(Schema(_core_body(schema)))
    for index in range(slab.count):
        n, rel = slab.frame_at(index)
        expected = schema_valid_on_frame(set(range(n)), set(rel), schema)
        assert bool(mask >> index & 1) == expected


# --- correspondence -----------------------------------------------------------


def test_sahlqvist_suite_holds_to_bound_four():
    results = sahlqvist_suite(4)
    assert [name for name, _ in results] == [
        "T<->reflexive",
        "B<->symmetric",
        "4<->transitive",
    ]
    for name, result in results:
        assert isinstance(result, Holds), name
        assert bool(result)
    # 2 + 16 + 512 + 65536 frames over sizes one to four
    assert results[0][1].frames_checked == 66066


def test_correspondence_counterexample_is_canonical():
    # the 4 schema against reflexivity: the very first frame, a single
    # world with no edges, validates 4 vacuously but is not reflexive
    result = correspondence_check(FOUR_SCHEMA, FrameProperty.REFLEXIVE, 3)
    assert isinstance(result, CounterFrame)
    assert not bool(result)
    assert result.worlds == frozenset({0})
    assert result.rel == frozenset()
    assert result.direction == CounterFrame.SCHEMA_WITHOUT_PROPERTY
    assert "schema-holds-property-fails" in result.describe()


def test_correspondence_counterexample_other_direction():
    # B against transitivity: a transitive frame that is not symmetric
    # falsifies B, so the property side holds and the schema side fails
    result = correspondence_check(SCHEMAS[AxiomSchemaId.B], FrameProperty.TRANSITIVE, 3)
    assert isinstance(result, CounterFrame)
    assert result.direction == CounterFrame.PROPERTY_WITHOUT_SCHEMA
    # verify the claim on the concrete frame with the scalar checker
    assert schema_valid_on_frame(set(result.worlds), set(result.rel),
                                 SCHEMAS[AxiomSchemaId.B]) is False
    # ?p -> p is valid on no frame, so the first reflexive frame disagrees
    result = correspondence_check(parse_schema("?p -> p"), FrameProperty.REFLEXIVE, 2)
    assert result.rel == frozenset({(0, 0)})
    assert result.direction == CounterFrame.PROPERTY_WITHOUT_SCHEMA


def test_correspondence_rejects_a_silly_bound():
    with pytest.raises(ValueError):
        correspondence_check(T_SCHEMA, FrameProperty.REFLEXIVE, 0)


# --- provability-logic facts -----------------------------------------------------


@pytest.fixture(scope="module")
def loeb_reports():
    return loeb_suite(4)


def test_loeb_suite_names_and_order(loeb_reports):
    assert [r.name for r in loeb_reports] == [
        "transitive+cwf-implies-loeb",
        "loeb-implies-cwf",
        "loeb-implies-irreflexive",
        "loeb-implies-transitive",
    ]


def test_loeb_suite_is_clean_to_bound_four(loeb_reports):
    for report in loeb_reports:
        assert report.instances == 66066
        assert report.violation_count == 0
        assert report.examples == []


def test_loeb_suite_validates_bound():
    with pytest.raises(ValueError):
        loeb_suite(0)


def test_loeb_does_not_imply_reflexivity():
    # guard against the suite silently testing something weaker: the
    # one-world empty frame validates Loeb and is irreflexive
    slab = ModelSlab(1, ())
    from modalkit.correspond import _core_body

    loeb = Schema(_core_body(SCHEMAS[AxiomSchemaId.LOEB]))
    valid = slab.schema_validity_mask(loeb)
    refl = slab.property_mask(FrameProperty.REFLEXIVE)
    assert valid & (slab.full ^ refl), "expected a Loeb-valid irreflexive frame"


def test_loeb_scalar_spot_checks():
    loeb = SCHEMAS[AxiomSchemaId.LOEB]
    # strict two-chain: transitive, acyclic, validates Loeb
    assert schema_valid_on_frame({0, 1}, {(0, 1)}, loeb)
    # reflexive point: Loeb fails (box(box p -> p) -> box p with p empty)
    assert not schema_valid_on_frame({0}, {(0, 0)}, loeb)
    # 2-cycle: not converse well-founded, Loeb must fail
    assert not schema_valid_on_frame({0, 1}, {(0, 1), (1, 0)}, loeb)
