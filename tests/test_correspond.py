"""Frame correspondence: schema validity versus first-order frame conditions.

schema_valid_on_frame is the slow, obviously-correct scalar reference; the
exhaustive checks run on the packed engine.  Several tests below pit the two
against each other on complete frame enumerations.
"""

import pytest

from modalkit import bitgrid
from modalkit.bitgrid import ModelSlab
from modalkit.correspond import (
    CounterFrame,
    Holds,
    _core_body,
    correspondence_check,
    loeb_suite,
    sahlqvist_suite,
)
from modalkit.hilbert import SCHEMAS, AxiomSchemaId
from modalkit.kripke import FrameProperty, KripkeModel, has_property
from modalkit.reporting import Violation
from modalkit.syntax import metavars_of, parse_schema

from conftest import SIG_P, schema_valid_on_frame

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


# every axiom schema, one that stacks negations around boxes, and one with
# concrete atoms; between them they reach each constant fold in _deep
_AGREEMENT_SCHEMAS = list(SCHEMAS.values()) + [
    parse_schema("~~box ~?phi -> ~box ~~?phi"),
    parse_schema("box (p -> ?q) -> (dia ~p -> box ?q)"),
]


def test_scalar_and_packed_schema_validity_agree():
    from modalkit.correspond import _core_body

    slab = ModelSlab(3, ())
    for schema in _AGREEMENT_SCHEMAS:
        mask = slab.schema_validity_mask(_core_body(schema), {})
        for index in range(slab.count):
            n, rel = slab.frame_at(index)
            expected = schema_valid_on_frame(set(range(n)), set(rel), schema)
            assert bool(mask >> index & 1) == expected, (str(schema), sorted(rel))


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


def test_sahlqvist_suite_holds_to_bound_five():
    # 2 + 16 + 512 + 65536 + 33554432 frames: the benchmark's bound
    for name, result in sahlqvist_suite(5):
        assert isinstance(result, Holds), name
        assert result.frames_checked == 33_620_498


# --- sweeps in tiles ------------------------------------------------------------


def _untiled_and_tiled(monkeypatch, tile_bits, run):
    untiled = run()
    monkeypatch.setattr(bitgrid, "TILE_BITS", tile_bits)
    return untiled, run()


@pytest.mark.parametrize("schema_id", list(AxiomSchemaId), ids=lambda i: i.value)
def test_tiled_correspondence_checks_equal_the_untiled_ones(monkeypatch, schema_id):
    # 2**16 four-world frames fit one tile of the default size; with tiles
    # of 32 frames every size from three worlds on is swept in pieces
    def run():
        return [correspondence_check(SCHEMAS[schema_id], p, 4) for p in FrameProperty]

    untiled, tiled = _untiled_and_tiled(monkeypatch, 5, run)
    assert tiled == untiled


def test_a_counter_frame_past_the_first_tile(monkeypatch):
    # Loeb against converse well-foundedness first fails on the 3-world
    # frame with bitmask 12 and T against seriality on the 2-world frame
    # with bitmask 5; in tiles of 4 frames both lie past the first tile
    loeb, t = SCHEMAS[AxiomSchemaId.LOEB], SCHEMAS[AxiomSchemaId.T]

    def run():
        return [correspondence_check(loeb, FrameProperty.CONVERSE_WELL_FOUNDED, 3),
                correspondence_check(t, FrameProperty.SERIAL, 3)]

    untiled, tiled = _untiled_and_tiled(monkeypatch, 2, run)
    assert tiled == untiled
    assert tiled[0].rel == frozenset({(0, 2), (1, 0)})
    assert tiled[0].direction == CounterFrame.PROPERTY_WITHOUT_SCHEMA
    assert tiled[1].rel == frozenset({(0, 0), (1, 0)})


def test_tiled_loeb_suite_equals_the_untiled_one(monkeypatch):
    untiled, tiled = _untiled_and_tiled(monkeypatch, 5, lambda: loeb_suite(4))
    assert tiled == untiled


def test_both_suites_in_tiles_of_sixteen_frames_equal_the_default_ones(monkeypatch):
    def run():
        return loeb_suite(4), sahlqvist_suite(4)

    default, tiled = _untiled_and_tiled(monkeypatch, 4, run)
    assert tiled == default


# --- the order of valuations in a sweep -------------------------------------------

# (schema, property, bound) for the order tests: every bundled schema
# against every property, and two letters, whose 256 valuations per
# four-world tile would take seconds in tiles of 16 frames, at three worlds
_ORDER_CASES = [(schema, p, 4) for schema in SCHEMAS.values() for p in FrameProperty] + [
    (parse_schema("(box p -> p) & (box q -> q)"), FrameProperty.REFLEXIVE, 3)]


def _canonical_frames(max_worlds):
    """(n, relation) for every frame up to max_worlds in canonical order:
    world count first, then relation bitmask."""
    for n in range(1, max_worlds + 1):
        pairs = [(i, j) for i in range(n) for j in range(n)]
        for bits in range(1 << n * n):
            yield n, frozenset(pair for k, pair in enumerate(pairs) if bits >> k & 1)


def _scalar_correspondence(s, p, max_worlds):
    """correspondence_check frame by frame in canonical order, on the scalar
    checkers."""
    checked = 0
    for n, rel in _canonical_frames(max_worlds):
        has = has_property(KripkeModel(n, range(n), rel, {"p": []}, SIG_P), p)
        if has != schema_valid_on_frame(set(range(n)), set(rel), s):
            return CounterFrame(frozenset(range(n)), rel,
                                CounterFrame.PROPERTY_WITHOUT_SCHEMA if has
                                else CounterFrame.SCHEMA_WITHOUT_PROPERTY)
        checked += 1
    return Holds(checked)


@pytest.fixture
def sweep_log(monkeypatch):
    """Records each schema_validity_mask call as [world count, number of
    valuations, valuations tried in order, resulting mask]."""
    log = []
    assignment, mask = bitgrid._assignment, ModelSlab.schema_validity_mask

    def recording_assignment(names, ds, choice):
        log[-1][2].append(choice)
        return assignment(names, ds, choice)

    def recording_mask(self, s, *args):
        log.append([self.n, 1 << len(metavars_of(s)) * len(self.designated), [], None])
        log[-1][3] = mask(self, s, *args)
        return log[-1][3]

    monkeypatch.setattr(bitgrid, "_assignment", recording_assignment)
    monkeypatch.setattr(ModelSlab, "schema_validity_mask", recording_mask)
    return log


def test_hinted_sweeps_in_tiles_of_sixteen_frames_equal_the_default_ones(
        monkeypatch, sweep_log):
    default = [correspondence_check(*case) for case in _ORDER_CASES]
    monkeypatch.setattr(bitgrid, "TILE_BITS", 4)
    sweep_log.clear()
    tiled = [correspondence_check(*case) for case in _ORDER_CASES]
    assert tiled == default
    # the hint moves: four-world tiles are emptied by several valuations
    emptied_by = {tried[-1] for n, _, tried, out in sweep_log if n == 4 and not out}
    assert len(emptied_by) > 1


def test_hinted_sweeps_equal_the_scalar_reference(monkeypatch):
    # three worlds in tiles of 16 frames: 32 tiles, against the scalar checkers
    monkeypatch.setattr(bitgrid, "TILE_BITS", 4)
    for s, p, _ in _ORDER_CASES:
        assert correspondence_check(s, p, 3) == _scalar_correspondence(s, p, 3), \
            (str(s), p)


def test_each_tile_tries_the_last_emptying_valuation_first(monkeypatch, sweep_log):
    monkeypatch.setattr(bitgrid, "TILE_BITS", 4)
    loeb_suite(3)
    correspondence_check(T_SCHEMA, FrameProperty.REFLEXIVE, 4)
    correspondence_check(*_ORDER_CASES[-1])
    sweeps = 0
    for n, every, tried, out in sweep_log:
        if n == 1:  # a sweep starts afresh: no size has a hint yet
            sweeps, hints = sweeps + 1, {}
        first = hints.get(n, 0)  # nothing carries over from another size
        order = [first] + [c for c in range(every) if c != first]
        # the hint, then the others ascending, none skipped, until one empties
        assert tried == order[:len(tried)], (n, tried)
        if out:
            assert len(tried) == every
        else:
            hints[n] = tried[-1]
    assert sweeps == 3


def test_sweeps_try_fewer_valuations_than_in_ascending_order(sweep_log):
    # ascending order tries 2,518 valuations in loeb_suite(5) and 3,948 in
    # T against reflexivity, over sizes one to five
    loeb_suite(5)
    assert sum(len(tried) for _, _, tried, _ in sweep_log) < 2518
    sweep_log.clear()
    correspondence_check(T_SCHEMA, FrameProperty.REFLEXIVE, 5)
    assert sum(len(tried) for _, _, tried, _ in sweep_log) < 3948


def test_a_single_slab_tries_the_valuations_in_ascending_order(sweep_log):
    slab = ModelSlab(3, ())
    loeb = _core_body(SCHEMAS[AxiomSchemaId.LOEB])
    slab.schema_validity_mask(loeb, {})
    [(_, _, tried, out)] = sweep_log
    assert tried == list(range(8))
    assert out


def test_sweeps_over_the_budget_are_refused_before_sweeping(monkeypatch):
    from modalkit.errors import ResourceLimitExceeded

    built = []
    monkeypatch.setattr(bitgrid.ModelSlab, "__init__",
                        lambda self, *a, **k: built.append(a))
    with pytest.raises(ResourceLimitExceeded):
        correspondence_check(T_SCHEMA, FrameProperty.REFLEXIVE, 6)
    with pytest.raises(ResourceLimitExceeded):
        loeb_suite(6)
    assert built == []


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


def test_loeb_suite_is_clean_to_bound_five():
    for report in loeb_suite(5):
        assert report.instances == 33_620_498
        assert report.violation_count == 0
        assert report.examples == []


def test_loeb_suite_validates_bound():
    with pytest.raises(ValueError):
        loeb_suite(0)


def test_dense_violations_are_counted_and_sampled_in_canonical_order(monkeypatch):
    # with every frame forced Loeb-valid, each loeb-implies claim fails on
    # every frame that lacks its property, and the first claim on none
    monkeypatch.setattr(ModelSlab, "schema_validity_mask",
                        lambda self, s, hints: self.full)
    lacking = {"transitive+cwf-implies-loeb": None,
               "loeb-implies-cwf": FrameProperty.CONVERSE_WELL_FOUNDED,
               "loeb-implies-irreflexive": FrameProperty.IRREFLEXIVE,
               "loeb-implies-transitive": FrameProperty.TRANSITIVE}
    frames = list(_canonical_frames(3))
    assert len(frames) == 530
    reports = loeb_suite(3)
    assert [r.name for r in reports] == list(lacking)
    for report, p in zip(reports, lacking.values()):
        offending = [Violation(report.name, None, f"worlds={n} rel={sorted(rel)}", None)
                     for n, rel in frames if p is not None and not has_property(
                         KripkeModel(n, range(n), rel, {"p": []}, SIG_P), p)]
        assert report.instances == 530
        assert report.violation_count == len(offending), report.name
        assert report.examples == offending[:5], report.name
    assert min(r.violation_count for r in reports[1:]) > 5


def test_loeb_does_not_imply_reflexivity():
    # guard against the suite silently testing something weaker: the
    # one-world empty frame validates Loeb and is irreflexive
    slab = ModelSlab(1, ())
    from modalkit.correspond import _core_body

    loeb = _core_body(SCHEMAS[AxiomSchemaId.LOEB])
    valid = slab.schema_validity_mask(loeb, {})
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
