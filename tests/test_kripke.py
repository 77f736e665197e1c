"""Model semantics: evaluation, frame properties, and the file format.

The three-world model with loops everywhere plus edges 0->1, 0->2, 2->0
(p true at 0 and 2) is the workhorse fixture: it is reflexive but not
transitive, and it falsifies box p -> box box p at world 2.
"""

import json
import time

import pytest
from hypothesis import given, settings

from modalkit.kripke import (
    FrameProperty,
    KripkeModel,
    ModelError,
    ModelFormatError,
    dump_model,
    eval_deep,
    has_property,
    load_model,
    valid_in_model,
)
from modalkit.syntax import Signature, parse

from conftest import SIG_P, SIG_PQ, formulas, models, naive_eval


@pytest.fixture
def loop_model():
    return KripkeModel(
        3,
        worlds=[0, 1, 2],
        rel=[(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (2, 0)],
        val={"p": [0, 2]},
        sig=SIG_P,
    )


def test_box_p_true_at_world_two(loop_model):
    # successors of 2 are {0, 2}, and p holds at both
    assert eval_deep(loop_model, 2, parse("box p", SIG_P)) is True


def test_transitivity_instance_false_at_world_two(loop_model):
    assert eval_deep(loop_model, 2, parse("box p -> box box p", SIG_P)) is False


def test_bottom_is_false_everywhere(loop_model):
    bot = parse("false", SIG_P)
    for w in sorted(loop_model.worlds):
        assert eval_deep(loop_model, w, bot) is False


def test_validity_in_model(loop_model):
    assert valid_in_model(loop_model, parse("box p -> box box p", SIG_P)) is False
    assert valid_in_model(loop_model, parse("p -> p", SIG_P)) is True


def test_vacuous_box_on_isolated_world():
    m = KripkeModel(1, worlds=[0], rel=[], val={"p": []}, sig=SIG_P)
    assert eval_deep(m, 0, parse("box p", SIG_P)) is True
    assert valid_in_model(m, parse("box p", SIG_P)) is True


def test_loop_model_frame_properties(loop_model):
    assert has_property(loop_model, FrameProperty.REFLEXIVE) is True
    # 2 -> 0 and 0 -> 1 but no 2 -> 1 edge
    assert has_property(loop_model, FrameProperty.TRANSITIVE) is False
    assert has_property(loop_model, FrameProperty.SERIAL) is True
    assert has_property(loop_model, FrameProperty.SYMMETRIC) is False
    assert has_property(loop_model, FrameProperty.IRREFLEXIVE) is False
    assert has_property(loop_model, FrameProperty.CONVERSE_WELL_FOUNDED) is False


def _frame(n, rel, worlds=None):
    ws = list(range(n)) if worlds is None else worlds
    return KripkeModel(n, worlds=ws, rel=rel, val={"p": []}, sig=SIG_P)


def test_property_matrix():
    empty = _frame(2, [])
    assert has_property(empty, FrameProperty.CONVERSE_WELL_FOUNDED) is True
    assert has_property(empty, FrameProperty.IRREFLEXIVE) is True
    assert has_property(empty, FrameProperty.SERIAL) is False
    # symmetric and transitive hold vacuously on an empty relation
    assert has_property(empty, FrameProperty.SYMMETRIC) is True
    assert has_property(empty, FrameProperty.TRANSITIVE) is True

    pair = _frame(2, [(0, 1), (1, 0)])
    assert has_property(pair, FrameProperty.SYMMETRIC) is True
    assert has_property(pair, FrameProperty.TRANSITIVE) is False
    assert has_property(pair, FrameProperty.CONVERSE_WELL_FOUNDED) is False

    chain = _frame(3, [(0, 1), (1, 2), (0, 2)])
    assert has_property(chain, FrameProperty.TRANSITIVE) is True
    assert has_property(chain, FrameProperty.CONVERSE_WELL_FOUNDED) is True

    euclid = _frame(2, [(0, 1), (1, 1)])
    assert has_property(euclid, FrameProperty.EUCLIDEAN) is True
    assert has_property(_frame(3, [(0, 1), (0, 2)]), FrameProperty.EUCLIDEAN) is False


def test_self_loop_breaks_converse_well_foundedness():
    assert has_property(_frame(1, [(0, 0)]), FrameProperty.CONVERSE_WELL_FOUNDED) is False


def test_properties_restricted_to_designated_set():
    # the loop at 1 lies outside the designated set, so it cannot spoil
    # irreflexivity or acyclicity there
    m = _frame(2, [(1, 1)], worlds=[0])
    assert has_property(m, FrameProperty.IRREFLEXIVE) is True
    assert has_property(m, FrameProperty.CONVERSE_WELL_FOUNDED) is True
    assert has_property(m, FrameProperty.REFLEXIVE) is False
    # so does a cycle that passes through world 2
    through = _frame(3, [(0, 2), (2, 1), (1, 2)], worlds=[0, 1])
    assert has_property(through, FrameProperty.CONVERSE_WELL_FOUNDED) is True


def test_frame_property_from_name():
    assert FrameProperty.from_name("reflexive") is FrameProperty.REFLEXIVE
    assert FrameProperty.from_name("r") is FrameProperty.REFLEXIVE
    assert FrameProperty.from_name("CWF") is FrameProperty.CONVERSE_WELL_FOUNDED
    with pytest.raises(ValueError):
        FrameProperty.from_name("dense")


def test_eval_outside_designated_set_raises(loop_model):
    m = KripkeModel(2, worlds=[0], rel=[], val={"p": [0]}, sig=SIG_P)
    with pytest.raises(ValueError):
        eval_deep(m, 1, parse("p", SIG_P))


def test_eval_unknown_atom_raises(loop_model):
    with pytest.raises(ValueError):
        eval_deep(loop_model, 0, parse("q", SIG_PQ))


def test_model_invariants_enforced():
    with pytest.raises(ModelError):
        KripkeModel(2, worlds=[], rel=[], val={"p": []}, sig=SIG_P)
    with pytest.raises(ModelError):
        KripkeModel(2, worlds=[0, 5], rel=[], val={"p": []}, sig=SIG_P)
    with pytest.raises(ModelError):
        KripkeModel(2, worlds=[0], rel=[(0, 9)], val={"p": []}, sig=SIG_P)
    with pytest.raises(ModelError):
        KripkeModel(2, worlds=[0], rel=[], val={}, sig=SIG_P)
    with pytest.raises(ModelError):
        KripkeModel(2, worlds=[0], rel=[], val={"p": [], "q": []}, sig=SIG_P)
    with pytest.raises(ModelError):
        KripkeModel(2, worlds=[0], rel=[], val={"p": [7]}, sig=SIG_P)


# --- differential testing against the independent reference evaluator ------


@given(models(), formulas())
def test_eval_deep_matches_reference(m, f):
    for w in sorted(m.worlds):
        assert eval_deep(m, w, f) == naive_eval(m, w, f)


@given(models(sig=SIG_P, max_worlds=3), formulas(sig=SIG_P, max_leaves=6))
def test_diamond_is_dual_of_box(m, f):
    from modalkit.syntax import Dia, Box, Not

    for w in sorted(m.worlds):
        assert eval_deep(m, w, Dia(f)) == (not eval_deep(m, w, Box(Not(f))))


@given(models(sig=SIG_PQ), formulas(sig=SIG_P))
def test_unused_atoms_are_irrelevant(m, f):
    # f only mentions p; flipping the valuation of q must not matter
    flipped = KripkeModel(
        m.n_worlds,
        worlds=m.worlds,
        rel=m.rel,
        val={"p": m.val["p"], "q": set(range(m.n_worlds)) - m.val["q"]},
        sig=SIG_PQ,
    )
    for w in sorted(m.worlds):
        assert eval_deep(m, w, f) == eval_deep(flipped, w, f)


@given(models(max_worlds=3), formulas(max_leaves=6))
def test_edges_outside_designated_set_are_irrelevant(m, f):
    outside = set(range(m.n_worlds)) - m.worlds
    if not outside:
        return
    x = min(outside)
    extra = {(x, w) for w in range(m.n_worlds)} | {(w, x) for w in range(m.n_worlds)}
    enlarged = KripkeModel(m.n_worlds, m.worlds, m.rel | extra, m.val, m.sig)
    for w in sorted(m.worlds):
        assert eval_deep(m, w, f) == eval_deep(enlarged, w, f)


# --- file format ------------------------------------------------------------

_CANONICAL_TEXT = """\
worlds: 3
in: [0, 1, 2]
rel: [[0, 0], [0, 1], [0, 2], [1, 1], [2, 0], [2, 2]]
val: {"p": [0, 2]}
"""


def test_dump_golden(loop_model):
    assert dump_model(loop_model) == _CANONICAL_TEXT


def test_load_golden(loop_model):
    assert load_model(_CANONICAL_TEXT) == loop_model


@settings(max_examples=60)
@given(models())
def test_dump_load_round_trip(m):
    assert load_model(dump_model(m)) == m


def test_a_large_model_loads_and_evaluates_in_linear_time():
    # 20,000 designated worlds on a cycle, with a loop at every even world;
    # successor lists built by scanning every world for each world took
    # about 50 s for this model on 2 vCPUs
    n = 20_000
    rel = [[w, (w + 1) % n] for w in range(n)] + [[w, w] for w in range(0, n, 2)]
    text = (f"worlds: {n}\nin: {json.dumps(list(range(n)))}\nrel: {json.dumps(rel)}\n"
            f"val: {json.dumps({'p': list(range(0, n, 2))})}\n")
    start = time.perf_counter()
    m = load_model(text)
    odd_world_fails = not valid_in_model(m, parse("box p -> p", SIG_P))
    succ_even = eval_deep(m, 1, parse("box p", SIG_P))
    assert time.perf_counter() - start < 1
    assert odd_world_fails and succ_even
    assert m._succ[0] == (0, 1) and m._succ[n - 1] == (0,)


def test_load_accepts_comments_and_blank_lines():
    text = "# fixture\n\nworlds: 1\nin: [0]\nrel: []\nval: {\"p\": [0]}\n"
    m = load_model(text)
    assert m.n_worlds == 1 and m.atom_true("p", 0)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("worlds 1\nin: [0]\nrel: []\nval: {}", "line 1"),
        ("worlds: 1\nworlds: 2\nin: [0]\nrel: []\nval: {}", "duplicate"),
        ("worlds: 1\nin: [0]\nrel: []\nspam: 3\nval: {}", "unknown field"),
        ("worlds: 1\nin: [0\nrel: []\nval: {}", "bad value"),
        ("worlds: 1\nin: [0]", "missing fields"),
        ("worlds: 0\nin: []\nrel: []\nval: {}", "positive"),
        ("worlds: 1\nin: [0]\nrel: [[0]]\nval: {\"p\": []}", "pairs"),
        # fields of the wrong JSON type
        ("worlds: 1\nin: 3\nrel: []\nval: {\"p\": []}", "'in'"),
        ("worlds: 1\nin: [0]\nrel: []\nval: {\"p\": 3}", "'val'"),
        ("worlds: 1\nin: [0]\nrel: []\nval: {\"p\": [[0]]}", "'val'"),
        ("worlds: 1\nin: [0]\nrel: [[0.7, \"0\"]]\nval: {\"p\": []}", "pairs"),
        ("worlds: true\nin: [0]\nrel: []\nval: {\"p\": []}", "positive"),
        ("worlds: 2\nin: [0, 1]\nrel: []\nval: {\"p\": [0], \"p\": [1]}",
         "line 4: duplicate atom 'p'"),
    ],
)
def test_load_rejects_malformed_input(text, fragment):
    with pytest.raises(ModelFormatError) as exc:
        load_model(text)
    assert fragment in str(exc.value)


def test_load_rejects_semantic_errors():
    # structurally fine, semantically out of range
    with pytest.raises((ModelError, ModelFormatError)):
        load_model("worlds: 1\nin: [3]\nrel: []\nval: {\"p\": []}")


def test_repr_and_comparison_with_a_non_model():
    m = KripkeModel(2, {0, 1}, [(0, 1)], {"p": {0}}, SIG_P)
    assert repr(m) == "KripkeModel(n_worlds=2, worlds=[0, 1], rel=[(0, 1)], val={p: [0]})"
    assert (m == 3) is False and m != 3


def test_describe_mentions_the_pieces(loop_model):
    text = loop_model.describe()
    assert "worlds=3" in text
    assert "rel=" in text and "p@[0, 2]" in text
