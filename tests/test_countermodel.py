"""Bounded countermodel search against its own reference enumeration."""

import pytest
from hypothesis import given, settings

from modalkit.countermodel import (
    enumerate_models,
    export_dot,
    find_countermodel,
    search_atoms,
)
from modalkit.hilbert import ALL_LOGICS
from modalkit.kripke import FrameProperty, KripkeModel, eval_deep, has_property
from modalkit.syntax import Signature, parse

from conftest import SIG_P, SIG_PQ, formulas, naive_eval

R = FrameProperty.REFLEXIVE


def test_search_atoms_come_from_the_desugared_formula():
    assert search_atoms(parse("q -> p", SIG_PQ), SIG_PQ) == ("p", "q")
    # true desugars to p -> p over the first signature atom
    assert search_atoms(parse("true", SIG_PQ), SIG_PQ) == ("p",)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_models(1, ("p",))) == 4
    assert sum(1 for _ in enumerate_models(2, ("p",))) == 64
    two_atoms = sum(1 for _ in enumerate_models(2, ("p", "q")))
    assert two_atoms == 2 ** (4 + 4)


def test_enumeration_is_exhaustive_and_duplicate_free():
    seen = set()
    for m in enumerate_models(2, ("p",)):
        key = (m.rel, m.val["p"])
        assert key not in seen
        seen.add(key)
    assert len(seen) == 64


def test_transitivity_countermodel_is_the_canonical_first():
    f = parse("box p -> box box p", SIG_P)
    result = find_countermodel(f, {R}, 3, SIG_P)
    assert result is not None
    m, w = result
    assert m.n_worlds == 3
    assert sorted(m.rel) == [(0, 0), (0, 2), (1, 0), (1, 1), (2, 2)]
    assert sorted(m.val["p"]) == [0, 1]
    assert w == 1
    assert eval_deep(m, w, f) is False
    assert has_property(m, R)


def test_no_two_world_reflexive_countermodel_for_transitivity():
    f = parse("box p -> box box p", SIG_P)
    assert find_countermodel(f, {R}, 2, SIG_P) is None


def test_modal_collapse_countermodel():
    f = parse("p -> box p", SIG_P)
    result = find_countermodel(f, set(), 2, SIG_P)
    assert result is not None
    m, w = result
    assert m.n_worlds == 2
    assert sorted(m.rel) == [(0, 1)]
    assert sorted(m.val["p"]) == [0]
    assert w == 0


def test_tautology_has_no_countermodel():
    assert find_countermodel(parse("p -> p", SIG_P), set(), 3, SIG_P) is None


def test_validation_errors():
    with pytest.raises(ValueError):
        find_countermodel(parse("p", SIG_P), set(), 0, SIG_P)
    with pytest.raises(ValueError):
        find_countermodel(parse("q", SIG_PQ), set(), 2, SIG_P)


def _scalar_first_countermodel(f, props, max_worlds, sig):
    """Slow reference: walk the canonical enumeration and evaluate directly."""
    atoms = search_atoms(f, sig)
    for n in range(1, max_worlds + 1):
        for m in enumerate_models(n, atoms):
            if not all(has_property(m, p) for p in props):
                continue
            for w in range(n):
                if not naive_eval(m, w, f):
                    return m, w
    return None


def _check_against_reference(text, props, max_worlds, sig):
    f = parse(text, sig)
    fast = find_countermodel(f, props, max_worlds, sig)
    slow = _scalar_first_countermodel(f, props, max_worlds, sig)
    if slow is None:
        assert fast is None
    else:
        assert fast is not None
        assert fast[0] == slow[0]
        assert fast[1] == slow[1]


@pytest.mark.parametrize(
    "text, props",
    [
        ("box p -> box box p", {R}),
        ("p -> box p", set()),
        ("dia box p -> box dia p", {FrameProperty.SYMMETRIC}),
        ("box (p -> q) -> (box p -> box q)", set()),
        ("p | ~p", set()),
        ("dia (p & q) -> box (p | dia q)", {R, FrameProperty.TRANSITIVE}),
        ("box p -> dia q", {FrameProperty.SERIAL, FrameProperty.EUCLIDEAN}),
    ],
)
def test_search_agrees_with_scalar_reference(text, props):
    _check_against_reference(text, props, 2, SIG_PQ)


# one falsifiable formula per cube axiom and Löb's, so every frame class
# meets both a countermodel and (for its own axioms) none
_ONE_ATOM_PROBES = ("box p -> p", "p -> box dia p", "box p -> box box p",
                    "box (box p -> p) -> box p", "dia p -> box dia p")

_PROPERTY_SETS = (
    [pytest.param({p}, id=p.value) for p in FrameProperty]
    + [pytest.param(set(logic.frame_properties), id=logic.name) for logic in ALL_LOGICS]
)


@pytest.mark.parametrize("props", _PROPERTY_SETS)
def test_search_agrees_with_scalar_reference_at_three_worlds(props):
    for text in _ONE_ATOM_PROBES:
        _check_against_reference(text, props, 3, SIG_P)


@settings(max_examples=30, deadline=None)
@given(formulas(sig=SIG_P, max_leaves=5))
def test_found_models_always_falsify(f):
    result = find_countermodel(f, set(), 2, SIG_P)
    if result is not None:
        m, w = result
        assert naive_eval(m, w, f) is False


@settings(max_examples=20, deadline=None)
@given(formulas(sig=SIG_P, max_leaves=4))
def test_search_bound_is_monotone(f):
    # finding nothing with a larger bound while a smaller bound succeeds
    # would mean the enumeration skips models
    small = find_countermodel(f, {R}, 1, SIG_P)
    large = find_countermodel(f, {R}, 3, SIG_P)
    if small is not None:
        assert large is not None
        assert large[0].n_worlds <= small[0].n_worlds


# --- dot export -----------------------------------------------------------------

_EXPECTED_DOT = """\
digraph countermodel {
  rankdir=LR;
  init [shape=point, label=""];
  w0 [shape=circle, label="w0\\np"];
  w1 [shape=circle, label="w1\\n~p"];
  init -> w0;
  w0 -> w1;
}
"""


def test_dot_export_golden():
    f = parse("p -> box p", SIG_P)
    m, w = find_countermodel(f, set(), 2, SIG_P)
    assert export_dot(m, w, f) == _EXPECTED_DOT


def test_dot_export_requires_a_designated_mark():
    m = KripkeModel(2, [0], [], {"p": []}, SIG_P)
    with pytest.raises(ValueError):
        export_dot(m, 1, parse("p", SIG_P))


def test_dot_export_on_a_constant_formula():
    m = KripkeModel(1, [0], [(0, 0)], {"p": [0]}, SIG_P)
    text = export_dot(m, 0, parse("true", SIG_P))
    assert 'label="w0\\np"' in text  # true desugars to p -> p, so p is shown
    assert "w0 -> w0;" in text
