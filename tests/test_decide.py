"""The tableau procedure: verdicts, extracted models, budgets, cross-checks.

Soundness here rests on two pillars that the tests hammer separately: a
Valid verdict must survive an exhaustive bounded model search, and an
Invalid verdict must hand over a model that scalar evaluation rejects.
"""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modalkit.countermodel import find_countermodel
from modalkit.decide import (
    CrossCheckReport,
    Invalid,
    ResourceLimitExceeded,
    TableauTrace,
    Valid,
    _Branch,
    _Tableau,
    cross_check,
    decide,
)
from modalkit.hilbert import ALL_LOGICS, FRAME_CONDITIONS, AxiomSchemaId, Logic
from modalkit.kripke import FrameProperty, eval_deep, has_property
from modalkit.syntax import Signature, parse

from conftest import SIG_P, formulas, naive_eval

K = Logic.from_name("K")
KT = Logic.from_name("KT")
KB = Logic.from_name("KB")
S4 = Logic.from_name("S4")


def _f(text, sig=SIG_P):
    return parse(text, sig)


def test_logic_to_frame_class():
    assert K.frame_properties == frozenset()
    assert KT.frame_properties == frozenset({FrameProperty.REFLEXIVE})
    assert KB.frame_properties == frozenset({FrameProperty.SYMMETRIC})
    assert Logic.from_name("S5").frame_properties == frozenset(
        {FrameProperty.REFLEXIVE, FrameProperty.SYMMETRIC, FrameProperty.TRANSITIVE}
    )
    assert FRAME_CONDITIONS[AxiomSchemaId.FOUR] is FrameProperty.TRANSITIVE


def test_tautology_is_valid_in_k():
    result = decide(_f("p -> p"), K)
    assert isinstance(result, Valid)
    assert result  # Valid is truthy
    assert result.trace.branches >= 1
    assert result.trace.rule_applications >= 1


def test_kb_theorem():
    sig = Signature(("p",))
    result = decide(_f("dia box p -> box dia p", sig), KB)
    assert isinstance(result, Valid)


def test_transitivity_axiom_fails_in_kt():
    result = decide(_f("box p -> box box p"), KT)
    assert isinstance(result, Invalid)
    assert not result  # Invalid is falsy
    m, w = result.model, result.world
    assert m.n_worlds <= 3
    assert has_property(m, FrameProperty.REFLEXIVE)
    assert w in m.worlds
    assert eval_deep(m, w, _f("box p -> box box p")) is False


def test_falsum_is_invalid_everywhere():
    for logic in ALL_LOGICS:
        result = decide(_f("false"), logic)
        assert isinstance(result, Invalid)
        assert result.model.n_worlds == 1


@pytest.mark.parametrize(
    "schema_text, holding",
    [
        ("box p -> p", {"KT", "KTB", "S4", "S5"}),
        ("p -> box dia p", {"KB", "KTB", "KB4", "S5"}),
        ("box p -> box box p", {"K4", "S4", "KB4", "S5"}),
    ],
)
def test_axioms_hold_exactly_on_their_frame_classes(schema_text, holding):
    f = _f(schema_text)
    for logic in ALL_LOGICS:
        result = decide(f, logic)
        if logic.name in holding:
            assert isinstance(result, Valid), (schema_text, logic.name)
        else:
            assert isinstance(result, Invalid), (schema_text, logic.name)


def test_invalid_models_respect_the_frame_class():
    f = _f("box p -> p")
    for name in ("K", "KB", "K4", "KB4"):
        logic = Logic.from_name(name)
        result = decide(f, logic)
        assert isinstance(result, Invalid)
        for prop in logic.frame_properties:
            assert has_property(result.model, prop), (name, prop)
        assert eval_deep(result.model, result.world, f) is False


def test_atom_free_formula_gets_a_default_signature():
    assert isinstance(decide(_f("true"), K), Valid)
    assert isinstance(decide(_f("box false -> false"), KT), Valid)


# --- resource budget -----------------------------------------------------------


def test_starved_tableau_on_a_valid_formula_raises():
    # one label cannot saturate this, and no small countermodel exists to
    # fall back on, so the only honest answer is the resource error
    with pytest.raises(ResourceLimitExceeded):
        decide(_f("box p -> box box p"), S4, max_labels=1)


def test_starved_tableau_can_still_report_invalid():
    # same starvation, but here a small model exists and the fallback
    # search finds it
    result = decide(_f("box p -> box box p"), KT, max_labels=1)
    assert isinstance(result, Invalid)
    assert has_property(result.model, FrameProperty.REFLEXIVE)
    assert eval_deep(result.model, result.world, _f("box p -> box box p")) is False


def test_a_tableau_whose_branches_all_close_is_valid_despite_a_refused_label():
    # the true diamond needs a second label, which the budget refuses, but
    # the clash on p closes the only branch all the same
    f = parse("dia q -> p -> p", Signature(("p", "q")))
    result = decide(f, K, max_labels=1)
    assert isinstance(result, Valid)
    assert result.trace.fallback is False
    assert result.trace.rule_applications == 6


@pytest.mark.parametrize("name", ["S4", "S5"])
def test_starved_branch_with_a_stale_block_is_still_read_off(name):
    # the label budget cuts a branch short while one of its blocks has gone
    # stale; extraction skips that label and the re-check rejects the model
    sig = Signature(("p", "q"))
    f = parse("dia box (dia dia q -> (p & p))", sig)
    result = decide(f, Logic.from_name(name), max_labels=3)
    assert isinstance(result, Invalid)
    assert result.trace.abandoned == result.trace.branches and result.trace.fallback
    assert naive_eval(result.model, result.world, f) is False


def test_default_budget_handles_the_awkward_s4_case():
    # deep box alternation under reflexive-transitive closure; this is the
    # shape that once required re-examining blocked labels
    f = _f("box dia box dia p -> box dia p")
    assert isinstance(decide(f, S4), Valid)


def _no_fallback(*args, **kwargs):
    raise AssertionError("decide fell back to the bounded search")


S4_BLOWUP = "dia box box (dia p -> dia false)"


def test_s4_blowup_is_refuted_from_a_blocked_branch():
    # every open branch of this formula saturates with blocked labels; the
    # model comes from loop edges, not from the bounded search
    f = _f(S4_BLOWUP)
    with mock.patch("modalkit.decide.find_countermodel", _no_fallback):
        result = decide(f, S4)
    assert isinstance(result, Invalid)
    m = result.model
    assert naive_eval(m, result.world, f) is False
    for prop in S4.frame_properties:
        assert has_property(m, prop), prop
    assert result.trace.rule_applications <= 200


def test_tableau_counters():
    result = decide(_f(S4_BLOWUP), S4)
    assert result.trace == TableauTrace(branches=2, rule_applications=88,
                                        blocked=27, abandoned=0, fallback=False)
    assert result.model.n_worlds == 11
    # one label: the extracted 1-world model fails the re-check, and the
    # bounded search supplies the countermodel
    result = decide(_f("box p -> box box p"), KT, max_labels=1)
    assert result.trace == TableauTrace(branches=1, rule_applications=4,
                                        blocked=0, abandoned=1, fallback=True)
    assert Invalid(result.model, result.world).trace is None


def _fixpoint_closure(n, edges, props):
    """The least relation holding edges and closed under props, by fixpoint
    iteration: the reference for the tableau's incremental closure."""
    rel = set(edges)
    changed = True
    while changed:
        changed = False
        if FrameProperty.REFLEXIVE in props:
            for w in range(n):
                if (w, w) not in rel:
                    rel.add((w, w))
                    changed = True
        if FrameProperty.SYMMETRIC in props:
            for (u, v) in list(rel):
                if (v, u) not in rel:
                    rel.add((v, u))
                    changed = True
        if FrameProperty.TRANSITIVE in props:
            for (u, v) in list(rel):
                for (x, y) in list(rel):
                    if v == x and (u, y) not in rel:
                        rel.add((u, y))
                        changed = True
    return rel


def test_closure_equals_the_fixpoint():
    # add_edge keeps a branch's relation closed edge by edge; extraction
    # relies on that for its loop edges
    rng = random.Random(20)
    closing = (FrameProperty.REFLEXIVE, FrameProperty.SYMMETRIC, FrameProperty.TRANSITIVE)
    subsets = [frozenset(c) for r in range(4) for c in itertools.combinations(closing, r)]
    for _ in range(40):
        n = rng.randint(1, 12)
        density = rng.choice((0.05, 0.15, 0.4))
        edges = {(u, v) for u in range(n) for v in range(n) if rng.random() < density}
        for props in subsets:
            tab = _Tableau(props, n, TableauTrace())
            b = _Branch()
            for _ in range(n):
                tab.new_label(b, parent=None)
            for u, v in edges:
                tab.add_edge(b, u, v)
            closed = {(u, v) for u in range(n) for v in b.succs[u]}
            assert closed == _fixpoint_closure(n, edges, props), (n, edges, props)


@pytest.mark.parametrize("max_labels", [0, -1])
def test_a_label_budget_below_one_is_rejected(max_labels):
    with pytest.raises(ValueError, match="max_labels"):
        decide(_f("~box p"), K, max_labels=max_labels)


# --- cross-checking against the bounded finder ----------------------------------


def test_cross_check_agreeing_invalid():
    report = cross_check(_f("dia box p -> box dia p"), K, 3)
    assert isinstance(report, CrossCheckReport)
    assert report.tableau_valid is False
    assert report.finder_found is True
    assert report.consistent


def test_cross_check_agreeing_valid():
    report = cross_check(_f("dia box p -> box dia p"), KB, 4)
    assert report.tableau_valid is True
    assert report.finder_found is False
    assert report.consistent


def test_cross_check_reports_a_finder_over_the_slab_budget():
    sig = Signature(("p", "q", "r"))
    f = parse("~(p & q & r & dia (p & ~q & ~r) & dia (~p & q & ~r)"
              " & dia (~p & ~q & r))", sig)
    report = cross_check(f, K, 4)
    assert report.finder_found is None
    assert report.tableau_valid is False
    assert report.consistent
    assert report.detail.startswith("finder: ")


def test_cross_check_falsum():
    report = cross_check(_f("false"), K, 2)
    assert report.tableau_valid is False and report.finder_found is True
    assert report.consistent


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(formulas(sig=SIG_P, max_leaves=5), st.sampled_from([l.name for l in ALL_LOGICS]))
def test_verdicts_agree_with_bounded_search(f, logic_name):
    logic = Logic.from_name(logic_name)
    if FrameProperty.TRANSITIVE in logic.frame_properties:
        # loop-checked extraction answers these without the bounded search
        with mock.patch("modalkit.decide.find_countermodel", _no_fallback):
            result = decide(f, logic)
    else:
        result = decide(f, logic)
    found = find_countermodel(f, logic.frame_properties, 3, SIG_P)
    if isinstance(result, Valid):
        assert found is None
    else:
        m, w = result.model, result.world
        assert eval_deep(m, w, f) is False
        # the finder must agree that something falsifies f if it can see
        # a model at least as large as the tableau's
        if m.n_worlds <= 3:
            assert found is not None
