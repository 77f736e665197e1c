"""Acceptance gate: the seven headline checks, one test and one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines with timings.  Every check here re-derives its verdict from
scratch; nothing is stubbed or cached.
"""

import copy
import time
from contextlib import contextmanager

from modalkit.classify import classify_corpus
from modalkit.correspond import (
    CounterFrame,
    Holds,
    correspondence_check,
    loeb_suite,
    sahlqvist_suite,
)
from modalkit.countermodel import find_countermodel
from modalkit.decide import cross_check
from modalkit.hilbert import (
    CORPUS_NAMES,
    SCHEMAS,
    AxiomSchemaId,
    AxStep,
    Logic,
    MpStep,
    check_proof,
    corpus_proof,
)
from modalkit.kripke import FrameProperty, eval_deep, has_property
from modalkit.syntax import Box, Implies, Signature, parse
from modalkit.translate import check_faithfulness
from modalkit.classify import corpus

from conftest import unguarded_min

SIG = Signature(("p", "q"))


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"ACCEPTANCE {number}: FAIL - {description} ({elapsed:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s"
    )


def test_criterion_1_classification_table():
    expected = {
        "F1": {"K4"},
        "F2": {"KB"},
        "F3": {"KB4"},
        "F4": {"KB", "K4"},
        "F5": {"K4"},
        "F6": {"KB4"},
        "F7": {"KB4"},
        "F8": {"KT", "KB"},
        "F9": {"KT"},
        "F10": {"KT"},
    }
    with criterion(1, "ten-formula classification table, exact set equality", 60):
        table = classify_corpus()
        got = {name: {l.name for l in res.minimal} for name, res in table}
        assert got == expected
        assert not any(res.partial for _, res in table)


def test_criterion_2_faithfulness_grid():
    with criterion(2, "faithfulness grid depth 3, 3 worlds, 2 atoms + mutation", 300):
        report = check_faithfulness(SIG, max_depth=3, max_worlds=3)
        for check in report.checks:
            assert check.violation_count == 0, check.render()
        assert report.ok
        # closed form over the 15,130 formulas: each slab of n worlds holds
        # 2**(n*n + 2*n) models, truth is checked at every designated world
        # and the minimal route on the whole-domain slabs only
        assert {c.name: c.instances for c in report.checks} == {
            "truth-deep-max": 5_964_972_240,
            "validity-deep-max": 3_482_199_760,
            "truth-deep-min": 1_495_207_120,
            "truth-max-min": 1_495_207_120,
        }

        # mutation: strip the accessibility guard from the minimal route
        mutated = check_faithfulness(Signature(("p",)), 2, 2, translate_min_fn=unguarded_min)
        assert mutated.by_name("truth-deep-min").violation_count >= 1


def test_criterion_3_countermodel_reproduction():
    with criterion(3, "reflexive transitivity countermodel + modal collapse", 10):
        f = parse("box p -> box box p", SIG)
        found = find_countermodel(f, {FrameProperty.REFLEXIVE}, 3, SIG)
        assert found is not None
        model, world = found
        assert model.n_worlds == 3
        assert has_property(model, FrameProperty.REFLEXIVE)
        assert eval_deep(model, world, f) is False
        assert find_countermodel(f, {FrameProperty.REFLEXIVE}, 2, SIG) is None

        collapse = parse("p -> box p", SIG)
        found = find_countermodel(collapse, set(), 2, SIG)
        assert found is not None
        assert found[0].n_worlds == 2
        assert eval_deep(found[0], found[1], collapse) is False


def test_criterion_4_sahlqvist_suite():
    with criterion(4, "schema/property correspondences at bound 4", 30):
        for name, result in sahlqvist_suite(4):
            assert isinstance(result, Holds), name
        mismatch = correspondence_check(
            SCHEMAS[AxiomSchemaId.FOUR], FrameProperty.REFLEXIVE, 4)
        assert isinstance(mismatch, CounterFrame)


def test_criterion_5_loeb_suite():
    with criterion(5, "provability-logic frame facts at bound 4", 120):
        reports = loeb_suite(4)
        assert [r.name for r in reports] == [
            "transitive+cwf-implies-loeb",
            "loeb-implies-cwf",
            "loeb-implies-irreflexive",
            "loeb-implies-transitive",
        ]
        for report in reports:
            assert report.violation_count == 0, report.render()
            assert report.instances == 66066


def _corpus_mutations(proof):
    """Four damaged copies of a good proof, each off by one step element."""
    out = []

    swapped = copy.deepcopy(proof)
    first_ax = next(s for s in swapped.steps if isinstance(s, AxStep))
    first_ax.schema = (AxiomSchemaId.H3 if first_ax.schema is not AxiomSchemaId.H3
                       else AxiomSchemaId.H1)
    out.append(swapped)

    rebound = copy.deepcopy(proof)
    ax = next(s for s in rebound.steps if isinstance(s, AxStep) and s.subst)
    key = next(iter(ax.subst))
    ax.subst[key] = Box(ax.subst[key])
    out.append(rebound)

    crossed = copy.deepcopy(proof)
    mp = next(s for s in crossed.steps if isinstance(s, MpStep))
    mp.premise, mp.implication = mp.implication, mp.premise
    out.append(crossed)

    retargeted = copy.deepcopy(proof)
    retargeted.conclusion = Implies(proof.conclusion, proof.conclusion)
    out.append(retargeted)

    return out


def test_criterion_6_hilbert_corpus():
    with criterion(6, "bundled proofs check; 12 single-step mutations rejected", 10):
        k = Logic.from_name("K")
        rejected = 0
        for name in CORPUS_NAMES:
            proof = corpus_proof(name)
            assert check_proof(proof, k).ok, name
            for bad in _corpus_mutations(proof):
                result = check_proof(bad, k)
                assert not result.ok, f"{name} mutation slipped through"
                rejected += 1
        assert rejected == 12


def test_criterion_7_prover_finder_agreement():
    with criterion(7, "decide vs bounded search on 10 formulas x 8 logics", 300):
        from modalkit.hilbert import ALL_LOGICS

        for name, f in corpus():
            for logic in ALL_LOGICS:
                report = cross_check(f, logic, 4)
                assert report.consistent, (name, logic.name, report.detail)
                assert report.tableau_valid is not None, (name, logic.name)
