"""The ten-formula study table: weakest proving logics across the cube.

The full expected table is frozen below.  It was established by running the
bounded model finder (bound 4) as an independent oracle against the tableau
on all 80 formula/logic pairs; the two never disagreed, and the resulting
minimal antichains are what this file pins down.
"""

import pytest

from modalkit.classify import (
    CORPUS_SIGNATURE,
    ClassificationError,
    ClassificationResult,
    classify,
    classify_corpus,
    corpus,
    render_table,
)
from modalkit.countermodel import find_countermodel
from modalkit.decide import Invalid, Valid
from modalkit.errors import ResourceLimitExceeded
from modalkit.hilbert import ALL_LOGICS, Logic
from modalkit.kripke import eval_deep, has_property
from modalkit.syntax import Signature, parse, pretty

_EXPECTED_MINIMAL = {
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

# every logic whose schema set contains a minimal entry's schemata
_EXPECTED_VALID_COUNT = 38


@pytest.fixture(scope="module")
def table():
    return classify_corpus()


def test_corpus_contents():
    rows = corpus()
    assert [name for name, _ in rows] == [f"F{i}" for i in range(1, 11)]
    by_name = dict(rows)
    assert pretty(by_name["F2"]) == "dia box p -> box dia p"
    assert pretty(by_name["F6"]) == "box (p -> q) & dia box ~q -> ~dia q"


def test_minimal_antichains_match_the_study(table):
    got = {name: {l.name for l in res.minimal} for name, res in table}
    assert got == _EXPECTED_MINIMAL


def test_total_valid_pair_count(table):
    assert sum(len(res.valid_logics) for _, res in table) == _EXPECTED_VALID_COUNT


def test_no_partial_results_on_the_corpus(table):
    assert not any(res.partial for _, res in table)


def test_minimal_sets_are_antichains(table):
    for _, res in table:
        for a in res.minimal:
            for b in res.minimal:
                if a is not b:
                    assert not a.schemata < b.schemata


def test_validity_is_upward_closed(table):
    for _, res in table:
        valid = set(res.valid_logics)
        for weaker in valid:
            for stronger in ALL_LOGICS:
                if weaker.schemata < stronger.schemata:
                    assert stronger in valid, (pretty(res.formula), stronger.name)


def test_every_minimal_logic_is_valid_and_floor(table):
    for _, res in table:
        valid = set(res.valid_logics)
        assert set(res.minimal) <= valid
        for l in valid:
            assert any(m.schemata <= l.schemata for m in res.minimal)


def test_invalid_evidence_is_a_real_countermodel(table):
    for name, res in table:
        for logic in ALL_LOGICS:
            v = res.evidence[logic.name]
            if isinstance(v, Invalid):
                assert v.model.n_worlds <= 4, (name, logic.name)
                assert eval_deep(v.model, v.world, res.formula) is False
                for prop in logic.frame_properties:
                    assert has_property(v.model, prop)


def test_classify_single_formula():
    res = classify(parse("box p -> p", CORPUS_SIGNATURE))
    assert isinstance(res, ClassificationResult)
    assert {l.name for l in res.minimal} == {"KT"}
    assert {l.name for l in res.valid_logics} == {"KT", "KTB", "S4", "S5"}


def test_classify_tautology_is_minimal_at_k():
    res = classify(parse("p -> p", CORPUS_SIGNATURE))
    assert [l.name for l in res.minimal] == ["K"]
    assert len(res.valid_logics) == 8


def test_classify_unprovable_formula_has_empty_antichain():
    res = classify(parse("box p", CORPUS_SIGNATURE))
    assert res.minimal == ()
    assert res.valid_logics == ()


def test_render_table_layout(table):
    text = render_table(table)
    lines = text.splitlines()
    assert len(lines) == 11
    header = lines[0]
    for name in ("name", "formula", "K", "KT", "S5", "minimal"):
        assert name in header
    # spot-check the F2 row: valid exactly in KB, KTB, KB4, S5
    f2 = next(l for l in lines if l.startswith("F2 "))
    assert f2.count("✓") == 4 and f2.count("✗") == 4
    assert f2.rstrip().endswith("KB")
    assert text.endswith("\n")


def test_render_table_empty():
    assert render_table([]).startswith("name")


def test_monotonicity_violations_raise(monkeypatch):
    # a prover claiming K-validity but KT-invalidity must be reported as a
    # bug, not rendered into a table
    import importlib

    from modalkit.decide import TableauTrace
    from modalkit.kripke import KripkeModel
    from modalkit.syntax import Signature

    dummy = KripkeModel(1, [0], [], {"p": [0]}, Signature(("p",)))

    def broken(f, logic, *, sig=None, max_labels=64):
        if logic.name == "K":
            return Valid(TableauTrace(1, 1))
        return Invalid(dummy, 0)

    # the package re-exports a function named classify, so fetch the module
    module = importlib.import_module("modalkit.classify")
    monkeypatch.setattr(module, "decide", broken)
    with pytest.raises(ClassificationError):
        module.classify(parse("p -> p", CORPUS_SIGNATURE))


def test_verdict_keeps_the_tableau_model_when_the_search_is_over_budget():
    from modalkit.classify import _verdict

    # every countermodel needs four worlds, and the search over the 4-world
    # frames with six atoms is refused by the work budget
    sig = Signature(("p", "q", "r", "s", "t", "u"))
    f = parse("~(p & q & r & s & t & u & dia (p & ~q & ~r) & dia (~p & q & ~r)"
              " & dia (~p & ~q & r))", sig)
    with pytest.raises(ResourceLimitExceeded):
        find_countermodel(f, set(), 4, sig)
    result = _verdict(f, Logic.from_name("K"), sig)
    assert isinstance(result, Invalid)
    assert result.model.n_worlds >= 4
    assert eval_deep(result.model, result.world, f) is False
