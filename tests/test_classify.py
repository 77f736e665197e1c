"""The ten-formula study table: weakest proving logics across the cube.

The full expected table is frozen below.  It was established by running the
bounded model finder (bound 4) as an independent oracle against the tableau
on all 80 formula/logic pairs; the two never disagreed, and the resulting
minimal antichains are what this file pins down.
"""

import pytest

from modalkit import bitgrid
from modalkit.classify import (
    CORPUS_SIGNATURE,
    ClassificationError,
    ClassificationResult,
    classify,
    classify_corpus,
    corpus,
    render_table,
)
from modalkit.countermodel import find_countermodel, find_countermodels
from modalkit.decide import Invalid, TableauTrace, Valid, decide
from modalkit.errors import ResourceLimitExceeded
from modalkit.hilbert import ALL_LOGICS, Logic
from modalkit.kripke import KripkeModel, eval_deep, has_property
from modalkit.syntax import Signature, parse, pretty

from conftest import per_logic_evidence, recorded_slab_counts, seeded_formulas

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


def _synthetic(marks: str) -> ClassificationResult:
    """A result with the verdicts ✓, ✗ or ? (over the limit), one per logic
    in ALL_LOGICS order, and the minimal logics among the ✓ ones."""
    sig = Signature(("p",))
    verdict = {"✓": Valid(TableauTrace()),
               "✗": Invalid(KripkeModel(1, [0], [], {"p": []}, sig), 0), "?": None}
    evidence = {l.name: verdict[m] for l, m in zip(ALL_LOGICS, marks.split())}
    valid = [l for l in ALL_LOGICS if isinstance(evidence[l.name], Valid)]
    minimal = tuple(l for l in valid
                    if not any(o.frame_properties < l.frame_properties for o in valid))
    return ClassificationResult(parse("p", sig), minimal, evidence)


@pytest.mark.parametrize("marks, cell", [
    ("✓ ✓ ✓ ✓ ✓ ✓ ✓ ✓", "K"),
    ("✗ ✗ ✗ ✗ ✗ ✗ ✗ ✗", "-"),
    # every unknown logic is strictly above valid K, so valid and not minimal
    ("✓ ? ? ? ? ? ? ?", "K"),
    # unknown K4 is strictly below invalid KB4, so invalid
    ("✗ ✓ ✗ ? ✓ ✓ ✗ ✓", "KT"),
    ("✗ ✗ ✗ ? ✗ ✗ ✗ ✗", "-"),
    # unknown K4 and S4 are above no valid and below no invalid logic
    ("✗ ✗ ✓ ? ? ? ? ?", "?"),
    ("✗ ✗ ✗ ✗ ✗ ✗ ✗ ?", "?"),
    ("? ? ? ? ? ? ? ?", "?"),
], ids=lambda v: v.replace("✓", "v").replace("✗", "x").replace(" ", ""))
def test_render_table_minimal_cell_with_unknown_verdicts(
        marks, cell):
    row = render_table([("F", _synthetic(marks))]).splitlines()[1].split()
    assert row[-9:] == marks.split() + [cell]


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


def test_verdict_keeps_the_tableau_model_when_the_search_is_over_budget(monkeypatch):
    # every countermodel needs four worlds, and K's search over the 4-world
    # frames with six atoms is refused by the work budget.  The lowered
    # budget refuses every other logic's own 4-world search too
    sig = Signature(("p", "q", "r", "s", "t", "u"))
    f = parse("~(p & q & r & s & t & u & dia (p & ~q & ~r) & dia (~p & q & ~r)"
              " & dia (~p & ~q & r))", sig)
    with pytest.raises(ResourceLimitExceeded):
        find_countermodel(f, set(), 4, sig)
    monkeypatch.setattr(bitgrid, "MAX_WORK", 5 * 10**10)
    res = classify(f, sig=sig)
    assert res.minimal == ()
    assert render_table([("F", res)]).count("✗") == 8
    for logic in ALL_LOGICS:
        result = res.evidence[logic.name]
        assert result == decide(f, logic, sig=sig)
        assert isinstance(result, Invalid)
        assert result.model.n_worlds >= 4
        assert eval_deep(result.model, result.world, f) is False


def test_a_refused_walk_hands_each_logic_to_its_own_search(monkeypatch):
    # box p -> box box p is invalid in K, KT, KB and KTB.  The walk answers
    # K and KB at 2 worlds; with this budget it is refused at 3, where KT
    # and KTB have their first countermodels, and so are their own searches
    sig = Signature(("p",))
    f = parse("box p -> box box p", sig)
    marks = render_table([("F", classify(f, sig=sig))])
    monkeypatch.setattr(bitgrid, "MAX_WORK", 2 * 10**7)
    invalid = [l for l in ALL_LOGICS if l.name in ("K", "KT", "KB", "KTB")]
    with pytest.raises(ResourceLimitExceeded):
        find_countermodels(f, [l.frame_properties for l in invalid], 4, sig)
    res = classify(f, sig=sig)
    assert render_table([("F", res)]) == marks
    for name in ("K", "KB"):
        # the search's model, which carries no tableau trace
        assert res.evidence[name].trace is None
    for name in ("KT", "KTB"):
        assert res.evidence[name] == decide(f, Logic.from_name(name), sig=sig)
    assert res.evidence == per_logic_evidence(f, sig)


def test_evidence_equals_each_logics_own_search_under_a_lowered_budget(monkeypatch):
    # K and K4 are answered at 2 worlds and the other six logics at 4,
    # where the walk takes the frames that are reflexive or symmetric: a
    # walk over every canonical 4-world frame would be over this budget
    sig = Signature(("p", "q", "s"))
    f = parse("~(dia box false | (s & dia (~s & p & ~q) & dia (~s & ~p & q)"
              " & dia (~s & p & q)))", sig)
    monkeypatch.setattr(bitgrid, "MAX_WORK", 2 * 10**9)
    res = classify(f, sig=sig)
    assert [res.evidence[l.name].model.n_worlds for l in ALL_LOGICS] == [2, 4, 4, 2, 4, 4, 4, 4]
    assert res.evidence == per_logic_evidence(f, sig)


def test_evidence_equals_each_logics_own_search_on_the_corpus(table):
    for name, res in table:
        assert res.evidence == per_logic_evidence(res.formula, CORPUS_SIGNATURE), name


def test_evidence_equals_each_logics_own_search_on_seeded_formulas():
    for f in seeded_formulas(24, 240):
        assert classify(f, sig=CORPUS_SIGNATURE).evidence == per_logic_evidence(
            f, CORPUS_SIGNATURE), pretty(f)


def test_the_corpus_is_classified_in_at_most_25_slabs(monkeypatch):
    classify_corpus()  # list the canonical frames first
    built = recorded_slab_counts(monkeypatch)
    classify_corpus()
    # one walk per formula; a search per Invalid logic would take 88
    assert len(built) <= 25
