"""Translations into the explicit first-order core and the faithfulness grid."""

from collections import Counter
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings

from modalkit import bitgrid, translate
from modalkit.bitgrid import ModelSlab
from modalkit.cli import main
from modalkit.kripke import KripkeModel, eval_deep
from modalkit.reporting import CheckReport, Violation
from modalkit.syntax import (
    CImp,
    CNot,
    ForallWorld,
    Not,
    PredR,
    PredV,
    PredW,
    Signature,
    desugar,
    enumerate_formulas,
    parse,
    pretty,
    print_core,
)
from modalkit.translate import (
    CHECK_NAMES,
    CHECK_TRUTH_DEEP_MAX,
    CHECK_TRUTH_DEEP_MIN,
    CHECK_TRUTH_MAX_MIN,
    CHECK_VALIDITY_DEEP_MAX,
    check_faithfulness,
    translate_max,
    translate_min,
)

from conftest import (SIG_P, SIG_PQ, CoreEnv, enumerate_models, eval_core, formulas, models,
                      unguarded_min)


def _core(text, sig=SIG_P):
    return desugar(parse(text, sig), sig)


def test_max_translation_of_box_is_doubly_guarded():
    c = translate_max(_core("box p"))
    assert c == ForallWorld("v0", CImp(PredW("v0"), CImp(PredR("w", "v0"), PredV("p", "v0"))))
    assert print_core(c) == "∀v0. W(v0) -> (R(w,v0) -> V(p,v0))"


def test_min_translation_of_box_has_no_worlds_guard():
    c = translate_min(_core("box p"))
    assert c == ForallWorld("v0", CImp(PredR("w", "v0"), PredV("p", "v0")))
    assert print_core(c) == "∀v0. R(w,v0) -> V(p,v0)"


def test_atom_and_negation_translate_homomorphically():
    assert translate_max(_core("p")) == PredV("p", "w")
    assert translate_max(_core("~p")) == CNot(PredV("p", "w"))
    assert translate_min(_core("q", SIG_PQ)) == PredV("q", "w")


def test_nested_boxes_get_fresh_variables():
    c = translate_min(_core("box box p"))
    assert print_core(c) == "∀v0. R(w,v0) -> (∀v1. R(v0,v1) -> V(p,v1))"
    # the name comes from the box depth, so sibling boxes share it
    c = translate_min(_core("box p -> box box p"))
    assert print_core(c) == (
        "(∀v0. R(w,v0) -> V(p,v0)) -> (∀v0. R(w,v0) -> (∀v1. R(v0,v1) -> V(p,v1)))")


def test_shared_memo_gives_the_same_forms_and_shares_subforms():
    left, right = _core("box (p -> q) -> ~p", SIG_PQ), _core("~box (p -> q)", SIG_PQ)
    for translate in (translate_max, translate_min):
        memo: dict = {}
        shared = [translate(f, memo=memo) for f in (left, right)]
        assert shared == [translate(left), translate(right)]
        # box (p -> q) is one object in both translations
        assert shared[0].left is shared[1].body


def _count_nodes(c, kind):
    t = type(c)
    n = 1 if t is kind else 0
    if t is CNot:
        return n + _count_nodes(c.body, kind)
    if t is CImp:
        return n + _count_nodes(c.left, kind) + _count_nodes(c.right, kind)
    if t is ForallWorld:
        return n + _count_nodes(c.body, kind)
    return n


@given(formulas(core_only=True))
def test_one_quantifier_per_box(f):
    from modalkit.syntax import Box

    def boxes(g):
        t = type(g)
        if t is Box:
            return 1 + boxes(g.body)
        if hasattr(g, "body"):
            return boxes(g.body)
        if hasattr(g, "left"):
            return boxes(g.left) + boxes(g.right)
        return 0

    assert _count_nodes(translate_max(f), ForallWorld) == boxes(f)
    assert _count_nodes(translate_min(f), PredW) == 0


def test_sugared_input_is_rejected():
    with pytest.raises(ValueError):
        translate_max(parse("dia p", SIG_P))
    with pytest.raises(ValueError):
        translate_min(parse("p & q", SIG_PQ))


# --- core evaluation ---------------------------------------------------------


@pytest.fixture
def loop_model():
    return KripkeModel(
        3,
        worlds=[0, 1, 2],
        rel=[(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (2, 0)],
        val={"p": [0, 2]},
        sig=SIG_P,
    )


def test_min_route_on_loop_model(loop_model):
    c = translate_min(_core("box p"))
    assert eval_core(c, CoreEnv(loop_model, {"w": 2})) is True


def test_max_route_reproduces_falsification(loop_model):
    c = translate_max(_core("box p -> box box p"))
    assert eval_core(c, CoreEnv(loop_model, {"w": 2})) is False


def test_atom_predicate_lookup(loop_model):
    assert eval_core(PredV("p", "w"), CoreEnv(loop_model, {"w": 1})) is False
    assert eval_core(PredV("p", "w"), CoreEnv(loop_model, {"w": 0})) is True


def test_unbound_variable_raises(loop_model):
    with pytest.raises(ValueError):
        eval_core(PredV("p", "z"), CoreEnv(loop_model, {"w": 0}))


def test_unknown_atom_raises(loop_model):
    with pytest.raises(ValueError):
        eval_core(PredV("q", "w"), CoreEnv(loop_model, {"w": 0}))


@given(models(max_worlds=3), formulas(max_leaves=6))
def test_max_route_agrees_with_structural_evaluation(m, f):
    c = translate_max(desugar(f, m.sig))
    for w in sorted(m.worlds):
        assert eval_core(c, CoreEnv(m, {"w": w})) == eval_deep(m, w, f)


@given(models(max_worlds=3, full_designated=True), formulas(max_leaves=6))
def test_min_route_agrees_when_every_world_is_designated(m, f):
    c = translate_min(desugar(f, m.sig))
    for w in sorted(m.worlds):
        assert eval_core(c, CoreEnv(m, {"w": w})) == eval_deep(m, w, f)


# --- the faithfulness grid ---------------------------------------------------

# For one atom at depth 2 there are 25 formulas.  Model slabs up to two
# worlds: n=1 holds 4 models; each of the three designated subsets of n=2
# holds 64.  Truth instances therefore come to
#   25*(1*4 + 1*64 + 1*64 + 2*64) = 6500,
# validity instances to 25*(4 + 3*64) = 4900, and the two minimal-route
# checks each see the fully designated slabs only: 25*(1*4 + 2*64) = 3300.
_EXPECTED_INSTANCES = {
    CHECK_TRUTH_DEEP_MAX: 6500,
    CHECK_VALIDITY_DEEP_MAX: 4900,
    CHECK_TRUTH_DEEP_MIN: 3300,
    CHECK_TRUTH_MAX_MIN: 3300,
}


def test_small_grid_is_clean():
    report = check_faithfulness(SIG_P, 2, 2)
    assert report.ok
    for name in CHECK_NAMES:
        check = report.by_name(name)
        assert check.violation_count == 0
        assert check.instances == _EXPECTED_INSTANCES[name]
        assert check.examples == []


def test_two_atom_grid_is_clean():
    report = check_faithfulness(SIG_PQ, 2, 2)
    assert report.ok


def test_report_render_lists_every_check():
    report = check_faithfulness(SIG_P, 1, 1)
    text = report.render()
    for name in CHECK_NAMES:
        assert name in text
    with pytest.raises(KeyError):
        report.by_name("no-such-check")


def test_dropping_the_r_guard_is_caught():
    report = check_faithfulness(SIG_P, 2, 2, translate_min_fn=unguarded_min)
    assert not report.ok
    assert report.by_name(CHECK_TRUTH_DEEP_MIN).violation_count > 0
    assert report.by_name(CHECK_TRUTH_MAX_MIN).violation_count > 0
    # the max route is untouched
    assert report.by_name(CHECK_TRUTH_DEEP_MAX).violation_count == 0
    assert report.by_name(CHECK_VALIDITY_DEEP_MAX).violation_count == 0
    ex = report.by_name(CHECK_TRUTH_DEEP_MIN).examples[0]
    assert ex.check == CHECK_TRUTH_DEEP_MIN and ex.formula
    lines = report.by_name(CHECK_TRUTH_DEEP_MIN).render().splitlines()
    assert lines[3] == "  formula: box p; worlds=1 in=[0] rel=[] val[p@[]]; world: 0"


def test_swapping_max_for_min_is_caught():
    report = check_faithfulness(SIG_P, 2, 2, translate_max_fn=translate_min)
    assert not report.ok
    # only partially designated slabs can tell the two routes apart, so the
    # damage is confined to the checks that visit them
    assert report.by_name(CHECK_TRUTH_DEEP_MAX).violation_count == 166
    assert report.by_name(CHECK_VALIDITY_DEEP_MAX).violation_count > 0
    assert report.by_name(CHECK_TRUTH_DEEP_MIN).violation_count == 0
    assert report.by_name(CHECK_TRUTH_MAX_MIN).violation_count == 0


# --- the grid against a scalar reference ---------------------------------------


@cache
def _scalar_models(sig, n, designated):
    """enumerate_models in canonical order, with the designated set replaced."""
    return [KripkeModel(n, designated, m.rel, m.val, sig)
            for m in enumerate_models(n, sig.atoms)]


@cache
def _scalar_truths(route, sig, n, designated, f):
    """Truth of f at each designated world, model by model, along a route:
    None for eval_deep, else a translation read by eval_core."""
    models = _scalar_models(sig, n, designated)
    if route is None:
        return {w: [eval_deep(m, w, f) for m in models] for w in designated}
    c = route(f)
    return {w: [eval_core(c, CoreEnv(m, {"w": w})) for m in models] for w in designated}


def _scalar_report(sig, route_max, route_min, max_depth, max_worlds):
    """check_faithfulness recomputed one model at a time from
    enumerate_models, eval_deep and eval_core, sharing no code with
    ModelSlab.  Examples are the first violating model of each (formula,
    world), in slab, formula and world order, ten per check."""
    checks = {name: CheckReport(name, 0, 0) for name in CHECK_NAMES}

    def compare(name, f, models, w, left, right):
        bad = [m for m, x, y in zip(models, left, right) if x != y]
        check = checks[name]
        check.instances += len(models)
        check.violation_count += len(bad)
        if bad and len(check.examples) < 10:
            check.examples.append(Violation(name, pretty(f), bad[0].describe(), w))

    for n in range(1, max_worlds + 1):
        for bits in range(1, 1 << n):
            ds = tuple(w for w in range(n) if bits >> w & 1)
            models = _scalar_models(sig, n, ds)
            for f in enumerate_formulas(sig, max_depth):
                deep = _scalar_truths(None, sig, n, ds, f)
                tmax = _scalar_truths(route_max, sig, n, ds, f)
                for w in ds:
                    compare(CHECK_TRUTH_DEEP_MAX, f, models, w, deep[w], tmax[w])
                compare(CHECK_VALIDITY_DEEP_MAX, f, models, None,
                        [all(t) for t in zip(*deep.values())],
                        [all(t) for t in zip(*tmax.values())])
                if len(ds) == n:
                    tmin = _scalar_truths(route_min, sig, n, ds, f)
                    for w in ds:
                        compare(CHECK_TRUTH_DEEP_MIN, f, models, w, deep[w], tmin[w])
                        compare(CHECK_TRUTH_MAX_MIN, f, models, w, tmax[w], tmin[w])
    return [checks[name] for name in CHECK_NAMES]


@pytest.mark.parametrize("sig, max_depth, max_worlds", [
    (SIG_P, 2, 2), (SIG_PQ, 2, 2),
    # every formula is top-depth
    (SIG_P, 0, 2), (SIG_PQ, 0, 2),
    # top-depth boxes step into designated sets of two of three worlds
    (SIG_P, 1, 3),
], ids=["p", "pq", "p-depth-0-2-worlds", "pq-depth-0-2-worlds", "p-depth-1-3-worlds"])
@pytest.mark.parametrize("routes", [
    (translate_max, translate_min, {}),
    (translate_max, unguarded_min, {"translate_min_fn": unguarded_min}),
    (translate_min, translate_min, {"translate_max_fn": translate_min}),
], ids=["own", "unguarded-min", "min-as-max"])
def test_grid_matches_the_scalar_reference(sig, max_depth, max_worlds, routes):
    route_max, route_min, injected = routes
    report = check_faithfulness(sig, max_depth, max_worlds, **injected)
    # the mutants leave examples to compare, except on atoms alone
    assert report.ok == (not injected or max_depth == 0)
    assert report.checks == _scalar_report(sig, route_max, route_min, max_depth, max_worlds)


def test_a_fault_of_the_own_translation_at_top_depth_only_is_caught(monkeypatch):
    g = _core("p -> ~p")  # box-free and of depth 2, so ~g is top-depth at 3
    target = translate_max(g)
    assert target == translate_min(g)

    def faulty_not(body):
        return body if body == target else CNot(body)

    monkeypatch.setattr(translate, "CNot", faulty_not)
    assert check_faithfulness(SIG_P, 2, 1).ok  # g itself translates soundly
    report = check_faithfulness(SIG_P, 3, 1)
    # ~g is read as g on each of the 4 one-world models
    assert [c.violation_count for c in report.checks] == [4, 4, 4, 0]
    assert report.by_name(CHECK_TRUTH_DEEP_MAX).examples[0].formula == pretty(Not(g))


# --- grid memory and resource bounds ------------------------------------------------


def test_slab_memos_hold_no_top_depth_formula(monkeypatch):
    memos, sizes = {}, []  # (kind, memo) by id, and (kind, size) at each call

    def seen(kind, memo):
        memos[id(memo)] = (kind, memo)
        sizes.append((kind, len(memo)))

    def wrap_core(core_truth):
        def wrapper(self, c, binding, memo):
            seen("core", memo)
            return core_truth(self, c, binding, memo)
        return wrapper

    def wrap_translation(translation):
        def wrapper(f, *, memo):
            seen("translation", memo)
            return translation(f, memo=memo)
        return wrapper

    monkeypatch.setattr(ModelSlab, "core_truth", wrap_core(ModelSlab.core_truth))
    for name in ("translate_max", "translate_min"):
        monkeypatch.setattr(translate, name, wrap_translation(getattr(translate, name)))
    assert check_faithfulness(SIG_PQ, 3, 1).ok
    assert sorted(kind for kind, _ in memos.values()) == ["core"] * 2 + ["translation"] * 2
    lower = enumerate_formulas(SIG_PQ, 2)
    top = enumerate_formulas(SIG_PQ, 3)[len(lower):]
    top_forms = {tr(f) for f in top for tr in (translate_max, translate_min)}
    for kind, memo in memos.values():
        forbidden = set(top) if kind == "translation" else top_forms
        assert not forbidden & {key for key, _ in memo}
    # lower formulas at box depths 0-3 (atoms only at 3, which the core memo
    # does not store), at the one world
    assert max(size for kind, size in sizes if kind == "translation") <= len(lower) * 4
    assert max(size for kind, size in sizes if kind == "core") <= len(lower) * 3 * 1


@pytest.mark.parametrize("injected", [{}, {"translate_min_fn": unguarded_min}],
                         ids=["own", "unguarded-min"])
def test_every_memo_is_cut_back_after_each_top_depth_formula(monkeypatch, injected):
    memos = {}  # every memo the grid passed, by id; keeping them keeps the ids unique
    at_top = {}  # per slab (kept alive too), memo sizes at each top formula

    def seen(memo):
        memos[id(memo)] = memo

    # the hooks sit where both passes enter: the lower pass through the
    # public wrappers, the top pass directly
    def wrap_deep(deep):
        def wrapper(self, f, w, memo, *args):
            seen(memo)
            if f in top and w == min(self.designated):  # f's first call
                at_top.setdefault(self, []).append(
                    {key: len(m) for key, m in memos.items()})
            return deep(self, f, w, memo, *args)
        return wrapper

    def wrap_core(core):
        def wrapper(self, c, binding, memo, *args):
            seen(memo)
            return core(self, c, binding, memo, *args)
        return wrapper

    def wrap_translation(translation):
        def wrapper(g, depth, guarded, memo, *args):
            seen(memo)
            return translation(g, depth, guarded, memo, *args)
        return wrapper

    monkeypatch.setattr(ModelSlab, "_deep", wrap_deep(ModelSlab._deep))
    monkeypatch.setattr(ModelSlab, "_core", wrap_core(ModelSlab._core))
    monkeypatch.setattr(translate, "_translate", wrap_translation(translate._translate))
    top = set(enumerate_formulas(SIG_P, 3)) - set(enumerate_formulas(SIG_P, 2))
    report = check_faithfulness(SIG_P, 3, 2, **injected)
    assert report.ok == (not injected)
    final = {key: len(m) for key, m in memos.items()}
    assert len(at_top) == 4  # one entry per slab
    for sizes in at_top.values():
        first = sizes[0]
        assert len(sizes) == len(top)
        assert any(first.values())  # the lower formulas filled the memos
        for later in [*sizes[1:], final]:
            assert {key: later[key] for key in first} == first


@pytest.mark.parametrize("max_worlds, per_route", [
    # 11 slabs, but the forms built on the first are kept
    (3, {True: 1, False: 1}),
    # 4 slabs, 2 of them totally designated, and nothing kept
    (2, {True: 4, False: 2}),
])
def test_top_depth_formulas_are_translated_once_from_three_worlds(monkeypatch, max_worlds,
                                                                  per_route):
    top_calls = Counter()  # by guarded, i.e. by route
    own = translate._translate

    def counted(g, depth, guarded, memo, scratch=None, top=False):
        top_calls[guarded] += top
        return own(g, depth, guarded, memo, scratch, top)

    monkeypatch.setattr(translate, "_translate", counted)
    assert check_faithfulness(SIG_P, 3, max_worlds).ok
    n_top = len(enumerate_formulas(SIG_P, 3)) - len(enumerate_formulas(SIG_P, 2))
    assert top_calls == {guarded: n * n_top for guarded, n in per_route.items()}


def test_an_injected_translation_is_called_once_per_top_depth_formula():
    calls = Counter()

    def counted_min(f):
        calls[f] += 1
        return unguarded_min(f)

    assert not check_faithfulness(SIG_P, 3, 3, translate_min_fn=counted_min).ok
    lower = enumerate_formulas(SIG_P, 2)
    top = enumerate_formulas(SIG_P, 3)[len(lower):]
    # a lower formula is translated on each of the 3 totally designated slabs
    assert calls == {**{f: 3 for f in lower}, **{f: 1 for f in top}}


def test_grid_is_refused_before_any_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr("modalkit.translate.enumerate_formulas", refuse)
    monkeypatch.setattr("modalkit.bitgrid.ModelSlab", refuse)
    for argv, message in [
        (["--max-worlds", "5", "--depth", "3"],
         "a grid of depth 3 over 1 atoms and up to 5 worlds needs at least 4.12e+12 units"),
        (["--depth", "4", "--atoms", "2"],
         "a grid of depth 4 over 2 atoms and up to 2 worlds needs at least 9.00e+14 units"),
        (["--depth", "1000000000"],
         "a grid of depth 1000000000 over 1 atoms and up to 2 worlds needs at least "
         "8.26e+17 units"),
        (["--depth", "2", "--max-worlds", "3", "--atoms", "5"],
         "a grid of depth 2 over 5 atoms and up to 3 worlds needs at least 4.08e+12 units"),
        (["--depth", "4", "--max-worlds", "3"],
         "a grid of depth 4 over 1 atoms and up to 3 worlds needs at least 6.13e+12 units"),
        (["--depth", "2", "--max-worlds", "1000000"],
         "a grid of depth 2 over 1 atoms and up to 1000000 worlds needs at least "
         "1.01e+16 units"),
    ]:
        assert main(["faithful", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: resource limit exceeded: {message} of work, over the "
                       "budget of 3e+12\n")


def test_a_grid_that_checks_nothing_is_refused():
    # argparse bounds --depth and --max-worlds; the library checks them itself
    with pytest.raises(ValueError, match="max_depth must be at least 0"):
        check_faithfulness(SIG_P, -1, 2)
    with pytest.raises(ValueError, match="max_worlds must be at least 1"):
        check_faithfulness(SIG_P, 2, 0)


def test_grids_in_tiles_of_sixteen_models_equal_the_default_ones(monkeypatch):
    # one atom on up to three worlds fits one slab per designated set at
    # the default tile size; in tiles of 16 models two worlds take 4 slabs
    # and three worlds 256
    def run():
        return [check_faithfulness(SIG_P, 1, 3),
                check_faithfulness(SIG_P, 2, 3, translate_min_fn=unguarded_min)]

    default = run()
    taken = Counter()
    check_slab = translate._check_slab

    def counted(slab, *args):
        taken[slab.n, slab.designated] += 1
        check_slab(slab, *args)

    monkeypatch.setattr(bitgrid, "TILE_BITS", 4)
    monkeypatch.setattr(translate, "_check_slab", counted)
    assert run() == default
    assert not default[1].ok
    assert taken == {(n, frozenset(designated)): 2 * {1: 1, 2: 4, 3: 256}[n]
                     for n in range(1, 4) for k in range(1, n + 1)
                     for designated in combinations(range(n), k)}


def test_formula_count_is_the_enumeration_length():
    for atoms in (SIG_P, SIG_PQ):
        for depth in range(4):
            count = translate._formula_count(len(atoms.atoms), depth, 10**9)
            assert count == len(enumerate_formulas(atoms, depth))


def test_one_form_of_each_class_golden():
    # (build, repr, print_core); each form is built twice
    golden = [
        (lambda: PredW("v0"), "PredW('v0')", "W(v0)"),
        (lambda: PredR("w", "v0"), "PredR('w', 'v0')", "R(w,v0)"),
        (lambda: PredV("p", "v0"), "PredV('p', 'v0')", "V(p,v0)"),
        (lambda: CNot(PredV("p", "w")), "CNot(PredV('p', 'w'))", "~V(p,w)"),
        (lambda: CImp(PredW("v0"), PredV("q", "v0")),
         "CImp(PredW('v0'), PredV('q', 'v0'))", "W(v0) -> V(q,v0)"),
        (lambda: ForallWorld("v0", CImp(PredR("w", "v0"), PredV("p", "v0"))),
         "ForallWorld('v0', CImp(PredR('w', 'v0'), PredV('p', 'v0')))",
         "∀v0. R(w,v0) -> V(p,v0)"),
    ]
    for build, rep, text in golden:
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert repr(a) == rep
        assert print_core(a) == str(a) == text
    assert PredR("w", "v0") != PredR("v0", "w")
    assert PredV("p", "w") != PredV("q", "w")
