"""Bounded countermodel search against its own reference enumeration."""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings

from modalkit import bitgrid, countermodel
from modalkit.bitgrid import ModelSlab, slabs
from modalkit.cli import main
from modalkit.countermodel import export_dot, find_countermodel, find_countermodels
from modalkit.errors import ResourceLimitExceeded
from modalkit.hilbert import ALL_LOGICS
from modalkit.kripke import FrameProperty, KripkeModel, eval_deep, has_property
from modalkit.syntax import Signature, desugar, parse

from conftest import (SIG_P, SIG_PQ, enumerate_models, formulas, naive_eval,
                      recorded_slab_counts, search_atoms, seeded_formulas)

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


# --- search in chunks -------------------------------------------------------------

T = FrameProperty.TRANSITIVE
S = FrameProperty.SYMMETRIC


@pytest.fixture
def tile_bits(monkeypatch):
    """Set bitgrid.TILE_BITS."""
    def set_bits(bits):
        monkeypatch.setattr(bitgrid, "TILE_BITS", bits)

    yield set_bits
    monkeypatch.undo()


_CHUNK_PROPERTY_SETS = (
    [pytest.param(set(), id="none")]
    + [pytest.param({p}, id=p.value) for p in FrameProperty]
    + [pytest.param({R, T}, id="reflexive,transitive"),
       pytest.param({S, T}, id="symmetric,transitive")]
)

# (formula, signature, world bound): one-atom probes up to 3 worlds, where
# a tile of 2**3 models holds one 3-world frame, and two-atom probes up to
# 2 worlds, where it holds one 2-world frame (4 valuation bits); some have
# no countermodel in most classes, so every chunk is searched
_CHUNK_PROBES = (
    ("p -> box p", SIG_P, 3),
    ("box p -> box box p", SIG_P, 3),
    ("dia p -> box dia p", SIG_P, 3),
    ("box (p -> q) -> box p -> box q", SIG_PQ, 2),
    ("dia (p & q) -> box (p | dia q)", SIG_PQ, 2),
    ("box p -> dia q", SIG_PQ, 2),
)


@pytest.mark.parametrize("props", _CHUNK_PROPERTY_SETS)
def test_chunked_search_keeps_the_canonical_answer(tile_bits, props):
    probes = [(parse(text, sig), sig, max_worlds) for text, sig, max_worlds in _CHUNK_PROBES]

    def search():
        return [find_countermodel(f, props, max_worlds, sig) for f, sig, max_worlds in probes]

    default = search()
    assert default == [_scalar_first_countermodel(f, props, max_worlds, sig)
                       for f, sig, max_worlds in probes]
    for bits in (3, 5, 8):
        tile_bits(bits)
        assert search() == default, bits


def test_chunked_search_cases_reach_past_the_first_chunk(tile_bits):
    tile_bits(3)
    # two frames a chunk at 2 worlds with one atom: the edge 0 -> 1 is
    # frame 2, the first of the second chunk
    m, w = find_countermodel(parse("p -> box p", SIG_P), set(), 2, SIG_P)
    assert (sorted(m.rel), w) == ([(0, 1)], 0)
    # 29 reflexive transitive 3-world frames: with one atom and tiles of
    # 2**5 models, chunks of four frames leave a partial last chunk of one
    tile_bits(5)
    assert len(bitgrid.admitted(3, {R, T})) == 29
    assert find_countermodel(parse("box p -> box box p", SIG_P), {R, T}, 3, SIG_P) is None
    f = parse("dia p -> box dia p", SIG_P)
    found = find_countermodel(f, {R, T}, 3, SIG_P)
    assert found is not None and found == _scalar_first_countermodel(f, {R, T}, 3, SIG_P)


@pytest.mark.parametrize("text, sig, props, max_worlds, bits", [
    ("box (p -> q) -> box p -> box q", SIG_PQ, set(), 4, 17),
    ("box p -> p", SIG_P, {R}, 4, 17),
    ("box p -> box box p", SIG_P, {T}, 4, 17),
    ("box p -> box box p", SIG_PQ, {R, T}, 3, 3),
    ("box (p -> q) -> box p -> box q", SIG_PQ, set(), 2, 3),
])
def test_no_search_slab_exceeds_a_tile(tile_bits, monkeypatch, text, sig, props,
                                       max_worlds, bits):
    tile_bits(bits)
    built = recorded_slab_counts(monkeypatch)
    find_countermodel(parse(text, sig), props, max_worlds, sig)
    assert built
    for n, n_atoms, count in built:
        assert count <= 1 << bits, (n, n_atoms, count)


# Runs argv, then prints its peak RSS in KiB as a last stderr line and exits
# with its code.  A child's ru_maxrss starts at its forking parent's RSS
# (exec records the old address space's peak), so the search is forked from
# this small process rather than from the test runner.
_PEAK_RSS = ("import os, subprocess, sys\n"
             "proc = subprocess.Popen(sys.argv[1:])\n"
             "_, status, usage = os.wait4(proc.pid, 0)\n"
             "print(usage.ru_maxrss, file=sys.stderr)\n"
             "sys.exit(os.waitstatus_to_exitcode(status))\n")


def test_a_five_world_reflexive_search_stays_small():
    # 2**20 reflexive 5-world frames with one atom: 2**25 models, searched
    # in windows of 2**17
    _assert_small_search(["box p -> p", "--props", "reflexive", "--max-worlds", "5"],
                         "no countermodel with up to 5 worlds\n")


def test_a_twelve_atom_search_stays_small():
    # 2**24 valuations of each 2-world frame, searched in windows of 2**17
    # inside each frame
    _assert_small_search(["a & b & c & d & e & f & g & h & i & j & k & l -> a",
                          "--max-worlds", "2"], "no countermodel with up to 2 worlds\n")


def _assert_small_search(argv, stdout):
    """Run a countermodel search in a fresh process and require its answer
    within a peak RSS of 40 MiB."""
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "modalkit.cli",
         "countermodel", *argv],
        capture_output=True, text=True, timeout=120)
    *err, peak_kib = proc.stderr.split("\n")[:-1]
    assert proc.returncode == 0, err
    assert proc.stdout == stdout
    assert err == []
    assert int(peak_kib) < 40 << 10


@pytest.mark.parametrize("argv, n, message", [
    (["countermodel", "p & q -> p", "--max-worlds", "5"], 5,
     "a countermodel search with 2 atoms up to 5 worlds needs at least 4.64e+12 units"),
    (["countermodel", "box p -> box box p", "--props", "reflexive,transitive",
      "--max-worlds", "6"], 6,
     "a countermodel search with 1 atoms up to 6 worlds needs at least 1.16e+15 units"),
])
def test_over_budget_searches_are_refused_before_any_chunk(capsys, monkeypatch, argv, n,
                                                           message):
    built = recorded_slab_counts(monkeypatch)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: resource limit exceeded: " + message
                            + " of work, over the budget of 3e+12\n")
    # the refused size builds no slab, not even an atom-free tile to list
    # its frames
    assert not [b for b in built if b[0] == n]


# --- isomorph-free search -----------------------------------------------------

C = FrameProperty.CONVERSE_WELL_FOUNDED


def _labelled_first_countermodel(f, props, max_worlds, sig):
    """The search over every admitted frame: the first set bit of the first
    labelled slab that has one."""
    atoms = search_atoms(f, sig)
    goal = desugar(f, sig)
    for n in range(1, max_worlds + 1):
        for slab in slabs(n, atoms, bitgrid.admitted(n, props)):
            failing = slab.full ^ slab.validity_mask(goal)
            if failing:
                m = slab.model_at(slab.first_index(failing))
                return m, next(w for w in range(n) if not eval_deep(m, w, goal))
    return None


_ISOMORPH_FREE_PROPERTY_SETS = (
    [pytest.param(set(logic.frame_properties), id=logic.name) for logic in ALL_LOGICS]
    + [pytest.param({FrameProperty.SERIAL}, id="serial"),
       pytest.param({FrameProperty.EUCLIDEAN}, id="euclidean"),
       pytest.param({FrameProperty.IRREFLEXIVE}, id="irreflexive"),
       pytest.param({T, C}, id="transitive,cwf")]
)

# one- and two-atom probes up to 4 worlds.  The last two need 4 worlds in
# most classes, box box box false on strict orders; box p -> box box p has
# no countermodel in the transitive classes, nor the fourth in the
# symmetric or Euclidean ones, so those are scanned to the end
_ISOMORPH_FREE_PROBES = (
    ("box p -> box box p", SIG_P),
    ("dia p -> box dia p", SIG_P),
    ("box box box false", SIG_P),
    ("~(~p & dia (p & box p) & dia (~p & box ~p) & dia (p & dia ~p))", SIG_P),
    ("~(p & q & dia (p & ~q) & dia (~p & q) & dia (~p & ~q))", SIG_PQ),
)


@pytest.mark.parametrize("props", _ISOMORPH_FREE_PROPERTY_SETS)
def test_isomorph_free_search_finds_the_labelled_first_countermodel(props):
    for text, sig in _ISOMORPH_FREE_PROBES:
        f = parse(text, sig)
        assert (find_countermodel(f, props, 4, sig)
                == _labelled_first_countermodel(f, props, 4, sig)), text


def test_isomorph_free_probes_reach_four_worlds():
    sizes = {(text, i): found[0].n_worlds
             for text, sig in _ISOMORPH_FREE_PROBES
             for i, props in enumerate(_ISOMORPH_FREE_PROPERTY_SETS)
             if (found := find_countermodel(parse(text, sig), props.values[0], 4, sig))}
    assert sum(n == 4 for n in sizes.values()) >= 20


def test_a_three_atom_search_at_four_worlds_finds_the_labelled_first_countermodel():
    # the search walks the 3,044 canonical 4-world frames, 1/21 of all
    sig = Signature(("p", "q", "r"))
    f = parse("~(p & q & r & dia (p & ~q & ~r) & dia (~p & q & ~r) & dia (~p & ~q & r))",
              sig)
    assert find_countermodel(f, set(), 3, sig) is None
    # the first labelled window with a falsifying model, 32 frames a window
    goal = desugar(f, sig)
    for base in range(0, 1 << 16, 32):
        tile = ModelSlab(4, sig.atoms, window=range(base << 12, base + 32 << 12))
        failing = tile.full ^ tile.validity_mask(goal)
        if failing:
            break
    first = tile.model_at(tile.first_index(failing))
    assert find_countermodel(f, set(), 4, sig) == (first, 0)
    assert sorted(first.rel) == [(0, 1), (0, 2), (0, 3)]
    assert {a: sorted(ws) for a, ws in first.val.items()} == {
        "p": [0, 3], "q": [0, 2], "r": [0, 1]}


# --- one walk for several property sets -------------------------------------------


def _property_sets(rng, with_empty):
    """One to five property sets of up to three properties each; without
    with_empty, none of them is empty."""
    props = list(FrameProperty)
    return [set(rng.sample(props, rng.randint(0 if with_empty else 1, 3)))
            for _ in range(rng.randint(1, 5))]


def _assert_one_walk_answers_each_set(fs, bounds, seed):
    rng = random.Random(seed)
    for i, f in enumerate(fs):
        sets = _property_sets(rng, with_empty=i % 2 == 0)
        n = bounds[i % len(bounds)]
        assert (find_countermodels(f, sets, n, SIG_PQ)
                == [find_countermodel(f, s, n, SIG_PQ) for s in sets]), (f, sets, n)


def test_one_walk_answers_each_set_as_its_own_search():
    _assert_one_walk_answers_each_set(seeded_formulas(31, 160), (1, 2, 3, 4), 31)


@pytest.mark.parametrize("bits", [3, 5, 8])
def test_one_walk_answers_each_set_at_every_tile_size(tile_bits, bits):
    tile_bits(bits)
    _assert_one_walk_answers_each_set(seeded_formulas(bits, 24), (1, 2, 3), bits)


def test_one_walk_answers_every_isomorph_free_probe():
    sets = [p.values[0] for p in _ISOMORPH_FREE_PROPERTY_SETS]
    for text, sig in _ISOMORPH_FREE_PROBES:
        f = parse(text, sig)
        assert (find_countermodels(f, sets, 4, sig)
                == [find_countermodel(f, s, 4, sig) for s in sets]), text


def test_one_walk_has_no_sets_to_answer():
    f = parse("p -> box p", SIG_P)
    assert find_countermodels(f, [], 3, SIG_P) == []
    with pytest.raises(ValueError):
        find_countermodels(f, [], 0, SIG_P)


def _walked_lists(monkeypatch):
    """Record (world count, frame list) of every walk over frames."""
    walked = []

    def recording(n, atoms, frames):
        walked.append((n, list(frames)))
        return slabs(n, atoms, frames)

    monkeypatch.setattr(countermodel, "slabs", recording)
    return walked


def _canonical(*lists):
    return [(n, list(bitgrid.admitted(n, props, isomorph_free=True))) for n, props in lists]


def test_the_walk_takes_the_frames_the_pending_sets_share(monkeypatch):
    # K is answered at 2 worlds, where the reflexive and the reflexive
    # symmetric sets are not; at 3 worlds the walk takes the reflexive
    # frames alone
    walked = _walked_lists(monkeypatch)
    f = parse("box p -> box box p", SIG_P)
    found = find_countermodels(f, [set(), {R}, {R, S}], 3, SIG_P)
    assert [m.n_worlds for m, _ in found] == [2, 3, 3]
    assert walked == _canonical((1, ()), (2, ()), (3, {R}))


# a countermodel is a world with a dead-end successor, which K's and K4's
# frames have at 2 worlds, or one that sees three worlds unlike itself,
# which the other six cube classes need 4 worlds for
_FEW_OWN_FRAMES = ("~(dia box false | (s & dia (~s & p & ~q) & dia (~s & ~p & q)"
                   " & dia (~s & p & q)))")


def test_the_walk_takes_the_frames_some_pending_set_admits(monkeypatch):
    # the six sets pending at 4 worlds share no property, and the walk takes
    # the 297 canonical frames that are reflexive or symmetric, where the
    # six sets' answers lie scattered.  Its 3-atom slabs, 13 of them, are
    # the known cost against own walks that stop one by one (9 slabs)
    sig = Signature(("p", "q", "s"))
    f = parse(_FEW_OWN_FRAMES, sig)
    sets = [logic.frame_properties for logic in ALL_LOGICS]
    walked = _walked_lists(monkeypatch)
    built = recorded_slab_counts(monkeypatch)
    found = find_countermodels(f, sets, 4, sig)
    walk_slabs = [b for b in built if b[1] == len(sig.atoms)]
    assert [m.n_worlds for m, _ in found] == [2, 4, 4, 2, 4, 4, 4, 4]
    pending = [props for props, (m, _) in zip(sets, found) if m.n_worlds == 4]
    union = list(bitgrid.admitted(4, *pending, isomorph_free=True))
    assert len(union) == 297
    assert union == sorted({*bitgrid.admitted(4, {R}, isomorph_free=True),
                            *bitgrid.admitted(4, {S}, isomorph_free=True)})
    assert [w for w in walked if w[0] == 4] == [(4, union)]
    assert found == [find_countermodel(f, props, 4, sig) for props in sets]
    assert len(walk_slabs) <= 13


def test_the_walk_takes_the_union_of_the_sets_pending_after_k(monkeypatch):
    # K is answered at 2 worlds; at 3 worlds the reflexive and the symmetric
    # sets are pending, and the walk takes the canonical frames that have
    # one of the two properties, not every canonical frame
    walked = _walked_lists(monkeypatch)
    f = parse("dia box p -> box dia p", SIG_P)
    found = find_countermodels(f, [set(), {R}, {S}], 3, SIG_P)
    assert [x and x[0].n_worlds for x in found] == [2, 3, None]
    union = sorted({*bitgrid.admitted(3, {R}, isomorph_free=True),
                    *bitgrid.admitted(3, {S}, isomorph_free=True)})
    assert walked[2:] == [(3, union)]
    assert len(union) < len(bitgrid.admitted(3, isomorph_free=True))


def test_the_union_walk_is_charged_less_than_the_own_walks(monkeypatch):
    # by the charge formula the six own walks and those before them come to
    # about 1.28e9 units, and the one walk over the union to about 0.99e9
    sig = Signature(("p", "q", "s"))
    f = parse(_FEW_OWN_FRAMES, sig)
    sets = [logic.frame_properties for logic in ALL_LOGICS]
    monkeypatch.setattr(bitgrid, "MAX_WORK", 11 * 10**8)
    assert all(find_countermodels(f, sets, 4, sig))


def test_a_search_above_the_isomorph_free_bound_lists_once(monkeypatch):
    # with canonical frames up to 2 worlds, the 3-world frames of the two
    # sets are listed in one sweep
    for module in (bitgrid, countermodel):
        monkeypatch.setattr(module, "ISOMORPH_FREE_WORLDS", 2)
    listed = []
    frame_array = bitgrid._frame_array

    def recording(n, slices):
        listed.append(n)
        return frame_array(n, slices)

    monkeypatch.setattr(bitgrid, "_frame_array", recording)
    # both sets are pending at 3 worlds: the first two formulas have a
    # reflexive 3-world countermodel, and none has a symmetric transitive one
    sets = [{R}, {S, T}]
    for text in ("box p -> box box p", "dia dia p -> dia p", "box (box p -> p)"):
        f = parse(text, SIG_P)
        del listed[:]
        found = find_countermodels(f, sets, 3, SIG_P)
        assert listed.count(3) == 1, text
        assert found == [find_countermodel(f, props, 3, SIG_P) for props in sets], text


def test_a_refused_walk_gives_no_answers(monkeypatch):
    # the 2-world walk, which answers K, is within the budget and the
    # 3-world one is not
    monkeypatch.setattr(bitgrid, "MAX_WORK", 2 * 10**7)
    f = parse("box p -> box box p", SIG_P)
    assert find_countermodel(f, set(), 3, SIG_P)[0].n_worlds == 2
    with pytest.raises(ResourceLimitExceeded):
        find_countermodels(f, [set(), {R}], 3, SIG_P)


# Runs find_countermodel under python -O with the search's frame list or
# validity masks patched to disagree with the scalar re-check.
_PATCHED_SEARCH = """\
import sys
from array import array
from modalkit import bitgrid
from modalkit.countermodel import find_countermodel
from modalkit.kripke import FrameProperty
from modalkit.syntax import Signature, desugar, parse
if not sys.flags.optimize:
    sys.exit("not run under -O")
if sys.argv[1] == "frames":
    # the listing admits the empty 1-world frame, which is not reflexive
    bitgrid._isomorph_free = lambda n, props: array("B", [0])
else:
    # the masks mark every model as falsifying
    bitgrid.ModelSlab.validity_mask = lambda self, f: 0
sig = Signature(("p",))
print(find_countermodel(parse(sys.argv[2], sig), {FrameProperty.REFLEXIVE}, 2, sig))
"""


@pytest.mark.parametrize("patch, text, message", [
    ("frames", "box p -> p",
     "search returned a model violating a requested frame property"),
    ("masks", "p -> p", "search returned a model where p -> p holds at every world"),
])
def test_the_search_re_checks_its_model_under_python_O(patch, text, message):
    proc = subprocess.run([sys.executable, "-O", "-c", _PATCHED_SEARCH, patch, text],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.rstrip("\n").endswith("AssertionError: " + message)


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
