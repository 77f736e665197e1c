"""Bounded countermodel search against its own reference enumeration."""

import subprocess
import sys

import pytest
from hypothesis import given, settings

from modalkit import bitgrid
from modalkit.bitgrid import ModelSlab
from modalkit.cli import main
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


# --- search in chunks -------------------------------------------------------------

T = FrameProperty.TRANSITIVE
S = FrameProperty.SYMMETRIC


@pytest.fixture
def tile_bits(monkeypatch):
    """Set bitgrid.TILE_BITS, listing admitted frames afresh at that size."""
    def set_bits(bits):
        monkeypatch.setattr(bitgrid, "TILE_BITS", bits)
        bitgrid._listed_frames.cache_clear()

    yield set_bits
    monkeypatch.undo()
    bitgrid._listed_frames.cache_clear()


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
    assert len(bitgrid._admitted(3, {R, T}, 1)) == 29
    assert find_countermodel(parse("box p -> box box p", SIG_P), {R, T}, 3, SIG_P) is None
    f = parse("dia p -> box dia p", SIG_P)
    found = find_countermodel(f, {R, T}, 3, SIG_P)
    assert found is not None and found == _scalar_first_countermodel(f, {R, T}, 3, SIG_P)


def _recorded_slab_counts(monkeypatch):
    """Record (world count, atom count, model count) of every slab built."""
    built = []
    init = ModelSlab.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self.n, len(self.atoms), self.count))

    monkeypatch.setattr(ModelSlab, "__init__", recording)
    return built


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
    built = _recorded_slab_counts(monkeypatch)
    find_countermodel(parse(text, sig), props, max_worlds, sig)
    assert built
    for n, n_atoms, count in built:
        assert count <= max(1 << bits, 1 << n_atoms * n), (n, n_atoms, count)


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
    # in chunks of 2**17 rather than in one 120 MiB slab
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "modalkit.cli",
         "countermodel", "box p -> p", "--props", "reflexive", "--max-worlds", "5"],
        capture_output=True, text=True, timeout=120)
    *err, peak_kib = proc.stderr.split("\n")[:-1]
    assert proc.returncode == 0, err
    assert proc.stdout == "no countermodel with up to 5 worlds\n"
    assert err == []
    assert int(peak_kib) < 40 << 10


@pytest.mark.parametrize("argv, message", [
    (["countermodel", "p -> p", "--max-worlds", "5"],
     "a slab of 5 worlds, 1 atoms and 33554432 frames needs 3840 MiB of masks"),
    (["countermodel", "box p -> dia p", "--props", "serial", "--max-worlds", "5"],
     "a slab of 5 worlds, 1 atoms and 28629151 frames needs 3276 MiB of masks"),
])
def test_over_budget_searches_are_refused_before_any_chunk(capsys, monkeypatch, argv,
                                                           message):
    built = _recorded_slab_counts(monkeypatch)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: resource limit exceeded: " + message
                            + ", over the 128 MiB budget\n")
    # counting serial frames sweeps atom-free tiles; no slab over the atom
    assert not [b for b in built if b[0] == 5 and b[1]]


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
