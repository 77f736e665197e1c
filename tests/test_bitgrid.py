"""The packed model-family engine against the scalar evaluators.

Every mask operation gets a differential test: the bit at position i must
equal the scalar answer on the decoded model at i.  These tests are the
anchor that lets the fast path be trusted everywhere else.
"""

import random
from itertools import permutations

import pytest

from modalkit import bitgrid
from modalkit.bitgrid import ModelSlab, slabs
from modalkit.correspond import _core_body
from modalkit.countermodel import find_countermodel
from modalkit.errors import ResourceLimitExceeded
from modalkit.hilbert import ALL_LOGICS, SCHEMAS
from modalkit.kripke import (
    FrameProperty,
    KripkeModel,
    eval_deep,
    has_property,
    valid_in_model,
)
from modalkit.syntax import (
    Atom,
    Implies,
    MetaVar,
    Signature,
    desugar,
    enumerate_formulas,
    metavars_of,
    parse,
    parse_schema,
)
from modalkit.translate import translate_max, translate_min

from conftest import SIG_P, CoreEnv, admitted_frames, enumerate_models, eval_core, index_of


def test_counts_and_full_mask():
    slab = ModelSlab(1, ("p",))
    assert slab.count == 4  # one relation bit, one valuation bit
    assert slab.full == (1 << 4) - 1
    assert ModelSlab(2, ("p",)).count == 64
    assert ModelSlab(2, ()).count == 16


def test_model_index_round_trip():
    slab = ModelSlab(2, ("p", "q"), (0, 1))
    for index in range(slab.count):
        m = slab.model_at(index)
        assert index_of(slab, m) == index


def test_index_of_arbitrary_model():
    slab = ModelSlab(3, ("p",))
    m = KripkeModel(3, [0, 1, 2], [(0, 2), (1, 1)], {"p": [2]}, SIG_P)
    assert slab.model_at(index_of(slab, m)) == m


def test_frame_at_matches_model_at():
    slab = ModelSlab(2, ("p",), (0,))
    for index in range(slab.count):
        n, rel = slab.frame_at(index)
        assert n == 2
        assert rel == slab.model_at(index).rel


def test_frame_at_works_without_atoms():
    slab = ModelSlab(2, ())
    seen = {slab.frame_at(i)[1] for i in range(slab.count)}
    assert len(seen) == 16  # every 2-world relation exactly once


def test_index_bounds_are_checked():
    slab = ModelSlab(1, ("p",))
    with pytest.raises(IndexError):
        slab.model_at(slab.count)
    with pytest.raises(IndexError):
        slab.frame_at(-1)
    with pytest.raises(ValueError):
        index_of(slab, KripkeModel(2, [0], [], {"p": []}, SIG_P))


def test_designated_subset_is_validated():
    with pytest.raises(ValueError):
        ModelSlab(2, ("p",), ())
    with pytest.raises(ValueError):
        ModelSlab(2, ("p",), (0, 5))


def test_first_index_is_the_lowest_set_bit():
    assert ModelSlab.first_index(0b1000) == 3
    assert ModelSlab.first_index(0b1011000) == 3
    with pytest.raises(ValueError):
        ModelSlab.first_index(0)


# --- truth masks -------------------------------------------------------------


def _slab_cases():
    return [
        ModelSlab(1, ("p",)),
        ModelSlab(2, ("p",), (0,)),
        ModelSlab(2, ("p",), (0, 1)),
    ]


@pytest.mark.parametrize("slab", _slab_cases(), ids=lambda s: f"n{s.n}d{sorted(s.designated)}")
def test_deep_truth_matches_scalar_evaluation(slab):
    sig = Signature(slab.atoms)
    for f in enumerate_formulas(sig, 2):
        memo: dict = {}
        for w in sorted(slab.designated):
            mask = slab.deep_truth(f, w, memo)
            for index in range(slab.count):
                expected = eval_deep(slab.model_at(index), w, f)
                assert bool(mask >> index & 1) == expected, (f, w, index)


def test_deep_truth_refuses_a_foreign_atom_and_sugar():
    slab = ModelSlab(1, ("p",))
    with pytest.raises(ValueError, match="^atom 'q' is not in this slab$"):
        slab.deep_truth(Atom("q"), 0)
    with pytest.raises(TypeError, match=r"\(desugar first\)$"):
        slab.deep_truth(parse("p | p", SIG_P), 0)


def test_validity_mask_matches_scalar_validity():
    slab = ModelSlab(2, ("p",), (0, 1))
    for f in enumerate_formulas(SIG_P, 2):
        mask = slab.validity_mask(f)
        for index in range(slab.count):
            assert bool(mask >> index & 1) == valid_in_model(slab.model_at(index), f)


def test_core_truth_matches_scalar_core_evaluation():
    slab = ModelSlab(2, ("p",), (0,))
    for f in enumerate_formulas(SIG_P, 2):
        for form in (translate_max(f), translate_min(f)):
            memo: dict = {}
            for w in sorted(slab.designated):
                mask = slab.core_truth(form, {"w": w}, memo)
                for index in range(slab.count):
                    env = CoreEnv(slab.model_at(index), {"w": w})
                    assert bool(mask >> index & 1) == eval_core(form, env)


def test_core_truth_rejects_foreign_atoms():
    slab = ModelSlab(1, ("p",))
    foreign = translate_min(parse("q", Signature(("q",))))
    with pytest.raises(ValueError):
        slab.core_truth(foreign, {"w": 0})


# --- frame properties --------------------------------------------------------


@pytest.mark.parametrize("prop", list(FrameProperty))
def test_property_mask_matches_scalar_check(prop):
    for slab in (ModelSlab(2, ("p",), (0, 1)), ModelSlab(2, ("p",), (1,))):
        mask = slab.property_mask(prop)
        for index in range(slab.count):
            assert bool(mask >> index & 1) == has_property(slab.model_at(index), prop)


@pytest.mark.parametrize("designated", [(0, 1, 2), (0, 2)])
def test_property_masks_on_three_worlds_match_scalar_check(designated):
    # three worlds reach the triples the transitive and Euclidean loops
    # skip as true by construction
    slab = ModelSlab(3, (), designated)
    for prop in FrameProperty:
        mask = slab.property_mask(prop)
        for index in range(slab.count):
            _, rel = slab.frame_at(index)
            m = KripkeModel(3, designated, rel, {"p": []}, SIG_P)
            assert bool(mask >> index & 1) == has_property(m, prop), (prop, sorted(rel))


def test_cycle_detection_on_three_worlds():
    # the peeling rounds for converse well-foundedness, against the scalar
    # check's topological sort, over all 512 three-world frames
    slab = ModelSlab(3, ())
    mask = slab.property_mask(FrameProperty.CONVERSE_WELL_FOUNDED)
    for index in range(slab.count):
        _, rel = slab.frame_at(index)
        m = KripkeModel(3, [0, 1, 2], rel, {"p": []}, SIG_P)
        assert bool(mask >> index & 1) == has_property(m, FrameProperty.CONVERSE_WELL_FOUNDED)


def test_transitive_and_cwf_masks_on_a_proper_four_world_subset():
    # a 3-step path inside {0, 1, 3} needs every peeling round, and world 2
    # must not carry an edge or a cycle into the restricted relation
    designated = (0, 1, 3)
    slab = ModelSlab(4, (), designated)
    # has_property reads only the edges inside the designated set (bit
    # 4i + j for edge (i, j)), so the reference is computed once per
    # restricted relation
    inside = sum(1 << 4 * i + j for i in designated for j in designated)
    for p in (FrameProperty.TRANSITIVE, FrameProperty.CONVERSE_WELL_FOUNDED):
        mask = slab.property_mask(p)
        expected = {}
        for index in range(slab.count):
            key = index & inside
            if key not in expected:
                _, rel = slab.frame_at(key)
                m = KripkeModel(4, designated, rel, {"p": []}, SIG_P)
                expected[key] = has_property(m, p)
            assert bool(mask >> index & 1) == expected[key], (p, index)


def test_properties_mask_is_the_intersection():
    slab = ModelSlab(2, ("p",))
    both = slab.properties_mask([FrameProperty.REFLEXIVE, FrameProperty.SYMMETRIC])
    assert both == slab.property_mask(FrameProperty.REFLEXIVE) & slab.property_mask(
        FrameProperty.SYMMETRIC
    )
    assert slab.properties_mask([]) == slab.full


# --- schema validity ---------------------------------------------------------


def _schema_valid_scalar(slab, index, body, names):
    """Reference check: every subset assignment makes body valid."""
    _, rel = slab.frame_at(index)
    ds = sorted(slab.designated)

    def ev(w, g, assignment):
        t = type(g).__name__
        if t in ("Atom", "MetaVar"):
            return w in assignment[g.name]
        if t == "Not":
            return not ev(w, g.body, assignment)
        if t == "Implies":
            return (not ev(w, g.left, assignment)) or ev(w, g.right, assignment)
        if t == "Box":
            return all(ev(v, g.body, assignment) for v in ds if (w, v) in rel)
        raise TypeError(g)

    import itertools

    subsets = [frozenset(c) for r in range(len(ds) + 1) for c in itertools.combinations(ds, r)]
    for combo in itertools.product(subsets, repeat=len(names)):
        assignment = dict(zip(names, combo))
        if not all(ev(w, body, assignment) for w in ds):
            return False
    return True


# T, B, Loeb and 4, and two schemas of two metavariables whose consequent
# is a bare metavariable, on full and proper designated sets
@pytest.mark.parametrize("text", [
    "box ?phi -> ?phi", "?phi -> box dia ?phi",
    "box (box ?phi -> ?phi) -> box ?phi", "box ?phi -> box box ?phi",
    "dia ?phi -> ?psi", "box (?phi -> ?psi) -> ?psi",
])
def test_schema_validity_mask_matches_scalar_check(text):
    body = desugar(parse_schema(text), SIG_P)
    names = list(metavars_of(body))
    for designated in ((0, 1, 2), (0, 2)):
        slab = ModelSlab(3, (), designated)
        mask = slab.schema_validity_mask(body, {})
        for index in range(slab.count):
            assert (bool(mask >> index & 1)
                    == _schema_valid_scalar(slab, index, body, names)), (designated, index)


def test_a_metavariable_consequent_is_still_read_outside_a_schema():
    slab = ModelSlab(2, ("p",))
    f = Implies(Atom("p"), MetaVar("q"))
    with pytest.raises(ValueError, match="metavariable outside schema evaluation"):
        slab.deep_truth(f, 0)


def test_schema_validity_ignores_the_valuation():
    # with atoms present as slab columns the mask must still be a function
    # of the frame alone, since atom leaves range over assignments too
    schema = desugar(parse_schema("box ?phi -> ?phi"), SIG_P)
    slab = ModelSlab(2, ("p",))
    mask = slab.schema_validity_mask(schema, {})
    frames = {}
    for index in range(slab.count):
        _, rel = slab.frame_at(index)
        bit = mask >> index & 1
        assert frames.setdefault(rel, bit) == bit


# --- ranked slabs over admitted frames ------------------------------------------


R, S, T = FrameProperty.REFLEXIVE, FrameProperty.SYMMETRIC, FrameProperty.TRANSITIVE


def test_admitted_frames_ascend_and_have_the_properties():
    frames = admitted_frames(3, {R, T})
    assert frames == sorted(set(frames))
    everything = ModelSlab(3, ())
    for bits in range(everything.count):
        _, rel = everything.frame_at(bits)
        m = KripkeModel(3, [0, 1, 2], rel, {"p": []}, SIG_P)
        admitted = has_property(m, R) and has_property(m, T)
        assert (bits in frames) == admitted
    assert admitted_frames(3, ()) is None
    assert admitted_frames(2, {R, FrameProperty.IRREFLEXIVE}) == []


def test_ranked_slab_counts_and_round_trip():
    frames = admitted_frames(3, {S})
    slab = ModelSlab(3, ("p",), frames=frames)
    assert slab.count == len(frames) << 3
    for index in range(slab.count):
        m = slab.model_at(index)
        assert has_property(m, S)
        assert index_of(slab, m) == index
        assert slab.frame_at(index) == (3, m.rel)
    lopsided = KripkeModel(3, [0, 1, 2], [(0, 1)], {"p": []}, SIG_P)
    with pytest.raises(ValueError):
        index_of(slab, lopsided)
    with pytest.raises(IndexError):
        slab.model_at(slab.count)


def test_ranked_slab_is_the_full_slab_restricted_to_its_frames():
    # bit rank << 2 | val of the ranked slab must equal bit
    # frames[rank] << 2 | val of the slab over every frame, for every mask
    frames = admitted_frames(2, {R})
    ranked = ModelSlab(2, ("p",), frames=frames)
    full = ModelSlab(2, ("p",))
    pairs = [((r << 2) | v, (bits << 2) | v)
             for r, bits in enumerate(frames) for v in range(4)]
    for f in enumerate_formulas(SIG_P, 2):
        memo_ranked: dict = {}
        memo_full: dict = {}
        for w in (0, 1):
            a = ranked.deep_truth(f, w, memo_ranked)
            b = full.deep_truth(f, w, memo_full)
            assert a >> ranked.count == 0
            assert all((a >> i & 1) == (b >> j & 1) for i, j in pairs), f
    for prop in FrameProperty:
        a, b = ranked.property_mask(prop), full.property_mask(prop)
        assert all((a >> i & 1) == (b >> j & 1) for i, j in pairs), prop


def _reference_relation_masks(n, n_atoms, frames):
    """Each pair's mask read frame by frame: one run of valuation-block
    digits per frame, highest rank first."""
    block = 1 << n_atoms * n
    return [[int("".join(("1" if frame >> (i * n + j) & 1 else "0") * block
                         for frame in reversed(frames)) or "0", 2)
             for j in range(n)]
            for i in range(n)]


# (worlds, atoms, frames listed): 1-2 worlds pack into B items, 3-4 into H
# and 5 into I; valuation blocks run from 1 bit to 2**15, and the six
# frames of the last shape take two windows, of four frames and of two
_RANKED_SHAPES = [(1, 0, 1), (1, 3, 1), (2, 0, 9), (2, 1, 11), (2, 2, 7), (2, 3, 5),
                  (3, 0, 300), (3, 1, 200), (3, 2, 60), (3, 3, 20), (4, 0, 3000),
                  (4, 1, 500), (4, 2, 40), (5, 0, 4000), (5, 1, 300), (5, 3, 6)]


@pytest.mark.parametrize("n, n_atoms, k", _RANKED_SHAPES)
def test_ranked_relation_masks_match_a_frame_by_frame_reference(n, n_atoms, k):
    rng = random.Random(n * 100 + n_atoms * 10 + k)
    atoms = ("p", "q", "r")[:n_atoms]
    for _ in range(3):
        frames = sorted(rng.sample(range(1 << n * n), k))
        walk = list(slabs(n, atoms, frames))
        assert [f for slab in walk for f in slab.frames] == frames
        for slab in walk:
            assert slab._rel == _reference_relation_masks(n, n_atoms, slab.frames)
    # an aligned block listed frame by frame is the window over its models
    bits = min(n * n - 1, 6, bitgrid.TILE_BITS - n_atoms * n)
    base = rng.randrange(1 << n * n - bits) << bits
    window = range(base << n_atoms * n, base + (1 << bits) << n_atoms * n)
    assert (ModelSlab(n, atoms, frames=list(range(base, base + (1 << bits))))._rel
            == ModelSlab(n, atoms, window=window)._rel)


def test_a_slab_listing_every_frame_is_the_unrestricted_slab():
    listed = ModelSlab(2, ("p",), frames=list(range(16)))
    plain = ModelSlab(2, ("p",))
    assert listed.count == plain.count
    assert listed._rel == plain._rel and listed._val == plain._val


def test_an_empty_frame_list_gives_an_empty_slab():
    slab = ModelSlab(2, ("p",), frames=[])
    assert slab.count == 0 and slab.full == 0
    assert slab.deep_truth(parse("box p", SIG_P), 0) == 0


# --- windows ------------------------------------------------------------------


# 320 = 0b101000000: in a window of 32 frames the pairs with bits 5 to 8,
# (1, 2), (2, 0), (2, 1) and (2, 2), are fixed, and (2, 0) and (2, 2) are set
_TILE = range(320, 352)


def test_a_tile_is_the_full_slab_restricted_to_its_block():
    whole = ModelSlab(3, ())
    tile = ModelSlab(3, (), window=_TILE)
    window = (1 << tile.count) - 1
    assert tile.count == 32
    assert tile._rel == ModelSlab(3, (), frames=list(_TILE))._rel
    assert tile._rel[2][0] is tile.full and tile._rel[2][2] is tile.full
    assert tile._rel[1][2] == 0 and tile._rel[2][1] == 0
    for prop in FrameProperty:
        assert tile.property_mask(prop) == whole.property_mask(prop) >> 320 & window, prop
    for schema in SCHEMAS.values():
        core = _core_body(schema)
        assert (tile.schema_validity_mask(core, {})
                == whole.schema_validity_mask(core, {}) >> 320 & window), schema


def test_a_tile_with_atoms_round_trips_and_restricts_the_full_slab():
    tile = ModelSlab(3, ("p",), window=range(_TILE.start << 3, _TILE.stop << 3))
    assert tile.frames == _TILE
    whole = ModelSlab(3, ("p",))
    assert tile.count == 32 << 3
    for index in range(tile.count):
        m = tile.model_at(index)
        assert index_of(tile, m) == index
        assert index_of(whole, m) == (320 << 3) + index
        assert tile.frame_at(index) == (3, m.rel)
    with pytest.raises(ValueError):
        index_of(tile, KripkeModel(3, [0, 1, 2], [(0, 1)], {"p": []}, SIG_P))
    with pytest.raises(IndexError):
        tile.frame_at(tile.count)
    window = (1 << tile.count) - 1
    for f in enumerate_formulas(SIG_P, 2):
        memo_tile: dict = {}
        memo_whole: dict = {}
        for w in range(3):
            assert (tile.deep_truth(f, w, memo_tile)
                    == whole.deep_truth(f, w, memo_whole) >> (320 << 3) & window), f


def test_slabs_walk_the_frames_in_ascending_chunks(monkeypatch):
    assert [t.window for t in slabs(2)] == [range(16)]
    monkeypatch.setattr(bitgrid, "TILE_BITS", 4)
    # every frame: aligned ranges of relation bitmasks
    tiles = list(slabs(3))
    assert [t.window for t in tiles] == [range(b, b + 16) for b in range(0, 512, 16)]
    assert [t.frames for t in tiles] == [range(b, b + 16) for b in range(0, 512, 16)]
    assert sum(t.count for t in tiles) == 512
    # admitted frames: slices of their list, 2**TILE_BITS models but the last
    ranked = list(slabs(3, ("p",), bitgrid.admitted(3, {R, T})))
    assert [f for t in ranked for f in t.frames] == admitted_frames(3, {R, T})
    assert [t.count for t in ranked] == [16] * 14 + [8]
    # 6 valuation bits, more than TILE_BITS: four windows inside each frame
    single = list(slabs(3, ("p", "q")))
    assert [t.frames for t in single] == [range(b, b + 1) for b in range(512) for _ in range(4)]
    assert [t.window for t in single] == [range(b, b + 16) for b in range(0, 512 << 6, 16)]


def test_windows_inside_one_frame_equal_the_whole_slab(monkeypatch):
    # two atoms at two worlds: 2**4 valuations a frame, windows of 2**2,
    # over every frame and over an admitted list
    atoms = ("p", "q")
    sig = Signature(atoms)
    for frames in (None, admitted_frames(2, {R})):
        whole = ModelSlab(2, atoms, frames=frames)
        monkeypatch.setattr(bitgrid, "TILE_BITS", 2)
        windows = list(slabs(2, atoms, frames))
        monkeypatch.undo()
        assert [t.window for t in windows] == [range(b, b + 4)
                                               for b in range(0, whole.count, 4)]
        for tile in windows:
            cut = tile.window.start
            assert len(tile.frames) == 1
            for i in range(2):
                for j in range(2):
                    assert tile._rel[i][j] == whole._rel[i][j] >> cut & tile.full
                    assert tile._rel[i][j] in (0, tile.full)
            for a in atoms:
                assert [m >> cut & tile.full for m in whole._val[a]] == tile._val[a]
            for index in range(tile.count):
                assert tile.model_at(index) == whole.model_at(cut + index)
                assert tile.frame_at(index) == whole.frame_at(cut + index)
                assert index_of(tile, tile.model_at(index)) == index
            for f in enumerate_formulas(sig, 1):
                for w in range(2):
                    assert tile.deep_truth(f, w) == whole.deep_truth(f, w) >> cut & tile.full
            with pytest.raises(IndexError):
                tile.model_at(tile.count)


def test_frames_larger_than_a_window_are_walked_in_windows():
    # a frame holds 2**30 models with 6 atoms at 5 worlds, and 2**32 with
    # 8 atoms at 4 worlds: each walk builds windows of 2**TILE_BITS inside
    # its first frame
    size = 1 << bitgrid.TILE_BITS
    for args in [(5, tuple("pqrstu")),
                 (4, tuple("pqrstuvw"), bitgrid.admitted(4, isomorph_free=True))]:
        walk = slabs(*args)
        first, second = next(walk), next(walk)
        assert first.count == second.count == size
        assert (first.window, second.window) == (range(size), range(size, 2 * size))
        assert list(first.frames) == list(second.frames) == [0]
        assert first.full is second.full


def test_the_tiles_of_a_size_share_their_periodic_masks():
    # full and the masks of the index bits below TILE_BITS come from one
    # table per window size
    tiles = slabs(5)
    first, second = next(tiles), next(tiles)
    assert first.window == range(1 << bitgrid.TILE_BITS)
    assert first.full is second.full
    for bit in range(bitgrid.TILE_BITS):
        i, j = divmod(bit, 5)
        assert first._rel[i][j] is second._rel[i][j], (i, j)
    walk = slabs(2, tuple("pqrstuvwxyz"))  # 22 valuation bits: windows inside a frame
    one, two = next(walk), next(walk)
    masks = [[m for row in slab._val.values() for m in row] for slab in (one, two)]
    assert all(x is y for x, y in zip(*(m[:bitgrid.TILE_BITS] for m in masks)))
    assert one.full is two.full is first.full


def test_admitted_frames_read_tile_by_tile_equal_the_whole_slab(monkeypatch):
    classes = [{R, T}, {S}, {FrameProperty.CONVERSE_WELL_FOUNDED},
               {R, FrameProperty.IRREFLEXIVE}, {FrameProperty.EUCLIDEAN}]
    whole = [admitted_frames(3, props) for props in classes]
    monkeypatch.setattr(bitgrid, "TILE_BITS", 4)  # list them again, in small tiles
    assert [admitted_frames(3, props) for props in classes] == whole


def test_admitted_frames_are_memoised_per_size_and_property_set():
    E = FrameProperty.EUCLIDEAN
    first = admitted_frames(3, {R, E})
    assert admitted_frames(3, (R, E)) == first == admitted_frames(3, (E, R, E))
    first.append(-1)
    first[0] = -1
    assert admitted_frames(3, {R, E}) == admitted_frames(3, (E, R))
    assert admitted_frames(3, {R, E})[0] != -1 and admitted_frames(3, {R, E})[-1] != -1


@pytest.mark.parametrize("props", [{R}, {S, T}, {FrameProperty.SERIAL},
                                   {FrameProperty.CONVERSE_WELL_FOUNDED},
                                   {R, FrameProperty.EUCLIDEAN}])
def test_admitted_frames_are_the_enumerated_frames_with_the_properties(props):
    for n in (1, 2, 3):
        frames = [sum(1 << i * n + j for i, j in m.rel)
                  for m in enumerate_models(n, ("p",))
                  if not m.val["p"] and all(has_property(m, p) for p in props)]
        assert admitted_frames(n, props) == frames


def test_a_repeated_search_lists_no_frames_again(monkeypatch):
    bitgrid._isomorph_free.cache_clear()
    walk = bitgrid.slabs
    tiled = []

    def counted(n, atoms=(), frames=None, **kwargs):
        if frames is None:  # a walk over the tiles of every frame
            tiled.append(n)
        return walk(n, atoms, frames, **kwargs)

    monkeypatch.setattr(bitgrid, "slabs", counted)
    f = parse("box p -> box box p", SIG_P)
    first = find_countermodel(f, {R, S}, 3, SIG_P)
    assert tiled == [1, 2, 3]  # the canonical frames, from the atom-free tiles

    atom_free = []
    init = ModelSlab.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if not self.atoms:
            atom_free.append(self.n)

    monkeypatch.setattr(ModelSlab, "__init__", recording)
    assert find_countermodel(f, {S, R}, 3, SIG_P) == first
    assert atom_free == []
    # another property set filters the memoised canonical frames through
    # ranked slabs and walks no tile
    assert find_countermodel(f, {R}, 3, SIG_P) is not None
    assert tiled == [1, 2, 3] and atom_free == [1, 2, 3]


# frames per cube logic at 4 worlds: all relations, reflexive (2^12),
# symmetric (2^10), transitive (OEIS A006905), reflexive and symmetric
# (2^6), preorders (A000798), symmetric and transitive (partial
# equivalences, Bell(5)) and equivalences (Bell(4))
_FOUR_WORLD_FRAMES = {"K": 65_536, "KT": 4_096, "KB": 1_024, "K4": 3_994,
                      "KTB": 64, "S4": 355, "KB4": 52, "S5": 15}


@pytest.mark.parametrize("logic", ALL_LOGICS, ids=lambda l: l.name)
def test_admitted_frame_counts_match_the_closed_forms(logic):
    slab = ModelSlab(4, (), frames=admitted_frames(4, logic.frame_properties))
    assert slab.count == _FOUR_WORLD_FRAMES[logic.name]


# isomorphism classes of 4-world frames per cube logic: relations (OEIS
# A000595), loopless digraphs (A000273), graphs with loops (A000666),
# transitive relations (A091073), simple graphs, topologies (A001930),
# partial equivalences (partitions of subsets) and partitions of 4
_FOUR_WORLD_CLASSES = {"K": 3_044, "KT": 218, "KB": 90, "K4": 242,
                       "KTB": 11, "S4": 33, "KB4": 12, "S5": 5}


def _isomorph_free_frames(n, props=()):
    return list(bitgrid.admitted(n, props, isomorph_free=True))


def test_isomorph_free_walks_take_one_frame_per_class():
    assert [len(_isomorph_free_frames(n)) for n in (1, 2, 3, 4)] == [2, 10, 104, 3_044]


@pytest.mark.parametrize("logic", ALL_LOGICS, ids=lambda l: l.name)
def test_isomorph_free_frame_counts_per_logic(logic):
    props = logic.frame_properties
    frames = _isomorph_free_frames(4, props)
    assert len(frames) == _FOUR_WORLD_CLASSES[logic.name]
    # the canonical frames that have the properties
    admitted = set(admitted_frames(4, props) or range(1 << 16))
    assert frames == [f for f in _isomorph_free_frames(4) if f in admitted]


def _least_of_their_relabellings(n):
    """The n-world frames no relabelling makes smaller, by a scalar sweep:
    every relabelling of a frame not yet marked is marked, so a frame is
    reached unmarked exactly when no smaller frame is one of its
    relabellings."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    perms = list(permutations(range(n)))
    marked = bytearray(1 << n * n)
    least = []
    for frame in range(1 << n * n):
        if marked[frame]:
            continue
        least.append(frame)
        edges = [(i, j) for i, j in pairs if frame >> (i * n + j) & 1]
        for p in perms:
            marked[sum(1 << p[i] * n + p[j] for i, j in edges)] = 1
    return least


@pytest.mark.parametrize("n", [3, 4])
def test_isomorph_free_frames_are_the_least_of_their_relabellings(n):
    assert _isomorph_free_frames(n) == _least_of_their_relabellings(n)


def test_isomorph_free_frames_listed_in_small_tiles_equal_the_default(monkeypatch):
    default = [_isomorph_free_frames(n, props) for n in (1, 2, 3, 4)
               for props in [(), (R,), (S, T), (FrameProperty.SERIAL,)]]
    bitgrid._isomorph_free.cache_clear()
    monkeypatch.setattr(bitgrid, "TILE_BITS", 4)
    try:
        assert [_isomorph_free_frames(n, props) for n in (1, 2, 3, 4)
                for props in [(), (R,), (S, T), (FrameProperty.SERIAL,)]] == default
    finally:
        bitgrid._isomorph_free.cache_clear()


# --- the window rule ---------------------------------------------------------------


@pytest.mark.parametrize("n, atoms", [(6, ()), (5, ("p",)), (4, ("p", "q", "r"))])
def test_slabs_over_the_budget_are_refused(n, atoms):
    # a slab holds at most 2**TILE_BITS models, and these have 2**36, 2**30
    # and 2**28; only slabs builds slabs, in windows
    with pytest.raises(ValueError, match="not an aligned window"):
        ModelSlab(n, atoms)


@pytest.mark.parametrize("window", [range(8, 24), range(16, 64), range(0, 16, 2),
                                    range(-16, 0), range(512, 528), range(16, 8),
                                    range(0, 6)])
def test_windows_not_aligned_to_their_size_are_refused(window):
    with pytest.raises(ValueError, match="not an aligned window"):
        ModelSlab(3, (), window=window)


def test_a_window_holds_the_largest_slabs_in_use():
    # the atom-free walk over every 5-world frame takes 2**25 models in
    # 256 windows
    assert sum(1 for _ in slabs(5)) == 256
    # three atoms at four worlds fit one window once the frames are S5's
    # fifteen
    s5 = admitted_frames(4, {R, S, T})
    slab = ModelSlab(4, ("p", "q", "r"), frames=s5)
    assert slab.count == 15 << 12


def test_the_budget_error_is_the_one_the_cli_maps_to_exit_3():
    import modalkit
    from modalkit.decide import ResourceLimitExceeded as from_decide

    assert modalkit.ResourceLimitExceeded is ResourceLimitExceeded
    assert from_decide is ResourceLimitExceeded
