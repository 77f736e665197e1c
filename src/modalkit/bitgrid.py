"""Bulk evaluation over exhaustively enumerated model families.

A ModelSlab fixes a world count, an atom list, a designated world subset and
a list of admitted frames, and represents a window of their (frame,
valuation) combinations at once.  Model index m is `rank << val_bits |
valuation`: rank is the frame's position in the admitted list, which
ascends by relation bitmask, and the valuation bitmask fills the low bits.
Ascending index order is therefore exactly the canonical search order,
relation bitmask first, then valuation bitmask, restricted to the admitted
frames.  A slab without a frame list admits every relation, and then the
rank is the relation bitmask itself.

A window is an aligned range of at most 2**TILE_BITS indices: it starts at
a multiple of the least power of two, 2**k, that holds it, and only the
last window of an index space is cut short.  Within it, index bit b runs
through its periodic pattern when b < k, and is fixed, so that its mask is
the constant full or 0, otherwise.  One table per k holds full and the
patterns, and every mask of index bits comes from it: the valuation masks,
and the relation masks over every frame, where pair bit b is index bit
val_bits + b.  At 2**17 models masks are 16 KiB, below the allocator's mmap
threshold, so each big-integer result reuses heap memory instead of
faulting in fresh pages.  A slab holds a relation mask per pair of worlds
and a valuation mask per atom and world, and a walk holds one slab at a
time.

Over a list of admitted frames, a window inside one frame reads that
frame's index among every frame's models, so its relation masks are the
constants too.  A window over several frames builds its relation masks
from packed byte lanes, with no Python work per frame.  Its frames are
packed once into an array of fixed-width little-endian items.  For pair
bit b, byte b >> 3 of every item is one strided slice, read from the end so
the highest rank comes first; a 256-entry translate table turns it into one
0/1 byte or binary digit per frame.  Spread to one per valuation block, as
the last byte of the block or a base-2**block digit, and decoded, that is
an integer with the lowest bit of each block holding the edge set; (low <<
block) - low fills the blocks.

Truth values across the window are Python integers with one bit per model,
which makes the connectives single big-integer operations.  The scalar
kripke.eval_deep stays the reference semantics of formulas, and the test
suite's eval_core (tests/conftest.py) that of translated forms; the tests
pin the packed routes against them.

Work is bounded by one budget, MAX_WORK, in one unit: a mask operation
over M models costs max(M, OP_FLOOR) units, the floor standing for the
interpreter's fixed cost of an operation on a small mask.  Each engine
estimates its work as mask operations per model family, from the sizes
alone, and passes the estimate to charge before it builds a slab, which
raises ResourceLimitExceeded over the budget.  Walks run in windows, but
the estimate counts the models of each size, so whether a question is
answered does not depend on the window size.

slabs is the one walk over frames: frame sweeps, admitted frame lists,
countermodel searches and the faithfulness grid, one walk per designated
set, all take their slabs from it, over every frame or over the frames
admitted lists.  It yields its tiles, the windows of 2**TILE_BITS models,
in ascending order, which keeps the first set bit of the first slab that
has one the canonically first model.

A list of admitted frames may be isomorph-free: up to ISOMORPH_FREE_WORLDS
worlds it then holds only the canonical frames, each the least relation
bitmask among its relabellings, one frame per isomorphism class (2, 10, 104
and 3,044 of 2, 16, 512 and 65,536 frames for 1 to 4 worlds).  They are
found on the atom-free tiles, one "a relabelling is smaller" mask per
permutation of the worlds, listed once per process and world count, and
filtered through ranked atom-free slabs to the frames with the given
properties; the walk's slabs are slices of the filtered list.  The
countermodel search walks them, and counts its work only for them.
Sweeps and the faithfulness grid report labelled counts and walk every
frame.

A schema's mask on a tile is the AND over the valuations of its
metavariables, and stops at the first valuation that leaves it 0.
Neighbouring tiles share their high relation bits, so the valuation that
emptied one tile mostly empties the next: a sweep tries that one first,
then the others in ascending order.  The AND is the same in any order, so
the order changes how many valuations run, never the mask.

Evaluation folds constants.  A metavariable leaf, a fixed relation pair and
whatever is derived from them only is the slab's own `full` object or 0;
the connectives test for these by identity, which costs nothing, and return
an operand or a constant instead of running a big-integer operation.
Masks are never compared by value for this.  A box collects the models
that have a successor where its body fails and negates them once; an
implication whose consequent is a metavariable true at the world is full
without reading its antecedent.
"""

from __future__ import annotations

import re
import sys
from array import array
from decimal import Decimal
from functools import lru_cache
from itertools import chain, permutations
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ResourceLimitExceeded
from .kripke import FrameProperty, KripkeModel
from .syntax import (
    Atom, Box, CImp, CNot, CoreForm, ForallWorld, Formula, Implies, MetaVar,
    Not, PredR, PredV, PredW, Signature, metavars_of,
)


# The budget on the work of one question, and the floor of an operation's
# cost, in units: an operation on masks of M models is max(M, OP_FLOOR)
# units.  A unit takes about 1e-11 s on 2 vCPUs (Python 3.11.7), so the
# budget is about 30 s; the floor is the fixed cost of an operation, about
# 0.7 us.  The budget is the least round figure that admits the README's
# two-letter reflexive sweep of 5 worlds: its estimate, 2.75e12, counts
# every valuation on every tile, though most tiles stop at the first.
MAX_WORK = 3 * 10**12
OP_FLOOR = 1 << 16

# log2 of the models in a window, the most a slab holds: 2**17 make 16 KiB
# masks, well under glibc's 128 KiB mmap and trim thresholds.  The atom-free
# sizes up to four worlds fit in one window.
TILE_BITS = 17

# The largest world count whose isomorph-free walks take the canonical
# frames.  Listing them takes one mask per permutation on every tile of the
# size: about 3 ms at four worlds, but 2.9 s at five, 119 permutations over
# 256 tiles (2 vCPU, Python 3.11.7).
ISOMORPH_FREE_WORLDS = 4


# _BITS[k] maps a byte to 1 when its bit k is set and to 0 otherwise, and
# _DIGITS[k] to the digits b"1" and b"0"
_BITS = [bytes(x >> k & 1 for x in range(256)) for k in range(8)]
_DIGITS = [table.translate(b"01" + bytes(254)) for table in _BITS]


def work(ops: int, models: int) -> int:
    """Units of work of ops mask operations over a family of that many
    models, which a walk spreads over its slabs."""
    return ops * max(models, OP_FLOOR)


def charge(spent: int, what: str) -> int:
    """spent, the units of work a question takes at least; raises
    ResourceLimitExceeded when that is over MAX_WORK."""
    if spent > MAX_WORK:
        raise ResourceLimitExceeded(
            f"{what} needs at least {Decimal(spent):.3g} units of work, over "
            f"the budget of {MAX_WORK:.0e}")
    return spent


@lru_cache(maxsize=32)
def _window_masks(k: int) -> tuple[int, tuple[int, ...]]:
    """full over an aligned window of 2**k models, and the periodic mask of
    each index bit below k: bit b's runs of 2**b clear and 2**b set."""
    size = 1 << k
    patterns = []
    for bit in range(k):
        run = 1 << bit
        mask = ((1 << run) - 1) << run
        width = run << 1
        while width < size:
            mask |= mask << width
            width <<= 1
        patterns.append(mask)
    return (1 << size) - 1, tuple(patterns)


def slabs(n_worlds: int, atoms: Sequence[str] = (), frames: Sequence[int] | None = None,
          *, designated: Iterable[int] | None = None) -> Iterator[ModelSlab]:
    """The slabs over an ascending list of n-world frames, by default every
    frame, in ascending order, each with the designated set given, by
    default the whole domain: the windows of 2**TILE_BITS models, the last
    cut at the end of the models.  They are built one at a time as they
    are taken."""
    n_frames = 1 << n_worlds * n_worlds if frames is None else len(frames)
    total = n_frames << len(atoms) * n_worlds
    step = 1 << TILE_BITS
    return (ModelSlab(n_worlds, atoms, designated, frames, range(base, min(base + step, total)))
            for base in range(0, total, step))


def _frame_typecode(n_worlds: int) -> str:
    """Typecode of the narrowest unsigned array item that holds an n-world
    relation bitmask."""
    bits = n_worlds * n_worlds
    return next(c for c in "BHILQ" if array(c).itemsize * 8 >= bits)


def admitted(n_worlds: int, props: Iterable[FrameProperty] = (), *,
             isomorph_free: bool = False) -> Sequence[int]:
    """Ascending relation bitmasks of the n-world frames with every property
    in props, by default every frame: a range when that is every frame,
    else an array read off the atom-free tiles in one sweep.  isomorph_free
    takes, up to ISOMORPH_FREE_WORLDS worlds, only the canonical frames, as
    the memo's own array, which callers must not write; a walk over them
    has to designate the whole domain (see _isomorph_free)."""
    props = frozenset(props)
    if isomorph_free and n_worlds <= ISOMORPH_FREE_WORLDS:
        return _isomorph_free(n_worlds, props)
    if not props:
        return range(1 << n_worlds * n_worlds)
    return _frame_array(n_worlds, [(tile.frames, tile.properties_mask(props))
                                   for tile in slabs(n_worlds)])


@lru_cache(maxsize=128)
def _isomorph_free(n_worlds: int, props: frozenset[FrameProperty]) -> array:
    """Ascending relation bitmasks of the canonical n-world frames with
    every property in props, as the memo's own array: without props read
    off the atom-free tiles, with them filtered from that memoised list
    through ranked atom-free slabs.  A 4-world list takes at most 6 KiB.

    A frame is canonical when no relabelling of its worlds gives a smaller
    relation bitmask; each isomorphism class has exactly one.  A search over
    the canonical frames, every valuation of each, in ascending (frame,
    valuation) order, finds the model that the search over every frame
    finds first, given that the designated set is the whole domain:
    relabelling a model by a permutation of its worlds gives a model that
    satisfies the same formulas at the corresponding worlds, whose frame has
    the same properties, since all seven are invariant under isomorphism,
    and whose designated set is again the whole domain.  So if the first
    falsifying model's frame had a smaller relabelling, that relabelling,
    with the valuation carried along, would falsify the formula and come
    earlier.  The first falsifying model's frame is therefore canonical,
    and the canonical frames before it are labelled frames before it, so
    none of them has a falsifying valuation.  Equally, a formula falsified
    on some frame is falsified on that frame's canonical relabelling, so
    "no countermodel" stays the same answer.
    """
    if not props:
        return _frame_array(n_worlds, [(tile.frames, tile.full ^ _relabelled_smaller(tile))
                                       for tile in slabs(n_worlds)])
    frames = _isomorph_free(n_worlds, frozenset())
    return _frame_array(n_worlds, [(slab.frames, slab.properties_mask(props))
                                   for slab in slabs(n_worlds, (), frames)])


def _relabelled_smaller(tile: ModelSlab) -> int:
    """Frames of an atom-free tile that some relabelling of the worlds turns
    into a smaller relation bitmask.

    For a permutation p, the relabelled frame has pair bit i*n + j where
    the frame has bit p(i)*n + p(j).  It is smaller where, at the highest
    bit where the two differ, the frame has the bit.  The comparison runs
    from the highest pair bit down over all the tile's frames at once: eq
    keeps the frames still equal above the current bit, and stops the
    permutation once it is empty.
    """
    n = tile.n
    full = tile.full
    pairs = [mask for row in tile._rel for mask in row]
    smaller = 0
    for p in permutations(range(n)):
        eq = full
        for bit in reversed(range(n * n)):
            i, j = divmod(bit, n)
            differs = pairs[bit] ^ pairs[p[i] * n + p[j]]
            if not differs:
                continue
            smaller |= eq & differs & pairs[bit]
            eq &= full ^ differs
            if not eq:
                break
    return smaller


def _frame_array(n_worlds: int, slices: Iterable[tuple[Sequence[int], int]]) -> array:
    """The frames of ascending (frames, mask) slices where bit k of the
    mask marks frames[k], in ascending order."""
    out = array(_frame_typecode(n_worlds))
    for frames, mask in slices:
        digits = bin(mask)[:1:-1]  # digit k is bit k
        out.fromlist([frames[m.start()] for m in re.finditer("1", digits)])
    return out


def _assignment(names: Sequence[str], ds: Sequence[int],
                choice: int) -> dict[str, frozenset[int]]:
    """The world set of each metavariable under valuation `choice`: bit k
    of its len(ds)-bit field marks designated world ds[k]."""
    out = {}
    for i, name in enumerate(names):
        bits = choice >> (i * len(ds))
        out[name] = frozenset(w for k, w in enumerate(ds) if bits >> k & 1)
    return out


def _meet(full: int, a: int, b: int) -> int:
    """a & b, or the operand it equals when the other is full or 0."""
    if a is full or not b:
        return b
    if b is full or not a:
        return a
    return a & b


def _join(full: int, a: int, b: int) -> int:
    """a | b, or the operand it equals when the other is full or 0."""
    if b is full or not a:
        return b
    if a is full or not b:
        return a
    return a | b


def _neg(full: int, a: int) -> int:
    """full ^ a, with full and 0 swapped as constants."""
    return 0 if a is full else full if not a else full ^ a


class ModelSlab:
    """A window of the models with a fixed world count, atom list and
    designated subset, over every frame or over an ascending list of
    admitted relation bitmasks; by default the window of all of them.
    frames holds the relation bitmasks the window reaches, ascending.  A
    window of more than 2**TILE_BITS models, one not aligned to its size
    or one cut short before the last model raises ValueError: slabs cuts a
    walk into windows."""

    def __init__(self, n_worlds: int, atoms: Iterable[str],
                 designated: Iterable[int] | None = None,
                 frames: Sequence[int] | None = None, window: range | None = None):
        self.n = n_worlds
        self.atoms = tuple(atoms)
        if designated is None:
            self.designated = frozenset(range(n_worlds))
        else:
            self.designated = frozenset(designated)
        if not self.designated or not all(0 <= w < n_worlds for w in self.designated):
            raise ValueError("designated set must be a non-empty subset of the domain")
        self._dsorted = tuple(sorted(self.designated))
        val_bits = self._val_bits = len(self.atoms) * n_worlds
        rel_bits = n_worlds * n_worlds
        # a list of every frame is no list: rank equals bitmask
        ranked = frames is not None and len(frames) != 1 << rel_bits
        total = (len(frames) if ranked else 1 << rel_bits) << val_bits
        self.window = range(total) if window is None else window
        start, count = self.window.start, self.window.stop - self.window.start
        k = (count - 1).bit_length()  # the window lies in 2**k aligned indices
        if (self.window.step != 1 or not 0 <= start <= self.window.stop <= total
                or count > 1 << TILE_BITS or start % (1 << k)
                or count < 1 << k and self.window.stop < total):
            raise ValueError(f"{self.window} is not an aligned window of at most "
                             f"2**{TILE_BITS} of the {total} models")
        self.count = count
        full, patterns = _window_masks(k)
        if count < 1 << k:  # cut at the end of the models
            full = (1 << count) - 1
            patterns = [mask & full for mask in patterns]
        self.full = full
        ranks = slice(start >> val_bits, (start + count - 1 >> val_bits) + 1)
        self.frames = frames[ranks] if ranked else range(1 << rel_bits)[ranks]
        if ranked and count and k <= val_bits:
            # inside one frame: the window's place among every frame's models
            start = self.frames[0] << val_bits | start & (1 << val_bits) - 1
            ranked = False
        masks = [patterns[bit] if bit < k else full if start >> bit & 1 else 0
                 for bit in range(val_bits if ranked else val_bits + rel_bits)]
        self._val = {a: masks[ai * n_worlds:(ai + 1) * n_worlds]
                     for ai, a in enumerate(self.atoms)}
        if ranked:
            self._rel = self._ranked_relation_masks(self.frames)
        else:
            self._rel = [masks[val_bits + i * n_worlds:val_bits + (i + 1) * n_worlds]
                         for i in range(n_worlds)]

    def _ranked_relation_masks(self, frames: Sequence[int]) -> list[list[int]]:
        """Mask of each pair (i, j) over a ranked slab: the bits of the
        frames holding the edge, each spread over its valuation block."""
        n = self.n
        # the frames as fixed-width little-endian items; byte b >> 3 of each
        # item, one strided slice taken from the end, is the byte lane of
        # pair bit b, highest rank first
        packed = array(_frame_typecode(n), frames)
        if sys.byteorder == "big":
            packed.byteswap()
        data, size = packed.tobytes(), packed.itemsize
        block = 1 << self._val_bits
        width = block >> 3  # bytes in a valuation block, 0 below a byte

        def mask(bit: int) -> int:
            lane = data[len(data) - size + (bit >> 3)::-size]
            if width:
                # a frame holding the edge sets the last byte of its block
                spaced = bytearray(width * len(lane))
                spaced[width - 1::width] = lane.translate(_BITS[bit & 7])
                low = int.from_bytes(spaced, "big")
            else:
                # a base-2**block digit per frame: the lowest bit of its block
                low = int(lane.translate(_DIGITS[bit & 7]) or b"0", 1 << block)
            return (low << block) - low  # fill each block from its lowest bit

        return [[mask(i * n + j) for j in range(n)] for i in range(n)]

    # -- decoding ----------------------------------------------------------

    def _decode(self, index: int) -> tuple[int, int]:
        """The relation bitmask and the valuation bitmask behind a bit
        position."""
        if not 0 <= index < self.count:
            raise IndexError(f"model index {index} out of range")
        # a window inside one frame starts part way through its valuations
        offset = self.window.start & (1 << self._val_bits) - 1
        rank, valuation = divmod(offset + index, 1 << self._val_bits)
        return self.frames[rank], valuation

    def model_at(self, index: int) -> KripkeModel:
        """The concrete model behind a bit position."""
        n, rel = self.frame_at(index)
        val_bits = self._decode(index)[1]
        val = {a: [w for w in range(n) if val_bits >> (ai * n + w) & 1]
               for ai, a in enumerate(self.atoms)}
        return KripkeModel(n, self.designated, rel, val, Signature(self.atoms))

    def frame_at(self, index: int) -> tuple[int, frozenset[tuple[int, int]]]:
        """World count and relation behind a bit position, ignoring the
        valuation.  Works on atom-free slabs where model_at cannot."""
        rel_bits = self._decode(index)[0]
        n = self.n
        rel = frozenset((i, j) for i in range(n) for j in range(n)
                        if rel_bits >> (i * n + j) & 1)
        return n, rel

    @staticmethod
    def first_index(mask: int) -> int:
        """Position of the lowest set bit, i.e. the canonically first model."""
        if mask == 0:
            raise ValueError("empty mask")
        return (mask & -mask).bit_length() - 1

    # -- formula truth -----------------------------------------------------

    def deep_truth(self, f: Formula, w: int, memo: dict | None = None) -> int:
        """Truth mask of a core formula at world w across the family.

        Box steps only into designated worlds, mirroring eval_deep.  memo
        maps (subformula, world) to its mask and may be shared between calls.
        """
        if memo is None:
            memo = {}
        key = (f, w)
        out = memo.get(key)
        if out is None:
            out = memo[key] = self._deep(f, w, memo, None)
        return out

    def _deep(self, f, w, memo, assignment):
        # f's mask at w from its children's masks, each read from memo or
        # evaluated and stored there; f's own mask is left to the caller,
        # so a call on a formula whose children are in memo evaluates one
        # node.  Metavariable leaves read their truth from the assigned
        # world sets, which is how schema_validity_mask evaluates instances
        t = type(f)
        full = self.full
        if t is Atom:
            try:
                out = self._val[f.name][w]
            except KeyError:
                raise ValueError(f"atom {f.name!r} is not in this slab") from None
        elif t is MetaVar:
            if assignment is None:
                raise ValueError("metavariable outside schema evaluation")
            out = full if w in assignment[f.name] else 0
        elif t is Not:
            key = (f.body, w)
            x = memo.get(key)
            if x is None:
                x = memo[key] = self._deep(f.body, w, memo, assignment)
            out = 0 if x is full else full if not x else full ^ x
        elif t is Implies:
            right = f.right
            if (type(right) is MetaVar and assignment is not None
                    and w in assignment[right.name]):
                return full  # a true consequent: the antecedent is not read
            key = (f.left, w)
            x = memo.get(key)
            if x is None:
                x = memo[key] = self._deep(f.left, w, memo, assignment)
            if not x:
                return full
            key = (right, w)
            y = memo.get(key)
            if y is None:
                y = memo[key] = self._deep(right, w, memo, assignment)
            if x is full or y is full:
                out = y
            elif not y:
                out = full ^ x
            else:
                out = (full ^ x) | y
        elif t is Box:
            # collect the models with a successor v where the body fails,
            # r & ~body(v), which is r itself where the body is 0, and
            # negate once
            body = f.body
            bad = 0
            row = self._rel[w]
            for v in self._dsorted:
                r = row[v]
                if not r:
                    continue
                key = (body, v)
                x = memo.get(key)
                if x is None:
                    x = memo[key] = self._deep(body, v, memo, assignment)
                if x is full:
                    continue
                bad = _join(full, bad, r if not x else _meet(full, r, full ^ x))
                if bad is full:
                    break
            out = _neg(full, bad)
        else:
            raise TypeError(f"cannot evaluate {f!r} (desugar first)")
        return out

    def validity_mask(self, f: Formula) -> int:
        """Models where f holds at every designated world."""
        memo: dict = {}
        out = self.full
        for w in self._dsorted:
            out = _meet(self.full, out, self._deep(f, w, memo, None))
        return out

    # -- translated-form truth ---------------------------------------------

    def core_truth(self, c: CoreForm, binding: Mapping[str, int],
                   memo: dict | None = None) -> int:
        """Truth mask of a translated form under a world-variable binding.

        Quantifiers range over the whole domain; the designated-set guard is
        the W predicate, which is constant per slab.  memo maps (form, world)
        to the form's mask with its one free variable bound to that world.
        Only such forms get entries: a translated subformula has exactly one
        free variable, and the guards under a quantifier, which have two,
        are read only through the quantifier's own entry.  Predicates are
        single look-ups and get none.
        """
        if memo is None:
            memo = {}
        return self._core(c, dict(binding), memo, None, False)

    def _core(self, c, binding, memo, scratch, top):
        # with a scratch dict, entries missing from memo are read from and
        # written to scratch, so memo does not grow; a top call neither
        # reads nor writes c's own entry.  Calls pass every argument:
        # CPython 3.11 specialises a method call only when no default is
        # filled in
        t = type(c)
        if t is PredW:
            return self.full if binding[c.var] in self.designated else 0
        if t is PredR:
            return self._rel[binding[c.src]][binding[c.dst]]
        if t is PredV:
            masks = self._val.get(c.atom)
            if masks is None:
                raise ValueError(f"atom {c.atom!r} is not in this slab")
            return masks[binding[c.var]]
        key = None
        if not top:
            free = c.free_sorted
            if len(free) == 1:
                key = (c, binding[free[0]])
                hit = memo.get(key)
                if hit is None and scratch is not None:
                    hit = scratch.get(key)
                if hit is not None:
                    return hit
        if t is CNot:
            out = self.full ^ self._core(c.body, binding, memo, scratch, False)
        elif t is CImp:
            out = ((self.full ^ self._core(c.left, binding, memo, scratch, False))
                   | self._core(c.right, binding, memo, scratch, False))
        elif t is ForallWorld:
            body = c.body
            # a leading designated-set guard lets us skip the worlds it rules out
            if type(body) is CImp and type(body.left) is PredW and body.left.var == c.var:
                domain = self._dsorted
            else:
                domain = range(self.n)
            out = self.full
            inner = dict(binding)
            for d in domain:
                inner[c.var] = d
                out &= self._core(body, inner, memo, scratch, False)
        else:
            raise TypeError(f"not a translated form: {c!r}")
        if key is not None:
            (memo if scratch is None else scratch)[key] = out
        return out

    # -- schemas -----------------------------------------------------------

    def schema_validity_mask(self, s: Formula, hints: dict[int, int]) -> int:
        """Models where every instantiation of s's metavariables by subsets
        of the designated worlds is valid.

        Concrete atoms read the valuation, so on an atom-free slab a schema
        whose leaves are all metavariables gives schema validity on the frame.

        The mask is the AND of one mask per valuation of the metavariables,
        and the loop stops at the first valuation that leaves it 0.  The
        order of the valuations only decides how many run before that: AND
        is commutative and 0 absorbs it, so the mask is the same in any
        order.  hints, shared by the tiles of one sweep of one schema, maps
        a world count to the valuation that last emptied a tile of that
        size; that valuation runs first, then the others in ascending order
        ({} runs them all in ascending order), and a valuation that empties
        this slab is written back.
        """
        names = metavars_of(s)
        full = self.full
        out = full
        ds = self._dsorted
        first = hints.get(self.n, 0)
        rest = 1 << (len(names) * len(ds))
        for choice in chain((first,), range(first), range(first + 1, rest)):
            assignment = _assignment(names, ds, choice)
            memo: dict = {}
            for w in ds:
                out = _meet(full, out, self._deep(s, w, memo, assignment))
            if not out:
                hints[self.n] = choice
                break
        return out

    # -- frame properties ----------------------------------------------------

    def property_mask(self, p: FrameProperty) -> int:
        """Models whose relation, restricted to the designated set, has p."""
        ds = self._dsorted
        full = self.full
        rel = self._rel
        out = full
        if p is FrameProperty.REFLEXIVE:
            for w in ds:
                out = _meet(full, out, rel[w][w])
        elif p is FrameProperty.SYMMETRIC:
            for i, w in enumerate(ds):
                for v in ds[i + 1:]:
                    out = _meet(full, out, _neg(full, rel[w][v] ^ rel[v][w]))
        elif p is FrameProperty.TRANSITIVE:
            # w R v and v R u give w R u.  Collect the models with an edge
            # w R v and a u with v R u but not w R u, and negate once; each
            # not-w-R-u is made once, and w = v or u = v needs no check
            missing = {(w, u): _neg(full, rel[w][u]) for w in ds for u in ds}
            bad = 0
            for w in ds:
                for v in ds:
                    step = rel[w][v]
                    if v == w or not step:
                        continue
                    gap = 0
                    for u in ds:
                        if u != v:
                            gap = _join(full, gap, _meet(full, rel[v][u], missing[w, u]))
                    bad = _join(full, bad, _meet(full, step, gap))
            out = _neg(full, bad)
        elif p is FrameProperty.SERIAL:
            for w in ds:
                some = 0
                for v in ds:
                    some = _join(full, some, rel[w][v])
                out = _meet(full, out, some)
        elif p is FrameProperty.EUCLIDEAN:
            # w R v and w R u give v R u; it holds outright when v = w
            for w in ds:
                for v in ds:
                    step = rel[w][v]
                    if v == w or not step:
                        continue
                    for u in ds:
                        out = _meet(full, out, _join(
                            full, _neg(full, _meet(full, step, rel[w][u])), rel[v][u]))
        elif p is FrameProperty.IRREFLEXIVE:
            for w in ds:
                out = _meet(full, out, _neg(full, rel[w][w]))
        elif p is FrameProperty.CONVERSE_WELL_FOUNDED:
            # cycle-free inside the designated set.  A world stays live while
            # it has a live successor; after len(ds) rounds a live world has
            # a path of len(ds) steps, which repeats a world, so the live
            # worlds are exactly those that reach a cycle
            live = dict.fromkeys(ds, full)
            for _ in ds:
                nxt = {}
                for w in ds:
                    some = 0
                    row = rel[w]
                    for v in ds:
                        some = _join(full, some, _meet(full, row[v], live[v]))
                    nxt[w] = some
                live = nxt
            cyc = 0
            for some in live.values():
                cyc = _join(full, cyc, some)
            out = _neg(full, cyc)
        else:
            raise TypeError(f"unknown frame property {p!r}")
        return out

    def properties_mask(self, props: Iterable[FrameProperty]) -> int:
        """Models whose relation, restricted to the designated set, has every
        property in props."""
        full = self.full
        out = full
        for p in props:
            out = _meet(full, out, self.property_mask(p))
        return out
