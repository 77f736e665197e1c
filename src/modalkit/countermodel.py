"""Bounded exhaustive countermodel search and graph export.

Models are enumerated in a fixed canonical order: ascending world count,
then relation bitmask, then valuation bitmask.  The first model (in that
order) that satisfies the requested frame properties and falsifies the
formula at some world wins, which makes results reproducible and minimal in
world count.  Valuations range only over the atoms that occur in the
formula; the designated set is always the full domain during search.

One walk answers several property sets at once, and a search for one set
is its one-set case.  For each world count the walk takes the frames that
have every property of at least one still-pending set, with bitgrid.slabs,
in ascending windows of models, and evaluates the formula once per window.
A set's own frames are the window's frames that also have its properties
beyond those every pending set shares; each property's mask is built at
most once per window.  The first falsifying index among a set's own
frames, in the first window that has one, is the set's canonically first
countermodel, so the set is answered there and leaves the walk, and the
walk stops when no set is pending.  The scalar evaluator and property
checks re-check each answer, and a disagreement raises AssertionError,
under python -O too.

Each set's own frames are an ascending sublist of the walked list, so the
walk keeps each set's first countermodel.  The walked frames have the
properties every pending set shares, and are no more than the sets' own
frames together, so the walk is never longer than the one over the shared
frames, nor than the walks over each set's own frames in turn.  While the
set without properties is pending, the walk is its search.

Up to bitgrid.ISOMORPH_FREE_WORLDS worlds the walk is isomorph-free: it
takes one frame per isomorphism class, the one with the least relation
bitmask (3,044 of the 65,536 frames at 4 worlds), with every valuation.
The first countermodel in canonical order has such a frame, so the answer
is the one a walk over every frame gives (bitgrid._isomorph_free has the
argument).  A set's canonical frames are the canonical frames of the
union that have its properties, so masking the walked list keeps every
set's answer.  From 5 worlds on the walk takes every admitted frame; when
every pending set has properties it lists them first, in one sweep over
all the frames of the size.  The canonical frames of a size are memoised
once per process and family of property sets, 6 KiB at most; a 5-world
list is built afresh for each walk and takes 4 bytes a frame, 128 MiB at
most, one list at a time.

The walk charges its work to bitgrid.MAX_WORK as it goes, adding up the
world counts it has reached: before a listing, the property masks of the
pending sets' properties over every frame of the size and a step for each
frame, and before a walk, the walk's over the list it takes.  So a
question answered at a small world count is answered whatever the bound,
and one over the budget raises ResourceLimitExceeded before the list or
slab that would pass it is built.  By the two subset arguments above,
the charge at each world count is at most the sets' own charges together,
and at least each set's own, so where the walk is within the budget every
set's own search is too.  A set's own masks are not charged: with one set
none is built, and the walk's charge is that set's.
"""

from __future__ import annotations

from typing import Collection, Sequence

from .bitgrid import ISOMORPH_FREE_WORLDS, OP_FLOOR, admitted, charge, slabs, work
from .kripke import FrameProperty, KripkeModel, eval_deep, has_property
from .syntax import Formula, Signature, atoms_of, desugar, size


def find_countermodel(f: Formula, props: Collection[FrameProperty], max_worlds: int,
                      sig: Signature) -> tuple[KripkeModel, int] | None:
    """First model up to max_worlds (canonical order) with all props where
    f fails at some world, or None when no such model exists in the bound:
    the one-set case of find_countermodels."""
    return find_countermodels(f, [props], max_worlds, sig)[0]


def find_countermodels(f: Formula, prop_sets: Sequence[Collection[FrameProperty]],
                       max_worlds: int, sig: Signature
                       ) -> list[tuple[KripkeModel, int] | None]:
    """find_countermodel's answer for each property set, from one walk.
    Raises ResourceLimitExceeded when the walk is over the budget before
    every set is answered."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    missing = atoms_of(f) - set(sig.atoms)
    if missing:
        raise ValueError(f"formula uses atoms outside the signature: {sorted(missing)}")
    goal = desugar(f, sig)
    atoms = tuple(sorted(atoms_of(goal)))
    nodes = size(goal)
    what = f"a countermodel search with {len(atoms)} atoms up to {max_worlds} worlds"
    found: list[tuple[KripkeModel, int] | None] = [None] * len(prop_sets)
    pending = {i: frozenset(props) for i, props in enumerate(prop_sets)}
    spent = 0
    for n in range(1, max_worlds + 1):
        if not pending:
            break
        if n > ISOMORPH_FREE_WORLDS and all(pending.values()):
            # the property masks of every frame, and a quarter of an
            # operation's floor for each frame the listing may take
            listed = frozenset().union(*pending.values())
            spent = charge(spent + work(len(listed) * n ** 3, 1 << n * n)
                           + (OP_FLOOR >> 2 << n * n), what)
        frames = admitted(n, *pending.values(), isomorph_free=True)
        # a slab builds each valuation mask in about ten operations, and a
        # ranked one each relation mask from byte lanes in about 25; the
        # formula takes about one operation per node and world
        ops = n * (10 * len(atoms) + nodes) + (0 if type(frames) is range else 25 * n * n)
        spent = charge(spent + work(ops, len(frames) << len(atoms) * n), what)
        shared = frozenset.intersection(*pending.values())
        for slab in slabs(n, atoms, frames):
            # falsified somewhere: the complement of "true at every world"
            failing = slab.full ^ slab.validity_mask(goal)
            if not failing:
                continue
            masks: dict[FrameProperty, int] = {}
            for i in list(pending):
                # the set's own frames among the walked ones
                hits = failing
                for p in pending[i] - shared:
                    if p not in masks:
                        masks[p] = slab.property_mask(p)
                    hits &= masks[p]
                if not hits:
                    continue
                model = slab.model_at(slab.first_index(hits))
                # re-check the model with the scalar evaluator and properties
                world = next((w for w in range(n) if not eval_deep(model, w, goal)), None)
                if world is None:
                    raise AssertionError(
                        f"search returned a model where {f} holds at every world")
                if not all(has_property(model, p) for p in pending[i]):
                    raise AssertionError(
                        "search returned a model violating a requested frame property")
                found[i] = model, world
                del pending[i]
            if not pending:
                break
    return found


def export_dot(m: KripkeModel, marked: int, f: Formula) -> str:
    """Deterministic digraph text for a (counter)model.

    One node per world carrying the world name and the literal facts for
    the atoms of f; the marked world gets an entry arrow from a point node.
    """
    if marked not in m.worlds:
        raise ValueError(f"marked world {marked} is not in the model")
    shown = sorted(atoms_of(desugar(f, m.sig)))
    lines = ["digraph countermodel {", "  rankdir=LR;",
             '  init [shape=point, label=""];']
    for w in sorted(m.worlds):
        facts = " ".join(a if m.atom_true(a, w) else "~" + a for a in shown)
        label = f"w{w}\\n{facts}" if facts else f"w{w}"
        lines.append(f'  w{w} [shape=circle, label="{label}"];')
    lines.append(f"  init -> w{marked};")
    for u, v in sorted(m.rel):
        lines.append(f"  w{u} -> w{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
