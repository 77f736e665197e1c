"""Bounded exhaustive countermodel search and graph export.

Models are enumerated in a fixed canonical order: ascending world count,
then relation bitmask, then valuation bitmask.  The first model (in that
order) that satisfies the requested frame properties and falsifies the
formula at some world wins, which makes results reproducible and minimal in
world count.  Valuations range only over the atoms that occur in the
formula; the designated set is always the full domain during search.

The search never builds a model whose frame lacks a requested property:
for each world count it walks the admitted frames with bitgrid.slabs, in
ascending windows of models, and evaluates the formula once per window.
The first falsifying index of the first window that has one is the
canonically first countermodel, so the search stops there.  The scalar
evaluator and property checks re-check that model, and a disagreement
raises AssertionError, under python -O too.

Up to bitgrid.ISOMORPH_FREE_WORLDS worlds the walk is isomorph-free: it
takes one frame per isomorphism class, the one with the least relation
bitmask (3,044 of the 65,536 frames at 4 worlds), with every valuation.
The first countermodel in canonical order has such a frame, so the answer
is the one a walk over every frame gives (bitgrid._isomorph_free has the
argument).  From 5 worlds on the walk takes every admitted frame; with
properties it lists them first, in one sweep over all the frames of the
size.  The canonical frames of a size are memoised once per process and
property set, 6 KiB at most; a 5-world list is built afresh for each
search and takes 4 bytes a frame, 128 MiB at most.

The search charges its work to bitgrid.MAX_WORK as it goes, adding up the
world counts it has reached: before a listing, the property masks over
every frame of the size and a step for each frame, and before a walk, the
walk's over the list it takes.  So a question answered at a small world
count is answered whatever the bound, and one over the budget raises
ResourceLimitExceeded before the list or slab that would pass it is
built.
"""

from __future__ import annotations

from typing import Collection

from .bitgrid import ISOMORPH_FREE_WORLDS, OP_FLOOR, admitted, charge, slabs, work
from .kripke import FrameProperty, KripkeModel, eval_deep, has_property
from .syntax import Formula, Signature, atoms_of, desugar, signature_for, size


def find_countermodel(f: Formula, props: Collection[FrameProperty], max_worlds: int,
                      sig: Signature) -> tuple[KripkeModel, int] | None:
    """First model up to max_worlds (canonical order) with all props where
    f fails at some world, or None when no such model exists in the bound.
    Raises ResourceLimitExceeded when the search is over the budget before
    it is answered."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    goal = desugar(f, signature_for(f, sig))
    props = frozenset(props)
    atoms = tuple(sorted(atoms_of(goal)))
    nodes = size(goal)
    what = f"a countermodel search with {len(atoms)} atoms up to {max_worlds} worlds"
    spent = 0
    for n in range(1, max_worlds + 1):
        if props and n > ISOMORPH_FREE_WORLDS:
            # the property masks of every frame, and a quarter of an
            # operation's floor for each frame the listing may take
            spent = charge(spent + work(len(props) * n ** 3, 1 << n * n)
                           + (OP_FLOOR >> 2 << n * n), what)
        frames = admitted(n, props, isomorph_free=True)
        # a slab builds each valuation mask in about ten operations, and a
        # ranked one each relation mask from byte lanes in about 25; the
        # formula takes about one operation per node and world
        ops = n * (10 * len(atoms) + nodes) + (0 if type(frames) is range else 25 * n * n)
        spent = charge(spent + work(ops, len(frames) << len(atoms) * n), what)
        for slab in slabs(n, atoms, frames):
            # falsified somewhere: the complement of "true at every world"
            failing = slab.full ^ slab.validity_mask(goal)
            if not failing:
                continue
            model = slab.model_at(slab.first_index(failing))
            # re-check the model with the scalar evaluator and properties
            world = next((w for w in range(n) if not eval_deep(model, w, goal)), None)
            if world is None:
                raise AssertionError(
                    f"search returned a model where {f} holds at every world")
            if not all(has_property(model, p) for p in props):
                raise AssertionError(
                    "search returned a model violating a requested frame property")
            return model, world
    return None


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
