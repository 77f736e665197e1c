"""Bounded exhaustive countermodel search and graph export.

Models are enumerated in a fixed canonical order: ascending world count,
then relation bitmask, then valuation bitmask.  The first model (in that
order) that satisfies the requested frame properties and falsifies the
formula at some world wins, which makes results reproducible and minimal in
world count.  Valuations range only over the atoms that occur in the
formula; the designated set is always the full domain during search.

The search never builds a model whose frame lacks a requested property:
for each world count it takes its slabs from bitgrid.slabs, the walk over
the admitted frames in ascending chunks of models, which holds the size to
the budget of bitgrid.MAX_PATTERN_BYTES before any chunk is built and
raises ResourceLimitExceeded over it.  The first falsifying index of the
first chunk that has one is the canonically first countermodel, so the
search stops there.

Admitted frame lists are memoised per process, as compact arrays keyed by
world count and property set (and by atom count where the budget can
refuse the list), so repeated searches list each set once.  The memo keeps
the 128 most recently used keys.  A 4-world list takes at most 128 KiB and
a 5-world list that the budget admits for one atom about 4.3 MiB, so the
memoised list, not a chunk, is the largest structure a search keeps.
"""

from __future__ import annotations

from itertools import product

from .bitgrid import slabs
from .kripke import FrameProperty, KripkeModel, eval_deep, has_property
from .syntax import Formula, Signature, atoms_of, desugar


def search_atoms(f: Formula, sig: Signature) -> tuple[str, ...]:
    """The atoms a countermodel search has to assign: those in f after
    desugaring (so true/false contribute the signature's first atom)."""
    return tuple(sorted(atoms_of(desugar(f, sig)))) or (sig.atoms[0],)


def enumerate_models(n_worlds: int, atoms: tuple[str, ...]):
    """Yield every model with the given domain size in canonical order.

    This is the reference enumeration: 2^(n*n) relations, each with
    2^(len(atoms)*n) valuations, relation bitmask major, where pair (i, j)
    is bit i*n + j and atom k at world w is bit k*n + w.  It shares no code
    with the slabs of find_countermodel; tests compare the two.
    """
    n = n_worlds
    pairs = [(i, j) for i in range(n) for j in range(n)]
    cells = [(a, w) for a in atoms for w in range(n)]
    sig = Signature(atoms)
    for rel_bits, val_bits in product(range(1 << len(pairs)), range(1 << len(cells))):
        rel = [pair for k, pair in enumerate(pairs) if rel_bits >> k & 1]
        val = {a: [] for a in atoms}
        for k, (a, w) in enumerate(cells):
            if val_bits >> k & 1:
                val[a].append(w)
        yield KripkeModel(n, range(n), rel, val, sig)


def find_countermodel(f: Formula, props: set[FrameProperty], max_worlds: int,
                      sig: Signature) -> tuple[KripkeModel, int] | None:
    """First model up to max_worlds (canonical order) with all props where
    f fails at some world, or None when no such model exists in the bound."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    missing = atoms_of(f) - set(sig.atoms)
    if missing:
        raise ValueError(f"formula uses atoms outside the signature: {sorted(missing)}")
    atoms = search_atoms(f, sig)
    goal = desugar(f, sig)
    for n in range(1, max_worlds + 1):
        for slab in slabs(n, atoms, props):
            # falsified somewhere: the complement of "true at every world"
            failing = slab.full ^ slab.validity_mask(goal)
            if not failing:
                continue
            model = slab.model_at(slab.first_index(failing))
            world = next(w for w in range(n)
                         if not eval_deep(model, w, goal))
            assert all(has_property(model, p) for p in props), \
                "search returned a model violating a requested frame property"
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
