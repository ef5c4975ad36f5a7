"""Seeded dimer tree quivers for the benchmark, as plain JSON documents.

`glued_dimer_tree` follows the generator of the same name in the test suite:
it glues chordless cycles of the given lengths along boundary arrows chosen by
the attach indices, so every result is a valid dimer tree.  It builds the
document directly, so making inputs never calls the program under test.
"""
from __future__ import annotations

import random


def glued_dimer_tree(lengths, attach, name="glued") -> dict:
    if not lengths or any(n < 3 for n in lengths):
        raise ValueError(f"cycle lengths must be >= 3: {lengths}")
    n0 = lengths[0]
    vertices = list(range(1, n0 + 1))
    arrows = [(i, i % n0 + 1) for i in range(1, n0 + 1)]
    pool = list(arrows)
    nxt = n0 + 1
    for length, k in zip(lengths[1:], attach):
        s, t = pool.pop(k % len(pool))
        fresh = list(range(nxt, nxt + length - 2))
        nxt += length - 2
        vertices.extend(fresh)
        chain = [t] + fresh + [s]
        new = list(zip(chain, chain[1:]))
        arrows.extend(new)
        pool.extend(new)
    return {"name": name, "vertices": vertices,
            "arrows": [[s, t] for s, t in arrows]}


def draw_tree(rng: random.Random, k: int, name="glued") -> dict:
    """One draw of the scaling recipe: k cycle lengths in 3..6, then k - 1
    attach indices in 0..100."""
    lengths = [rng.randint(3, 6) for _ in range(k)]
    attach = [rng.randint(0, 100) for _ in range(k - 1)]
    return glued_dimer_tree(lengths, attach, name)


def shuffled_tree(rng: random.Random, lengths, name="glued") -> dict:
    """A tree whose cycles have the given lengths in a random order, glued at
    random attach indices: the size is fixed and only the shape varies."""
    order = list(lengths)
    rng.shuffle(order)
    attach = [rng.randint(0, 100) for _ in order[1:]]
    return glued_dimer_tree(order, attach, name)


def scaling_family(seed: int) -> dict[int, dict]:
    """The k = 4, 8, 16 draws in that order from `random.Random(seed)`.
    Seed 1 gives the quivers the roadmap's size table lists."""
    rng = random.Random(seed)
    return {k: draw_tree(rng, k, f"glued_k{k}") for k in (4, 8, 16)}
