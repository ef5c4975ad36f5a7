"""The structure audit's earlier bodies, kept as differential references.

`validate_dimer_tree` makes its own pass over the arrows to count the
boundary arrows at each vertex, and `leaf_cycles` counts each cycle's
interior arrows afresh; `is_tree` searches the dual graph from cycle 0 and
`build_potential` searches it again from the base leaf; `path_weights`
calls `_walk` once per boundary arrow.  `dimertree.quiver` reads the counts
`_analyze_structure` records in its one loop over the arrows, searches the
dual graph once from the base leaf, and walks all boundary arrows in one
call; on every quiver the two must give the same items, base leaf,
distances and weights.

The function bodies are the earlier ones, unchanged but for three things:
the trunk is read off the structure report and searched by
`cycle_distances_from` (the dual graph was a separate object with its own
search); `validate_dimer_tree` reads it through `is_tree` here; and
`build_potential` is the earlier build of the potential, which searches
the dual graph afresh on every call, writing its terms as signed words.
"""
from __future__ import annotations

from dimertree.quiver import (Check, ChordlessCycle, PotentialTerm, Quiver,
                              QuiverError, StructureReport, ValidationReport,
                              analyze_structure, cycle_distances_from)


def is_tree(structure: StructureReport) -> bool:
    n = len(structure.cycles)
    return (n > 0 and len(structure.trunk_edges) == n - 1
            and len(cycle_distances_from(n, structure.trunk_edges, 0)) == n)


def _walk(structure: StructureReport, step: list[dict[str, str]],
          arrow_id: str) -> int:
    kind, owners = structure.classification, structure.owners
    current = arrow_id
    ci = owners[arrow_id][0]
    length = 1
    while True:
        current = step[ci][current]
        length += 1
        if kind[current] == "boundary":
            return length
        own = owners[current]
        ci = own[0] if own[1] == ci else own[1]


def path_weights(structure: StructureReport, direction: str) -> dict[str, int]:
    step = [c.next_arrows(direction) for c in structure.cycles]
    return {a: 1 if _walk(structure, step, a) % 2 == 1 else 2
            for a, kind in structure.classification.items() if kind == "boundary"}


def validate_dimer_tree(q: Quiver) -> ValidationReport:
    """Check the defining axioms and their structural consequences."""
    checks: list[Check] = []
    structure = analyze_structure(q)
    kind = structure.classification
    bad_q1, overloaded = [], []
    incident = dict.fromkeys(q.vertices, 0)     # boundary arrows at a vertex
    for a in q.arrows:
        k = kind[a.id]
        if k == "boundary":
            incident[a.source] += 1
            incident[a.target] += 1
        elif k == "none":
            bad_q1.append(a.id)
        elif k == "overloaded":
            overloaded.append(a.id)

    checks.append(Check(
        "every_arrow_on_a_cycle", not bad_q1,
        "" if not bad_q1 else f"arrows in no cycle: {sorted(bad_q1)}"))

    tree = is_tree(structure)
    detail = ""
    if not tree:
        # each boundary arrow is one node and one edge of the dual graph
        b = len(structure.boundary_arrows)
        detail = (f"dual graph has {len(structure.cycles) + b} nodes "
                  f"and {len(structure.trunk_edges) + b} edges")
    checks.append(Check("dual_graph_is_tree", tree, detail))

    # the quiver indexes the first arrow of each (source, target) pair
    parallel = ""
    if len(q._arrow_index) != len(q.arrows):
        a = next(a for a in q.arrows if q._arrow_index[a.source, a.target] is not a)
        first = q._arrow_index[a.source, a.target]
        parallel = (f"arrows {first.id} and {a.id} both run "
                    f"{a.source!r}->{a.target!r}")
    checks.append(Check("no_parallel_arrows", not parallel, parallel))

    checks.append(Check(
        "every_arrow_in_at_most_two_cycles", not overloaded,
        "" if not overloaded else f"arrows: {sorted(overloaded)}"))

    # two cycles share exactly the arrows of the trunk edges between them
    shared: dict[tuple[int, int], list[str]] = {}
    for i, j, aid in structure.trunk_edges:
        shared.setdefault((i, j), []).append(aid)
    overshared = [(pair, ids) for pair, ids in shared.items() if len(ids) > 1]
    share_ok = not overshared
    detail = ""
    if overshared:
        (i, j), ids = max(overshared)
        detail = (f"cycles {structure.cycles[i]} and {structure.cycles[j]} "
                  f"share {sorted(ids)}")
    checks.append(Check("cycles_share_at_most_one_arrow", share_ok, detail))

    vertex_ok = True
    detail = ""
    if not bad_q1 and not overloaded:
        for v, n in incident.items():
            if n != 2:
                vertex_ok = False
                detail = f"vertex {v!r} is incident to {n} boundary arrows"
                break
    else:
        vertex_ok = False
        detail = "skipped: arrow classification failed"
    checks.append(Check("vertex_has_two_boundary_arrows", vertex_ok, detail))

    return ValidationReport(checks, structure)


def leaf_cycles(structure: StructureReport) -> list[ChordlessCycle]:
    """Cycles with exactly one interior arrow (all cycles if there is one)."""
    if len(structure.cycles) == 1:
        return list(structure.cycles)
    kind = structure.classification
    return [c for c in structure.cycles
            if [kind[a] for a in c.arrows].count("interior") == 1]


def build_potential(structure: StructureReport) -> list[PotentialTerm]:
    candidates = leaf_cycles(structure)
    if not candidates:
        raise QuiverError("no chordless cycle with exactly one interior arrow")
    base_idx = structure.cycles.index(min(candidates, key=lambda c: c.key))
    dist_by_idx = cycle_distances_from(len(structure.cycles),
                                       structure.trunk_edges, base_idx)
    return [PotentialTerm((-1) ** dist_by_idx[i], c.word)
            for i, c in enumerate(structure.cycles)]
