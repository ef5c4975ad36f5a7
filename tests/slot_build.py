"""The checkerboard's earlier construction, kept as a differential reference.

It lays the boundary triangles through seven slot tables (`slots`,
`pos_of_slot`, `slot_pos`, `slot_line`, `line_slots`, `label_of` and
`tail_triangle`) and orders each line's crossings from an `incident` list
and a `pair_of` table.  `dimertree.checkerboard.build_checkerboard` walks
the triangles once instead; on every dimer tree the two builds must give
the same `polygon_to_dict`.

`build_checkerboard` and `_fan_order` are the earlier bodies, unchanged.
"""
from __future__ import annotations

from dimertree.checkerboard import (CheckerboardError, CheckerboardPolygon,
                                    Crossing, Node, RadicalLine, Segment,
                                    ShadedRegion, WhiteRegion, _cocycle_first)
from dimertree.quiver import (Quiver, StructureReport, dimer_tree_structure,
                              weight_report)


def build_checkerboard(q: Quiver,
                       structure: StructureReport | None = None) -> CheckerboardPolygon:
    if structure is None:
        structure = dimer_tree_structure(q, "checkerboard")
    wr = weight_report(q, structure)
    entries = wr.by_arrow()

    # the triangle walk starts at the least boundary arrow
    nxt = _cocycle_first(wr)
    first = min(entries)
    order = [first]
    while True:
        b = nxt[order[-1]]
        if b == first:
            break
        if b in order:
            raise CheckerboardError(
                "arrangement inconsistency: triangle walk closed early")
        order.append(b)
    if len(order) != len(entries):
        raise CheckerboardError(
            "arrangement inconsistency: triangle walk misses boundary arrows")

    # slots clockwise: (triangle arrow, role); positions merge across a gap
    # whenever the white region there has an odd cycle path
    slots: list[tuple[str, str]] = []
    for a in order:
        slots.append((a, "src"))
        slots.append((a, "tgt"))
    pos_of_slot: dict[tuple[str, str], int] = {}
    pos = 0
    for i, a in enumerate(order):
        pos_of_slot[(a, "src")] = pos
        pos += 1
        pos_of_slot[(a, "tgt")] = pos
        # gap to the next triangle: the white region of the next arrow either
        # contributes a boundary edge (weight 2) or merges the facing slots
        if entries[order[(i + 1) % len(order)]].weight == 2:
            pos += 1
    # positions are 0..pos-1; a trailing merge aliases the last slot to 0
    size = pos
    if size != wr.total_weight:
        raise CheckerboardError(
            f"polygon size {size} differs from total weight {wr.total_weight}")

    def slot_pos(slot):
        p = pos_of_slot[slot]
        return p % size

    # line of each slot
    slot_line = {}
    for a in order:
        arr = q.arrow_by_id[a]
        slot_line[(a, "src")] = arr.source
        slot_line[(a, "tgt")] = arr.target
    line_slots: dict[object, list[tuple[str, str]]] = {}
    for s in slots:
        line_slots.setdefault(slot_line[s], []).append(s)
    for v, ss in line_slots.items():
        if len(ss) != 2:
            raise CheckerboardError(
                f"line of vertex {v!r} has {len(ss)} endpoints")
    if len(line_slots) != len(q.vertices):
        raise CheckerboardError("some vertex has no radical line")

    # canonical rotation: label 1 at a deterministic slot of the minimal
    # vertex's line, chosen so that slot becomes the line's tail (odd label)
    vmin = q.sorted_vertices()[0]
    origin_slot = min(line_slots[vmin],
                      key=lambda s: (0 if s[1] == "src" else 1, s[0]))
    origin = slot_pos(origin_slot)

    def label_of(slot) -> int:
        return (slot_pos(slot) - origin) % size + 1

    lines: dict[object, RadicalLine] = {}
    for v, (s1, s2) in ((v, tuple(ss)) for v, ss in line_slots.items()):
        l1, l2 = label_of(s1), label_of(s2)
        if (l1 - l2) % 2 == 0:
            raise CheckerboardError(
                f"parity walk fails to close at vertex {v!r}: labels {l1},{l2}")
        tail, head = (l1, l2) if l1 % 2 == 1 else (l2, l1)
        lines[v] = RadicalLine(v, tail, head, [])

    # order crossings along each line by the fan of cycles at the vertex
    tail_triangle: dict[object, str] = {}
    for v, ss in line_slots.items():
        for s in ss:
            if label_of(s) == lines[v].tail:
                tail_triangle[v] = s[0]
    for v in q.vertices:
        lines[v].crossings = _fan_order(q, structure, v, tail_triangle[v])

    crossings: dict[str, Crossing] = {}
    for a in q.arrows:
        crossings[a.id] = Crossing(
            a.id, (a.source, a.target),
            (lines[a.source].crossings.index(a.id),
             lines[a.target].crossings.index(a.id)))

    # regions
    shaded: list[ShadedRegion] = []
    whites: list[WhiteRegion] = []

    def seg(v, n1: Node, n2: Node) -> Segment:
        line = lines[v]
        return Segment(v, n1, n2,
                       line.position_of(n1) < line.position_of(n2))

    for a in order:
        arr = q.arrow_by_id[a]
        sl, tl = label_of((a, "src")), label_of((a, "tgt"))
        shaded.append(ShadedRegion(
            "boundary_arrow", a,
            [seg(arr.source, Node("end", sl), Node("x", a)),
             seg(arr.target, Node("x", a), Node("end", tl))],
            boundary_edge=(sl, tl)))
    for c in structure.cycles:
        segs = []
        for i, v in enumerate(c.vertices):
            ain = c.arrows[(i - 1) % len(c.arrows)]
            aout = c.arrows[i]
            segs.append(seg(v, Node("x", ain), Node("x", aout)))
        shaded.append(ShadedRegion("cycle", c.vertices, segs))
    for a in order:
        cp = entries[a].cycle_path
        route = cp.vertex_route(q)
        segs = [seg(route[0], Node("end", label_of((a, "src"))),
                    Node("x", cp.arrows[0]))]
        for k in range(1, cp.length):
            segs.append(seg(route[k], Node("x", cp.arrows[k - 1]),
                            Node("x", cp.arrows[k])))
        last_arrow = cp.arrows[-1]
        end_label = label_of((last_arrow, "tgt"))
        segs.append(seg(route[-1], Node("x", last_arrow),
                        Node("end", end_label)))
        start_label = label_of((a, "src"))
        if entries[a].weight == 1:
            if end_label != start_label:
                raise CheckerboardError(
                    f"white region of {a} should close at one vertex")
            contact = ("vertex", end_label)
        else:
            if (start_label - end_label) % size != 1:
                raise CheckerboardError(
                    f"white region of {a} should have one boundary edge")
            contact = ("edge", (end_label, start_label))
        whites.append(WhiteRegion(a, segs, contact))

    cp = CheckerboardPolygon(q, size, wr, lines, crossings, shaded,
                             whites, order)
    return cp


def _fan_order(q: Quiver, structure: StructureReport, v, first_boundary: str) -> list[str]:
    """Arrows at v ordered by the chain of cycles around v, starting from the
    boundary arrow whose triangle hosts the line's tail."""
    incident = sorted({a.id for a in q.out_arrows[v]} | {a.id for a in q.in_arrows[v]})
    cycles_at_v = [c for c in structure.cycles if v in c.vertices]
    pair_of = {}
    for c in cycles_at_v:
        i = c.vertices.index(v)
        ain = c.arrows[(i - 1) % len(c.arrows)]
        aout = c.arrows[i]
        pair_of[c.key] = (ain, aout)
    adj: dict[str, list[str]] = {a: [] for a in incident}
    for ain, aout in pair_of.values():
        adj[ain].append(aout)
        adj[aout].append(ain)
    order = [first_boundary]
    prev = None
    while True:
        nbrs = [x for x in adj[order[-1]] if x != prev]
        if not nbrs:
            break
        if len(nbrs) > 1:
            raise CheckerboardError(f"cycle fan at {v!r} is not a chain")
        prev = order[-1]
        order.append(nbrs[0])
    if len(order) != len(incident):
        raise CheckerboardError(f"cycle fan at {v!r} does not reach all arrows")
    return order
