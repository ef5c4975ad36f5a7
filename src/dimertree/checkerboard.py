"""Checkerboard polygon of a dimer tree quiver.

The pattern lives on a polygon with as many boundary edges as the quiver's
total weight.  Each quiver vertex contributes one oriented radical line (a
2-diagonal), each arrow one crossing, each chordless cycle an interior shaded
region, each boundary arrow a shaded boundary triangle, and each boundary
arrow additionally one white region whose bounding segments spell out its
cycle path.

Construction outline: boundary triangles are laid clockwise in the cyclic
order alpha -> first arrow of the cocycle path of alpha; inside a triangle the
source line's endpoint precedes the target line's endpoint.  Consecutive
triangles are separated by the white region of the arrow whose cycle path
ends between them; that white region contributes one boundary edge when the
path has even length and collapses to a shared polygon vertex when odd.
Labels 1..2N are then read off clockwise, lines are oriented from their odd
endpoint, and crossings are ordered along each line by the fan of cycles
around the quiver vertex.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

from . import diagonals
from .diagonals import TwoDiagonal
from .quiver import (
    Check,
    Quiver,
    Report,
    StructureReport,
    WeightReport,
    _vkey,
    dimer_tree_structure,
    validate_dimer_tree,
    weight_report,
)


class CheckerboardError(ValueError):
    pass


@dataclass(frozen=True)
class Node:
    kind: str      # "end" (polygon vertex) | "x" (crossing)
    key: object    # polygon label | arrow id

    def to_doc(self):
        return {self.kind: self.key}

    @staticmethod
    def from_doc(doc):
        (kind, key), = doc.items()
        return Node(kind, key)


@dataclass(frozen=True)
class Segment:
    line: object       # quiver vertex of the radical line this segment lies on
    start: Node
    end: Node
    forward: bool      # traversal agrees with the line's tail->head direction


@dataclass
class RadicalLine:
    vertex: object
    tail: int
    head: int
    crossings: list[str]     # arrow ids in order from tail to head

    def diagonal(self) -> TwoDiagonal:
        return TwoDiagonal(self.tail, self.head)

    def node_chain(self) -> list[Node]:
        return ([Node("end", self.tail)]
                + [Node("x", a) for a in self.crossings]
                + [Node("end", self.head)])

    def position_of(self, node: Node) -> int:
        if node.kind == "end":
            return -1 if node.key == self.tail else len(self.crossings)
        return self.crossings.index(node.key)


@dataclass
class Crossing:
    arrow: str
    lines: tuple[object, object]      # (source vertex, target vertex)
    positions: tuple[int, int]        # index along each line, tail side first


@dataclass
class ShadedRegion:
    kind: str                          # "cycle" | "boundary_arrow"
    key: object                        # cycle vertex tuple | arrow id
    segments: list[Segment]
    boundary_edge: tuple[int, int] | None = None   # clockwise label pair


@dataclass
class WhiteRegion:
    arrow: str                         # boundary arrow whose cycle path it spells
    segments: list[Segment]
    contact: tuple[str, object]        # ("edge", (l1, l2)) | ("vertex", label)


@dataclass
class CheckerboardPolygon:
    q: Quiver
    size: int
    weights: WeightReport
    lines: dict[object, RadicalLine]
    crossings: dict[str, Crossing]
    shaded: list[ShadedRegion]
    whites: list[WhiteRegion]
    triangle_order: list[str]          # boundary arrows clockwise
    # diagonal -> (the presentations along its rotation orbit, its position
    # there), filled one whole orbit at a time by syzygy.resolution; the
    # lines must not change once a resolution has been read
    orbits: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def half(self) -> int:
        return self.size // 2

    @cached_property
    def line_diagonals(self) -> list[tuple[object, TwoDiagonal]]:
        """(vertex, radical line) pairs in vertex order."""
        return [(v, self.lines[v].diagonal())
                for v in sorted(self.lines, key=_vkey)]

    def radical_line_of(self, vertex) -> TwoDiagonal:
        if vertex not in self.lines:
            raise CheckerboardError(f"unknown vertex {vertex!r}")
        return self.lines[vertex].diagonal()


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _cocycle_first(wr: WeightReport) -> dict[str, str]:
    return {e.arrow: e.cocycle_path.arrows[0] for e in wr.entries}


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


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_checkerboard(cp: CheckerboardPolygon, q: Quiver | None = None,
                          structure: StructureReport | None = None) -> Report:
    q = q or cp.q
    if structure is None:
        structure = validate_dimer_tree(q).structure
    n = cp.half
    checks: list[Check] = []

    def add(name, passed, detail=""):
        checks.append(Check(name, bool(passed), detail))

    add("boundary_edge_count_equals_total_weight",
        cp.size == cp.weights.total_weight,
        f"size {cp.size}, total weight {cp.weights.total_weight}")

    bad = []
    for v, line in cp.lines.items():
        try:
            d = diagonals.make_diagonal(line.tail, line.head, n)
            if d.tail != line.tail:
                bad.append(f"{v}: orientation disagrees with parity")
        except diagonals.DiagonalError as exc:
            bad.append(f"{v}: {exc}")
    add("radical_lines_are_oriented_2_diagonals", not bad, "; ".join(bad))

    # coincident lines are allowed (isomorphic radicals run as parallel
    # strands); they must then join vertices with no arrow between them,
    # which the crossing check below enforces

    # crossings match arrows, via the label geometry alone
    bad = []
    verts = q.sorted_vertices()
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            u, v = verts[i], verts[j]
            has_arrow = (q.arrow_between(u, v) is not None
                         or q.arrow_between(v, u) is not None)
            cross = diagonals.crosses(cp.lines[u].diagonal(),
                                      cp.lines[v].diagonal(), n)
            if has_arrow != cross:
                bad.append(f"{u},{v}: arrow={has_arrow} crossing={cross}")
    add("crossings_iff_arrows", not bad, "; ".join(bad[:4]))
    add("crossing_count_equals_arrow_count",
        len(cp.crossings) == len(q.arrows))

    bad = [f"{v}: {len(cp.lines[v].crossings)} crossings, degree {deg}"
           for v in verts
           for deg in [len(q.out_arrows[v]) + len(q.in_arrows[v])]
           if len(cp.lines[v].crossings) != deg]
    add("crossings_per_line_equal_vertex_degree", not bad, "; ".join(bad))

    n_cycles = sum(1 for s in cp.shaded if s.kind == "cycle")
    n_tri = sum(1 for s in cp.shaded if s.kind == "boundary_arrow")
    add("interior_shaded_regions_count", n_cycles == len(structure.cycles),
        f"{n_cycles} vs {len(structure.cycles)}")
    add("boundary_triangle_count", n_tri == len(structure.boundary_arrows),
        f"{n_tri} vs {len(structure.boundary_arrows)}")
    add("white_region_count", len(cp.whites) == len(structure.boundary_arrows),
        f"{len(cp.whites)} vs {len(structure.boundary_arrows)}")

    bad = []
    for w in cp.whites:
        sides = len(w.segments) + (1 if w.contact[0] == "edge" else 0)
        if sides % 2 != 0:
            bad.append(f"{w.arrow}: {sides} sides")
    add("white_regions_even_sided", not bad, "; ".join(bad))

    bad = []
    for w in cp.whites:
        if w.contact[0] == "edge":
            a, b = w.contact[1]
            if (b - a) % cp.size != 1:
                bad.append(f"{w.arrow}: edge {w.contact[1]} not a boundary edge")
        else:
            lbl = w.contact[1]
            if not (1 <= lbl <= cp.size):
                bad.append(f"{w.arrow}: vertex {lbl} out of range")
    add("white_regions_touch_boundary_once", not bad, "; ".join(bad))

    # cycle-path readout around each boundary triangle
    wr = cp.weights.by_arrow()
    white_by_arrow = {w.arrow: w for w in cp.whites}
    bad = []
    for a in structure.boundary_arrows:
        w = white_by_arrow.get(a)
        if w is None:
            bad.append(f"{a}: no white region")
            continue
        read = tuple(s2.key for s in w.segments
                     for s2 in [s.start] if s2.kind == "x")
        read += tuple(s.end.key for s in [w.segments[-1]]
                      if s.end.kind == "x")
        expected = wr[a].cycle_path.arrows
        if read != expected:
            bad.append(f"{a}: read {read}, cycle path {expected}")
    add("white_regions_spell_cycle_paths", not bad, "; ".join(bad[:3]))

    # the two whites adjacent to a triangle carry its cycle and cocycle paths
    nxt = _cocycle_first(cp.weights)
    bad = []
    for a in structure.boundary_arrows:
        own = white_by_arrow[a].segments[0]
        tri = next(s for s in cp.shaded
                   if s.kind == "boundary_arrow" and s.key == a)
        if {own.start, own.end} != {tri.segments[0].start, tri.segments[0].end}:
            bad.append(f"{a}: cycle-path white not adjacent to triangle")
        other = white_by_arrow[nxt[a]]
        last = other.segments[-1]
        if {last.start, last.end} != {tri.segments[1].start, tri.segments[1].end}:
            bad.append(f"{a}: cocycle-path white not adjacent to triangle")
        if other.segments and wr[nxt[a]].cycle_path.arrows != wr[a].cocycle_path.arrows:
            bad.append(f"{a}: cocycle readout mismatch")
    add("triangle_flanked_by_cycle_and_cocycle_whites", not bad, "; ".join(bad[:3]))

    # rotation non-crossing for boundary arrows
    bad = []
    for a in structure.boundary_arrows:
        arr = q.arrow_by_id[a]
        ri = diagonals.rotate(cp.lines[arr.source].diagonal(), 1, n)
        if diagonals.crosses(ri, cp.lines[arr.target].diagonal(), n):
            bad.append(a)
    add("rotated_source_line_misses_target_line", not bad, "; ".join(bad))

    # coherent orientation of shaded regions; alternation around whites
    bad = []
    for s in cp.shaded:
        flags = [seg.forward for seg in s.segments]
        if len(set(flags)) > 1:
            bad.append(f"{s.kind} {s.key}: mixed orientation")
    add("shaded_segments_coherently_oriented", not bad, "; ".join(bad[:3]))

    bad = []
    for w in cp.whites:
        flags = [seg.forward for seg in w.segments]
        if any(flags[i] == flags[i + 1] for i in range(len(flags) - 1)):
            bad.append(w.arrow)
    add("white_segments_alternate", not bad, "; ".join(bad[:3]))

    # independent reconstruction of all regions by planar face traversal
    try:
        faces = _face_multiset(cp)
        stored = _stored_region_multiset(cp)
        add("faces_match_regions", faces == stored,
            "" if faces == stored else _multiset_diff(faces, stored))
    except CheckerboardError as exc:
        add("faces_match_regions", False, str(exc))

    return Report(checks)


def _stored_region_multiset(cp: CheckerboardPolygon):
    out = []
    for s in cp.shaded:
        nodes = {x for seg in s.segments for x in (seg.start, seg.end)}
        out.append(frozenset(nodes))
    for w in cp.whites:
        nodes = {x for seg in w.segments for x in (seg.start, seg.end)}
        out.append(frozenset(nodes))
    out.sort(key=lambda f: (len(f), sorted(repr(n) for n in f)))
    return out


def _face_multiset(cp: CheckerboardPolygon):
    """Interior faces of the arrangement, traversed from the combinatorial
    rotation system determined by endpoint labels and per-line crossing order."""
    size = cp.size
    edges: set[tuple[Node, Node]] = set()
    for k in range(1, size + 1):
        a, b = Node("end", k), Node("end", k % size + 1)
        edges.add((a, b))
        edges.add((b, a))
    chains: dict[object, list[Node]] = {}
    for v, line in cp.lines.items():
        chain = line.node_chain()
        chains[v] = chain
        for x, y in zip(chain, chain[1:]):
            edges.add((x, y))
            edges.add((y, x))

    # neighbours with outgoing ray directions (target label on the circle)
    incident: dict[Node, list[tuple[Node, float]]] = {}

    def add_ray(at: Node, to: Node, toward_label: float):
        incident.setdefault(at, []).append((to, toward_label))

    for k in range(1, size + 1):
        here = Node("end", k)
        add_ray(here, Node("end", k % size + 1), 1.0)
        add_ray(here, Node("end", (k - 2) % size + 1), float(size - 1) + 0.5)
    for v, line in cp.lines.items():
        chain = chains[v]
        for node in (chain[0], chain[-1]):
            other_end = line.head if node.key == line.tail else line.tail
            nbr = chain[1] if node.key == line.tail else chain[-2]
            add_ray(node, nbr, float(other_end))
    for aid, cross in cp.crossings.items():
        node = Node("x", aid)
        for v in cross.lines:
            line = cp.lines[v]
            chain = chains[v]
            i = chain.index(node)
            # ray toward the tail side and toward the head side
            for nbr, toward in ((chain[i - 1], line.tail),
                                (chain[i + 1], line.head)):
                # direction measured as clockwise distance from an arbitrary
                # but common origin: use the target endpoint label itself
                add_ray(node, nbr, float(toward))

    # lines of the shaded triangle sitting on each boundary edge, for breaking
    # ties between coincident chords at a shared endpoint
    tri_lines: dict[tuple[int, int], set[object]] = {}
    for s in cp.shaded:
        if s.kind == "boundary_arrow" and s.boundary_edge:
            tri_lines[s.boundary_edge] = set(cp.crossings[s.key].lines)
    chord_line: dict[tuple[Node, Node], object] = {}
    for v, chain in chains.items():
        for node in (chain[0], chain[-1]):
            nbr = chain[1] if node is chain[0] else chain[-2]
            chord_line[(node, nbr)] = v

    rotation: dict[Node, list[Node]] = {}
    for node, rays in incident.items():
        if node.kind == "end":
            # clockwise order at a boundary vertex: the boundary successor,
            # then chords by clockwise distance of their far endpoint, then
            # the boundary predecessor; between coincident chords the strand
            # of the triangle on the successor edge hugs that edge
            base = node.key
            after = tri_lines.get((base, base % size + 1), set())

            def keyfun(r, base=base, after=after, node=node):
                to, lbl = r
                if to.kind == "end" and to.key == base % size + 1:
                    return (-1.0, 0)
                if to.kind == "end" and to.key == (base - 2) % size + 1:
                    return (float(size), 0)
                line = chord_line.get((node, to))
                return ((lbl - base) % size, 0 if line in after else 1)
            rotation[node] = [to for to, _ in sorted(rays, key=keyfun)]
        else:
            # four rays toward four distinct endpoint labels; since labels
            # increase clockwise, ascending label order is the clockwise
            # cyclic order around the crossing
            rotation[node] = [to for to, lbl in
                              sorted(rays, key=lambda r: r[1] % size)]

    next_at: dict[tuple[Node, Node], tuple[Node, Node]] = {}
    for at, nbrs in rotation.items():
        k = len(nbrs)
        for i, frm in enumerate(nbrs):
            next_at[(at, frm)] = (at, nbrs[(i + 1) % k])

    visited: set[tuple[Node, Node]] = set()
    faces = []
    for e in sorted(edges, key=lambda e: (repr(e[0]), repr(e[1]))):
        if e in visited:
            continue
        face_nodes = []
        cur = e
        while cur not in visited:
            visited.add(cur)
            face_nodes.append(cur[0])
            at, to = cur
            _, nxt = next_at[(to, at)]
            cur = (to, nxt)
        faces.append(face_nodes)

    v_count = size + len(cp.crossings)
    e_count = len(edges) // 2
    f_count = len(faces)
    if v_count - e_count + f_count != 2:
        raise CheckerboardError(
            f"arrangement is not planar: V={v_count} E={e_count} F={f_count}")
    boundary_nodes = {Node("end", k) for k in range(1, size + 1)}
    outer = max(faces, key=lambda f: sum(1 for x in f if x in boundary_nodes))
    out = [frozenset(f) for f in faces if f is not outer]
    out.sort(key=lambda f: (len(f), sorted(repr(n) for n in f)))
    return out


def _multiset_diff(a, b) -> str:
    from collections import Counter
    ca, cb = Counter(a), Counter(b)
    extra = ca - cb
    missing = cb - ca
    parts = []
    if extra:
        parts.append(f"unmatched faces: {list(extra)[:2]}")
    if missing:
        parts.append(f"unmatched regions: {list(missing)[:2]}")
    return "; ".join(parts)


# ---------------------------------------------------------------------------
# serialization and rendering
# ---------------------------------------------------------------------------

def polygon_to_dict(cp: CheckerboardPolygon) -> dict:
    def seg_doc(s: Segment):
        return {"line": s.line, "from": s.start.to_doc(), "to": s.end.to_doc(),
                "forward": s.forward}

    return {
        "size": cp.size,
        "vertices": [{"index": k, "parity": "odd" if k % 2 else "even"}
                     for k in range(1, cp.size + 1)],
        "radical_lines": [{"vertex": v, "tail": l.tail, "head": l.head,
                           "crossings": list(l.crossings)}
                          for v, l in sorted(cp.lines.items(),
                                             key=lambda kv: _vkey(kv[0]))],
        "crossings": [{"arrow": c.arrow, "lines": list(c.lines),
                       "positions": list(c.positions)}
                      for c in sorted(cp.crossings.values(),
                                      key=lambda c: c.arrow)],
        "shaded": [{"kind": s.kind,
                    "key": list(s.key) if s.kind == "cycle" else s.key,
                    "segments": [seg_doc(x) for x in s.segments],
                    "boundary_edge": list(s.boundary_edge)
                    if s.boundary_edge else None}
                   for s in cp.shaded],
        "white": [{"arrow": w.arrow,
                   "segments": [seg_doc(x) for x in w.segments],
                   "contact": {"type": w.contact[0],
                               "at": list(w.contact[1])
                               if w.contact[0] == "edge" else w.contact[1]}}
                  for w in cp.whites],
        "triangle_order": list(cp.triangle_order),
    }


def polygon_from_dict(doc: dict, q: Quiver) -> CheckerboardPolygon:
    wr = weight_report(q)

    def node(d):
        return Node.from_doc(d)

    lines = {}
    for ld in doc["radical_lines"]:
        v = ld["vertex"]
        lines[v] = RadicalLine(v, ld["tail"], ld["head"],
                               list(ld["crossings"]))

    def seg(d):
        return Segment(d["line"], node(d["from"]), node(d["to"]), d["forward"])

    crossings = {cd["arrow"]: Crossing(cd["arrow"], tuple(cd["lines"]),
                                       tuple(cd["positions"]))
                 for cd in doc["crossings"]}
    shaded = [ShadedRegion(sd["kind"],
                           tuple(sd["key"]) if sd["kind"] == "cycle" else sd["key"],
                           [seg(x) for x in sd["segments"]],
                           tuple(sd["boundary_edge"]) if sd["boundary_edge"]
                           else None)
              for sd in doc["shaded"]]
    whites = [WhiteRegion(wd["arrow"], [seg(x) for x in wd["segments"]],
                          ("edge", tuple(wd["contact"]["at"]))
                          if wd["contact"]["type"] == "edge"
                          else ("vertex", wd["contact"]["at"]))
              for wd in doc["white"]]
    return CheckerboardPolygon(q, doc["size"], wr, lines, crossings,
                               shaded, whites, list(doc["triangle_order"]))


def render(cp: CheckerboardPolygon, format: str = "structured") -> str:
    if format == "structured":
        return json.dumps(polygon_to_dict(cp), indent=2, default=str) + "\n"
    if format == "svg":
        return _render_svg(cp)
    if format == "dot":
        return _render_dot(cp)
    raise CheckerboardError(f"unknown format {format!r}")


def _coords(cp: CheckerboardPolygon, radius=180.0, cx=200.0, cy=200.0):
    pts = {}
    for k in range(1, cp.size + 1):
        ang = -2 * math.pi * k / cp.size + math.pi / 2
        pts[k] = (cx + radius * math.cos(ang), cy - radius * math.sin(ang))
    return pts


def _cross_point(p1, p2, p3, p4):
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = p1, p2, p3, p4
    den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    if abs(den) < 1e-12:
        return ((x1 + x2 + x3 + x4) / 4, (y1 + y2 + y3 + y4) / 4)
    t = ((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)) / den
    return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))


def _render_svg(cp: CheckerboardPolygon) -> str:
    pts = _coords(cp)
    xpt = {}
    for aid, c in cp.crossings.items():
        l1 = cp.lines[c.lines[0]]
        l2 = cp.lines[c.lines[1]]
        xpt[aid] = _cross_point(pts[l1.tail], pts[l1.head],
                                pts[l2.tail], pts[l2.head])

    def pt(node: Node):
        return pts[node.key] if node.kind == "end" else xpt[node.key]

    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="400" height="400" '
           'viewBox="0 0 400 400">',
           '<defs><marker id="arr" markerWidth="8" markerHeight="8" refX="6" '
           'refY="3" orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="#444"/>'
           "</marker></defs>"]
    for s in cp.shaded:
        corners = []
        for segx in s.segments:
            corners.append(pt(segx.start))
        if s.kind == "boundary_arrow":
            corners = [pt(s.segments[0].start), pt(s.segments[0].end),
                       pt(s.segments[1].end)]
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in corners)
        out.append(f'<polygon points="{path}" fill="#b9c6e8" stroke="none"/>')
    for k in range(1, cp.size + 1):
        x1, y1 = pts[k]
        x2, y2 = pts[k % cp.size + 1]
        out.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
                   f'y2="{y2:.1f}" stroke="#222" stroke-width="1.5"/>')
    for v, line in sorted(cp.lines.items(), key=lambda kv: _vkey(kv[0])):
        (x1, y1), (x2, y2) = pts[line.tail], pts[line.head]
        out.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
                   f'y2="{y2:.1f}" stroke="#444" stroke-width="1" '
                   'marker-end="url(#arr)"/>')
        mx, my = (0.45 * x1 + 0.55 * x2), (0.45 * y1 + 0.55 * y2)
        out.append(f'<text x="{mx:.1f}" y="{my:.1f}" font-size="10" '
                   f'fill="#a00">{v}</text>')
    for k in range(1, cp.size + 1):
        x, y = pts[k]
        out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2" fill="#000"/>')
        out.append(f'<text x="{x:.1f}" y="{y - 5:.1f}" font-size="9" '
                   f'text-anchor="middle">{k}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _render_dot(cp: CheckerboardPolygon) -> str:
    pts = _coords(cp, radius=4.0, cx=0.0, cy=0.0)
    lines = ["graph checkerboard {", "  layout=neato;", "  node [shape=point];"]
    for k in range(1, cp.size + 1):
        x, y = pts[k]
        lines.append(f'  "b{k}" [pos="{x:.3f},{-y:.3f}!", xlabel="{k}"];')
    for k in range(1, cp.size + 1):
        lines.append(f'  "b{k}" -- "b{k % cp.size + 1}";')
    for v, line in sorted(cp.lines.items(), key=lambda kv: _vkey(kv[0])):
        lines.append(f'  "b{line.tail}" -- "b{line.head}" [label="{v}", '
                     "color=red];")
    lines.append("}")
    return "\n".join(lines) + "\n"
