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
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import diagonals
from .diagonals import TwoDiagonal
from .quiver import (
    Check,
    Quiver,
    Report,
    StructureReport,
    WeightReport,
    _vkey,
    analyze_structure,
    dimer_tree_structure,
    validate_dimer_tree,  # noqa: F401 -- perfbench's tracer tests read it here
    weight_report,
)


class CheckerboardError(ValueError):
    pass


class Node(NamedTuple):
    """A tuple: it equals and hashes as the pair (kind, key)."""
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
    # there, the orbit's cyclic gluing), filled one whole orbit at a time by
    # syzygy.resolution; the lines must not change once a resolution has
    # been read
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

    # one walk of the triangles clockwise: a triangle's source end, then its
    # target end one step on; the gap to the next triangle is that arrow's
    # weight, since its white region adds a boundary edge (weight 2) or
    # merges the facing ends (weight 1).  The weights add up to the size.
    size = wr.total_weight
    pos: dict[tuple[str, str], int] = {}
    ends: dict[object, list[tuple[str, str]]] = {}   # vertex -> its line's ends
    p = 0
    for i, a in enumerate(order):
        arr = q.arrow_by_id[a]
        for role, v, at in (("src", arr.source, p), ("tgt", arr.target, p + 1)):
            pos[(a, role)] = at % size
            ends.setdefault(v, []).append((a, role))
        p += entries[order[(i + 1) % len(order)]].weight
    for v, ss in ends.items():
        if len(ss) != 2:
            raise CheckerboardError(
                f"line of vertex {v!r} has {len(ss)} endpoints")
    if len(ends) != len(q.vertices):
        raise CheckerboardError("some vertex has no radical line")

    # canonical rotation: label 1 at a deterministic end of the minimal
    # vertex's line (a source end first), which becomes the line's tail
    origin = pos[min(ends[q.sorted_vertices()[0]], key=lambda s: (s[1], s[0]))]
    label = {s: (at - origin) % size + 1 for s, at in pos.items()}

    # lines run from their odd end; the triangle there starts the fan of
    # cycles that orders the line's crossings
    lines: dict[object, RadicalLine] = {}
    before = [c.next_arrows("cocycle") for c in structure.cycles]
    for v, (s, t) in ends.items():
        if (label[s] - label[t]) % 2 == 0:
            raise CheckerboardError(f"parity walk fails to close at vertex "
                                    f"{v!r}: labels {label[s]},{label[t]}")
        if label[s] % 2 == 0:
            s, t = t, s
        lines[v] = RadicalLine(v, label[s], label[t],
                               _fan_order(q, structure.owners, before, v, s[0]))

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
        sl, tl = label[(a, "src")], label[(a, "tgt")]
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
        start_label = label[(a, "src")]
        segs = [seg(route[0], Node("end", start_label), Node("x", cp.arrows[0]))]
        for k in range(1, cp.length):
            segs.append(seg(route[k], Node("x", cp.arrows[k - 1]),
                            Node("x", cp.arrows[k])))
        last_arrow = cp.arrows[-1]
        end_label = label[(last_arrow, "tgt")]
        segs.append(seg(route[-1], Node("x", last_arrow),
                        Node("end", end_label)))
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

    return CheckerboardPolygon(q, size, wr, lines, crossings, shaded,
                               whites, order)


def _fan_order(q: Quiver, owners: dict[str, list[int]],
               before: list[dict[str, str]], v, first_boundary: str) -> list[str]:
    """Arrows at v ordered by the chain of cycles around v, starting from the
    boundary arrow whose triangle hosts the line's tail.  Each cycle through
    v joins its out-arrow at v to the arrow before it (`before`, per cycle),
    its in-arrow at v."""
    adj: dict[str, list[str]] = {}
    for a in q.out_arrows[v]:
        for ci in owners[a.id]:
            ain = before[ci][a.id]
            adj.setdefault(a.id, []).append(ain)
            adj.setdefault(ain, []).append(a.id)
    order = [first_boundary]
    prev = None
    while True:
        nbrs = [x for x in adj.get(order[-1], ()) if x != prev]
        if not nbrs:
            break
        if len(nbrs) > 1:
            raise CheckerboardError(f"cycle fan at {v!r} is not a chain")
        prev = order[-1]
        order.append(nbrs[0])
    if len(order) != len(q.out_arrows[v]) + len(q.in_arrows[v]):
        raise CheckerboardError(f"cycle fan at {v!r} does not reach all arrows")
    return order


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_checkerboard(cp: CheckerboardPolygon, q: Quiver | None = None,
                          structure: StructureReport | None = None) -> Report:
    q = q or cp.q
    if structure is None:
        structure = analyze_structure(q)
    n = cp.half
    checks: list[Check] = []

    def add(name, passed, detail=""):
        checks.append(Check(name, bool(passed), detail))

    add("boundary_edge_count_equals_total_weight",
        cp.size == cp.weights.total_weight,
        f"size {cp.size}, total weight {cp.weights.total_weight}")

    # the checks that read labels modulo the size need a 2N-gon with N >= 3;
    # a loaded polygon may have any size
    bad_size = ([] if cp.size % 2 == 0 and cp.size >= 6
                else [f"size {cp.size} is not an even number >= 6"])

    bad = list(bad_size)
    for v, line in cp.lines.items() if not bad_size else ():
        outside = [x for x in (line.tail, line.head) if not 1 <= x <= cp.size]
        if outside:
            bad.append(f"{v}: label {outside[0]} outside 1..{cp.size}")
            continue
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

    # crossings match arrows, via the label geometry alone; a loaded polygon
    # may lack a vertex's line
    verts = q.sorted_vertices()
    lost = [f"{v}: no radical line" for v in verts if v not in cp.lines]
    bad = lost + bad_size
    joined = {v: set() for v in verts}
    for a in q.arrows:
        joined[a.source].add(a.target)
        joined[a.target].add(a.source)
    drawn = [(v, cp.lines[v].diagonal()) for v in verts if v in cp.lines]
    for i, (u, line) in enumerate(drawn if not bad_size else ()):
        crossed = set().union(*diagonals.crossing_lines(line, drawn, n))
        for v, _ in drawn[i + 1:]:
            has_arrow = v in joined[u]
            if has_arrow != (v in crossed):
                bad.append(f"{u},{v}: arrow={has_arrow} crossing={v in crossed}")
    add("crossings_iff_arrows", not bad, "; ".join(bad[:4]))
    counted = len(cp.crossings) == len(q.arrows)
    add("crossing_count_equals_arrow_count", counted, "" if counted else
        f"{len(cp.crossings)} crossings, {len(q.arrows)} arrows")

    bad = lost + [f"{v}: {len(cp.lines[v].crossings)} crossings, degree {deg}"
                  for v in verts if v in cp.lines
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

    # each white region touches the boundary between the triangle before it
    # in the triangle order and its own: at their shared end, or along the
    # boundary edge between them
    tri_edge = {s.key: s.boundary_edge for s in cp.shaded
                if s.kind == "boundary_arrow"}
    order = cp.triangle_order
    before = {a: tri_edge.get(order[i - 1]) for i, a in enumerate(order)}
    bad = list(bad_size)
    for w in cp.whites if not bad_size else ():
        if w.contact[0] == "edge":
            a, b = w.contact[1]
            if (b - a) % cp.size != 1:
                bad.append(f"{w.arrow}: edge {w.contact[1]} not a boundary edge")
                continue
        else:
            lbl = w.contact[1]
            if not (1 <= lbl <= cp.size):
                bad.append(f"{w.arrow}: vertex {lbl} out of range")
                continue
        prev, own = before.get(w.arrow), tri_edge.get(w.arrow)
        if prev is None or own is None:
            bad.append(f"{w.arrow}: no place in the triangle order")
            continue
        placed = (("vertex", own[0]) if prev[1] == own[0]
                  else ("edge", (prev[1], own[0])))
        if w.contact != placed:
            bad.append(f"{w.arrow}: contact {w.contact}, triangle order "
                       f"places it at {placed}")
    add("white_regions_touch_boundary_once", not bad, "; ".join(bad))

    # cycle-path readout around each boundary triangle
    wr = cp.weights.by_arrow()
    white_segments = {w.arrow: w.segments for w in cp.whites}
    bad = []
    for a in structure.boundary_arrows:
        segs = white_segments.get(a)
        if segs is None:
            bad.append(f"{a}: no white region")
            continue
        read = tuple(s.start.key for s in segs if s.start.kind == "x")
        read += tuple(s.end.key for s in segs[-1:] if s.end.kind == "x")
        expected = wr[a].cycle_path.arrows
        if read != expected:
            bad.append(f"{a}: read {read}, cycle path {expected}")
            continue
        # the sides lie on the lines of the path's vertices, in turn
        on = tuple(s.line for s in segs)
        route = tuple(wr[a].cycle_path.vertex_route(q))
        if on != route:
            bad.append(f"{a}: sides on lines {on}, cycle path through {route}")
    add("white_regions_spell_cycle_paths", not bad, "; ".join(bad[:3]))

    # the two whites adjacent to a triangle carry its cycle and cocycle paths
    def side(segs, i):
        """The two nodes of segment i, or none if there is no such segment."""
        return {n for s in segs[i:][:1] for n in (s.start, s.end)}

    nxt = _cocycle_first(cp.weights)
    triangle = {s.key: s.segments for s in cp.shaded if s.kind == "boundary_arrow"}
    bad = []
    for a in structure.boundary_arrows:
        tri, other = triangle.get(a, []), white_segments.get(nxt[a], [])
        if side(white_segments.get(a, []), 0) != side(tri, 0):
            bad.append(f"{a}: cycle-path white not adjacent to triangle")
        if side(other, -1) != side(tri, 1):
            bad.append(f"{a}: cocycle-path white not adjacent to triangle")
        if other and wr[nxt[a]].cycle_path.arrows != wr[a].cocycle_path.arrows:
            bad.append(f"{a}: cocycle readout mismatch")
    add("triangle_flanked_by_cycle_and_cocycle_whites", not bad, "; ".join(bad[:3]))

    # rotation non-crossing for boundary arrows
    bad = list(bad_size)
    for a in structure.boundary_arrows if not bad_size else ():
        arr = q.arrow_by_id[a]
        if arr.source not in cp.lines or arr.target not in cp.lines:
            bad.append(f"{a} (an end has no radical line)")
            continue
        ri = diagonals.rotate(cp.lines[arr.source].diagonal(), 1, n)
        target = [(a, cp.lines[arr.target].diagonal())]
        if any(diagonals.crossing_lines(ri, target, n)):
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
        if bad_size:
            raise CheckerboardError(bad_size[0])
        faces = _face_multiset(cp)
        stored = _stored_region_multiset(cp)
        add("faces_match_regions", faces == stored,
            "" if faces == stored else _multiset_diff(faces, stored))
    except CheckerboardError as exc:
        add("faces_match_regions", False, str(exc))

    return Report(checks)


def _stored_region_multiset(cp: CheckerboardPolygon) -> Counter:
    """The node sets of the stored regions, each counted as often as it is
    stored."""
    return Counter(frozenset(x for seg in r.segments for x in (seg.start, seg.end))
                   for r in (*cp.shaded, *cp.whites))


def _face_order(face: frozenset) -> tuple:
    """Faces by size, then by their nodes' reprs in sorted order: an order
    that does not depend on string hashing, for the unmatched-faces detail."""
    return len(face), sorted(repr(n) for n in face)


def _face_multiset(cp: CheckerboardPolygon) -> Counter:
    """Interior faces of the arrangement, traversed from the combinatorial
    rotation system determined by endpoint labels and per-line crossing order,
    each counted as often as it is traversed.

    The directed edges are visited in the order the rotation system lists
    them, which starts at the boundary edge from label 1 to label 2: the
    outer face, walked along the whole boundary, is found first."""
    size = cp.size
    # the lines' crossing lists lay out the arrangement; the crossings must
    # sit on exactly the lines that list them
    listed = {(aid, v) for v, line in cp.lines.items() for aid in line.crossings}
    for aid, cross in cp.crossings.items():
        for v in cross.lines:
            if (aid, v) not in listed:
                raise CheckerboardError(f"line {v!r} does not list its crossing {aid}")
            listed.discard((aid, v))
    if listed:
        aid, v = min(listed, key=repr)
        raise CheckerboardError(f"line {v!r} lists {aid}, which is no crossing of it")

    # rays out of each node: (neighbour, label of the endpoint the ray heads
    # for, line it runs on); the boundary edges run on no line
    rays: dict[Node, list[tuple[Node, int, object]]] = {
        Node("end", k): [(Node("end", k % size + 1), 0, None),
                         (Node("end", (k - 2) % size + 1), 0, None)]
        for k in range(1, size + 1)}
    for v, line in cp.lines.items():
        chain = line.node_chain()
        for x, y in zip(chain, chain[1:]):
            rays.setdefault(x, []).append((y, line.head, v))
            rays.setdefault(y, []).append((x, line.tail, v))

    # lines of the shaded triangle sitting on each boundary edge, for breaking
    # ties between coincident chords at a shared endpoint
    tri_lines = {s.boundary_edge: {seg.line for seg in s.segments}
                 for s in cp.shaded if s.kind == "boundary_arrow" and s.boundary_edge}

    rotation: dict[Node, list[Node]] = {}
    tied = []
    for node, out in rays.items():
        if node.kind == "end":
            # clockwise order at a boundary vertex: the boundary successor,
            # then chords by clockwise distance of their far endpoint, then
            # the boundary predecessor; between coincident chords the strand
            # of the triangle on the successor edge hugs that edge
            base = node.key
            after = tri_lines.get((base, base % size + 1), set())

            def keyfun(r, base=base, after=after):
                to, lbl, line = r
                if to.kind == "end" and to.key == base % size + 1:
                    return (-1, 0)
                if to.kind == "end" and to.key == (base - 2) % size + 1:
                    return (size, 0)
                return ((lbl - base) % size, 0 if line in after else 1)
            rotation[node] = [to for to, _, _ in sorted(out, key=keyfun)]
        else:
            # four rays toward four distinct endpoint labels; since labels
            # increase clockwise, ascending label order is the clockwise
            # cyclic order around the crossing
            out = sorted(out, key=lambda r: r[1] % size)
            if any(r[1] % size == t[1] % size for r, t in zip(out, out[1:])):
                tied.append(node)
            rotation[node] = [to for to, _, _ in out]

    # the rotation system's directed edges, each with the edge that follows
    # it around its face
    next_at: dict[tuple[Node, Node], Node] = {}
    for at, nbrs in rotation.items():
        for i, frm in enumerate(nbrs):
            next_at[(at, frm)] = nbrs[(i + 1) % len(nbrs)]
    # one entry per ray, unless a second ray joins the same two nodes: then
    # an edge is lost, and the faces found would depend on the order the
    # edges are visited
    if len(next_at) < sum(map(len, rotation.values())):
        raise CheckerboardError(_doubled_ray(rays))
    # two rays toward one label leave their order around the crossing to the
    # order the lines are listed in, and the faces with it
    if tied:
        raise CheckerboardError(_tied_crossing(rays, tied, size))

    visited: set[tuple[Node, Node]] = set()
    faces = []
    for e in next_at:
        if e in visited:
            continue
        face_nodes = []
        cur = e
        while cur not in visited:
            visited.add(cur)
            face_nodes.append(cur[0])
            at, to = cur
            cur = (to, next_at[(to, at)])
        faces.append(face_nodes)

    v_count = size + len(cp.crossings)
    e_count = len(next_at) // 2
    f_count = len(faces)
    if v_count - e_count + f_count != 2:
        raise CheckerboardError(
            f"arrangement is not planar: V={v_count} E={e_count} F={f_count}")
    boundary_nodes = {Node("end", k) for k in range(1, size + 1)}
    outer = max(faces, key=lambda f: sum(1 for x in f if x in boundary_nodes))
    return Counter(frozenset(f) for f in faces if f is not outer)


def _doubled_ray(rays: dict) -> str:
    """The first pair of nodes, in label order, that two rays join, and the
    lines those rays run on."""
    joined: dict[tuple[Node, Node], list] = {}
    for x, out in rays.items():
        for to, _, v in out:
            joined.setdefault((x, to), []).append(v)
    x, y = min((p for p, vs in joined.items() if len(vs) > 1),
               key=lambda p: [(n.kind, _vkey(n.key)) for n in p])
    lines = sorted(joined[x, y], key=lambda v: (v is not None, _vkey(v)))
    on = " and ".join("the boundary" if v is None else f"line {v!r}" for v in lines)
    x, y = (f"{'label' if n.kind == 'end' else 'crossing'} {n.key}" for n in (x, y))
    return f"two rays join {x} and {y}, on {on}"


def _tied_crossing(rays: dict, tied: list[Node], size: int) -> str:
    """The first crossing, by key, of `tied` with two rays out of it toward
    the same endpoint label, that label, and the lines those rays run on."""
    x = min(tied, key=lambda n: _vkey(n.key))
    heading: dict[int, list] = {}
    for _, lbl, v in rays[x]:
        heading.setdefault((lbl - 1) % size + 1, []).append(v)
    label = min(k for k, vs in heading.items() if len(vs) > 1)
    on = " and ".join(f"line {v!r}" for v in sorted(heading[label], key=_vkey))
    return f"two rays out of crossing {x.key} head for label {label}, on {on}"


def _multiset_diff(ca: Counter, cb: Counter) -> str:
    """The first two faces of each side that the other lacks, each as its
    nodes in sorted order (see `_face_order`)."""
    parts = []
    for label, extra in (("faces", ca - cb), ("regions", cb - ca)):
        if extra:
            shown = [sorted(f, key=repr) for f in sorted(extra, key=_face_order)]
            parts.append(f"unmatched {label}: {shown[:2]}")
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
        if s.kind == "boundary_arrow":
            corners = [pt(s.segments[0].start), pt(s.segments[0].end),
                       pt(s.segments[1].end)]
        else:
            corners = [pt(segx.start) for segx in s.segments]
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
