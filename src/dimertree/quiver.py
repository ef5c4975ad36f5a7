"""Dimer tree quivers: parsing, validation, structure, potentials, weights.

A dimer tree quiver is a finite connected quiver without loops, 2-cycles or
parallel arrows in which every arrow lies on a chordless oriented cycle and
the dual graph (chordless cycles + boundary arrows, linked by shared arrows
and containment) is a tree.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

VertexId = int | str


class QuiverError(ValueError):
    """Raised for malformed quiver documents and invalid structural input."""


def _vkey(v: VertexId):
    # ints sort before strings; mixed ids stay comparable
    return (0, v) if isinstance(v, int) else (1, str(v))


@dataclass(frozen=True)
class Arrow:
    id: str
    source: VertexId
    target: VertexId

    def __repr__(self) -> str:
        return f"Arrow({self.id}: {self.source}->{self.target})"


class Quiver:
    """Immutable quiver with ordered vertices and arrows; derived structure
    (see `analyze_structure`) is computed once and cached on it."""

    def __init__(self, vertices: Iterable[VertexId], arrows: Iterable[Arrow],
                 name: str = ""):
        self.name = name
        self.vertices: tuple[VertexId, ...] = tuple(vertices)
        self.arrows: tuple[Arrow, ...] = tuple(arrows)
        self.arrow_by_id = {a.id: a for a in self.arrows}
        self.out_arrows: dict[VertexId, list[Arrow]] = {v: [] for v in self.vertices}
        self.in_arrows: dict[VertexId, list[Arrow]] = {v: [] for v in self.vertices}
        # (source, target) -> first such arrow; parallel arrows are rejected
        # by check_well_formed, not here
        self._arrow_index: dict[tuple[VertexId, VertexId], Arrow] = {}
        self._structure: StructureReport | None = None
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise QuiverError("duplicate vertex ids")
        if len(self.arrow_by_id) != len(self.arrows):
            raise QuiverError("duplicate arrow ids")
        for a in self.arrows:
            if a.source not in vset:
                raise QuiverError(f"arrow {a.id}: unknown source {a.source!r}")
            if a.target not in vset:
                raise QuiverError(f"arrow {a.id}: unknown target {a.target!r}")
            self.out_arrows[a.source].append(a)
            self.in_arrows[a.target].append(a)
            self._arrow_index.setdefault((a.source, a.target), a)

    # -- basic invariants ---------------------------------------------------

    def check_well_formed(self) -> None:
        """No loops, no 2-cycles, no parallel arrows, connected."""
        seen_pairs: dict[tuple[VertexId, VertexId], str] = {}
        for a in self.arrows:
            if a.source == a.target:
                raise QuiverError(f"arrow {a.id}: loop at {a.source!r}")
            pair = (a.source, a.target)
            if pair in seen_pairs:
                raise QuiverError(
                    f"arrow {a.id}: parallel to arrow {seen_pairs[pair]}")
            seen_pairs[pair] = a.id
        for a in self.arrows:
            if (a.target, a.source) in seen_pairs:
                other = seen_pairs[(a.target, a.source)]
                raise QuiverError(f"arrows {a.id} and {other} form a 2-cycle")
        if self.vertices and not self.is_connected():
            raise QuiverError("quiver is not connected")

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj: dict[VertexId, set[VertexId]] = {v: set() for v in self.vertices}
        for a in self.arrows:
            adj[a.source].add(a.target)
            adj[a.target].add(a.source)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    # -- helpers ------------------------------------------------------------

    def arrow_between(self, s: VertexId, t: VertexId) -> Arrow | None:
        return self._arrow_index.get((s, t))

    def sorted_vertices(self) -> list[VertexId]:
        return sorted(self.vertices, key=_vkey)

    def __repr__(self) -> str:
        return (f"Quiver({self.name or 'unnamed'}: {len(self.vertices)} vertices, "
                f"{len(self.arrows)} arrows)")


# -- parsing ------------------------------------------------------------------

def _default_arrow_id(s: VertexId, t: VertexId) -> str:
    return f"{s}->{t}"


def parse_quiver(text: str) -> Quiver:
    """Parse a quiver document (JSON with name/vertices/arrows fields)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QuiverError(f"malformed document: {exc}") from exc
    return quiver_from_dict(doc)


def quiver_from_dict(doc: object) -> Quiver:
    if not isinstance(doc, dict):
        raise QuiverError("malformed document: top level must be an object")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise QuiverError("field 'name': must be a string")
    if "vertices" not in doc or "arrows" not in doc:
        raise QuiverError("missing required field 'vertices' or 'arrows'")
    raw_vertices = doc["vertices"]
    raw_arrows = doc["arrows"]
    if not isinstance(raw_vertices, list):
        raise QuiverError("field 'vertices': must be an array")
    if not isinstance(raw_arrows, list):
        raise QuiverError("field 'arrows': must be an array")
    vertices: list[VertexId] = []
    for i, v in enumerate(raw_vertices):
        if not isinstance(v, (int, str)) or isinstance(v, bool):
            raise QuiverError(f"vertices[{i}]: id must be an integer or string")
        vertices.append(v)
    arrows: list[Arrow] = []
    for i, spec in enumerate(raw_arrows):
        loc = f"arrows[{i}]"
        if isinstance(spec, list):
            if len(spec) != 2:
                raise QuiverError(f"{loc}: expected [source, target]")
            s, t = spec
            aid = _default_arrow_id(s, t)
        elif isinstance(spec, dict):
            try:
                s, t = spec["source"], spec["target"]
            except KeyError as exc:
                raise QuiverError(f"{loc}: missing {exc}") from exc
            aid = spec.get("id", _default_arrow_id(s, t))
            if not isinstance(aid, str):
                raise QuiverError(f"{loc}: arrow id must be a string")
        else:
            raise QuiverError(f"{loc}: expected array or object")
        for v in (s, t):
            if not isinstance(v, (int, str)) or isinstance(v, bool):
                raise QuiverError(f"{loc}: vertex id must be an integer or string")
        arrows.append(Arrow(aid, s, t))

    seen_ids: dict[str, int] = {}
    seen_pairs: dict[tuple, int] = {}
    for i, a in enumerate(arrows):
        loc = f"arrows[{i}]"
        if a.source == a.target:
            raise QuiverError(f"{loc}: loop at {a.source!r}")
        if a.id in seen_ids:
            prev = seen_ids[a.id]
            if arrows[prev].source == a.source and arrows[prev].target == a.target:
                raise QuiverError(
                    f"{loc}: parallel arrows {a.source!r}->{a.target!r} "
                    f"(first at arrows[{prev}])")
            raise QuiverError(f"{loc}: duplicate arrow id {a.id!r}")
        seen_ids[a.id] = i
        if (a.source, a.target) in seen_pairs:
            raise QuiverError(
                f"{loc}: parallel arrows {a.source!r}->{a.target!r} "
                f"(first at arrows[{seen_pairs[(a.source, a.target)]}])")
        seen_pairs[(a.source, a.target)] = i
        if (a.target, a.source) in seen_pairs:
            raise QuiverError(
                f"{loc}: arrows form a 2-cycle {a.source!r}<->{a.target!r} "
                f"(with arrows[{seen_pairs[(a.target, a.source)]}])")

    q = Quiver(vertices, arrows, name=name)
    q.check_well_formed()
    return q


def load_quiver(path: str) -> Quiver:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_quiver(fh.read())


# -- chordless cycles ----------------------------------------------------------

@dataclass(frozen=True)
class ChordlessCycle:
    """Oriented cycle whose induced subquiver is the cycle itself."""
    arrows: tuple[str, ...]           # arrow ids in cycle order
    vertices: tuple[VertexId, ...]    # induced vertex cycle, same order

    def __len__(self) -> int:
        return len(self.arrows)

    @property
    def key(self) -> tuple:
        # comparable across int and string vertex ids
        return tuple(sorted(_vkey(v) for v in self.vertices))

    def successor_in(self, arrow_id: str) -> str:
        i = self.arrows.index(arrow_id)
        return self.arrows[(i + 1) % len(self.arrows)]

    def predecessor_in(self, arrow_id: str) -> str:
        i = self.arrows.index(arrow_id)
        return self.arrows[(i - 1) % len(self.arrows)]

    def __repr__(self) -> str:
        return "Cycle(" + "->".join(str(v) for v in self.vertices) + ")"


def _canonical_cycle(q: Quiver, arrow_ids: Sequence[str]) -> ChordlessCycle:
    verts = [q.arrow_by_id[a].source for a in arrow_ids]
    start = min(range(len(verts)), key=lambda i: _vkey(verts[i]))
    rot = lambda xs: tuple(xs[start:]) + tuple(xs[:start])
    return ChordlessCycle(rot(list(arrow_ids)), rot(verts))


def chordless_cycles(q: Quiver) -> list[ChordlessCycle]:
    """All oriented chordless cycles, by DFS with on-the-fly chord pruning.

    Each cycle is found once, rooted at its minimal vertex.  A partial path is
    abandoned as soon as an arrow joins the new endpoint to a non-neighbouring
    path vertex, so only chord-free paths are ever extended.
    """
    order = {v: i for i, v in enumerate(q.sorted_vertices())}
    succ = {v: sorted(q.out_arrows[v], key=lambda a: _vkey(a.target))
            for v in q.vertices}
    neighbours: dict[VertexId, set[VertexId]] = {v: set() for v in q.vertices}
    for a in q.arrows:
        neighbours[a.source].add(a.target)
        neighbours[a.target].add(a.source)
    found: list[ChordlessCycle] = []

    def extend(v0: VertexId, tip: VertexId, on_path: set[VertexId],
               path_arrows: list[Arrow]):
        for a in succ[tip]:
            w = a.target
            if w == v0:
                if len(path_arrows) >= 2:
                    found.append(_canonical_cycle(
                        q, [x.id for x in path_arrows] + [a.id]))
                continue
            if order[w] <= order[v0] or w in on_path:
                continue
            # any arrow joining w to the path, other than the step tip->w and
            # a potential closure w->v0, is a chord: abandon this branch
            if any(u != tip and u != v0 for u in neighbours[w] & on_path):
                continue
            # at tip and v0 only w->tip and v0->w are chords
            if tip != v0 and (q.arrow_between(w, tip) is not None
                              or q.arrow_between(v0, w) is not None):
                continue
            closing = q.arrow_between(w, v0)
            if closing is not None:
                # w->v0 closes the cycle now and forbids any longer cycle
                if len(path_arrows) >= 1:
                    found.append(_canonical_cycle(
                        q, [x.id for x in path_arrows] + [a.id, closing.id]))
                continue
            on_path.add(w)
            path_arrows.append(a)
            extend(v0, w, on_path, path_arrows)
            on_path.discard(w)
            path_arrows.pop()

    for v0 in q.sorted_vertices():
        extend(v0, v0, {v0}, [])
    uniq = {c.arrows: c for c in found}
    return sorted(uniq.values(), key=lambda c: (len(c), c.key))


# -- dual graph and structural analysis ---------------------------------------

@dataclass
class DualGraph:
    """Nodes are cycles and boundary arrows; edges are shared-arrow trunk
    edges and containment leaf branches (parallel edges kept)."""
    cycle_nodes: list[ChordlessCycle]
    boundary_nodes: list[str]                      # boundary arrow ids
    trunk_edges: list[tuple[int, int, str]]        # (cycle idx, cycle idx, arrow id)
    leaf_branches: list[tuple[int, str]]           # (cycle idx, boundary arrow id)

    def node_count(self) -> int:
        return len(self.cycle_nodes) + len(self.boundary_nodes)

    def edge_count(self) -> int:
        return len(self.trunk_edges) + len(self.leaf_branches)

    def is_tree(self) -> bool:
        n = self.node_count()
        if n == 0 or self.edge_count() != n - 1:
            return False
        # connectivity over cycle indices 0..k-1 and boundary ids
        adj: dict[object, list[object]] = {}
        for i in range(len(self.cycle_nodes)):
            adj.setdefault(("c", i), [])
        for b in self.boundary_nodes:
            adj.setdefault(("b", b), [])
        for i, j, _ in self.trunk_edges:
            adj[("c", i)].append(("c", j)); adj[("c", j)].append(("c", i))
        for i, b in self.leaf_branches:
            adj[("c", i)].append(("b", b)); adj[("b", b)].append(("c", i))
        start = next(iter(adj))
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w); stack.append(w)
        return len(seen) == n

    def cycle_distances_from(self, idx: int) -> dict[int, int]:
        """Trunk-edge distance between cycle nodes (leaf branches dead-end)."""
        adj: dict[int, list[int]] = {i: [] for i in range(len(self.cycle_nodes))}
        for i, j, _ in self.trunk_edges:
            adj[i].append(j); adj[j].append(i)
        dist = {idx: 0}
        frontier = [idx]
        while frontier:
            nxt = []
            for i in frontier:
                for j in adj[i]:
                    if j not in dist:
                        dist[j] = dist[i] + 1
                        nxt.append(j)
            frontier = nxt
        return dist


@dataclass
class StructureReport:
    """Chordless cycles, arrow classification and dual graph of a quiver.

    `analyze_structure` returns the same report for every call on the same
    quiver, so callers must not mutate it."""
    cycles: list[ChordlessCycle]
    arrow_cycle_count: dict[str, int]
    classification: dict[str, str]      # 'boundary' | 'interior' | 'none' | 'overloaded'
    dual: DualGraph
    # arrow id -> indices of the cycles through it, in cycle order
    owners: dict[str, list[int]] = field(repr=False)
    problems: list[str] = field(default_factory=list)
    _cycle_paths: dict[str, dict[str, CyclePath]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def boundary_arrows(self) -> list[str]:
        return [a for a, k in self.classification.items() if k == "boundary"]

    @property
    def interior_arrows(self) -> list[str]:
        return [a for a, k in self.classification.items() if k == "interior"]

    def cycles_of_arrow(self, arrow_id: str) -> list[ChordlessCycle]:
        return [self.cycles[i] for i in self.owners.get(arrow_id, ())]

    def cycle_paths(self, direction: str) -> dict[str, CyclePath]:
        """Boundary arrow -> its cycle ('cycle') or cocycle ('cocycle') path,
        in quiver arrow order.  Walked once per direction; arrows outside all
        cycles are ignored."""
        if direction not in self._cycle_paths:
            # the walk reads only the structure, never the quiver
            self._cycle_paths[direction] = {
                a: cycle_path(None, self, a, direction)
                for a, kind in self.classification.items() if kind == "boundary"}
        return self._cycle_paths[direction]

    def path_weights(self, direction: str) -> dict[str, int]:
        """Boundary arrow -> weight ('cycle') or coweight ('cocycle'): 1 when
        its (co)cycle path has odd length, else 2."""
        return {a: 1 if path.length % 2 == 1 else 2
                for a, path in self.cycle_paths(direction).items()}


def analyze_structure(q: Quiver) -> StructureReport:
    """The structure of q, computed on the first call and cached on q."""
    if q._structure is None:
        q._structure = _analyze_structure(q)
    return q._structure


def _analyze_structure(q: Quiver) -> StructureReport:
    cycles = chordless_cycles(q)
    owners: dict[str, list[int]] = {a.id: [] for a in q.arrows}
    for i, c in enumerate(cycles):
        for aid in c.arrows:
            owners[aid].append(i)
    counts = {aid: len(idx) for aid, idx in owners.items()}
    classification = {}
    problems = []
    for a in q.arrows:
        n = counts[a.id]
        if n == 0:
            classification[a.id] = "none"
            problems.append(f"arrow {a.id} lies in no chordless cycle")
        elif n == 1:
            classification[a.id] = "boundary"
        elif n == 2:
            classification[a.id] = "interior"
        else:
            classification[a.id] = "overloaded"
            problems.append(f"arrow {a.id} lies in {n} chordless cycles")

    boundary = {a for a, k in classification.items() if k == "boundary"}
    trunk = []
    for a in q.arrows:
        idx = owners[a.id]
        for x in range(len(idx)):
            for y in range(x + 1, len(idx)):
                trunk.append((idx[x], idx[y], a.id))
    leaves = [(i, aid) for i, c in enumerate(cycles) for aid in c.arrows
              if aid in boundary]
    dual = DualGraph(cycles, sorted(boundary), trunk, leaves)
    return StructureReport(cycles, counts, classification, dual, owners, problems)


@dataclass
class Check:
    """One named verdict of a validator; `detail` is its witness."""
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    """The checks a validator ran, in order."""
    items: list[Check]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.items)

    def failed(self) -> list[Check]:
        return [c for c in self.items if not c.passed]


@dataclass
class ValidationReport(Report):
    structure: StructureReport


def validate_dimer_tree(q: Quiver) -> ValidationReport:
    """Check the defining axioms and their structural consequences."""
    checks: list[Check] = []
    structure = analyze_structure(q)

    bad_q1 = [a for a, k in structure.classification.items() if k == "none"]
    checks.append(Check(
        "every_arrow_on_a_cycle", not bad_q1,
        "" if not bad_q1 else f"arrows in no cycle: {sorted(bad_q1)}"))

    tree = structure.dual.is_tree()
    checks.append(Check(
        "dual_graph_is_tree", tree,
        "" if tree else f"dual graph has {structure.dual.node_count()} nodes "
                        f"and {structure.dual.edge_count()} edges"))

    pairs = {}
    parallel_ok = True
    for a in q.arrows:
        if (a.source, a.target) in pairs:
            parallel_ok = False
        pairs[(a.source, a.target)] = a.id
    checks.append(Check("no_parallel_arrows", parallel_ok))

    overloaded = [a for a, k in structure.classification.items()
                  if k == "overloaded"]
    checks.append(Check(
        "every_arrow_in_at_most_two_cycles", not overloaded,
        "" if not overloaded else f"arrows: {sorted(overloaded)}"))

    share_ok = True
    detail = ""
    for i in range(len(structure.cycles)):
        for j in range(i + 1, len(structure.cycles)):
            shared = set(structure.cycles[i].arrows) & set(structure.cycles[j].arrows)
            if len(shared) > 1:
                share_ok = False
                detail = (f"cycles {structure.cycles[i]} and {structure.cycles[j]} "
                          f"share {sorted(shared)}")
    checks.append(Check("cycles_share_at_most_one_arrow", share_ok, detail))

    vertex_ok = True
    detail = ""
    if not bad_q1 and not overloaded:
        bset = set(structure.boundary_arrows)
        for v in q.vertices:
            n = sum(1 for a in q.out_arrows[v] if a.id in bset)
            n += sum(1 for a in q.in_arrows[v] if a.id in bset)
            if n != 2:
                vertex_ok = False
                detail = f"vertex {v!r} is incident to {n} boundary arrows"
                break
    else:
        vertex_ok = False
        detail = "skipped: arrow classification failed"
    checks.append(Check("vertex_has_two_boundary_arrows", vertex_ok, detail))

    return ValidationReport(checks, structure)


# -- potential -----------------------------------------------------------------

@dataclass
class Potential:
    """Signed sum of the chordless cycles; sign of C is (-1)**distance(C)."""
    terms: list[tuple[int, ChordlessCycle]]
    base_cycle: ChordlessCycle
    distances: dict[tuple, int]      # cycle key -> tree distance from base

    def sign_of(self, cycle: ChordlessCycle) -> int:
        return (-1) ** self.distances[cycle.key]


def leaf_cycles(structure: StructureReport) -> list[ChordlessCycle]:
    """Cycles with exactly one interior arrow (all cycles if there is one)."""
    if len(structure.cycles) == 1:
        return list(structure.cycles)
    interior = set(structure.interior_arrows)
    out = []
    for c in structure.cycles:
        if sum(1 for a in c.arrows if a in interior) == 1:
            out.append(c)
    return out


def build_potential(q: Quiver, structure: StructureReport | None = None) -> Potential:
    if structure is None:
        report = validate_dimer_tree(q)
        if not report.ok:
            raise QuiverError(
                "potential requires a valid dimer tree quiver: "
                + "; ".join(c.name for c in report.failed()))
        structure = report.structure
    candidates = leaf_cycles(structure)
    if not candidates:
        raise QuiverError("no chordless cycle with exactly one interior arrow")
    base = min(candidates, key=lambda c: c.key)
    base_idx = structure.cycles.index(base)
    dist_by_idx = structure.dual.cycle_distances_from(base_idx)
    distances = {structure.cycles[i].key: d for i, d in dist_by_idx.items()}
    terms = [((-1) ** distances[c.key], c) for c in structure.cycles]
    return Potential(terms, base, distances)


# -- cycle paths and weights -----------------------------------------------------

@dataclass(frozen=True)
class CyclePath:
    """Boundary-to-boundary path threaded through successive chordless cycles."""
    arrows: tuple[str, ...]
    cycles: tuple[ChordlessCycle, ...]   # witnessing cycles, one per length-2 subpath
    direction: str                       # 'cycle' | 'cocycle'

    @property
    def length(self) -> int:
        return len(self.arrows)

    def vertex_route(self, q: Quiver) -> list[VertexId]:
        route = [q.arrow_by_id[self.arrows[0]].source]
        route += [q.arrow_by_id[a].target for a in self.arrows]
        return route

    def pretty(self, q: Quiver) -> str:
        return "->".join(str(v) for v in self.vertex_route(q))


def cycle_path(q: Quiver, structure: StructureReport, arrow_id: str,
               direction: str = "cycle") -> CyclePath:
    """Walk from a boundary arrow through successor (or predecessor) arrows,
    hopping to the other cycle at each interior arrow, until the next
    boundary arrow closes the path."""
    if direction not in ("cycle", "cocycle"):
        raise QuiverError(f"unknown direction {direction!r}")
    if structure.classification.get(arrow_id) != "boundary":
        raise QuiverError(f"arrow {arrow_id} is not a boundary arrow")

    step = (lambda c, a: c.successor_in(a)) if direction == "cycle" \
        else (lambda c, a: c.predecessor_in(a))

    current = arrow_id
    cyc = structure.cycles_of_arrow(arrow_id)[0]
    arrows = [arrow_id]
    witnesses = []
    while True:
        nxt = step(cyc, current)
        arrows.append(nxt)
        witnesses.append(cyc)
        if structure.classification[nxt] == "boundary":
            break
        owners = structure.cycles_of_arrow(nxt)
        cyc = owners[0] if owners[1] is cyc else owners[1]
        if owners[0] is not cyc and owners[1] is not cyc:
            raise QuiverError(f"inconsistent cycle structure at arrow {nxt}")
        current = nxt
    if direction == "cocycle":
        arrows.reverse()
        witnesses.reverse()
    return CyclePath(tuple(arrows), tuple(witnesses), direction)


@dataclass
class WeightEntry:
    arrow: str
    weight: int
    coweight: int
    cycle_path: CyclePath
    cocycle_path: CyclePath


@dataclass
class WeightReport:
    entries: list[WeightEntry]          # one per boundary arrow, quiver order
    total_weight: int
    half: int                           # N, where the total weight is 2N

    def by_arrow(self) -> dict[str, WeightEntry]:
        return {e.arrow: e for e in self.entries}


def weight_report(q: Quiver, structure: StructureReport | None = None) -> WeightReport:
    if structure is None:
        report = validate_dimer_tree(q)
        if not report.ok:
            raise QuiverError(
                "weights require a valid dimer tree quiver: "
                + "; ".join(c.name for c in report.failed()))
        structure = report.structure
    paths = structure.cycle_paths("cycle")
    copaths = structure.cycle_paths("cocycle")
    w = structure.path_weights("cycle")
    cw = structure.path_weights("cocycle")
    entries = [WeightEntry(a, w[a], cw[a], paths[a], copaths[a]) for a in paths]
    total = sum(w.values())
    cototal = sum(cw.values())
    if total != cototal:
        raise QuiverError(
            f"weight/coweight totals disagree: {total} vs {cototal}")
    if total % 2 != 0:
        raise QuiverError(f"total weight {total} is odd")
    return WeightReport(entries, total, total // 2)
