"""Dimer tree quivers: parsing, validation, structure, potentials, weights.

A dimer tree quiver is a finite connected quiver without loops, 2-cycles or
parallel arrows in which every arrow lies on a chordless oriented cycle and
the dual graph (chordless cycles + boundary arrows, linked by shared arrows
and containment) is a tree.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

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


class Edit(NamedTuple):
    """What `Quiver.edit` changed: the arrows it dropped and added, and the
    touched vertices, the endpoints of those arrows and the added vertices."""
    dropped: tuple[Arrow, ...]
    added: tuple[Arrow, ...]
    touched: set


class Quiver:
    """Immutable quiver with ordered vertices and arrows; derived structure
    (see `analyze_structure`) is computed once and cached on it.

    A quiver made by `edit` from an analysed quiver keeps that parent and the
    `Edit` while it is unanalysed; the analysis then derives its cycles from
    the parent's (see `chordless_cycles`) and drops both."""

    def __init__(self, vertices: Iterable[VertexId], arrows: Iterable[Arrow],
                 name: str = ""):
        self.name = name
        self.vertices: tuple[VertexId, ...] = ()
        self.arrow_by_id: dict[str, Arrow] = {}
        self.out_arrows: dict[VertexId, list[Arrow]] = {}
        self.in_arrows: dict[VertexId, list[Arrow]] = {}
        # (source, target) -> first such arrow; parallel arrows are rejected
        # by check_well_formed, not here
        self._arrow_index: dict[tuple[VertexId, VertexId], Arrow] = {}
        self._structure: StructureReport | None = None
        self._parent: Quiver | None = None
        self._edit: Edit | None = None
        self._append(vertices, arrows, set())
        self.arrows: tuple[Arrow, ...] = tuple(self.arrow_by_id.values())

    def _append(self, vertices: Iterable[VertexId], arrows: Iterable[Arrow],
                touched: set, edit: bool = False) -> None:
        """Append `vertices`, then `arrows`, to the vertex tuple and the
        indexes, and add them and the arrows' endpoints to `touched`.  A
        vertex's arrow lists may be shared with the quiver this one was
        edited from, so they are replaced, never mutated.

        A repeated arrow id is reported as the edit's, or, for a new quiver,
        at its position among `arrows`."""
        out_arrows, in_arrows = self.out_arrows, self.in_arrows
        by_id, index = self.arrow_by_id, self._arrow_index
        vertices = tuple(vertices)
        for v in vertices:
            if v in out_arrows:
                raise QuiverError("duplicate vertex ids")
            out_arrows[v], in_arrows[v] = [], []
            touched.add(v)
        self.vertices += vertices
        for a in arrows:
            s, t = a.source, a.target
            first = by_id.get(a.id)
            if first is not None:
                if edit:
                    raise QuiverError(f"edit adds duplicate arrow id {a.id!r}")
                i, j = len(by_id), list(by_id).index(a.id)
                if first == a:  # same id and endpoints
                    raise QuiverError(
                        f"arrows[{i}]: parallel arrows {s!r}->{t!r} "
                        f"(first at arrows[{j}])")
                raise QuiverError(f"arrows[{i}]: duplicate arrow id {a.id!r}")
            if s not in out_arrows:
                raise QuiverError(f"arrow {a.id}: unknown source {s!r}")
            if t not in in_arrows:
                raise QuiverError(f"arrow {a.id}: unknown target {t!r}")
            by_id[a.id] = a
            out_arrows[s] = out_arrows[s] + [a]
            in_arrows[t] = in_arrows[t] + [a]
            index.setdefault((s, t), a)
            touched.add(s)
            touched.add(t)

    def edit(self, drop: Iterable[str] = (), add: Iterable[Arrow] = (),
             drop_vertices: Iterable[VertexId] = (),
             add_vertices: Iterable[VertexId] = ()) -> Quiver:
        """This quiver without the arrows with ids in `drop` and the vertices
        `drop_vertices`, then with `add_vertices` and the arrows `add`
        appended, in that order, by the step that builds a new quiver
        (`_append`).

        The indexes are copied from this quiver, and only the entries of the
        touched vertices are replaced: the endpoints of the dropped and added
        arrows, and the added vertices.  Every other vertex shares its
        `out_arrows`/`in_arrows` list with this quiver; neither may mutate
        them.  If this quiver is analysed, the new one keeps it as its parent
        (see `chordless_cycles`)."""
        q = object.__new__(Quiver)
        q.name = self.name
        by_id = q.arrow_by_id = dict(self.arrow_by_id)
        out_arrows = q.out_arrows = dict(self.out_arrows)
        in_arrows = q.in_arrows = dict(self.in_arrows)
        index = q._arrow_index = dict(self._arrow_index)
        touched: set[VertexId] = set()
        dropped = []
        for aid in drop:
            a = by_id.pop(aid, None)
            if a is None:
                raise QuiverError(f"edit drops unknown arrow {aid!r}")
            dropped.append(a)
            s, t = a.source, a.target
            out_arrows[s] = [b for b in out_arrows[s] if b is not a]
            in_arrows[t] = [b for b in in_arrows[t] if b is not a]
            if index.get((s, t)) is a:
                del index[s, t]
            touched.add(s)
            touched.add(t)
        q.vertices = self.vertices
        if drop_vertices:
            gone = set(drop_vertices)
            for v in gone:
                if v not in out_arrows:
                    raise QuiverError(f"edit drops unknown vertex {v!r}")
                if out_arrows.pop(v) or in_arrows.pop(v):
                    raise QuiverError(f"edit drops vertex {v!r} but not its arrows")
            q.vertices = tuple(v for v in q.vertices if v not in gone)
        add = tuple(add)
        q._append(add_vertices, add, touched, edit=True)
        q.arrows = tuple(by_id.values())
        if len(self._arrow_index) != len(self.arrows):
            # parallel arrows: a dropped first arrow hands its pair on
            q._arrow_index = {}
            for a in q.arrows:
                q._arrow_index.setdefault((a.source, a.target), a)
        q._structure = None
        if self._structure is None:
            q._parent = q._edit = None
        else:
            q._parent, q._edit = self, Edit(tuple(dropped), add, touched)
        return q

    # -- basic invariants ---------------------------------------------------

    def check_well_formed(self) -> None:
        """No loops, no parallel arrows, no 2-cycles, connected.  A fault is
        reported at the first arrow that completes it, as arrows[i]."""
        first: dict[tuple[VertexId, VertexId], int] = {}
        for i, a in enumerate(self.arrows):
            loc = f"arrows[{i}]"
            if a.source == a.target:
                raise QuiverError(f"{loc}: loop at {a.source!r}")
            j = first.setdefault((a.source, a.target), i)
            if j != i:
                raise QuiverError(
                    f"{loc}: parallel arrows {a.source!r}->{a.target!r} "
                    f"(first at arrows[{j}])")
            j = first.get((a.target, a.source))
            if j is not None:
                raise QuiverError(
                    f"{loc}: arrows form a 2-cycle {a.source!r}<->{a.target!r} "
                    f"(with arrows[{j}])")
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
    except (ValueError, RecursionError) as exc:
        # bad JSON, an integer too long to convert, or nesting too deep
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
            if len(spec) == 2:
                s, t = spec
                aid = _default_arrow_id(s, t)
            elif len(spec) == 3:
                aid, s, t = spec
            else:
                raise QuiverError(
                    f"{loc}: expected [source, target] or [id, source, target]")
        elif isinstance(spec, dict):
            try:
                s, t = spec["source"], spec["target"]
            except KeyError as exc:
                raise QuiverError(f"{loc}: missing {exc}") from exc
            aid = spec.get("id", _default_arrow_id(s, t))
        else:
            raise QuiverError(f"{loc}: expected array or object")
        if not isinstance(aid, str):
            raise QuiverError(f"{loc}: arrow id must be a string")
        for v in (s, t):
            if not isinstance(v, (int, str)) or isinstance(v, bool):
                raise QuiverError(f"{loc}: vertex id must be an integer or string")
        arrows.append(Arrow(aid, s, t))

    q = Quiver(vertices, arrows, name=name)
    q.check_well_formed()
    return q


def load_quiver(path: str) -> Quiver:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise QuiverError(f"malformed document: {exc}") from exc
    return parse_quiver(text)


# -- chordless cycles ----------------------------------------------------------

def _canonical_word(word: tuple[str, ...]) -> tuple[str, ...]:
    """The least rotation of a cyclic word; it starts at the least id."""
    first = min(word)
    return min(word[i:] + word[:i] for i, a in enumerate(word) if a == first)


@dataclass(frozen=True)
class ChordlessCycle:
    """Oriented cycle whose induced subquiver is the cycle itself.

    `key` is the sorted vertex keys, comparable across int and string vertex
    ids, and `word` the arrows rotated to start at the least id (the
    potential term of the cycle).  The cycle search passes both; a cycle
    built without them computes them here."""
    arrows: tuple[str, ...]           # arrow ids in cycle order
    vertices: tuple[VertexId, ...]    # induced vertex cycle, same order
    key: tuple = field(default=None, repr=False, compare=False)
    word: tuple[str, ...] = field(default=None, repr=False, compare=False)
    _next: dict[str, dict[str, str]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.key is None:
            object.__setattr__(self, "key",
                               tuple(sorted(_vkey(v) for v in self.vertices)))
        if self.word is None:
            object.__setattr__(self, "word", _canonical_word(self.arrows))

    def __len__(self) -> int:
        return len(self.arrows)

    def next_arrows(self, direction: str) -> dict[str, str]:
        """Arrow -> the arrow after it ('cycle') or before it ('cocycle');
        built once per direction and kept, so a cycle a move keeps is not
        stepped through again."""
        step = self._next.get(direction)
        if step is None:
            if direction not in ("cycle", "cocycle"):
                raise QuiverError(f"unknown direction {direction!r}")
            a = self.arrows
            shift = 1 if direction == "cycle" else -1
            step = self._next[direction] = dict(zip(a, a[shift:] + a[:shift]))
        return step

    def __repr__(self) -> str:
        return ("Cycle(" + "->".join(str(v) for v in self.vertices)
                + " via " + ", ".join(self.arrows) + ")")


def _canonical_cycle(arrows: Sequence[Arrow]) -> ChordlessCycle:
    verts = [a.source for a in arrows]
    # the keys of `_vkey`, without a call per vertex
    keys = [(0, v) if isinstance(v, int) else (1, str(v)) for v in verts]
    start = keys.index(min(keys))
    ids = [a.id for a in arrows]
    keys.sort()
    # the arrows of a cycle are distinct: its word starts at the least id
    first = ids.index(min(ids))
    return ChordlessCycle(tuple(ids[start:] + ids[:start]),
                          tuple(verts[start:] + verts[:start]), tuple(keys),
                          tuple(ids[first:] + ids[:first]))


def chordless_cycles(q: Quiver) -> list[ChordlessCycle]:
    """All oriented chordless cycles, by DFS with on-the-fly chord pruning
    (see `_search`), sorted by length, vertex keys and arrows.

    Without a parent, the search starts at each vertex in turn, never
    leaving an earlier one, so it finds each cycle once, rooted at its
    first vertex.

    If q keeps an analysed parent (see `Quiver.edit`), a chordless cycle of
    q either contains an added arrow, or passes through both ends of a
    dropped arrow (its chord in the parent), or else has the same arrows and
    non-chords as in the parent.  So the parent's cycles that keep all their
    arrows and gain no added chord are kept; a cycle through no touched
    vertex is one of them.  The search starts at each added arrow in turn,
    never stepping over an earlier one, and then, for a dropped arrow u -> v
    whose ends both keep old arrows in and out, at u over old arrows only,
    keeping the cycles through v.
    """
    parent = q._parent
    found: dict[tuple[str, ...], ChordlessCycle] = {}
    skip: set[str] = set()
    if parent is None:
        _search(q, ((v, q.out_arrows[v]) for v in q.vertices), skip, found)
        return sorted(found.values(), key=lambda c: (len(c), c.key, c.arrows))

    dropped, added, touched = q._edit
    gone = {a.id for a in dropped}
    kept = []
    for c in parent._structure.cycles:
        if not touched.isdisjoint(c.vertices):
            if not gone.isdisjoint(c.arrows):
                continue
            on_c = set(c.vertices)
            if any(a.source in on_c and a.target in on_c for a in added):
                continue
        kept.append(c)
    _search(q, ((a.source, (a,)) for a in added), skip, found)

    def keeps_old_arrows(v: VertexId) -> bool:
        # the edit put the added arrows after the old ones
        outs, ins = q.out_arrows.get(v), q.in_arrows.get(v)
        return bool(outs and ins and outs[0].id not in skip
                    and ins[0].id not in skip)

    for d in dropped:
        u, v = d.source, d.target
        if keeps_old_arrows(u) and keeps_old_arrows(v):
            through_u: dict[tuple[str, ...], ChordlessCycle] = {}
            _search(q, [(u, q.out_arrows[u])], set(skip), through_u)
            found.update((k, c) for k, c in through_u.items() if v in c.vertices)
    return sorted(kept + list(found.values()),
                  key=lambda c: (len(c), c.key, c.arrows))


def _search(q: Quiver, starts: Iterable[tuple[VertexId, Sequence[Arrow]]],
            skip: set[str], found: dict[tuple[str, ...], ChordlessCycle]) -> None:
    """For each (v0, first) of `starts` in turn, add to `found` every
    chordless cycle through v0 that leaves v0 by an arrow of `first` and has
    no arrow with its id in `skip`; then those arrows join `skip`.

    A partial path is abandoned as soon as an arrow joins the new endpoint
    to a non-neighbouring path vertex, so only chord-free paths are ever
    extended."""
    out_arrows, in_arrows = q.out_arrows, q.in_arrows
    on_path: set[VertexId] = set()
    path: list[Arrow] = []

    def extend(v0: VertexId, tip: VertexId, arrows: Sequence[Arrow]):
        for a in arrows:
            w = a.target
            if w in on_path or a.id in skip:
                continue
            # an arrow joining w to the path is a chord unless it is the step
            # tip->w or a closure w->v0
            closing = None
            chord = False
            for b in out_arrows[w]:
                if b.target in on_path:
                    if b.target != v0:
                        chord = True
                        break
                    if closing is None:
                        closing = b
            if not chord:
                for b in in_arrows[w]:
                    if b.source in on_path and b.source != tip:
                        chord = True
                        break
            if chord:
                continue
            if closing is not None:
                # w->v0 closes the cycle now and forbids any longer cycle
                if path and closing.id not in skip:
                    c = _canonical_cycle(path + [a, closing])
                    found[c.arrows] = c
                continue
            on_path.add(w)
            path.append(a)
            extend(v0, w, out_arrows[w])
            on_path.discard(w)
            path.pop()

    for v0, first in starts:
        on_path.add(v0)
        extend(v0, v0, first)
        on_path.discard(v0)
        skip.update(a.id for a in first)
    # extend refers to itself through its closure: break that cycle, so the
    # search state is freed now rather than by the cycle collector
    del extend


# -- dual graph and structural analysis ---------------------------------------

def cycle_distances_from(n: int, trunk_edges: list[tuple[int, int, str]],
                         idx: int) -> dict[int, int]:
    """Trunk-edge distance from cycle idx, of n cycles, to every cycle it
    reaches."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j, _ in trunk_edges:
        adj[i].append(j)
        adj[j].append(i)
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

    The dual graph's nodes are the cycles and the boundary arrows.  Its
    trunk is the cycles with one edge per arrow shared by two cycles
    (`trunk_edges`, parallel edges kept); each boundary arrow lies on
    exactly one cycle, so it is a leaf hanging off that cycle and is not
    stored.  `base` is the base leaf: the index of the least cycle, by
    vertex keys, with exactly one interior arrow (of the one cycle, if there
    is only one), or None.  The trunk is searched once, from the base leaf
    (`base_distances`), for the tree test and the signs of the potential.

    The weights (`path_weights`) and the cycle paths (`cycle_paths`, read by
    `weight_report` and the checkerboard) are computed on demand, once per
    direction, by the same walker over all boundary arrows (`_walk_all`);
    the weights only count each path's arrows and build no `CyclePath`.
    `boundary_at` and `interior_count` are counted in the analysis's one
    loop over the arrows, for `validate_dimer_tree` and the base leaf.
    `analyze_structure` returns the same report for every call on the same
    quiver, so callers must not mutate it."""
    cycles: list[ChordlessCycle]
    classification: dict[str, str]      # 'boundary' | 'interior' | 'none' | 'overloaded'
    trunk_edges: list[tuple[int, int, str]]     # (cycle idx, cycle idx, arrow id)
    base: int | None
    # cycle idx -> trunk-edge distance from the base leaf; empty without one
    base_distances: dict[int, int] = field(repr=False)
    # arrow id -> indices of the cycles through it, in cycle order
    owners: dict[str, list[int]] = field(repr=False)
    # vertex -> boundary arrows at it, in quiver vertex order
    boundary_at: dict[VertexId, int] = field(repr=False)
    # per cycle, its arrows that lie on exactly one other cycle
    interior_count: list[int] = field(repr=False)
    problems: list[str] = field(default_factory=list)
    _cycle_paths: dict[str, dict[str, CyclePath]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _path_weights: dict[str, dict[str, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _potential: Potential | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def boundary_arrows(self) -> list[str]:
        return [a for a, k in self.classification.items() if k == "boundary"]

    @property
    def interior_arrows(self) -> list[str]:
        return [a for a, k in self.classification.items() if k == "interior"]

    def cycles_of_arrow(self, arrow_id: str) -> list[ChordlessCycle]:
        return [self.cycles[i] for i in self.owners.get(arrow_id, ())]

    def is_tree(self) -> bool:
        """Whether the dual graph is a tree.  Adding leaves neither makes nor
        breaks a tree, so this is whether the trunk is one."""
        n = len(self.cycles)
        # n - 1 edges make a tree exactly when they connect all n cycles; a
        # trunk tree of two or more cycles has a cycle on one trunk edge,
        # which is a cycle with one interior arrow, so there is a base leaf
        return (n > 0 and len(self.trunk_edges) == n - 1
                and len(self.base_distances) == n)

    def cycle_paths(self, direction: str) -> dict[str, CyclePath]:
        """Boundary arrow -> its cycle ('cycle') or cocycle ('cocycle') path,
        in quiver arrow order.  Walked once per direction; arrows outside all
        cycles are ignored."""
        if direction not in self._cycle_paths:
            trails = _walk_all(self, direction, trails=True)
            if direction == "cocycle":
                for arrows in trails.values():
                    arrows.reverse()
            self._cycle_paths[direction] = {
                a: CyclePath(tuple(arrows)) for a, arrows in trails.items()}
        return self._cycle_paths[direction]

    def path_weights(self, direction: str) -> dict[str, int]:
        """Boundary arrow -> weight ('cycle') or coweight ('cocycle'): 1 when
        its (co)cycle path has odd length, else 2.  Computed once per
        direction by a walk that counts the path's arrows and builds no
        `CyclePath`; callers must not mutate it."""
        if direction not in self._path_weights:
            self._path_weights[direction] = _walk_all(self, direction)
        return self._path_weights[direction]


def analyze_structure(q: Quiver) -> StructureReport:
    """The structure of q, computed on the first call and cached on q."""
    if q._structure is None:
        q._structure = _analyze_structure(q)
        q._parent = q._edit = None
    return q._structure


def _analyze_structure(q: Quiver) -> StructureReport:
    cycles = chordless_cycles(q)
    owners: dict[str, list[int]] = {a.id: [] for a in q.arrows}
    for i, c in enumerate(cycles):
        for aid in c.arrows:
            owners[aid].append(i)
    classification = {}
    problems = []
    trunk = []
    boundary_at = dict.fromkeys(q.vertices, 0)
    interior_count = [0] * len(cycles)
    for a in q.arrows:
        aid = a.id
        idx = owners[aid]
        n = len(idx)
        if n == 1:
            classification[aid] = "boundary"
            boundary_at[a.source] += 1
            boundary_at[a.target] += 1
            continue
        if n == 2:
            classification[aid] = "interior"
            interior_count[idx[0]] += 1
            interior_count[idx[1]] += 1
        elif n == 0:
            classification[aid] = "none"
            problems.append(f"arrow {aid} lies in no chordless cycle")
        else:
            classification[aid] = "overloaded"
            problems.append(f"arrow {aid} lies in {n} chordless cycles")
        for x in range(n):
            for y in range(x + 1, n):
                trunk.append((idx[x], idx[y], aid))
    if len(cycles) == 1:
        base = 0
    else:
        leaves = [i for i, k in enumerate(interior_count) if k == 1]
        base = min(leaves, key=lambda i: cycles[i].key, default=None)
    distances = ({} if base is None
                 else cycle_distances_from(len(cycles), trunk, base))
    return StructureReport(cycles, classification, trunk, base, distances,
                           owners, boundary_at, interior_count, problems)


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
    bad_q1, overloaded = [], []
    if structure.problems:
        for aid, k in structure.classification.items():
            if k == "none":
                bad_q1.append(aid)
            elif k == "overloaded":
                overloaded.append(aid)

    checks.append(Check(
        "every_arrow_on_a_cycle", not bad_q1,
        "" if not bad_q1 else f"arrows in no cycle: {sorted(bad_q1)}"))

    tree = structure.is_tree()
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

    # two cycles share exactly the arrows of the trunk edges between them;
    # the arrows are gathered by pair only when some pair repeats
    trunk = structure.trunk_edges
    detail = ""
    if len({(i, j) for i, j, _ in trunk}) != len(trunk):
        shared: dict[tuple[int, int], list[str]] = {}
        for i, j, aid in trunk:
            shared.setdefault((i, j), []).append(aid)
        (i, j), ids = max((pair, ids) for pair, ids in shared.items()
                          if len(ids) > 1)
        detail = (f"cycles {structure.cycles[i]} and {structure.cycles[j]} "
                  f"share {sorted(ids)}")
    checks.append(Check("cycles_share_at_most_one_arrow", not detail, detail))

    vertex_ok = True
    detail = ""
    if not bad_q1 and not overloaded:
        for v, n in structure.boundary_at.items():
            if n != 2:
                vertex_ok = False
                detail = f"vertex {v!r} is incident to {n} boundary arrows"
                break
    else:
        vertex_ok = False
        detail = "skipped: arrow classification failed"
    checks.append(Check("vertex_has_two_boundary_arrows", vertex_ok, detail))

    return ValidationReport(checks, structure)


def dimer_tree_structure(q: Quiver, stage: str) -> StructureReport:
    """The structure of q, validated once; a quiver that fails validation
    raises `QuiverError` naming the stage that needed it."""
    report = validate_dimer_tree(q)
    if not report.ok:
        raise QuiverError(f"{stage} requires a valid dimer tree quiver: failed "
                          + ", ".join(c.name for c in report.failed()))
    return report.structure


# -- potential -----------------------------------------------------------------

@dataclass
class Potential:
    """Signed sum of the chordless cycles; sign of C is (-1)**distance(C)."""
    terms: list[tuple[int, ChordlessCycle]]
    distances: dict[tuple, int]      # cycle key -> tree distance from a base leaf


def build_potential(q: Quiver, structure: StructureReport | None = None) -> Potential:
    """The potential of q, computed once per structure and kept on it, so
    callers must not mutate it."""
    if structure is None:
        structure = dimer_tree_structure(q, "potential")
    if structure._potential is None:
        structure._potential = _build_potential(structure)
    return structure._potential


def _build_potential(structure: StructureReport) -> Potential:
    if structure.base is None:
        raise QuiverError("no chordless cycle with exactly one interior arrow")
    dist_by_idx = structure.base_distances
    distances = {structure.cycles[i].key: d for i, d in dist_by_idx.items()}
    terms = [((-1) ** dist_by_idx[i], c) for i, c in enumerate(structure.cycles)]
    return Potential(terms, distances)


# -- cycle paths and weights -----------------------------------------------------

@dataclass(frozen=True)
class CyclePath:
    """Boundary-to-boundary path threaded through successive chordless cycles."""
    arrows: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.arrows)

    def vertex_route(self, q: Quiver) -> list[VertexId]:
        route = [q.arrow_by_id[self.arrows[0]].source]
        route += [q.arrow_by_id[a].target for a in self.arrows]
        return route

    def pretty(self, q: Quiver) -> str:
        return "->".join(str(v) for v in self.vertex_route(q))


def _walk_all(structure: StructureReport, direction: str,
              trails: bool = False) -> dict[str, int] | dict[str, list[str]]:
    """Walk from each boundary arrow, in quiver arrow order, through
    successor ('cycle') or predecessor ('cocycle') arrows, hopping to the
    other cycle at each interior arrow, until the next boundary arrow closes
    the path.  Returns each arrow's weight: 1 when its path has an odd
    number of arrows, else 2; or, with `trails`, the path's arrows in the
    order walked."""
    step = [c.next_arrows(direction) for c in structure.cycles]
    kind, owners = structure.classification, structure.owners
    out = {}
    for arrow_id, k in kind.items():
        if k != "boundary":
            continue
        current = arrow_id
        ci = owners[arrow_id][0]
        trail = [arrow_id] if trails else None
        length = 1
        while True:
            current = step[ci][current]
            length += 1
            if trails:
                trail.append(current)
            if kind[current] == "boundary":
                break
            # current lies on cycle ci and on at least one more: hop over
            own = owners[current]
            ci = own[0] if own[1] == ci else own[1]
        out[arrow_id] = trail if trails else 1 if length % 2 == 1 else 2
    return out


def cycle_path(structure: StructureReport, arrow_id: str,
               direction: str = "cycle") -> CyclePath:
    """The (co)cycle path of a boundary arrow (see `_walk_all`)."""
    paths = structure.cycle_paths(direction)
    if structure.classification.get(arrow_id) != "boundary":
        raise QuiverError(f"arrow {arrow_id} is not a boundary arrow")
    return paths[arrow_id]


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
        structure = dimer_tree_structure(q, "weight report")
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
