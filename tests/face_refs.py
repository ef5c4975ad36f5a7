"""The face traversal's earlier body, kept as a differential reference.

`_face_multiset` visits the rotation system's directed edges sorted by the
`repr` of their nodes, and the faces and stored regions are compared as
lists sorted by `_face_order`.  `dimertree.checkerboard` walks the edges in
the order the rotation system lists them and compares the two sides as
multisets; on every polygon, well formed or not, `faces_match_regions`
must give the same verdict and the same detail.  The one exception is a
polygon where two rays join the same pair of nodes: the validator names
that pair before any traversal, while this reference walks a rotation
system that has lost one of the two rays.

`_stored_region_multiset`, `_face_order`, `_face_multiset` and
`_multiset_diff` are the earlier bodies, unchanged.
"""
from __future__ import annotations

from dimertree.checkerboard import CheckerboardError, CheckerboardPolygon, Node
from dimertree.quiver import Check


def faces_match_regions(cp: CheckerboardPolygon) -> Check:
    """The `faces_match_regions` item as the earlier validator made it."""
    try:
        if cp.size % 2 != 0 or cp.size < 6:
            raise CheckerboardError(f"size {cp.size} is not an even number >= 6")
        faces = _face_multiset(cp)
        stored = _stored_region_multiset(cp)
        return Check("faces_match_regions", faces == stored,
                     "" if faces == stored else _multiset_diff(faces, stored))
    except CheckerboardError as exc:
        return Check("faces_match_regions", False, str(exc))


def _stored_region_multiset(cp: CheckerboardPolygon):
    out = []
    for s in cp.shaded:
        nodes = {x for seg in s.segments for x in (seg.start, seg.end)}
        out.append(frozenset(nodes))
    for w in cp.whites:
        nodes = {x for seg in w.segments for x in (seg.start, seg.end)}
        out.append(frozenset(nodes))
    out.sort(key=_face_order)
    return out


def _face_order(face: frozenset) -> tuple:
    """Faces by size, then by their nodes' reprs in sorted order: an order
    that does not depend on string hashing."""
    return len(face), sorted(repr(n) for n in face)


def _face_multiset(cp: CheckerboardPolygon):
    """Interior faces of the arrangement, traversed from the combinatorial
    rotation system determined by endpoint labels and per-line crossing order."""
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
            rotation[node] = [to for to, _, _ in
                              sorted(out, key=lambda r: r[1] % size)]

    # the rotation system's directed edges, each with the edge that follows
    # it around its face
    next_at: dict[tuple[Node, Node], Node] = {}
    for at, nbrs in rotation.items():
        for i, frm in enumerate(nbrs):
            next_at[(at, frm)] = nbrs[(i + 1) % len(nbrs)]

    visited: set[tuple[Node, Node]] = set()
    faces = []
    for e in sorted(next_at, key=lambda e: (repr(e[0]), repr(e[1]))):
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
    out = [frozenset(f) for f in faces if f is not outer]
    out.sort(key=_face_order)
    return out


def _multiset_diff(a, b) -> str:
    """The first two faces of each side that the other lacks, each as its
    nodes in sorted order (see `_face_order`)."""
    from collections import Counter
    ca, cb = Counter(a), Counter(b)
    parts = []
    for label, extra in (("faces", ca - cb), ("regions", cb - ca)):
        if extra:
            shown = [sorted(f, key=repr) for f in sorted(extra, key=_face_order)]
            parts.append(f"unmatched {label}: {shown[:2]}")
    return "; ".join(parts)

