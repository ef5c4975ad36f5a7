"""The 2-diagonal layer's earlier bodies, kept as differential references.

`crossing` compares one pair of diagonals at a time; `presentation_of`
calls it once per radical line, and `pivot` builds each pivot through
`make_diagonal` and its exception path, as `ar_quiver` here does for every
node.  `dimertree.diagonals.crossing_lines` reads the crossings of one
diagonal with a whole list of lines, and `dimertree.diagonals.pivot` and
`ar_quiver` move labels by arithmetic; on every polygon and every size they
must give the same presentations and the same translation quiver.

The function bodies are the earlier ones, unchanged.
"""
from __future__ import annotations

from dimertree.diagonals import (DiagonalError, Mesh, TranslationQuiver,
                                 TwoDiagonal, _cw_dist, _norm,
                                 enumerate_diagonals, make_diagonal, rotate)
from dimertree.syzygy import SyzygyError, SyzygyObject


def crossing(d1: TwoDiagonal, d2: TwoDiagonal, n: int) -> str | None:
    """None, 'right_to_left' or 'left_to_right': how d2 crosses d1."""
    size = 2 * n
    if d1 == d2:
        return None
    pts = {d1.tail, d1.head, d2.tail, d2.head}
    if len(pts) < 4:
        return None  # shared endpoint: no transversal crossing
    span = _cw_dist(d1.tail, d1.head, size)
    t = _cw_dist(d1.tail, d2.tail, size)
    h = _cw_dist(d1.tail, d2.head, size)
    if (t < span) == (h < span):
        return None  # both endpoints on one side
    # right side of d1 = counterclockwise arc from its tail
    return "left_to_right" if t < span else "right_to_left"


def crosses(d1: TwoDiagonal, d2: TwoDiagonal, n: int) -> bool:
    return crossing(d1, d2, n) is not None


def pivot(d: TwoDiagonal, fix: str, n: int) -> TwoDiagonal | None:
    """2-pivot fixing one endpoint; the other advances two steps clockwise.
    Returns None when the result would touch the boundary."""
    size = 2 * n
    if fix == "tail":
        a, b = d.tail, _norm(d.head + 2, size)
    elif fix == "head":
        a, b = _norm(d.tail + 2, size), d.head
    else:
        raise DiagonalError(f"unknown endpoint {fix!r}")
    try:
        return make_diagonal(a, b, n)
    except DiagonalError:
        return None


def ar_quiver(n: int) -> TranslationQuiver:
    nodes = enumerate_diagonals(n)
    node_set = set(nodes)
    arrows = []
    for d in nodes:
        for fix in ("tail", "head"):
            e = pivot(d, fix, n)
            if e is not None:
                if e not in node_set:
                    raise DiagonalError(f"pivot left the diagonal set: {d} -> {e}")
                arrows.append((d, e))
    tau = {d: rotate(d, -2, n) for d in nodes}
    arrow_set = set(arrows)
    sources_into: dict[TwoDiagonal, list[TwoDiagonal]] = {d: [] for d in nodes}
    for y, x in arrows:
        sources_into[x].append(y)
    meshes = []
    for x in nodes:
        tx = tau[x]
        for y in sources_into[x]:
            if (tx, y) not in arrow_set:
                raise DiagonalError(
                    f"translation axiom fails: no arrow {tx} -> {y}")
        meshes.append(Mesh(target=x, tau_target=tx,
                           middles=sorted(sources_into[x])))
    return TranslationQuiver(n, nodes, sorted(arrows), tau, meshes)


def presentation_of(cp, diagonal: TwoDiagonal) -> SyzygyObject:
    """The presentation read off the crossings of a diagonal."""
    n = cp.half
    d = make_diagonal(diagonal.tail, diagonal.head, n)
    p0, p1 = [], []
    for v, line in cp.line_diagonals:
        direction = crossing(d, line, n)
        if direction == "right_to_left":
            p0.append(v)
        elif direction == "left_to_right":
            p1.append(v)
    if not p0 or not p1:
        raise SyzygyError(
            f"diagonal {d} has a one-sided crossing pattern: p0={p0}, p1={p1}")
    return SyzygyObject(d, tuple(p0), tuple(p1))
