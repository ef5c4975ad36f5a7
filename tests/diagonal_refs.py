"""The 2-diagonal layer's earlier bodies, kept as differential references.

`crossing` compares one pair of diagonals at a time; `presentation_of`
calls it once per radical line, and `pivot` builds each pivot through
`make_diagonal` and its exception path, as `ar_quiver` here does for every
node.  `dimertree.diagonals.crossing_lines` reads the crossings of one
diagonal with a whole list of lines, and `dimertree.diagonals.pivot` and
`ar_quiver` move labels by arithmetic; on every polygon and every size they
must give the same presentations and the same translation quiver.

`orbit_of` reads each diagonal of a rotation orbit through
`dimertree.syzygy.presentation_of`, which normalises it again, and
`resolution` indexes a full period's steps modulo the period;
`dimertree.syzygy` reads each orbit's already normal diagonals off the
crossing kernel and slices a full period.  Both must give the same orbit
table and the same resolutions.

The function bodies are the earlier ones, unchanged but for keeping the
orbits in a `table` the caller passes, not on the polygon.
"""
from __future__ import annotations

from dimertree.diagonals import (DiagonalError, Mesh, TranslationQuiver,
                                 TwoDiagonal, _cw_dist, _norm,
                                 enumerate_diagonals, make_diagonal, rotate)
from dimertree import syzygy
from dimertree.syzygy import ResolutionTrace, SyzygyError, SyzygyObject


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


def orbit_of(cp, d0: TwoDiagonal,
             table: dict) -> tuple[list[SyzygyObject], int, bool]:
    """The presentations along the rotation orbit of d0, in clockwise order,
    the position of d0 there, and whether each presentation's P0 is the P1
    of the one before it, cyclically; the whole orbit is read on the first
    call for any of its diagonals and kept in `table`."""
    hit = table.get(d0)
    if hit is None:
        n = cp.half
        orbit = [syzygy.presentation_of(cp, d0)]
        d = rotate(d0, 1, n)
        while d != d0:
            orbit.append(syzygy.presentation_of(cp, d))
            d = rotate(d, 1, n)
        glued = all(b.p0 == a.p1 for a, b in zip(orbit, orbit[1:] + orbit[:1]))
        for i, p in enumerate(orbit):
            table[p.diagonal] = (orbit, i, glued)
        hit = (orbit, 0, glued)
    return hit


def resolution(cp, diagonal: TwoDiagonal, steps: int | None = None,
               table: dict | None = None) -> ResolutionTrace:
    """Iterate the clockwise rotation, checking the gluing of consecutive
    presentations, and report the minimal rotation period.  The steps are
    read off the orbit table; one full period by default, whose gluing is
    the orbit's."""
    d0 = make_diagonal(diagonal.tail, diagonal.head, cp.half)
    orbit, start, glued = orbit_of(cp, d0, {} if table is None else table)
    period = len(orbit)
    count = period if steps is None else steps
    trace = [orbit[(start + i) % period] for i in range(count + 1)]
    if steps is not None:
        glued = all(b.p0 == a.p1 for a, b in zip(trace, trace[1:]))
    return ResolutionTrace(d0, trace, period, glued)
