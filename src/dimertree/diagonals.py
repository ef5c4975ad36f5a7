"""The combinatorial category of 2-diagonals of an even polygon.

Polygon vertices are labelled 1..2N clockwise.  A 2-diagonal joins two
non-adjacent vertices of opposite parity and is oriented from its odd to its
even endpoint.  Pivots advance one endpoint two steps clockwise; the
clockwise rotation R shifts labels by one and re-reads the orientation.

Sides of an oriented diagonal: with clockwise-increasing labels, the right
side of tail->head is the counterclockwise boundary arc from the tail (the
clockwise arc from head back to tail).  A diagonal crosses another from right
to left when its tail sits on that right side.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .quiver import Check, Report


class DiagonalError(ValueError):
    pass


class TwoDiagonal(NamedTuple):
    """A tuple: it equals, hashes and sorts as the pair (tail, head)."""
    tail: int   # odd label
    head: int   # even label

    def __repr__(self) -> str:
        return f"({self.tail},{self.head})"


def _norm(x: int, size: int) -> int:
    return (x - 1) % size + 1


def _cw_dist(a: int, b: int, size: int) -> int:
    """Clockwise steps from a to b."""
    return (b - a) % size


def make_diagonal(a: int, b: int, n: int) -> TwoDiagonal:
    """Build a 2-diagonal of the 2n-gon from an unordered endpoint pair."""
    size = 2 * n
    a, b = _norm(a, size), _norm(b, size)
    if a == b:
        raise DiagonalError(f"degenerate diagonal at {a}")
    if (a - b) % 2 == 0:
        raise DiagonalError(f"endpoints {a},{b} have equal parity")
    if _cw_dist(a, b, size) == 1 or _cw_dist(b, a, size) == 1:
        raise DiagonalError(f"{a},{b} are neighbours on the boundary")
    tail, head = (a, b) if a % 2 == 1 else (b, a)
    return TwoDiagonal(tail, head)


def enumerate_diagonals(n: int) -> list[TwoDiagonal]:
    """Every 2-diagonal of the 2n-gon: an odd tail and an even head that are
    not boundary neighbours, in sorted order."""
    if n < 3:
        raise DiagonalError(f"polygon size 2N with N={n} < 3")
    size = 2 * n
    return [TwoDiagonal(a, b) for a in range(1, size + 1, 2)
            for b in range(2, size + 1, 2)
            if (b - a) % size not in (1, size - 1)]


def rotate(d: TwoDiagonal, k: int, n: int) -> TwoDiagonal:
    """Clockwise rotation R^k: both labels advance k; orientation re-read."""
    size = 2 * n
    a = _norm(d.tail + k, size)
    b = _norm(d.head + k, size)
    tail, head = (a, b) if a % 2 == 1 else (b, a)
    return TwoDiagonal(tail, head)


def pivot(d: TwoDiagonal, fix: str, n: int) -> TwoDiagonal | None:
    """2-pivot fixing one endpoint; the other advances two steps clockwise,
    which keeps its parity.  Returns None when the new ends are boundary
    neighbours."""
    size = 2 * n
    tail, head = d
    if fix == "tail":
        head = _norm(head + 2, size)
    elif fix == "head":
        tail = _norm(tail + 2, size)
    else:
        raise DiagonalError(f"unknown endpoint {fix!r}")
    if (head - tail) % size in (1, size - 1):
        return None
    return TwoDiagonal(tail, head)


def crossing_lines(d: TwoDiagonal, lines, n: int) -> tuple[list, list]:
    """The keys of the `(key, (tail, head))` chords in `lines` that cross d
    right to left, then those that cross it left to right, read off the
    endpoint labels alone.  A chord crosses d left to right when its tail
    lies on the open clockwise arc from d's tail to d's head and its head on
    the other open arc; a chord sharing an endpoint with d crosses it in
    neither way."""
    size = 2 * n
    start = d[0]
    span = (d[1] - start) % size
    right_to_left, left_to_right = [], []
    for key, (tail, head) in lines:
        tail = (tail - start) % size
        head = (head - start) % size
        if 0 < tail < span < head:
            left_to_right.append(key)
        elif 0 < head < span < tail:
            right_to_left.append(key)
    return right_to_left, left_to_right


# ---------------------------------------------------------------------------
# translation quiver with pivots, tau = R^-2, and mesh relations
# ---------------------------------------------------------------------------

@dataclass
class Mesh:
    """tau x -> (middle terms y) -> x, by the arrows tau x -> y -> x."""
    target: TwoDiagonal
    tau_target: TwoDiagonal
    middles: list[TwoDiagonal]


@dataclass
class TranslationQuiver:
    """The translation quiver as its meshes, one per 2-diagonal x in
    `enumerate_diagonals` order, each with the sorted sources of the pivots
    into x.  Its nodes, arrows and tau are read off them."""
    n: int
    meshes: list[Mesh]

    @property
    def nodes(self) -> list[TwoDiagonal]:
        return [m.target for m in self.meshes]

    @property
    def arrows(self) -> list[tuple[TwoDiagonal, TwoDiagonal]]:
        return sorted((y, m.target) for m in self.meshes for y in m.middles)

    @property
    def tau(self) -> dict[TwoDiagonal, TwoDiagonal]:
        return {m.target: m.tau_target for m in self.meshes}

    def tau_orbits(self) -> list[list[TwoDiagonal]]:
        tau = self.tau
        seen: set[TwoDiagonal] = set()
        orbits = []
        for d in tau:
            if d in seen:
                continue
            orbit = [d]
            seen.add(d)
            cur = tau[d]
            while cur not in seen:
                orbit.append(cur)
                seen.add(cur)
                cur = tau[cur]
            orbits.append(orbit)
        return orbits

    def check_translation_axiom(self) -> bool:
        """Whether the pivots into each x are the pivots out of tau x."""
        n = self.n
        for m in self.meshes:
            out = sorted(e for fix in ("tail", "head")
                         for e in [pivot(m.tau_target, fix, n)] if e is not None)
            if m.middles != out:
                return False
        return True


def ar_quiver(n: int) -> TranslationQuiver:
    nodes = enumerate_diagonals(n)
    # the sources arrive in node order, so each list is sorted
    into: dict[TwoDiagonal, list[TwoDiagonal]] = {d: [] for d in nodes}
    for d in nodes:
        for fix in ("tail", "head"):
            e = pivot(d, fix, n)
            if e is not None:
                into[e].append(d)
    # tau = R^-2 keeps each label's parity, so the tail stays the tail
    size = 2 * n
    return TranslationQuiver(n, [
        Mesh(x, TwoDiagonal(_norm(x.tail - 2, size), _norm(x.head - 2, size)),
             into[x]) for x in nodes])


def translation_quiver_dot(tq: TranslationQuiver) -> str:
    lines = ["digraph diagonals {"]
    for d in tq.nodes:
        lines.append(f'  "{d.tail},{d.head}" [label="({d.tail},{d.head})"];')
    for s, t in tq.arrows:
        lines.append(f'  "{s.tail},{s.head}" -> "{t.tail},{t.head}";')
    for x, tx in sorted(tq.tau.items()):
        lines.append(f'  "{x.tail},{x.head}" -> "{tx.tail},{tx.head}" '
                     "[style=dashed, arrowhead=empty, constraint=false];")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# tagged-arc model of the punctured polygon and the bijection onto diagonals
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class BoundaryArc:
    """Arc (a, b) between boundary points of the punctured N-gon, running
    counterclockwise around the puncture; b may not be a or its successor."""
    a: int
    b: int


def enumerate_arcs(n: int) -> list[BoundaryArc]:
    if n < 3:
        raise DiagonalError(f"punctured polygon needs N >= 3, got {n}")
    out = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b and (a + 1 - b) % n != 0:
                out.append(BoundaryArc(a, b))
    return sorted(out)


def arc_to_diagonal(arc: BoundaryArc, n: int) -> TwoDiagonal:
    """(a, b) maps to the diagonal from the minus copy of a to the plus copy
    of b.  Boundary labels 1+,1-,2+,2-,... run counterclockwise, so with
    clockwise numeric labels k- is 2(1-k)+1 and k+ is 2(1-k)+2, normalized.
    The odd label is the tail; `arc_bijection_report` checks that the pair
    is a 2-diagonal."""
    size = 2 * n
    minus_a = _norm(2 * (1 - arc.a) + 1, size)
    plus_b = _norm(2 * (1 - arc.b) + 2, size)
    return TwoDiagonal(minus_a, plus_b)


def diagonal_to_arc(d: TwoDiagonal, n: int) -> BoundaryArc:
    """The inverse of `arc_to_diagonal`, as `arc_bijection_report` checks."""
    return BoundaryArc((-((d.tail - 1) // 2)) % n + 1,
                       (-((d.head - 2) // 2)) % n + 1)


def arc_pivot(arc: BoundaryArc, fix: str, n: int) -> BoundaryArc | None:
    """Arc moves matching the diagonal pivots through the bijection: fixing
    the arc's first endpoint decrements b, fixing the second decrements a
    (mod N)."""
    if fix == "tail":
        cand = BoundaryArc(arc.a, (arc.b - 2) % n + 1)
    elif fix == "head":
        cand = BoundaryArc((arc.a - 2) % n + 1, arc.b)
    else:
        raise DiagonalError(f"unknown endpoint {fix!r}")
    if cand.a == cand.b or (cand.a + 1 - cand.b) % n == 0:
        return None
    return cand


def _unmatched(arcs, diags, n: int) -> str:
    """The first arc or 2-diagonal not matched one to one, or ""."""
    diag_set, source = set(diags), {}
    for arc in arcs:
        d = arc_to_diagonal(arc, n)
        if d in source:
            return f"arcs {source[d]} and {arc} both map to {d}"
        if d not in diag_set:
            return f"arc {arc} maps to {d}, not a 2-diagonal"
        source[d] = arc
    for d in diags:
        if d not in source:
            return f"2-diagonal {d} is the image of no arc"
        back = diagonal_to_arc(d, n)
        if back != source[d]:
            return f"2-diagonal {d} maps back to {back}, not {source[d]}"
    return ""


def _pivot_mismatch(arcs, n: int) -> str:
    """The first arc pivot not carried to its diagonal pivot, or ""."""
    for arc in arcs:
        for fix in ("tail", "head"):
            moved = arc_pivot(arc, fix, n)
            expected = pivot(arc_to_diagonal(arc, n), fix, n)
            got = arc_to_diagonal(moved, n) if moved is not None else None
            if got != expected:
                return f"pivot mismatch at {arc} fix={fix}: {got} != {expected}"
    return ""


def arc_bijection_report(n: int) -> Report:
    """`arc_to_diagonal` checked as a bijection and against the pivots."""
    arcs = enumerate_arcs(n)
    unmatched = _unmatched(arcs, enumerate_diagonals(n), n)
    mismatch = _pivot_mismatch(arcs, n)
    return Report([Check("arc_bijection", not unmatched, unmatched),
                   Check("arc_pivots_match_diagonal_pivots", not mismatch, mismatch)])
