"""Syzygies as 2-diagonals of the checkerboard polygon.

A 2-diagonal determines a projective presentation by its oriented crossings
with the radical lines: lines crossing right-to-left contribute to the cover,
lines crossing left-to-right to the relation term.  Clockwise rotation of the
diagonal is the syzygy operator, so iterated rotation writes down the whole
periodic projective resolution.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import diagonals
from .checkerboard import CheckerboardPolygon
from .diagonals import TwoDiagonal
from .quiver import Check, Report, _vkey


class SyzygyError(ValueError):
    pass


@dataclass
class SyzygyObject:
    diagonal: TwoDiagonal
    p0: tuple        # vertices whose lines cross right-to-left (the cover)
    p1: tuple        # vertices whose lines cross left-to-right


@dataclass
class ResolutionTrace:
    start: TwoDiagonal
    steps: list[SyzygyObject]       # the cached presentations; do not mutate
    minimal_period: int
    gluing_ok: bool


def presentation_of(cp: CheckerboardPolygon,
                    diagonal: tuple[int, int]) -> SyzygyObject:
    """The presentation read off the crossings of a diagonal, given as a
    `TwoDiagonal` or as any (tail, head) pair of its ends."""
    tail, head = diagonal
    return _presented(cp, diagonals.make_diagonal(tail, head, cp.half))


def _presented(cp: CheckerboardPolygon, d: TwoDiagonal) -> SyzygyObject:
    """The presentation of a diagonal already in normal form."""
    p0, p1 = diagonals.crossing_lines(d, cp.line_diagonals, cp.half)
    if not p0 or not p1:
        raise SyzygyError(
            f"diagonal {d} has a one-sided crossing pattern: p0={p0}, p1={p1}")
    return SyzygyObject(d, tuple(p0), tuple(p1))


def _orbit_of(cp: CheckerboardPolygon,
              d0: TwoDiagonal) -> tuple[list[SyzygyObject], int, bool]:
    """The presentations along the rotation orbit of d0, a diagonal in normal
    form, in clockwise order, the position of d0 there, and whether each
    presentation's P0 is the P1 of the one before it, cyclically; the whole
    orbit is read on the first call for any of its diagonals and kept in
    `cp.orbits`."""
    hit = cp.orbits.get(d0)
    if hit is None:
        n = cp.half
        orbit = [_presented(cp, d0)]
        d = diagonals.rotate(d0, 1, n)
        while d != d0:
            orbit.append(_presented(cp, d))
            d = diagonals.rotate(d, 1, n)
        glued = all(b.p0 == a.p1 for a, b in zip(orbit, orbit[1:] + orbit[:1]))
        for i, p in enumerate(orbit):
            cp.orbits[p.diagonal] = (orbit, i, glued)
        hit = (orbit, 0, glued)
    return hit


def resolution(cp: CheckerboardPolygon, diagonal: tuple[int, int],
               steps: int | None = None) -> ResolutionTrace:
    """Iterate the clockwise rotation of a diagonal, given as a `TwoDiagonal`
    or as any (tail, head) pair of its ends, checking the gluing of
    consecutive presentations, and report the minimal rotation period.  The
    steps are read off the orbit table; one full period by default, whose
    gluing is the orbit's."""
    if steps is not None and steps < 0:
        raise SyzygyError(f"steps must be at least 0, got {steps}")
    tail, head = diagonal
    hit = cp.orbits.get((tail, head))
    if hit is None:
        hit = _orbit_of(cp, diagonals.make_diagonal(tail, head, cp.half))
    orbit, start, glued = hit
    period = len(orbit)
    if steps is None:
        trace = orbit[start:] + orbit[:start + 1]
    else:
        trace = [orbit[(start + i) % period] for i in range(steps + 1)]
        glued = all(b.p0 == a.p1 for a, b in zip(trace, trace[1:]))
    return ResolutionTrace(orbit[start].diagonal, trace, period, glued)


def radical_consistency_check(cp: CheckerboardPolygon, algebra) -> Report:
    """The one comparison of the model with the oracle: the crossing-derived
    presentation of each radical line must agree with the oracle's
    from-scratch presentation of rad P(x), as multisets of summands."""
    from . import oracle as oracle_mod

    items: list[Check] = []
    for x in cp.q.sorted_vertices():
        model = presentation_of(cp, cp.radical_line_of(x))
        want = oracle_mod.radical_presentation(algebra, x).summand_multisets()
        got = (tuple(sorted(model.p1, key=_vkey)), tuple(sorted(model.p0, key=_vkey)))
        ok = got == want
        items.append(Check(
            f"radical_presentation_matches_oracle[{x}]", ok,
            "" if ok else f"model {got}, oracle {want}"))
    return Report(items)
