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


def presentation_of(cp: CheckerboardPolygon, diagonal: TwoDiagonal) -> SyzygyObject:
    """The presentation read off the crossings of a diagonal.  It is computed
    once per polygon and kept in `cp.presentations`; callers must not mutate
    it."""
    obj = cp.presentations.get(diagonal)
    if obj is not None:
        return obj
    n = cp.half
    d = diagonals.make_diagonal(diagonal.tail, diagonal.head, n)
    p0, p1 = [], []
    for v, line in cp.line_diagonals:
        direction = diagonals.crossing(d, line, n)
        if direction == "right_to_left":
            p0.append(v)
        elif direction == "left_to_right":
            p1.append(v)
    if not p0 or not p1:
        raise SyzygyError(
            f"diagonal {d} has a one-sided crossing pattern: p0={p0}, p1={p1}")
    obj = cp.presentations[diagonal] = SyzygyObject(d, tuple(p0), tuple(p1))
    return obj


def resolution(cp: CheckerboardPolygon, diagonal: TwoDiagonal,
               steps: int | None = None) -> ResolutionTrace:
    """Iterate the clockwise rotation, checking the gluing of consecutive
    presentations, and report the minimal rotation period."""
    n = cp.half
    d0 = diagonals.make_diagonal(diagonal.tail, diagonal.head, n)
    orbit = [d0]
    cur = diagonals.rotate(d0, 1, n)
    while cur != d0:
        orbit.append(cur)
        cur = diagonals.rotate(cur, 1, n)
    period = len(orbit)
    count = steps if steps is not None else period
    prev_obj = presentation_of(cp, d0)
    trace = [prev_obj]
    gluing_ok = True
    for i in range(1, count + 1):
        cur = orbit[i % period]
        obj = presentation_of(cp, cur)
        trace.append(obj)
        if obj.p0 != prev_obj.p1:
            gluing_ok = False
        prev_obj = obj
    return ResolutionTrace(d0, trace, period, gluing_ok)


def radical_consistency_check(cp: CheckerboardPolygon, algebra) -> Report:
    """Crossing-derived presentations of the radical lines must agree with the
    oracle's from-scratch radical presentations; rotated source lines must
    miss target lines for boundary arrows, matching the oracle's vanishing."""
    from . import oracle as oracle_mod

    items: list[Check] = []
    q = cp.q
    n = cp.half
    for x in q.sorted_vertices():
        model = presentation_of(cp, cp.radical_line_of(x))
        pres = oracle_mod.radical_presentation(algebra, x)
        want_p1, want_p0 = pres.summand_multisets()
        got = (tuple(sorted(model.p1, key=_vkey)), tuple(sorted(model.p0, key=_vkey)))
        ok = got == (want_p1, want_p0)
        items.append(Check(
            f"radical_presentation_matches_oracle[{x}]", ok,
            "" if ok else f"model {got}, oracle {(want_p1, want_p0)}"))
    boundary = set(cp.weights.by_arrow())
    vanish = oracle_mod.boundary_vanishing_check(algebra)
    items.append(Check("oracle_boundary_vanishing", vanish.ok,
                       "; ".join(i.name for i in vanish.failed())[:200]))
    for aid in sorted(boundary):
        a = q.arrow_by_id[aid]
        rot = diagonals.rotate(cp.radical_line_of(a.source), 1, n)
        ok = not diagonals.crosses(rot, cp.radical_line_of(a.target), n)
        items.append(Check(f"rotated_line_misses_target[{aid}]", ok))
    return Report(items)
