"""Derived data computed once must equal the same data computed afresh.

Quiver structure is cached on the quiver, presentations on the polygon, and
`ar_quiver` builds its meshes from pivots grouped by target.  Each test here
compares a cached or indexed result with an independent reference.
"""
import random

import pytest

from dimertree import checkerboard as cb
from dimertree import diagonals as dg
from dimertree import syzygy as sy
from dimertree.quiver import (
    Arrow,
    Quiver,
    QuiverError,
    _vkey,
    analyze_structure,
    cycle_path,
    weight_report,
)

from conftest import glued_dimer_tree, load_fixture

FIXTURE_NAMES = ("q9", "q7", "c3", "c4", "c5", "c6", "c7", "c8")


def glued_trees():
    rng = random.Random(5)
    out = []
    for k in range(2, 9):
        lengths = [rng.randint(3, 5) for _ in range(k)]
        attach = [rng.randint(0, 100) for _ in range(k - 1)]
        out.append(glued_dimer_tree(lengths, attach))
    return out


QUIVERS = ([(name, load_fixture(name)) for name in FIXTURE_NAMES]
           + [(f"glued{i + 2}", q) for i, q in enumerate(glued_trees())])


def rebuilt(q: Quiver) -> Quiver:
    return Quiver(q.vertices, q.arrows, name=q.name)


def reference_resolution(cp, d0):
    """Rotate and read every presentation off the crossings, with no table."""
    n = cp.half
    lines = sorted(cp.lines.items(), key=lambda kv: _vkey(kv[0]))

    def present(d):
        p0 = tuple(v for v, line in lines
                   if dg.crossing(d, line.diagonal(), n) == "right_to_left")
        p1 = tuple(v for v, line in lines
                   if dg.crossing(d, line.diagonal(), n) == "left_to_right")
        return p0, p1

    steps = [(d0, *present(d0))]
    cur = dg.rotate(d0, 1, n)
    while cur != d0:
        steps.append((cur, *present(cur)))
        cur = dg.rotate(cur, 1, n)
    steps.append((d0, *present(d0)))
    gluing = all(b[1] == a[2] for a, b in zip(steps, steps[1:]))
    return steps, len(steps) - 1, gluing


@pytest.mark.parametrize("name,q", QUIVERS, ids=[n for n, _ in QUIVERS])
def test_resolution_matches_fresh_polygon_reference(name, q):
    shared = cb.build_checkerboard(q)
    for d in dg.enumerate_diagonals(shared.half):
        got = sy.resolution(shared, d)
        fresh = cb.build_checkerboard(rebuilt(q))
        steps, period, gluing = reference_resolution(fresh, d)
        assert [(s.diagonal, s.p0, s.p1) for s in got.steps] == steps
        assert (got.start, got.minimal_period, got.gluing_ok) == (d, period, gluing)
    # every diagonal is now in the table, each under its own key
    assert set(shared.presentations) == set(dg.enumerate_diagonals(shared.half))
    assert all(k == v.diagonal for k, v in shared.presentations.items())


def test_presentation_errors_are_not_cached():
    cp = cb.build_checkerboard(load_fixture("c3"))
    for _ in range(2):
        with pytest.raises(dg.DiagonalError):
            sy.presentation_of(cp, dg.TwoDiagonal(1, 2))
    assert dg.TwoDiagonal(1, 2) not in cp.presentations
    d = dg.enumerate_diagonals(cp.half)[0]
    assert sy.presentation_of(cp, d) is sy.presentation_of(cp, d)


def all_pivots_ar_quiver(n):
    """The mesh loop that scans every pivot for every node."""
    nodes = dg.enumerate_diagonals(n)
    arrows = [(d, e) for d in nodes for fix in ("tail", "head")
              for e in [dg.pivot(d, fix, n)] if e is not None]
    tau = {d: dg.rotate(d, -2, n) for d in nodes}
    sigma, meshes = {}, []
    for x in nodes:
        middles = []
        for y, x2 in arrows:
            if x2 == x:
                sigma[(y, x)] = (tau[x], y)
                middles.append(y)
        meshes.append((x, tau[x], sorted(middles)))
    return sorted(arrows), sigma, meshes


@pytest.mark.parametrize("n", range(3, 13))
def test_ar_quiver_matches_all_pivots_reference(n):
    tq = dg.ar_quiver(n)
    arrows, sigma, meshes = all_pivots_ar_quiver(n)
    assert tq.arrows == arrows
    assert list(tq.sigma.items()) == list(sigma.items())
    assert [(m.target, m.tau_target, m.middles) for m in tq.meshes] == meshes


@pytest.mark.parametrize("name,q", QUIVERS, ids=[n for n, _ in QUIVERS])
def test_structure_is_computed_once_and_equals_a_fresh_analysis(name, q):
    q = rebuilt(q)
    first = analyze_structure(q)
    assert analyze_structure(q) is first
    fresh = analyze_structure(rebuilt(q))
    assert fresh is not first
    assert fresh == first
    for a in q.arrows:
        assert first.cycles_of_arrow(a.id) == [
            c for c in first.cycles if a.id in c.arrows]
    wr = weight_report(q, first)
    assert first.path_weights("cycle") == {e.arrow: e.weight for e in wr.entries}
    assert first.path_weights("cocycle") == {
        e.arrow: e.coweight for e in wr.entries}
    # each direction is walked once; weight_report hands out those walks
    boundary = [a.id for a in q.arrows if first.classification[a.id] == "boundary"]
    for direction, attr in (("cycle", "cycle_path"), ("cocycle", "cocycle_path")):
        paths = first.cycle_paths(direction)
        assert first.cycle_paths(direction) is paths
        assert paths == {a: cycle_path(q, first, a, direction) for a in boundary}
        assert all(getattr(e, attr) is paths[e.arrow] for e in wr.entries)


def test_arrow_between_returns_the_first_parallel_arrow():
    q = Quiver([1, 2, 3], [Arrow("a", 1, 2), Arrow("b", 1, 2),
                           Arrow("c", 2, 3), Arrow("d", 3, 1)])
    assert q.arrow_between(1, 2).id == "a"
    assert q.arrow_between(2, 1) is None
    assert q.arrow_between(3, 1).id == "d"
    assert q.arrow_between(9, 1) is None
    with pytest.raises(QuiverError, match="parallel"):
        q.check_well_formed()
