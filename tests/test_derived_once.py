"""Derived data computed once must equal the same data computed afresh.

Quiver structure is cached on the quiver, presentations on the polygon's
rotation orbits (each orbit read whole on its first use), and `ar_quiver`
builds its meshes from pivots grouped by target.  Each test here
compares a cached or indexed result with an independent reference.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

import diagonal_refs
from conftest import glued_dimer_tree, load_fixture

FIXTURE_NAMES = ("q9", "q7", "c3", "c4", "c5", "c6", "c7", "c8",
                 "interior_triangle")


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


def reference_resolution(cp, d0, steps=None):
    """Rotate and read every presentation off the crossings, with no table:
    `steps` rotations, one full period by default."""
    n = cp.half
    lines = sorted(cp.lines.items(), key=lambda kv: _vkey(kv[0]))

    def present(d):
        p0 = tuple(v for v, line in lines if diagonal_refs.crossing(
            d, line.diagonal(), n) == "right_to_left")
        p1 = tuple(v for v, line in lines if diagonal_refs.crossing(
            d, line.diagonal(), n) == "left_to_right")
        return p0, p1

    period = 1
    while dg.rotate(d0, period, n) != d0:
        period += 1
    count = period if steps is None else steps
    out = [(d, *present(d)) for d in (dg.rotate(d0, i, n)
                                       for i in range(count + 1))]
    gluing = all(b[1] == a[2] for a, b in zip(out, out[1:]))
    return out, period, gluing


@pytest.mark.parametrize("name,q", QUIVERS, ids=[n for n, _ in QUIVERS])
def test_resolution_matches_fresh_polygon_reference(name, q):
    shared = cb.build_checkerboard(q)
    for d in dg.enumerate_diagonals(shared.half):
        got = sy.resolution(shared, d)
        fresh = cb.build_checkerboard(rebuilt(q))
        steps, period, gluing = reference_resolution(fresh, d)
        assert [(s.diagonal, s.p0, s.p1) for s in got.steps] == steps
        assert (got.start, got.minimal_period, got.gluing_ok) == (d, period, gluing)
    # every diagonal is now in the orbit table, at its place in its orbit
    n = shared.half
    assert set(shared.orbits) == set(dg.enumerate_diagonals(n))
    for d, (orbit, i, glued) in shared.orbits.items():
        assert orbit[i].diagonal == d
        assert [p.diagonal for p in orbit] == [
            dg.rotate(d, k - i, n) for k in range(len(orbit))]
        assert glued == reference_resolution(shared, d)[2]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.tuples(
    st.lists(st.integers(min_value=3, max_value=6), min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=5, max_size=5),
))
def test_kernel_presentations_match_the_pairwise_reference_on_glued_trees(spec):
    cp = cb.build_checkerboard(glued_dimer_tree(*spec))
    for d in dg.enumerate_diagonals(cp.half):
        assert sy.presentation_of(cp, d) == diagonal_refs.presentation_of(cp, d)
        got = sy.resolution(cp, d)
        steps, period, gluing = reference_resolution(cp, d)
        assert [(s.diagonal, s.p0, s.p1) for s in got.steps] == steps
        assert (got.minimal_period, got.gluing_ok) == (period, gluing)


def assert_orbit_table_as_the_reference(cp):
    """The orbit table, read whole on the first use of each orbit, equals
    the one the per-diagonal `presentation_of` reference fills in the same
    order: every diagonal's presentations, position and gluing, and so its
    period.  Every resolution equals the reference's, which indexes the
    orbit modulo the period: a full period, and every count of steps from
    0 to twice the period."""
    table = {}
    diagonals = dg.enumerate_diagonals(cp.half)
    for d in diagonals:
        assert sy.resolution(cp, d) == diagonal_refs.resolution(cp, d, table=table)
    assert list(cp.orbits) == list(table)
    for d, kept in cp.orbits.items():
        assert kept == table[d]
    for d in diagonals:
        for steps in range(2 * len(cp.orbits[d][0]) + 1):
            assert sy.resolution(cp, d, steps) == diagonal_refs.resolution(
                cp, d, steps, table)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_orbit_table_matches_the_per_diagonal_reference_on_the_fixtures(name):
    assert_orbit_table_as_the_reference(cb.build_checkerboard(load_fixture(name)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.tuples(
    st.lists(st.integers(min_value=3, max_value=6), min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=5, max_size=5),
))
def test_orbit_table_matches_the_per_diagonal_reference_on_glued_trees(spec):
    assert_orbit_table_as_the_reference(cb.build_checkerboard(glued_dimer_tree(*spec)))


def test_a_misoriented_line_breaks_the_gluing_of_some_orbits():
    cp = cb.build_checkerboard(rebuilt(load_fixture("q9")))
    line = cp.lines[3]
    line.tail, line.head = line.head, line.tail
    broken = 0
    for d in dg.enumerate_diagonals(cp.half):
        try:
            got = sy.resolution(cp, d)
        except sy.SyzygyError:
            continue    # a one-sided crossing pattern on the orbit
        steps, period, gluing = reference_resolution(cp, d)
        assert [(s.diagonal, s.p0, s.p1) for s in got.steps] == steps
        assert (got.minimal_period, got.gluing_ok) == (period, gluing)
        broken += not gluing
    assert broken


@pytest.mark.parametrize("name", ["q9", "glued4"])
def test_partial_resolutions_read_the_orbit_table(name):
    # short prefixes first, so that longer ones read orbits already kept
    q = dict(QUIVERS)[name]
    cp = cb.build_checkerboard(q)
    for steps in (0, 1, 3, None, 2 * cp.half + 3):
        for d in dg.enumerate_diagonals(cp.half):
            got = sy.resolution(cp, d, steps=steps)
            want, period, gluing = reference_resolution(cp, d, steps)
            assert [(s.diagonal, s.p0, s.p1) for s in got.steps] == want
            assert (got.minimal_period, got.gluing_ok) == (period, gluing)


@pytest.mark.parametrize("name", ["q9", "glued4"])
def test_one_resolution_reads_exactly_its_whole_orbit(name):
    q = dict(QUIVERS)[name]
    cp = cb.build_checkerboard(q)
    n = cp.half
    d = dg.TwoDiagonal(1, 4)
    sy.resolution(cp, d, steps=0)
    orbit = {dg.rotate(d, k, n) for k in range(2 * n)}
    assert set(cp.orbits) == orbit
    fresh = cb.build_checkerboard(rebuilt(q))
    for e, (kept, i, _) in cp.orbits.items():
        assert kept[i] == sy.presentation_of(fresh, e)


def test_presentation_errors_are_not_cached():
    cp = cb.build_checkerboard(load_fixture("c3"))
    for _ in range(2):
        with pytest.raises(dg.DiagonalError):
            sy.presentation_of(cp, dg.TwoDiagonal(1, 2))
    d = dg.enumerate_diagonals(cp.half)[0]
    assert sy.presentation_of(cp, d) == sy.presentation_of(cp, d)


def all_pivots_ar_quiver(n):
    """The mesh loop that scans every pivot for every node."""
    nodes = dg.enumerate_diagonals(n)
    arrows = [(d, e) for d in nodes for fix in ("tail", "head")
              for e in [diagonal_refs.pivot(d, fix, n)] if e is not None]
    tau = {d: dg.rotate(d, -2, n) for d in nodes}
    meshes = [(x, tau[x], sorted(y for y, x2 in arrows if x2 == x))
              for x in nodes]
    return sorted(arrows), meshes


@pytest.mark.parametrize("n", range(3, 13))
def test_ar_quiver_matches_all_pivots_reference(n):
    tq = dg.ar_quiver(n)
    arrows, meshes = all_pivots_ar_quiver(n)
    assert tq.arrows == arrows
    assert [(m.target, m.tau_target, m.middles) for m in tq.meshes] == meshes
    pivots = set(tq.arrows)
    for m in tq.meshes:
        for y in m.middles:
            assert (m.tau_target, y) in pivots and (y, m.target) in pivots


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
        assert paths == {a: cycle_path(first, a, direction) for a in boundary}
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
