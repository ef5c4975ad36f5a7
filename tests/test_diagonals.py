import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimertree import diagonals as dg

import diagonal_refs


def brute_force_diagonals(n):
    """Chords cutting the 2n-gon into two even pieces of >= 4 vertices."""
    size = 2 * n
    out = set()
    for a, b in itertools.combinations(range(1, size + 1), 2):
        k1 = (b - a) % size + 1
        k2 = (a - b) % size + 1
        if k1 % 2 == 0 and k2 % 2 == 0 and k1 >= 4 and k2 >= 4:
            out.add(frozenset((a, b)))
    return out


def test_enumeration_matches_brute_force():
    for n in range(3, 13):
        ds = dg.enumerate_diagonals(n)
        assert len(ds) == n * (n - 2)
        assert {frozenset((d.tail, d.head)) for d in ds} == brute_force_diagonals(n)
        for d in ds:
            assert d.tail % 2 == 1 and d.head % 2 == 0


def test_hexagon_diagonals_are_diameters():
    assert dg.enumerate_diagonals(3) == [
        dg.TwoDiagonal(1, 4), dg.TwoDiagonal(3, 6), dg.TwoDiagonal(5, 2)]


def test_enumeration_rejects_small():
    with pytest.raises(dg.DiagonalError):
        dg.enumerate_diagonals(2)


def test_pivot_examples():
    d = dg.TwoDiagonal(1, 4)
    assert dg.pivot(d, "tail", 4) == dg.TwoDiagonal(1, 6)
    assert dg.pivot(d, "head", 4) is None          # 3 and 4 are neighbours
    assert dg.pivot(d, "tail", 7) == dg.TwoDiagonal(1, 6)
    with pytest.raises(dg.DiagonalError):
        dg.pivot(d, "middle", 4)


def test_rotation_examples():
    assert dg.rotate(dg.TwoDiagonal(1, 4), 1, 4) == dg.TwoDiagonal(5, 2)
    assert dg.rotate(dg.TwoDiagonal(1, 4), 2, 3) == dg.TwoDiagonal(3, 6)
    d = dg.TwoDiagonal(3, 8)
    assert dg.rotate(d, 14, 7) == d


def crossing(d1, d2, n):
    """How d2 crosses d1, by the crossing kernel."""
    p0, p1 = dg.crossing_lines(d1, [("d2", d2)], n)
    return "right_to_left" if p0 else "left_to_right" if p1 else None


def test_two_diagonal_is_its_label_pair():
    d = dg.TwoDiagonal(5, 2)
    assert (repr(d), str(d), f"{d}") == ("(5,2)", "(5,2)", "(5,2)")
    assert d == (5, 2) and hash(d) == hash((5, 2))
    assert (d.tail, d.head) == tuple(d) == (5, 2)
    assert {d: 1}[(5, 2)] == 1
    diags = dg.enumerate_diagonals(5)
    assert sorted(diags[::-1]) == sorted(diags, key=lambda e: (e.tail, e.head))
    assert dg.TwoDiagonal(1, 8) < dg.TwoDiagonal(3, 2) < dg.TwoDiagonal(3, 6)
    for n in range(3, 9):
        for e in dg.enumerate_diagonals(n):
            for k in range(-2 * n - 1, 2 * n + 2):
                r = dg.rotate(e, k, n)
                assert type(r) is dg.TwoDiagonal
                assert r == dg.make_diagonal(e.tail + k, e.head + k, n)


def test_crossing_kernel_matches_the_pairwise_reference():
    for n in range(3, 10):
        ds = dg.enumerate_diagonals(n)
        lines = list(enumerate(ds))
        for d in ds:
            p0, p1 = dg.crossing_lines(d, lines, n)
            ref = [diagonal_refs.crossing(d, e, n) for e in ds]
            assert p0 == [i for i, c in enumerate(ref) if c == "right_to_left"]
            assert p1 == [i for i, c in enumerate(ref) if c == "left_to_right"]


@pytest.mark.parametrize("n", range(3, 41))
def test_ar_quiver_matches_the_pivot_reference(n):
    tq, ref = dg.ar_quiver(n), diagonal_refs.ar_quiver(n)
    assert tq.nodes == ref.nodes
    assert tq.arrows == ref.arrows
    assert list(tq.tau.items()) == list(ref.tau.items())
    assert [(m.target, m.tau_target, m.middles) for m in tq.meshes] == [
        (m.target, m.tau_target, m.middles) for m in ref.meshes]


def test_crossing_directions_on_the_hexagon():
    # forced by the radical-line layout: (5,2) meets (1,4) right to left
    r1, r2, r3 = dg.TwoDiagonal(1, 4), dg.TwoDiagonal(5, 2), dg.TwoDiagonal(3, 6)
    assert crossing(r1, r2, 3) == "right_to_left"
    assert crossing(r1, r3, 3) == "left_to_right"
    assert crossing(r2, r1, 3) == "left_to_right"


def test_crossing_none_cases():
    n = 4
    assert crossing(dg.TwoDiagonal(1, 4), dg.TwoDiagonal(5, 8), n) is None
    assert crossing(dg.TwoDiagonal(1, 4), dg.TwoDiagonal(1, 6), n) is None
    assert crossing(dg.TwoDiagonal(1, 4), dg.TwoDiagonal(1, 4), n) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=9), st.data())
def test_crossing_antisymmetry(n, data):
    ds = dg.enumerate_diagonals(n)
    d1 = data.draw(st.sampled_from(ds))
    d2 = data.draw(st.sampled_from(ds))
    c12 = crossing(d1, d2, n)
    c21 = crossing(d2, d1, n)
    if c12 is None:
        assert c21 is None
    else:
        assert {c12, c21} == {"right_to_left", "left_to_right"}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=9), st.integers(), st.data())
def test_pivot_rotation_equivariance(n, k, data):
    ds = dg.enumerate_diagonals(n)
    d = data.draw(st.sampled_from(ds))
    for fix in ("tail", "head"):
        left = dg.pivot(dg.rotate(d, 2 * k, n), fix, n)
        right = dg.pivot(d, fix, n)
        if right is not None:
            right = dg.rotate(right, 2 * k, n)
        assert left == right


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=9), st.integers(), st.data())
def test_pivot_rotation_equivariance_as_sets(n, k, data):
    # odd rotations swap the endpoint roles, so compare the pivot sets
    ds = dg.enumerate_diagonals(n)
    d = data.draw(st.sampled_from(ds))
    left = {e for fix in ("tail", "head")
            for e in [dg.pivot(dg.rotate(d, k, n), fix, n)] if e is not None}
    right = {dg.rotate(e, k, n) for fix in ("tail", "head")
             for e in [dg.pivot(d, fix, n)] if e is not None}
    assert left == right


def test_ar_quiver_n5_matches_printed_pattern():
    tq = dg.ar_quiver(5)
    assert len(tq.nodes) == 15
    assert len(tq.arrows) == 20
    orbits = tq.tau_orbits()
    assert sorted(len(o) for o in orbits) == [5, 5, 5]
    assert tq.check_translation_axiom()
    # independent recount of the arrow multiset from the pivot definition
    expected = set()
    for d in tq.nodes:
        for fix in ("tail", "head"):
            e = dg.pivot(d, fix, 5)
            if e is not None:
                expected.add((d, e))
    assert set(tq.arrows) == expected


def test_ar_quiver_n3():
    tq = dg.ar_quiver(3)
    assert len(tq.nodes) == 3
    assert sorted(len(o) for o in tq.tau_orbits()) == [3]


def test_translation_axiom_n7():
    tq = dg.ar_quiver(7)
    assert tq.check_translation_axiom()
    into = {x: 0 for x in tq.nodes}
    out = {x: 0 for x in tq.nodes}
    for s, t in tq.arrows:
        out[s] += 1
        into[t] += 1
    for x in tq.nodes:
        assert into[x] == out[tq.tau[x]]


def test_meshes_middle_terms_are_pivots_of_tau():
    # n=3 is degenerate: hexagon diameters admit no pivots, so its meshes
    # are empty; from n=4 on every mesh has a middle term
    for n in (3, 4, 5, 7):
        tq = dg.ar_quiver(n)
        for m in tq.meshes:
            want = {e for fix in ("tail", "head")
                    for e in [dg.pivot(m.tau_target, fix, n)] if e is not None}
            assert set(m.middles) == want
            if n >= 4:
                assert len(m.middles) >= 1


def test_every_middle_term_has_both_mesh_arrows():
    for n in range(3, 9):
        tq = dg.ar_quiver(n)
        arrows = set(tq.arrows)
        for m in tq.meshes:
            assert m.tau_target == tq.tau[m.target]
            for y in m.middles:
                assert (m.tau_target, y) in arrows
                assert (y, m.target) in arrows


def test_dot_output_contains_nodes_and_tau():
    tq = dg.ar_quiver(3)
    dot = dg.translation_quiver_dot(tq)
    assert '"1,4"' in dot and "style=dashed" in dot


def test_arc_bijection_range():
    for n in range(3, 9):
        rep = dg.arc_bijection_report(n)
        assert [c.name for c in rep.items] == [
            "arc_bijection", "arc_pivots_match_diagonal_pivots"]
        assert rep.ok, rep.failed()
        assert len(dg.enumerate_arcs(n)) == len(dg.enumerate_diagonals(n)) == n * (n - 2)


def test_arc_bijection_failures_name_their_witness(monkeypatch):
    # no arc pivot stays inside: the first whose diagonal pivot does is named
    monkeypatch.setattr(dg, "arc_pivot", lambda arc, fix, n: None)
    rep = dg.arc_bijection_report(4)
    assert [c.name for c in rep.failed()] == ["arc_pivots_match_diagonal_pivots"]
    assert rep.failed()[0].detail.startswith("pivot mismatch at ")
    # every arc on one diagonal: the second arc is the witness
    arcs = dg.enumerate_arcs(4)
    d = dg.enumerate_diagonals(4)[0]
    monkeypatch.setattr(dg, "arc_to_diagonal", lambda arc, n: d)
    rep = dg.arc_bijection_report(4)
    assert rep.items[0].detail == f"arcs {arcs[0]} and {arcs[1]} both map to {d}"


def test_chi_example_and_inverse():
    # the arc (1,3) lands on the diagonal out of the minus copy of 1
    d = dg.arc_to_diagonal(dg.BoundaryArc(1, 3), 5)
    assert d == dg.TwoDiagonal(1, 8)
    assert dg.diagonal_to_arc(d, 5) == dg.BoundaryArc(1, 3)


def test_chi_surjective_formula():
    n = 6
    diags = dg.enumerate_diagonals(n)
    arcs = {dg.diagonal_to_arc(d, n) for d in diags}
    assert len(arcs) == len(diags)
    for arc in arcs:
        assert arc.a != arc.b and (arc.a + 1 - arc.b) % n != 0
