"""Acceptance suite: one test per gate criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Budgets are wall-clock seconds from the gate definition.
"""
import json
import time
from contextlib import contextmanager

from dimertree import checkerboard as cb
from dimertree import diagonals as dg
from dimertree import mutation as mu
from dimertree import oracle as orc
from dimertree import syzygy as sy
from dimertree.quiver import weight_report

from conftest import cycle_quiver, load_fixture


@contextmanager
def budget(name: str, seconds: float):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    print(f"ACCEPT {name}: pass ({dt:.2f}s, budget {seconds:.0f}s)")
    assert dt < seconds, f"{name} exceeded its {seconds}s budget: {dt:.2f}s"


Q9_TABLE = {
    "1->2->3->4->6->9": 1,
    "3->1->2": 2,
    "8->3->4->5": 1,
    "7->8->3": 2,
    "6->7->8": 2,
    "6->9->4": 2,
    "9->4->6->7": 1,
    "4->5->2": 2,
    "5->2->3->1": 1,
}


def test_criterion_1_q9_weight_table():
    with budget("1 weight table", 1.0):
        q = load_fixture("q9")
        wr = weight_report(q)
        got = {e.cycle_path.pretty(q): e.weight for e in wr.entries}
        assert got == Q9_TABLE
        assert wr.total_weight == 14


def test_criterion_2_polygon_sizes():
    cases = [(load_fixture("q9"), 14), (load_fixture("c3"), 6),
             (load_fixture("q7"), 12)]
    cases += [(cycle_quiver(n), 2 * n) for n in range(3, 9)]
    with budget("2 polygon sizes", 1.0 * len(cases)):
        for q, want in cases:
            cp = cb.build_checkerboard(q)
            assert cp.size == want, (q.name, cp.size, want)
            assert cp.size == weight_report(q).total_weight


def test_criterion_3_checkerboard_validation_suite():
    with budget("3 checkerboard suite", 5.0):
        fixtures = [load_fixture(n) for n in
                    ("q9", "q7", "c3", "c4", "c5", "c6", "c7", "c8")]
        for q in fixtures:
            cp = cb.build_checkerboard(q)
            rep = cb.validate_checkerboard(cp, q)
            assert rep.ok, (q.name, [(c.name, c.detail) for c in rep.failed()])
            # rebuild from two different seeds: canonical equality
            arrows = [e.arrow for e in cp.weights.entries]
            doc0 = json.dumps(cb.polygon_to_dict(cp), sort_keys=True,
                              default=str)
            for seed in (arrows[1], arrows[-1]):
                doc = json.dumps(
                    cb.polygon_to_dict(cb.build_checkerboard(q, seed_arrow=seed)),
                    sort_keys=True, default=str)
                assert doc == doc0, q.name


def test_criterion_4_diag_counts_and_ar_structure():
    with budget("4 diagonal counts and translation quiver", 5.0):
        for n in range(3, 13):
            assert len(dg.enumerate_diagonals(n)) == n * (n - 2)
        tq = dg.ar_quiver(5)
        assert len(tq.nodes) == 15
        assert sorted(len(o) for o in tq.tau_orbits()) == [5, 5, 5]
        assert tq.check_translation_axiom()
        expected = {(d, e) for d in tq.nodes for fix in ("tail", "head")
                    for e in [dg.pivot(d, fix, 5)] if e is not None}
        assert set(tq.arrows) == expected
        assert len(tq.arrows) == 20
        for n in range(3, 9):
            rep = dg.arc_bijection_report(n)
            assert rep.ok, (n, rep.detail)


def test_criterion_5_oracle_suite_two_fields():
    with budget("5 oracle suite over GF(32003) and QQ", 60.0):
        for name in ("q9", "q7", "c3"):
            q = load_fixture(name)
            for field in (32003, "Q"):
                ab = orc.build_algebra(q, field)
                ok, counter = orc.schurian_check(ab)
                assert ok, (name, field, counter)
                for e in ab.weights.entries:
                    assert orc.extension_lemma_check(ab, e.arrow, "right")
                    assert orc.extension_lemma_check(ab, e.arrow, "left")
                rep = orc.radical_presentation_check(ab)
                assert rep.ok, (name, field, [i.detail for i in rep.failed()])
                rep = orc.radical_ext_arrow_check(ab)
                assert rep.ok, (name, field, [i.name for i in rep.failed()])
                rep = orc.boundary_vanishing_check(ab)
                assert rep.ok, (name, field, [i.name for i in rep.failed()])


def test_criterion_6_model_oracle_consistency():
    with budget("6 model/oracle consistency", 5.0):
        for name in ("q9", "q7", "c3", "c4", "c5", "c6", "c7", "c8"):
            q = load_fixture(name)
            cp = cb.build_checkerboard(q)
            ab = orc.build_algebra(q, 32003)
            rep = sy.radical_consistency_check(cp, ab)
            assert rep.ok, (name, [i.name for i in rep.failed()])
        cp9 = cb.build_checkerboard(load_fixture("q9"))
        hits = [d for d in dg.enumerate_diagonals(7)
                for obj in [sy.presentation_of(cp9, d)]
                if set(obj.p1) == {5, 6} and set(obj.p0) == {3, 4}]
        assert hits


def test_criterion_7_resolution_periodicity():
    with budget("7 resolution periodicity", 5.0):
        q9 = load_fixture("q9")
        cp = cb.build_checkerboard(q9)
        assert len(dg.enumerate_diagonals(7)) == 35
        for d in dg.enumerate_diagonals(7):
            tr = sy.resolution(cp, d)
            assert tr.gluing_ok, d
            assert tr.minimal_period in (7, 14), d
        c3 = load_fixture("c3")
        cp3 = cb.build_checkerboard(c3)
        for d in dg.enumerate_diagonals(3):
            tr = sy.resolution(cp3, d, steps=6)
            assert tr.gluing_ok
            assert tr.minimal_period in (3, 6)


def test_criterion_8_reduction():
    with budget("8 reduction to a single cycle", 5.0):
        tr = mu.reduce_to_cycle(load_fixture("q9"))
        assert tr.final_cycle_length == 7
        assert all(s.move.weight_before == 14 == s.move.weight_after
                   for s in tr.steps)
        assert all(s.move.dimer_tree_after for s in tr.steps
                   if s.move.kind != "one_point_coext")
        tr = mu.reduce_to_cycle(load_fixture("q7"))
        assert tr.final_cycle_length == 6
        assert all(s.move.weight_before == 12 == s.move.weight_after
                   for s in tr.steps)
        for n in range(3, 9):
            tr = mu.reduce_to_cycle(cycle_quiver(n))
            assert tr.steps == [] and tr.final_cycle_length == n
