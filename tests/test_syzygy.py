import pytest

from dimertree import checkerboard as cb
from dimertree import diagonals as dg
from dimertree import oracle as orc
from dimertree import syzygy as sy
from dimertree.quiver import Check, Report, validate_dimer_tree

from conftest import cycle_quiver, quiver_from_arrows


@pytest.fixture(scope="module")
def model9(q9):
    cp = cb.build_checkerboard(q9)
    return cp, orc.build_algebra(q9, 32003)


@pytest.fixture(scope="module")
def model3(c3):
    cp = cb.build_checkerboard(c3)
    return cp, orc.build_algebra(c3, 32003)


def test_radical_lines_are_two_diagonals(model9):
    cp, _ = model9
    for v in cp.q.vertices:
        d = cp.radical_line_of(v)
        assert d.tail % 2 == 1 and d.head % 2 == 0
    assert len({cp.radical_line_of(v) for v in cp.q.vertices}) == 9


def test_c3_radical_presentations(model3):
    cp, _ = model3
    obj = sy.presentation_of(cp, cp.radical_line_of(1))
    assert obj.p1 == (3,) and obj.p0 == (2,)


def test_q9_figure_presentation_exists(model9):
    cp, _ = model9
    hits = [d for d in dg.enumerate_diagonals(7)
            for obj in [sy.presentation_of(cp, d)]
            if set(obj.p1) == {5, 6} and set(obj.p0) == {3, 4}]
    assert hits  # the drawn diagonal with cover P(3)+P(4) and relations P(5)+P(6)


def test_presentations_nonempty_both_sides(model9):
    cp, _ = model9
    for d in dg.enumerate_diagonals(7):
        obj = sy.presentation_of(cp, d)
        assert obj.p0 and obj.p1


def test_radical_consistency_all_fixtures(model9, model3, q7):
    for cp, ab in (model9, model3):
        rep = sy.radical_consistency_check(cp, ab)
        assert rep.ok, [i.name for i in rep.failed()]
    cp7 = cb.build_checkerboard(q7)
    ab7 = orc.build_algebra(q7, 32003)
    rep = sy.radical_consistency_check(cp7, ab7)
    assert rep.ok, [i.name for i in rep.failed()]


def test_gluing_and_periods_q9(model9):
    cp, _ = model9
    n = cp.half
    periods = {}
    for d in dg.enumerate_diagonals(n):
        tr = sy.resolution(cp, d)
        assert tr.gluing_ok, d
        assert tr.minimal_period in (n, 2 * n)
        periods[tr.minimal_period] = periods.get(tr.minimal_period, 0) + 1
    # diameters are fixed by the half turn, everything else needs a full turn
    assert periods == {7: 7, 14: 28}


def test_gluing_c3_six_steps(model3):
    cp, _ = model3
    tr = sy.resolution(cp, cp.radical_line_of(1), steps=6)
    assert tr.gluing_ok
    assert len(tr.steps) == 7
    assert tr.minimal_period in (3, 6)
    assert tr.steps[0].diagonal == tr.steps[tr.minimal_period].diagonal


def test_rotation_steps_chain_presentations(model9):
    cp, _ = model9
    n = cp.half
    d = dg.TwoDiagonal(1, 4)
    tr = sy.resolution(cp, d, steps=5)
    for a, b in zip(tr.steps, tr.steps[1:]):
        assert b.diagonal == dg.rotate(a.diagonal, 1, n)
        assert b.p0 == a.p1


def test_radical_count_among_syzygies(model9):
    cp, _ = model9
    all_diagonals = set(dg.enumerate_diagonals(7))
    radicals = {cp.radical_line_of(v) for v in cp.q.vertices}
    assert radicals <= all_diagonals
    assert len(all_diagonals) == 7 * 5
    assert len(radicals) == 9


def test_ext_direction_matches_oracle_for_radicals(model9):
    # crossing direction between radical lines against the oracle's ext groups
    cp, ab = model9
    n = cp.half
    for i in cp.q.vertices:
        pres_i = orc.radical_presentation(ab, i)
        for j in cp.q.vertices:
            if i == j:
                continue
            ext = orc.ext1_dim_pres(ab, pres_i, ab.radical_rep(j))
            cross = dg.crossing(cp.radical_line_of(i),
                                cp.radical_line_of(j), n)
            assert (ext != 0) == (cross == "right_to_left"), (i, j)


def test_resolution_on_cycle_quivers():
    for nn in (4, 6):
        q = cycle_quiver(nn)
        cp = cb.build_checkerboard(q)
        for d in dg.enumerate_diagonals(cp.half):
            tr = sy.resolution(cp, d)
            assert tr.gluing_ok
            assert tr.minimal_period in (cp.half, 2 * cp.half)


def test_presentation_rejects_bad_diagonal(model9):
    cp, _ = model9
    with pytest.raises(dg.DiagonalError):
        sy.presentation_of(cp, dg.TwoDiagonal(1, 2))


def test_every_validator_returns_a_report_of_checks(model9, q9):
    cp, ab = model9
    reports = [validate_dimer_tree(q9), cb.validate_checkerboard(cp),
               orc.full_oracle_report(ab), sy.radical_consistency_check(cp, ab)]
    for report in reports:
        assert isinstance(report, Report) and report.items
        assert all(type(c) is Check for c in report.items)
        assert report.ok and report.failed() == []
    bad = validate_dimer_tree(quiver_from_arrows([(1, 2), (2, 3), (3, 1), (3, 4)]))
    assert not bad.ok
    assert bad.failed() == [c for c in bad.items if not c.passed] != []
