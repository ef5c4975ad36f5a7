"""Modules built once per algebra, on sparse rows, and freed with it.

The dense builders below are the oracle's earlier bodies, kept as
references: every (i, j) read through `Matrix[i, j]`, every matrix made from
dense lists by `Field.matrix`.  The sparse code must give the same rows.
"""
import gc
import random
import weakref
from fractions import Fraction

import pytest

from dimertree import cli
from dimertree import oracle as orc
from dimertree.linalg import GF, QQ

from conftest import fixture_path, glued_dimer_tree, load_fixture

FIELDS = {"GF": GF(32003), "Q": QQ()}
# glued trees of two to four cycles
GLUED = {
    "k2": ((3, 5), (1,)),
    "k3": ((4, 3, 5), (2, 7)),
    "k4": ((5, 3, 4, 4), (0, 3, 11)),
}


def _quiver(name):
    if name in GLUED:
        return glued_dimer_tree(*GLUED[name])
    return load_fixture(name)


@pytest.fixture(scope="module", params=["q9", "q7", "c3", *GLUED])
def quiver(request):
    return _quiver(request.param)


# -- dense references -------------------------------------------------------------

def dense_tower_rep(ab, summands):
    F = ab.field
    labels = {}
    for w in ab.q.sorted_vertices():
        lab = []
        for li, sv in enumerate(summands):
            for c in ab.by_pair.get((sv, w), []):
                lab.append((li, c))
        labels[w] = lab
    pos = {w: {t: i for i, t in enumerate(lab)} for w, lab in labels.items()}
    dims = {w: len(lab) for w, lab in labels.items()}
    act = {}
    for a in ab.q.arrows:
        rows = [[0] * dims[a.source] for _ in range(dims[a.target])]
        ac = ab.arrow_class(a.id)
        for i, (li, c) in enumerate(labels[a.source]):
            prod = ab.mult(c, ac)
            if prod is not None:
                rows[pos[a.target][(li, prod)]][i] = 1
        act[a.id] = F.matrix(rows, ncols=dims[a.source])
    return orc.Rep(ab, dims, act, labels=labels), pos


def dense_projective_rep(ab, v, radical):
    F = ab.field
    basis = {}
    for w in ab.q.sorted_vertices():
        cls = list(ab.by_pair.get((v, w), []))
        if radical:
            cls = [c for c in cls if not ab.classes[c].is_constant]
        basis[w] = cls
    pos = {w: {c: i for i, c in enumerate(cls)} for w, cls in basis.items()}
    dims = {w: len(cls) for w, cls in basis.items()}
    act = {}
    for a in ab.q.arrows:
        rows = [[0] * dims[a.source] for _ in range(dims[a.target])]
        ac = ab.arrow_class(a.id)
        for i, c in enumerate(basis[a.source]):
            prod = ab.mult(c, ac)
            if prod is not None and prod in pos[a.target]:
                rows[pos[a.target][prod]][i] = 1
        act[a.id] = F.matrix(rows, ncols=dims[a.source])
    return orc.Rep(ab, dims, act, labels=basis)


def dense_columns(F, mat):
    m, n = F.shape(mat)
    return [[mat[i, j] for i in range(m)] for j in range(n)]


def dense_apply(F, mat, vec):
    m, n = F.shape(mat)
    out = [F.scalar(0)] * m
    for j, x in enumerate(vec):
        if F.is_zero(x):
            continue
        for i in range(m):
            v = mat[i, j]
            if not F.is_zero(v):
                out[i] = F.add(out[i], F.mul(v, x))
    return out


def dense_hom_space(M, N):
    F = M.field
    verts = M.ab.q.sorted_vertices()
    offsets = {}
    total = 0
    for v in verts:
        offsets[v] = total
        total += M.dims[v] * N.dims[v]
    rows = []
    for a in M.ab.q.arrows:
        s, t = a.source, a.target
        if N.dims[t] * M.dims[s] == 0:
            continue
        Ma, Na = M.act[a.id], N.act[a.id]
        for i in range(N.dims[t]):
            for j in range(M.dims[s]):
                row = [F.scalar(0)] * total
                for k in range(M.dims[t]):
                    coeff = Ma[k, j]
                    if not F.is_zero(coeff):
                        row[offsets[t] + i * M.dims[t] + k] = coeff
                for k in range(N.dims[s]):
                    coeff = Na[i, k]
                    if not F.is_zero(coeff):
                        idx = offsets[s] + k * M.dims[s] + j
                        row[idx] = F.add(row[idx], F.neg(coeff))
                rows.append(row)
    if total == 0:
        return []
    mat = F.matrix(rows, ncols=total) if rows else F.zeros(0, total)
    out = []
    for col in dense_columns(F, F.nullspace(mat)):
        fam = {}
        for v in verts:
            m = F.zeros(N.dims[v], M.dims[v])
            for i in range(N.dims[v]):
                for j in range(M.dims[v]):
                    m[i, j] = col[offsets[v] + i * M.dims[v] + j]
            fam[v] = m
        out.append(fam)
    return out


def dense_hom_tower_matrix(ab, pres, N):
    F = ab.field
    col_offsets, total_cols = [], 0
    for v in pres.p0:
        col_offsets.append(total_cols)
        total_cols += N.dims[v]
    row_offsets, total_rows = [], 0
    for v in pres.p1:
        row_offsets.append(total_rows)
        total_rows += N.dims[v]
    mat = F.zeros(total_rows, total_cols)
    for (l, k), combo in pres.entries.items():
        block = F.zeros(N.dims[pres.p1[k]], N.dims[pres.p0[l]])
        for coeff, cls in combo:
            m = N.class_matrix(cls)
            r, c = F.shape(m)
            for i in range(r):
                for j in range(c):
                    if not F.is_zero(m[i, j]):
                        block[i, j] = F.add(block[i, j],
                                            F.mul(F.scalar(coeff), m[i, j]))
        r, c = F.shape(block)
        for i in range(r):
            for j in range(c):
                if not F.is_zero(block[i, j]):
                    mat[row_offsets[k] + i, col_offsets[l] + j] = block[i, j]
    return mat


# -- random mostly-zero data ------------------------------------------------------------

def _entry(F, rng):
    if rng.random() < 0.75:
        return 0
    if F.p:
        return rng.randrange(1, F.p)
    return rng.choice([1, -1, 2, Fraction(1, 3), Fraction(-5, 2)])


def random_matrix(F, rng, m, n):
    return F.matrix([[_entry(F, rng) for _ in range(n)] for _ in range(m)], ncols=n)


def random_rep(ab, rng, max_dim=3):
    F = ab.field
    dims = {v: rng.randint(0, max_dim) for v in ab.q.vertices}
    act = {a.id: random_matrix(F, rng, dims[a.target], dims[a.source])
           for a in ab.q.arrows}
    return orc.Rep(ab, dims, act)


def _rows(fam):
    return {v: m.rows for v, m in fam.items()}


# -- the tower cache --------------------------------------------------------------------

def test_tower_rep_is_built_once_per_summand_list(c3):
    ab = orc.build_algebra(c3, 32003)
    first = orc.tower_rep(ab, [1, 2, 1])
    assert orc.tower_rep(ab, [1, 2, 1]) is first
    assert orc.tower_rep(ab, (1, 2, 1)) is first
    assert orc.tower_rep(ab, [2, 1, 1]) is not first
    assert ab.projective(2) is orc.tower_rep(ab, [2])[0]


@pytest.mark.parametrize("field", FIELDS)
def test_cached_towers_equal_the_dense_builder(quiver, field):
    ab = orc.build_algebra(quiver, FIELDS[field])
    assert orc.full_oracle_report(ab).ok
    assert ab._tower_cache, "the report builds towers"
    for key, (tower, pos) in ab._tower_cache.items():
        ref, ref_pos = dense_tower_rep(ab, list(key))
        assert tower.dims == ref.dims
        assert tower.labels == ref.labels
        assert pos == ref_pos
        for aid, mat in tower.act.items():
            assert mat.shape == ref.act[aid].shape
            assert mat.rows == ref.act[aid].rows, (key, aid)


def test_projectives_and_radicals_equal_the_dense_builder(quiver):
    ab = orc.build_algebra(quiver, 32003)
    for v in ab.vertices:
        for radical, rep in ((False, ab.projective(v)), (True, ab.radical_rep(v))):
            ref = dense_projective_rep(ab, v, radical)
            assert rep.dims == ref.dims
            for aid, mat in rep.act.items():
                assert mat.shape == ref.act[aid].shape
                assert mat.rows == ref.act[aid].rows, (v, radical, aid)
        assert ab.radical_rep(v) is ab.radical_rep(v)


def test_mult_equals_class_of_the_concatenated_word():
    for name in ("q9", "q7", "c3"):
        ab = orc.build_algebra(load_fixture(name), 32003)
        table = ab.multiplication_table()
        for (c1, c2), prod in table.items():
            k1, k2 = ab.classes[c1], ab.classes[c2]
            want = ab.class_of_word(k1.word + k2.word, at_vertex=k1.source)
            assert prod == want, (name, c1, c2)


# -- sparse helpers against the dense loops ----------------------------------------------

@pytest.mark.parametrize("field", FIELDS)
def test_column_helpers_and_apply_match_dense_loops(field):
    F = FIELDS[field]
    rng = random.Random(7)
    for _ in range(200):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        mat = random_matrix(F, rng, m, n)
        assert orc._columns(F, mat) == dense_columns(F, mat)
        assert orc._nonzero_cols(F, mat) == [c for c in dense_columns(F, mat)
                                             if any(c)]
        vec = [_entry(F, rng) for _ in range(n)]
        assert orc._apply(F, mat, vec) == dense_apply(F, mat, vec)
        cols = dense_columns(F, mat)
        assert orc._from_columns(F, m, cols).rows == mat.rows


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ["c3", "q7"])
def test_hom_space_matches_dense_loops(field, name):
    ab = orc.build_algebra(load_fixture(name), FIELDS[field])
    rng = random.Random(11)
    for _ in range(25):
        M, N = random_rep(ab, rng), random_rep(ab, rng)
        got = orc.hom_space(M, N)
        want = dense_hom_space(M, N)
        assert [_rows(f) for f in got] == [_rows(f) for f in want]
    for v in ab.vertices:
        M = ab.radical_rep(v)
        assert ([_rows(f) for f in orc.hom_space(M, M)]
                == [_rows(f) for f in dense_hom_space(M, M)])


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ["c3", "q7", "q9"])
def test_hom_tower_matrix_matches_dense_loops(field, name):
    ab = orc.build_algebra(load_fixture(name), FIELDS[field])
    rng = random.Random(13)
    for x in ab.vertices:
        pres = orc.radical_presentation(ab, x)
        for p in (pres, orc.resolve_step(ab, pres)):
            for N in (random_rep(ab, rng), ab.radical_rep(x)):
                got = orc.hom_tower_matrix(ab, p, N)
                want = dense_hom_tower_matrix(ab, p, N)
                assert got.shape == want.shape
                assert got.rows == want.rows


# -- lifetimes ----------------------------------------------------------------------------

def _live_oracle_objects():
    return {id(o) for o in gc.get_objects()
            if isinstance(o, (orc.AlgebraBasis, orc.Rep))}


@pytest.mark.parametrize("argv", [
    ["oracle", fixture_path("q9"), "--field", "Q", "--check", "all"],
    ["all", fixture_path("q9")],
])
def test_no_algebra_outlives_its_command(argv, capsys):
    gc.collect()
    before = _live_oracle_objects()
    gc.disable()
    try:
        assert cli.main(argv) == 0
        left = _live_oracle_objects() - before
    finally:
        gc.enable()
    capsys.readouterr()
    assert not left, f"{len(left)} algebras and reps outlive the command"


def test_algebra_dies_on_del_after_the_full_report(q9):
    gc.disable()
    try:
        ab = orc.build_algebra(q9, "Q")
        assert orc.full_oracle_report(ab).ok
        ref = weakref.ref(ab)
        rep_ref = weakref.ref(ab.radical_rep(3))
        del ab
        assert ref() is None
        assert rep_ref() is None
    finally:
        gc.enable()


def test_rep_used_after_its_algebra_is_gone_raises(c3):
    ab = orc.build_algebra(c3, 32003)
    M = ab.radical_rep(1)
    P = ab.projective(2)
    assert len(orc.hom_space(M, M)) == 1
    del ab
    with pytest.raises(orc.OracleError, match="algebra .* is gone"):
        M.ab
    with pytest.raises(orc.OracleError, match="is gone"):
        orc.hom_space(M, P)
    with pytest.raises(orc.OracleError, match="is gone"):
        M.class_matrix(0)
