"""Modules built once per algebra, on label maps and sparse rows, and freed
with it.

The dense builders below are the oracle's earlier bodies, kept as
references: every (i, j) read through `DenseMatrix[i, j]`, every matrix
made from dense lists by `linalg_refs.matrix`, every vertex present, and
every reduction the back-substituted RREF of `linalg_refs`.  Their modules
act by image columns, as a module that is not a tower does in the oracle,
read as matrices through `arrow_matrix`.  A tower's label maps enter them
as 0/1 columns (`column_rep`), and its positions as the offsets it keeps
(`positions`).  The sparse code must give the same rows, and a tower must
hold nothing where the reference has no basis.
"""
import gc
import itertools
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from dimertree import _modp, cli, linalg
from dimertree import oracle as orc
from dimertree.linalg import GF, QQ, Matrix, from_columns
from dimertree.quiver import weight_report

from cap_build import build_reference
from conftest import (fixture_path, glued_dimer_tree, load_fixture,
                      multiplication_table)
from linalg_refs import (dense, dense_nullspace, eye, indexed, matrix, neg,
                         rref, zeros)

FIELDS = {"GF": GF(32003), "Q": QQ()}
# p = 2 and 3 make every non-unit coefficient vanish or wrap
FOUR_FIELDS = {"Q": QQ(), "GF2": GF(2), "GF3": GF(3), "GF32003": GF(32003)}
FIXTURES = ["c3", "c4", "c5", "c6", "c7", "c8", "q7", "q9"]
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
        act[a.id] = matrix(F, rows, ncols=dims[a.source]).columns()
    return orc.Rep(ab.field, dims, act, labels=labels), pos


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
        act[a.id] = matrix(F, rows, ncols=dims[a.source]).columns()
    return orc.Rep(ab.field, dims, act, labels=basis)


def direct_sum(ab, parts):
    """The direct sum of the reps in parts, a list of (tag, rep) whose labels
    are pairs (tag, class), block by block, each label retagged with its
    part's tag: the oracle's earlier builder of a tower of several
    summands, from the single ones."""
    labels = {w: [(tag, c) for tag, rep in parts for _, c in rep.labels[w]]
              for w in ab.vertices}
    act = {}
    for a in ab.q.arrows:
        cols = act[a.id] = []
        off = 0
        for _, rep in parts:
            cols.extend({off + i: x for i, x in col.items()}
                        for col in rep.act[a.id])
            off += rep.dims[a.target]
    dims = {w: len(lab) for w, lab in labels.items()}
    return orc.Rep(ab.field, dims, act, labels=labels)


def block_by_block(ab, summands, radical):
    """`direct_sum` of the dense single projectives or radicals, each
    labelled (0, class)."""
    parts = []
    for i, v in enumerate(summands):
        ref = dense_projective_rep(ab, v, radical)
        labels = {w: [(0, c) for c in cls] for w, cls in ref.labels.items()}
        parts.append((i, orc.Rep(ab.field, ref.dims, ref.act, labels=labels)))
    return direct_sum(ab, parts)


def column_rep(ab, rep):
    """rep as a module that is not a tower, with dims at every vertex and
    its arrows acting by image columns: each label map of a tower turned
    into its 0/1 columns, {maps[a][j]: 1}, and an arrow without a label
    map, out of a vertex without basis, into no columns.  Any other module
    is returned as it is."""
    if rep.maps is None:
        return rep
    act = {}
    for a in ab.q.arrows:
        to = rep.maps.get(a.id)
        if to is None:
            assert not rep.dims.get(a.source, 0), a.id
            to = []
        act[a.id] = [{} if i is None else {i: 1} for i in to]
    dims = {w: rep.dims.get(w, 0) for w in ab.vertices}
    return orc.Rep(rep.field, dims, act, labels=rep.labels)


def arrow_matrix(ab, rep, aid):
    """The matrix of an arrow on a module that is not a tower, from its
    image columns."""
    return indexed(from_columns(rep.dims[ab.q.arrow_by_id[aid].target],
                                rep.act[aid]))


def word_matrix(ab, rep, word, source):
    """The matrix of the right action of a composable word starting at
    source, on a module that is not a tower: the product of its arrow
    matrices."""
    if not word:
        return eye(rep.dims[source])
    m = arrow_matrix(ab, rep, word[0])
    for aid in word[1:]:
        m = ab.field.matmul(arrow_matrix(ab, rep, aid), m)
    return indexed(m)


def positions(ab, rep):
    """{w: {label: index}} of a tower, read off its offsets."""
    return {w: {(i, c): rep.start[w][i] + ab.pair_rank[c] for i, c in lab}
            for w, lab in rep.labels.items()}


def assert_support_only(ab, rep, ref_labels, key):
    """The tower holds labels, offsets and label maps exactly where the
    reference has a basis, and the arrows out of there; its labels equal
    the reference's, and its offsets give each label its index there."""
    held = [w for w in ab.vertices if ref_labels[w]]
    assert sorted(rep.dims, key=ab.vertices.index) == held, key
    assert sorted(rep.labels, key=ab.vertices.index) == held, key
    assert set(rep.start) == set(held), key
    assert set(rep.maps) == {a.id for a in ab.q.arrows if a.source in held}, key
    pos = positions(ab, rep)
    for w in held:
        assert rep.labels[w] == ref_labels[w], (key, w)
        assert pos[w] == {t: i for i, t in enumerate(ref_labels[w])}, (key, w)


def assert_same_module(ab, rep, ref, key):
    assert rep.dims == {w: n for w, n in ref.dims.items() if n}, key
    assert_support_only(ab, rep, ref.labels, key)
    act = column_rep(ab, rep).act
    assert act.keys() == ref.act.keys(), key
    for aid, cols in act.items():
        assert cols == ref.act[aid], (key, aid)


def dense_columns(F, mat):
    m = mat.shape[0]
    return [[col.get(i, 0) for i in range(m)] for col in mat.columns()]


def dense_apply(F, mat, vec):
    m, n = mat.shape
    out = [F.scalar(0)] * m
    for j, x in enumerate(vec):
        if F.is_zero(x):
            continue
        for i in range(m):
            v = mat[i, j]
            if not F.is_zero(v):
                out[i] = F.add(out[i], F.mul(v, x))
    return out


def dense_hom_space(ab, M, N):
    F = ab.field
    M, N = column_rep(ab, M), column_rep(ab, N)
    verts = ab.q.sorted_vertices()
    offsets = {}
    total = 0
    for v in verts:
        offsets[v] = total
        total += M.dims[v] * N.dims[v]
    rows = []
    for a in ab.q.arrows:
        s, t = a.source, a.target
        if N.dims[t] * M.dims[s] == 0:
            continue
        Ma, Na = arrow_matrix(ab, M, a.id), arrow_matrix(ab, N, a.id)
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
                        row[idx] = F.add(row[idx], neg(F, coeff))
                rows.append(row)
    if total == 0:
        return []
    mat = matrix(F, rows, ncols=total)
    out = []
    for col in dense_columns(F, F.nullspace(mat)):
        fam = {}
        for v in verts:
            m = zeros(N.dims[v], M.dims[v])
            for i in range(N.dims[v]):
                for j in range(M.dims[v]):
                    m[i, j] = col[offsets[v] + i * M.dims[v] + j]
            fam[v] = m
        out.append(fam)
    return out


def dense_hom_tower_matrix(ab, pres, N):
    F = ab.field
    N = column_rep(ab, N)
    col_offsets, total_cols = [], 0
    for v in pres.p0:
        col_offsets.append(total_cols)
        total_cols += N.dims[v]
    row_offsets, total_rows = [], 0
    for v in pres.p1:
        row_offsets.append(total_rows)
        total_rows += N.dims[v]
    mat = zeros(total_rows, total_cols)
    for (l, k), combo in pres.entries.items():
        block = zeros(N.dims[pres.p1[k]], N.dims[pres.p0[l]])
        for coeff, cls in combo:
            path = ab.classes[cls]
            m = word_matrix(ab, N, path.word, path.source)
            r, c = m.shape
            for i in range(r):
                for j in range(c):
                    if not F.is_zero(m[i, j]):
                        block[i, j] = F.add(block[i, j],
                                            F.mul(F.scalar(coeff), m[i, j]))
        r, c = block.shape
        for i in range(r):
            for j in range(c):
                if not F.is_zero(block[i, j]):
                    mat[row_offsets[k] + i, col_offsets[l] + j] = block[i, j]
    return mat


def dense_from_columns(F, nrows, cols):
    return matrix(F, [[col[i] for col in cols] for i in range(nrows)],
                  ncols=len(cols))


def dense_coords_in_columns(F, bas_cols, n, targets):
    k = len(bas_cols)
    red, piv = rref(F, dense_from_columns(F, n, bas_cols + targets))
    assert all(pc < k for pc in piv), "vector not inside the subspace"
    return [[red[i, k + j] for i in range(k)] for j in range(len(targets))]


def dense_top_generators(ab, rep):
    F = ab.field
    rep = column_rep(ab, rep)
    rad = {w: [] for w in rep.dims}
    for a in ab.q.arrows:
        rad[a.target].extend(c for c in dense_columns(F, arrow_matrix(ab, rep, a.id))
                             if any(c))
    gens = {}
    for w, n in rep.dims.items():
        pivset = set(rref(F, matrix(F, rad[w], ncols=n))[1]) if rad[w] else set()
        gens[w] = [[F.scalar(int(i == c)) for i in range(n)]
                   for c in range(n) if c not in pivset]
    return gens


def dense_cover_map(ab, rep):
    F = ab.field
    rep = column_rep(ab, rep)
    gens = dense_top_generators(ab, rep)
    gen_list = [(w, g) for w in ab.vertices for g in gens[w]]
    summands = [w for w, _ in gen_list]
    tower = orc.tower_rep(ab, summands)
    mats = {}
    for w in ab.vertices:
        cols = []
        for li, c in tower.labels.get(w, ()):
            gv, gvec = gen_list[li]
            cols.append(dense_apply(F, word_matrix(ab, rep, ab.classes[c].word, gv),
                                    gvec))
        mats[w] = dense_from_columns(F, rep.dims[w], cols)
    return summands, mats, tower


def dense_submodule_cover(ab, ambient, sub):
    F = ab.field
    ambient = column_rep(ab, ambient)
    radcols = {w: [] for w in ambient.dims}
    for a in ab.q.arrows:
        for col in sub[a.source]:
            moved = dense_apply(F, arrow_matrix(ab, ambient, a.id), col)
            if any(not F.is_zero(x) for x in moved):
                radcols[a.target].append(moved)
    gen_list = []
    for w in ab.vertices:
        basis = sub[w]
        if not basis:
            continue
        pivset = set()
        if radcols[w]:
            coords = dense_coords_in_columns(F, basis, ambient.dims[w], radcols[w])
            pivset = set(rref(F, matrix(F, coords, ncols=len(basis)))[1])
        gen_list += [(w, b) for ci, b in enumerate(basis) if ci not in pivset]
    return gen_list


def dense_kernel_cover(ab, tower, mats):
    F = ab.field
    ker = {w: dense_columns(F, dense_nullspace(F, dense(mats[w])))
           if tower.dims.get(w, 0) else [] for w in ab.vertices}
    gen_list = dense_submodule_cover(ab, tower, ker)
    entries = {}
    for k, (w, gvec) in enumerate(gen_list):
        for i, (li, cls) in enumerate(tower.labels[w]):
            if not F.is_zero(gvec[i]):
                entries.setdefault((li, k), []).append((gvec[i], cls))
    return [w for w, _ in gen_list], entries


def dense_minimal_presentation(ab, rep):
    summands, mats, tower = dense_cover_map(ab, rep)
    p1, entries = dense_kernel_cover(ab, tower, mats)
    return orc.ModulePresentation(p1=p1, p0=summands, entries=entries)


def as_matrices(ab, rep, cols):
    """Vertex-wise image columns into rep, as matrices at every vertex: no
    columns where cols has no key, and no rows where rep has no basis."""
    return {w: from_columns(rep.dims.get(w, 0), cols.get(w, []))
            for w in ab.vertices}


def dense_resolve_step(ab, pres):
    t1, t0, cols = orc.presentation_columns(ab, pres)
    p2, entries = dense_kernel_cover(ab, t1, as_matrices(ab, t0, cols))
    return orc.ModulePresentation(p1=p2, p0=list(pres.p1), entries=entries)


class DenseQuotient:
    """Coordinates for F^n modulo the span of the given dense columns, read
    off their back-substituted RREF."""

    def __init__(self, F, n, cols):
        self.F, self.n = F, n
        self.rows, self.pivots = [], []
        if cols:
            red, piv = rref(F, matrix(F, cols, ncols=n))
            self.rows = [[red[i, j] for j in range(n)] for i in range(len(piv))]
            self.pivots = list(piv)
        self.free = [c for c in range(n) if c not in self.pivots]

    def project(self, vec):
        F, v = self.F, list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if not F.is_zero(c):
                v = [F.add(x, neg(F, F.mul(c, r))) for x, r in zip(v, row)]
        return [v[c] for c in self.free]

    def lift(self, k):
        return [self.F.scalar(int(i == self.free[k])) for i in range(self.n)]


def dense_cokernel_rep(ab, pres):
    F = ab.field
    _, t0, cols = orc.presentation_columns(ab, pres)
    mats = as_matrices(ab, t0, cols)
    t0 = column_rep(ab, t0)
    quots = {w: DenseQuotient(F, t0.dims[w],
                              [c for c in dense_columns(F, mats[w]) if any(c)])
             for w in ab.vertices}
    dims = {w: len(q.free) for w, q in quots.items()}
    act = {}
    for a in ab.q.arrows:
        cols = [quots[a.target].project(dense_apply(F, arrow_matrix(ab, t0, a.id),
                                                    quots[a.source].lift(k)))
                for k in range(dims[a.source])]
        act[a.id] = [sparse(c) for c in cols]
    return orc.Rep(ab.field, dims, act)


def family_stable_hom_dim(ab, M, N):
    """Stable Hom as the oracle computed it before: every lift a family of
    matrices, projected through the cover one vertex at a time."""
    F = ab.field
    homs = dense_hom_space(ab, M, N)
    if not homs:
        return 0
    _, pi_cols, towerN = orc.cover_map(ab, N)
    pi_mats = as_matrices(ab, N, pi_cols)
    lifts = dense_hom_space(ab, M, towerN)
    if not lifts:
        return len(homs)
    projected = []
    for g in lifts:
        row, base = {}, 0
        for v in ab.vertices:
            m = F.matmul(pi_mats[v], g[v])
            for i, mrow in enumerate(m.rows):
                for j, x in mrow.items():
                    row[base + i * m.ncols + j] = x
            base += len(m.rows) * m.ncols
        projected.append(row)
    return len(homs) - F.rank(Matrix(projected, base))


def dense_hom_dims(ab, M, N):
    return len(dense_hom_space(ab, M, N)), family_stable_hom_dim(ab, M, N)


def filtered_paths(ab, cap):
    """Composable words of length <= cap, in (length, lex) order, each new
    word tested against every vanishing word."""
    q = ab.q
    forbidden = [orc._cycle_word_without(owners[0].arrows, a.id) for a in q.arrows
                 if len(owners := ab.structure.cycles_of_arrow(a.id)) == 1]
    frontier = [((a.id,), a.target) for a in sorted(q.arrows, key=lambda a: a.id)]
    words = [w for w, _ in frontier]
    for _ in range(cap - 1):
        nxt = []
        for w, tv in frontier:
            for a in sorted(q.out_arrows[tv], key=lambda a: a.id):
                new = w + (a.id,)
                if not any(new[-len(f):] == f for f in forbidden):
                    nxt.append((new, a.target))
        words += [w for w, _ in nxt]
        frontier = nxt
    return forbidden, words


# -- random mostly-zero data ------------------------------------------------------------

def _entry(F, rng):
    if rng.random() < 0.75:
        return 0
    if F.p:
        return rng.randrange(1, F.p)
    return rng.choice([1, -1, 2, Fraction(1, 3), Fraction(-5, 2)])


def random_matrix(F, rng, m, n):
    return matrix(F, [[_entry(F, rng) for _ in range(n)] for _ in range(m)], ncols=n)


def random_rep(ab, rng, max_dim=3):
    F = ab.field
    dims = {v: rng.randint(0, max_dim) for v in ab.q.vertices}
    act = {a.id: random_matrix(F, rng, dims[a.target], dims[a.source]).columns()
           for a in ab.q.arrows}
    return orc.Rep(ab.field, dims, act)


# -- the module cache -------------------------------------------------------------------

def test_tower_rep_is_built_once_per_summand_list(c3):
    """One cache, keyed by the summand list and the kind, holds every
    module: projectives, radicals, towers and rad B."""
    ab = orc.build_algebra(c3, 32003)
    for radical in (False, True):
        first = orc.tower_rep(ab, [1, 2, 1], radical)
        assert orc.tower_rep(ab, [1, 2, 1], radical) is first
        assert orc.tower_rep(ab, (1, 2, 1), radical=radical) is first
        assert orc.tower_rep(ab, [2, 1, 1], radical) is not first
        assert ab._modules[(1, 2, 1), radical] is first
    assert orc.tower_rep(ab, [1, 2, 1]) is not orc.tower_rep(ab, [1, 2, 1], True)
    assert ab.projective(2) is orc.tower_rep(ab, [2]) is ab._modules[(2,), False]
    assert ab.radical_rep(2) is orc.tower_rep(ab, [2], True) is ab._modules[(2,), True]
    assert set(ab._modules) == {((1, 2, 1), False), ((2, 1, 1), False),
                                ((1, 2, 1), True), ((2, 1, 1), True),
                                ((2,), False), ((2,), True)}
    # the Ext check builds rad B once and keeps it
    orc.radical_ext_arrow_check(ab)
    rad_b = ab._modules[tuple(ab.vertices), True]
    orc.radical_ext_arrow_check(ab)
    assert ab._modules[tuple(ab.vertices), True] is rad_b
    assert orc.tower_rep(ab, ab.vertices, radical=True) is rad_b


@pytest.mark.parametrize("field", FIELDS)
def test_cached_towers_equal_the_dense_builder(quiver, field):
    """Every module the report keeps equals the dense builder: a tower of
    projectives `dense_tower_rep`, a direct sum of radicals the dense
    radicals summed block by block."""
    ab = orc.build_algebra(quiver, FIELDS[field])
    assert orc.full_oracle_report(ab).ok
    kinds = {radical for _, radical in ab._modules}
    assert kinds == {False, True}, "the report builds both kinds"
    assert (tuple(ab.vertices), True) in ab._modules, "and keeps rad B"
    for key, rep in ab._modules.items():
        summands, radical = key
        if radical:
            ref = block_by_block(ab, summands, True)
        else:
            ref, ref_pos = dense_tower_rep(ab, list(summands))
            assert positions(ab, rep) == {w: p for w, p in ref_pos.items() if p}
        assert_same_module(ab, rep, ref, key)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", [*FIXTURES, *GLUED])
def test_tower_rep_equals_the_block_by_block_direct_sum(field, name):
    """A tower built from the class table equals the direct sum of its
    single summands, block by block: with repeated summands, over all the
    vertices, and for rad B."""
    ab = orc.build_algebra(_quiver(name), FIELDS[field])
    vs = ab.vertices
    lists = [[vs[0], vs[1], vs[0]], [vs[-1], vs[0], vs[-1], vs[-1]], vs,
             vs[::-1]]
    for summands in lists:
        for radical in (False, True):
            assert_same_module(ab, orc.tower_rep(ab, summands, radical),
                               block_by_block(ab, summands, radical),
                               (summands, radical))


def test_offsets_on_an_algebra_with_two_classes_per_pair(c3):
    """A hand-made quotient of c3's path algebra that keeps every path of
    length below 5: two classes from 1 to 2 (the arrow, and the arrow after
    the 3-cycle) and a cycle at each vertex, which a radical keeps.  Its
    towers place labels at pair ranks 0 and 1, a radical's block at its own
    vertex starts one index early, and every tower still equals the dense
    builder, and gives the Hom blocks its 0/1 matrices give.  The dimer
    tree algebras are schurian, where every pair rank is 0."""
    ab = orc.build_algebra(c3, 32003)
    hand = orc.AlgebraBasis(c3, ab.structure, ab.potential, ab.field)
    words = [(a.id,) for a in c3.arrows]
    for _ in range(4):
        words = [w + (a.id,) for w in words
                 for a in c3.out_arrows[c3.arrow_by_id[w[-1]].target]]
    hand._classes({w: None for w in words})
    assert hand.dim_pair(1, 2) == hand.dim_pair(1, 1) == 2
    assert sorted(set(hand.pair_rank)) == [0, 1]
    vs = hand.vertices
    for summands in ([1], [1, 2, 1], vs, vs[::-1]):
        rad = orc.tower_rep(hand, summands, radical=True)
        assert -1 in rad.start[summands[0]], "a block that starts early"
        for radical in (False, True):
            assert_same_module(hand, orc.tower_rep(hand, summands, radical),
                               block_by_block(hand, summands, radical),
                               (summands, radical))
        _, ref_pos = dense_tower_rep(hand, summands)
        assert positions(hand, orc.tower_rep(hand, summands)) == {
            w: p for w, p in ref_pos.items() if p}
    rng = random.Random(3)
    for _ in range(10):
        pres = random_presentation(hand, rng)
        for N in hand._modules.values():
            got = orc.hom_tower_matrix(hand, pres, N)
            want = orc.hom_tower_matrix(hand, pres, column_rep(hand, N))
            assert got.shape == want.shape
            assert got.rows == want.rows


def test_projectives_and_radicals_equal_the_dense_builder(quiver):
    ab = orc.build_algebra(quiver, 32003)
    for v in ab.vertices:
        for radical, rep in ((False, ab.projective(v)), (True, ab.radical_rep(v))):
            ref = dense_projective_rep(ab, v, radical)
            assert rep.dims == {w: n for w, n in ref.dims.items() if n}
            for aid, cols in column_rep(ab, rep).act.items():
                assert cols == ref.act[aid], (v, radical, aid)
        assert ab.radical_rep(v) is ab.radical_rep(v)


def test_mult_equals_class_of_the_concatenated_word():
    for name in ("q9", "q7", "c3"):
        ab = orc.build_algebra(load_fixture(name), 32003)
        table = multiplication_table(ab)
        for (c1, c2), prod in table.items():
            k1, k2 = ab.classes[c1], ab.classes[c2]
            want = ab.class_of_word(k1.word + k2.word, at_vertex=k1.source)
            assert prod == want, (name, c1, c2)


@pytest.mark.parametrize("name", [*FIXTURES, *GLUED])
def test_path_words_equal_the_unindexed_filter(name):
    ab = build_reference(_quiver(name), 32003)
    forbidden, want = filtered_paths(ab, ab.cap)
    words, index, _, _ = ab._enumerate_paths(forbidden, ab.cap)
    assert words == want
    assert index == {w: i for i, w in enumerate(want)}


# -- the report against per-pair references ----------------------------------------------

@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", [*FIXTURES, *GLUED])
def test_ext_against_rad_b_equals_the_per_pair_complexes(field, name):
    """One complex per vertex j against rad B gives, block by block, the
    Ext^1(rad P(j), rad P(x)) of the complex against each rad P(x), read
    off the ranks of its two differentials."""
    ab = orc.build_algebra(_quiver(name), FIELDS[field])
    rad_b = orc.tower_rep(ab, ab.vertices, radical=True)
    # summand i of rad B is rad P(x), x the i-th vertex
    assert_support_only(ab, rad_b, {
        w: [(i, c) for i, x in enumerate(ab.vertices)
            for _, c in ab.radical_rep(x).labels.get(w, ())]
        for w in ab.vertices}, "rad B")
    for j in ab.vertices:
        pres = orc.radical_presentation(ab, j)
        row = orc._ext1_by_tag(ab, pres, rad_b)
        want = {}
        for x in ab.vertices:
            d0, d1 = orc._ext1_complex(ab, pres, ab.radical_rep(x))
            want[x] = d0.shape[0] - ab.field.rank(d1) - ab.field.rank(d0)
        assert {x: row[i] for i, x in enumerate(ab.vertices)} == want, j


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", [*FIXTURES, *GLUED])
def test_flat_stable_hom_equals_the_family_reference(field, name):
    """Stable Hom read off the radical presentations equals the family-based
    count on every boundary pair and every End(rad P(x))."""
    ab = orc.build_algebra(_quiver(name), FIELDS[field])
    rad = ab.radical_rep
    boundary = set(ab.structure.boundary_arrows)
    pairs = [(a.target, a.source) for a in ab.q.arrows if a.id in boundary]
    pairs += [(x, x) for x in ab.vertices]
    for m, n in pairs:
        pres = orc.radical_presentation(ab, m)
        want = family_stable_hom_dim(ab, rad(m), rad(n))
        assert orc._pres_hom_dims(ab, pres, rad(n))[1] == want, (m, n)


def random_presentation(ab, rng, max_rank=3):
    """A presentation whose every entry is a random combination of the
    non-constant classes between its summands; its cokernel is a module."""
    F = ab.field
    p0 = [rng.choice(ab.vertices) for _ in range(rng.randint(1, max_rank))]
    p1 = [rng.choice(ab.vertices) for _ in range(rng.randint(0, max_rank))]
    entries = {}
    for l, u in enumerate(p0):
        for k, v in enumerate(p1):
            combo = [(x, c) for c in ab.by_pair.get((u, v), ())
                     if not ab.classes[c].is_constant
                     and (x := _entry(F, rng))]
            if combo:
                entries[l, k] = combo
    return orc.ModulePresentation(p1=p1, p0=p0, entries=entries)


@pytest.mark.parametrize("field", FIELDS)
def test_presentation_hom_equals_the_dense_references_on_random_modules(field):
    """On the cokernels of random presentations, the Hom read off a
    presentation equals the dense Hom space, and its stable Hom the
    family-based count."""
    rng = random.Random(17)
    for name in ("c3", "q7", "q9"):
        ab = orc.build_algebra(load_fixture(name), FIELDS[field])
        for _ in range(20):
            pm, pn = random_presentation(ab, rng), random_presentation(ab, rng)
            M, N = orc.cokernel_rep(ab, pm), orc.cokernel_rep(ab, pn)
            assert orc._pres_hom_dims(ab, pm, N) == dense_hom_dims(ab, M, N)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", [*FIXTURES, "interior_triangle", *GLUED])
def test_presentation_hom_equals_the_flat_reference(field, name):
    """Hom and stable Hom read off a presentation equal the dense references,
    for every pair of radicals and for the syzygies of each radical."""
    ab = orc.build_algebra(_quiver(name), FIELDS[field])
    rad = {x: ab.radical_rep(x) for x in ab.vertices}
    for j in ab.vertices:
        pres = orc.radical_presentation(ab, j)
        for x, N in rad.items():
            assert orc._pres_hom_dims(ab, pres, N) == dense_hom_dims(ab, rad[j], N), (j, x)
        # the first two syzygies, against themselves and every radical
        for step in (1, 2):
            pres = orc.resolve_step(ab, pres)
            M = orc.cokernel_rep(ab, pres)
            for N in (M, *rad.values()):
                assert orc._pres_hom_dims(ab, pres, N) == dense_hom_dims(ab, M, N), (j, step)


@pytest.mark.parametrize("field", FIELDS)
def test_presentation_hom_sees_a_corrupted_entry(q9, field):
    """Dropping one entry of a copied presentation changes its cokernel, and
    the dims read off it then disagree with the dense references for the
    module the presentation was copied from."""
    ab = orc.build_algebra(q9, FIELDS[field])
    rad = {x: ab.radical_rep(x) for x in ab.vertices}
    disagree = []
    for j in ab.vertices:
        pres = orc.radical_presentation(ab, j)
        for key in pres.entries:
            entries = {k: e for k, e in pres.entries.items() if k != key}
            bad = orc.ModulePresentation(p1=list(pres.p1), p0=list(pres.p0),
                                         entries=entries)
            disagree += [(j, key, x) for x, N in rad.items()
                         if orc._pres_hom_dims(ab, bad, N)
                         != dense_hom_dims(ab, rad[j], N)]
    assert disagree
    # and the cached presentations themselves agree
    for j in ab.vertices:
        pres = orc.radical_presentation(ab, j)
        assert all(orc._pres_hom_dims(ab, pres, N) == dense_hom_dims(ab, rad[j], N)
                   for N in rad.values())


@pytest.mark.parametrize("field", FIELDS)
def test_ext_check_raises_when_the_differentials_do_not_compose(q9, field):
    """A resolution step with one entry doubled no longer composes with its
    parent: the per-pair complex and the complex against rad B both say so."""
    ab = orc.build_algebra(q9, FIELDS[field])
    F = ab.field
    pres = orc.radical_presentation(ab, 2)
    good = orc.resolve_step(ab, pres)
    entries = dict(good.entries)
    entries[(0, 0)] = [(F.add(c, c), cls) for c, cls in entries[(0, 0)]]
    pres._next = orc.ModulePresentation(p1=list(good.p1), p0=list(good.p0),
                                        entries=entries)
    message = "resolution differentials do not compose to zero"
    with pytest.raises(orc.OracleError, match=message):
        orc._ext1_by_tag(ab, pres, ab.radical_rep(6))
    with pytest.raises(orc.OracleError, match=message):
        orc.radical_ext_arrow_check(ab)


# -- sparse helpers against the dense loops ----------------------------------------------

def sparse(vec):
    return {i: x for i, x in enumerate(vec) if x}


@pytest.mark.parametrize("field", FIELDS)
def test_column_helpers_and_move_match_dense_loops(field):
    """On a module that is not a tower, `_move` combines an arrow's image
    columns as the dense product of their matrix does."""
    F = FIELDS[field]
    rng = random.Random(7)
    for _ in range(200):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        mat = random_matrix(F, rng, m, n)
        cols = dense_columns(F, mat)
        assert mat.columns() == [sparse(c) for c in cols]
        vec = [_entry(F, rng) for _ in range(n)]
        module = orc.Rep(F, {"s": n, "t": m}, {"a": mat.columns()})
        assert (orc._move(F, module, "a", sparse(vec))
                == sparse(dense_apply(F, mat, vec)))
        assert from_columns(m, [sparse(c) for c in cols]).rows == mat.rows


@pytest.mark.parametrize("field", FIELDS)
def test_label_maps_move_vectors_as_their_columns(field):
    """`_move` through a tower's label maps gives what its 0/1 image columns
    give, and the dense product of their matrix, on random vectors of every
    tower the report keeps, and sums what a map sends to one index."""
    F = FIELDS[field]
    rng = random.Random(5)
    ab = orc.build_algebra(load_fixture("q9"), F)
    assert orc.full_oracle_report(ab).ok
    for rep in ab._modules.values():
        cols = column_rep(ab, rep)
        for a in ab.q.arrows:
            dvec = [_entry(F, rng) for _ in range(cols.dims[a.source])]
            vec = sparse(dvec)
            want = sparse(dense_apply(F, arrow_matrix(ab, cols, a.id), dvec))
            assert orc._move(F, rep, a.id, vec) == want
            assert orc._move(F, cols, a.id, vec) == want
    merging = orc.Rep(F, {}, maps={"a": [0, 0, None, 1, 1]})
    vec = {0: F.scalar(1), 1: neg(F, F.scalar(1)), 2: F.scalar(5),
           3: F.scalar(2), 4: F.scalar(3)}
    assert orc._move(F, merging, "a", vec) == {1: F.scalar(5)}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", [*FIXTURES, "k4"])
def test_hom_tower_matrix_on_towers_equals_the_image_column_path(field, name):
    """On every tower the report keeps, the Hom blocks read off the class
    table equal the blocks its 0/1 image columns give, each basis vector
    moved along the class's word, for each radical presentation and its
    next two steps."""
    ab = orc.build_algebra(_quiver(name), FIELDS[field])
    assert orc.full_oracle_report(ab).ok
    presentations = []
    for x in ab.vertices:
        pres = orc.radical_presentation(ab, x)
        presentations += [pres, orc.resolve_step(ab, pres),
                          orc.resolve_step(ab, orc.resolve_step(ab, pres))]
    for N in list(ab._modules.values()):
        ref = column_rep(ab, N)
        for pres in presentations:
            got = orc.hom_tower_matrix(ab, pres, N)
            want = orc.hom_tower_matrix(ab, pres, ref)
            assert got.shape == want.shape
            assert got.rows == want.rows


@pytest.mark.parametrize("field", FIELDS)
def test_block_kernel_equals_each_blocks_nullspace(field, monkeypatch):
    """The kernel `_kernel_cover` covers at each vertex, from one forward
    elimination of that vertex's image columns, equals the columns of the
    dense nullspace of its block, in order and entry by entry: on random
    columns, some zero, out of random towers.  A vertex without columns,
    or whose kernel is zero, gets no key."""
    F = FIELDS[field]
    rng = random.Random(11)
    ab = orc.build_algebra(load_fixture("q9"), F)
    kernels = []
    monkeypatch.setattr(orc, "submodule_cover",
                        lambda ab, tower, sub: kernels.append(sub) or ([], []))
    for _ in range(100):
        tower = orc.tower_rep(ab, [rng.choice(ab.vertices)
                                   for _ in range(rng.randint(1, 3))])
        mats = {w: random_matrix(F, rng, rng.randint(0, 5), n)
                for w, n in tower.dims.items()}
        orc._kernel_cover(ab, tower, {w: m.columns() for w, m in mats.items()})
        kernel = kernels.pop()
        assert all(kernel.values()) and set(kernel) <= set(mats)
        for w in mats:
            want = dense_nullspace(F, dense(mats[w])).columns()
            assert ([sorted(c.items()) for c in kernel.get(w, [])]
                    == [sorted(c.items()) for c in want]), w


def assert_same_cover(ab, rep):
    """`cover_map` of rep equals `dense_cover_map`: the same summands, tower
    and image columns, which it keeps where the tower has a basis."""
    summands, cols, tower = orc.cover_map(ab, rep)
    want_summands, want_mats, want_tower = dense_cover_map(ab, rep)
    assert summands == want_summands
    assert tower is want_tower
    assert cols == {w: m.columns() for w, m in want_mats.items()
                    if tower.dims.get(w, 0)}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", [*FIXTURES, "k4"])
def test_tower_covers_off_the_label_maps_equal_the_dense_cover(field, name):
    """On every tower the report keeps, the tops no label map reaches give
    the cover the dense top generators give."""
    ab = orc.build_algebra(_quiver(name), FIELDS[field])
    assert orc.full_oracle_report(ab).ok
    for rep in list(ab._modules.values()):
        assert rep.maps is not None
        assert_same_cover(ab, rep)


@pytest.mark.parametrize("field", FIELDS)
def test_tower_cover_of_a_label_map_that_merges_two_vectors(c3, field):
    """A module on label maps where an arrow sends two basis vectors to one
    index: both are tops, and the one they reach is not."""
    ab = orc.build_algebra(c3, FIELDS[field])
    a = ab.q.arrows[0]
    dims = {w: 0 for w in ab.vertices}
    dims[a.source], dims[a.target] = 2, 1
    rep = orc.Rep(ab.field, dims, maps={
        b.id: [0, 0] if b is a else [None] * dims[b.source] for b in ab.q.arrows})
    assert orc.cover_map(ab, rep)[0] == [a.source, a.source]
    assert_same_cover(ab, rep)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", [*FIXTURES, "interior_triangle", "k4"])
def test_the_report_covers_no_tower_through_its_unit_vectors(
        field, name, monkeypatch):
    """The report covers every tower off its label maps, never through
    `submodule_cover` of the unit vectors."""
    def cover(ab, ambient, sub):
        if ambient.maps is not None and sub == {
                w: [{c: 1} for c in range(n)] for w, n in ambient.dims.items()}:
            raise AssertionError("a tower was covered through its unit vectors")
        return submodule_cover(ab, ambient, sub)

    submodule_cover = orc.submodule_cover
    monkeypatch.setattr(orc, "submodule_cover", cover)
    ab = orc.build_algebra(_quiver(name), FIELDS[field])
    assert orc.full_oracle_report(ab).ok


@pytest.mark.parametrize("name", ["c5", "q7", "q9", "k4"])
def test_every_elimination_of_the_report_goes_through_modp(name, monkeypatch):
    """Over GF(p) every forward elimination the report runs is inside one of
    `_modp`'s entry points, which a tracer wraps by name: pivots and ranks
    by `rref_modp`, kernels by `kernel_columns_modp`."""
    calls, stray, depth = Counter(), [], [0]

    def entry(fn_name):
        fn = getattr(_modp, fn_name)

        def wrapped(*args):
            calls[fn_name] += 1
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapped

    def counted(*args):
        if not depth[0]:
            stray.append(args)
        return echelon(*args)

    echelon = linalg.echelon
    for fn_name in ("rref_modp", "kernel_columns_modp", "nullspace_modp",
                    "matmul_modp"):
        monkeypatch.setattr(_modp, fn_name, entry(fn_name))
    monkeypatch.setattr(linalg, "echelon", counted)
    ab = orc.build_algebra(_quiver(name), FIELDS["GF"])
    assert orc.full_oracle_report(ab).ok
    assert not stray
    assert calls["rref_modp"] and calls["kernel_columns_modp"]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", [*FIXTURES, "k4"])
def test_the_report_never_takes_the_image_column_path(field, name,
                                                      monkeypatch):
    """Every module the report builds is a tower, which acts through its
    label maps: patched to raise, `cokernel_rep` is never called, and
    neither `_move` nor `_class_action` is handed a module without label
    maps.  A cokernel is not a tower, keeps one image column per basis
    vector at each arrow's source, and still takes that path."""
    def refuse(fn):
        # the module is the second argument of both
        def wrapped(*args):
            if args[1].maps is None:
                raise AssertionError("the image-column path was taken")
            return fn(*args)
        return wrapped

    def no_cokernel(*args):
        raise AssertionError("the report built a cokernel")

    real_cokernel = orc.cokernel_rep
    monkeypatch.setattr(orc, "_move", refuse(orc._move))
    monkeypatch.setattr(orc, "_class_action", refuse(orc._class_action))
    monkeypatch.setattr(orc, "cokernel_rep", no_cokernel)
    ab = orc.build_algebra(_quiver(name), FIELDS[field])
    assert orc.full_oracle_report(ab).ok
    assert all(rep.act is None and rep.maps for rep in ab._modules.values())
    M = real_cokernel(ab, orc.radical_presentation(ab, ab.vertices[0]))
    assert M.maps is None and list(M.dims) == ab.vertices
    assert all(len(M.act[a.id]) == M.dims[a.source] for a in ab.q.arrows)
    with pytest.raises(AssertionError, match="image-column path"):
        orc._move(ab.field, M, ab.q.arrows[0].id, {})
    with pytest.raises(AssertionError, match="image-column path"):
        orc._class_action(ab, M, 0)


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


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", [*FIXTURES, *GLUED])
def test_resolutions_and_cokernels_match_the_dense_cover_path(field, name):
    """2N resolve steps from every radical, and the cokernel of each
    presentation, equal the dense top-generator and quotient path."""
    ab = orc.build_algebra(_quiver(name), FIELDS[field])
    for x in ab.vertices:
        pres = orc.radical_presentation(ab, x)
        ref = dense_minimal_presentation(ab, ab.radical_rep(x))
        for step in range(2 * weight_report(ab.q).half + 1):
            if step:
                pres, ref = orc.resolve_step(ab, pres), dense_resolve_step(ab, ref)
            assert pres == ref, (x, step)
            got, want = orc.cokernel_rep(ab, pres), dense_cokernel_rep(ab, ref)
            assert got.dims == want.dims, (x, step)
            assert got.act == want.act, (x, step)


def unreduced_presentation(ab):
    """On c3, tower(1, 1, 1) -> its cokernel, whose image at vertex 2 is
    spanned by e1 and e0 + e1 + e2.  Forward elimination finds pivot 1 first
    and leaves the row of pivot 0 with entries at pivot 1 and at the free
    coordinate 2: a vector reduced at pivot 0 gains an entry at pivot 1."""
    a = ab.arrow_class("1->2")
    return orc.ModulePresentation(p1=[2, 2], p0=[1, 1, 1], entries={
        (1, 0): [(1, a)], (0, 1): [(1, a)], (1, 1): [(1, a)], (2, 1): [(1, a)]})


@pytest.mark.parametrize("field", FOUR_FIELDS)
def test_forward_reduction_quotient_equals_the_back_substituted_one(field):
    """`cokernel_rep` reduces each vector against forward echelon rows, pivot
    by pivot in increasing order.  Over Q, GF(2), GF(3) and GF(32003) it
    gives the module that the back-substituted RREF gives
    (`dense_cokernel_rep`), and the Hom between cokernels read off a
    presentation equals the dense references on those modules: on a
    presentation whose echelon rows are not reduced and come out of pivot
    order, and on random ones."""
    F = FOUR_FIELDS[field]
    rng = random.Random(19)
    for name in ("c3", "q7", "q9"):
        ab = orc.build_algebra(load_fixture(name), F)
        presentations = [random_presentation(ab, rng, 5) for _ in range(15)]
        if name == "c3":
            presentations.insert(0, unreduced_presentation(ab))
            cols = orc.presentation_columns(ab, presentations[0])[2][2]
            assert list(linalg.echelon(cols, F.p)) == [1, 0]
        modules = []
        for pres in presentations:
            got, want = orc.cokernel_rep(ab, pres), dense_cokernel_rep(ab, pres)
            assert got.dims == want.dims and got.act == want.act, (name, pres)
            modules.append((pres, got, want))
        for (pm, _, M), (_, N, want_N) in itertools.chain(
                zip(modules, modules), zip(modules, modules[1:])):
            assert (orc._pres_hom_dims(ab, pm, N)
                    == dense_hom_dims(ab, M, want_N)), (name, pm)


def test_submodule_cover_rejects_a_subspace_that_is_not_a_submodule(c3):
    """The radical of a subspace that is not closed under the arrows is not
    inside it, whether the subspace is zero at the arrow's target or not."""
    ab = orc.build_algebra(c3, 32003)
    tower = orc.tower_rep(ab, [1, 2])
    pos = positions(ab, tower)
    const = {v: ab.constant_class[v] for v in ab.vertices}
    sub = {w: [] for w in tower.dims}
    sub[1] = [{pos[1][(0, const[1])]: 1}]
    with pytest.raises(orc.OracleError, match="not inside the subspace"):
        orc.submodule_cover(ab, tower, sub)
    sub[2] = [{pos[2][(1, const[2])]: 1}]
    with pytest.raises(orc.OracleError, match="not inside the subspace"):
        orc.submodule_cover(ab, tower, sub)
    # the whole tower is covered by its two tops
    units = {w: [{c: 1} for c in range(n)] for w, n in tower.dims.items()}
    summands, gens = orc.submodule_cover(ab, tower, units)
    assert summands == [1, 2]
    assert gens == [(1, {pos[1][(0, const[1])]: 1}), (2, {pos[2][(1, const[2])]: 1})]


def test_submodule_cover_rejects_a_radical_vector_on_a_vertex_without_basis(c3):
    """A subspace not closed under the arrows is refused however it leaves
    out the vertex its radical lands on: absent from sub, or with no basis,
    in any key order; and where that vertex has a basis without it."""
    ab = orc.build_algebra(c3, 32003)
    tower = orc.tower_rep(ab, [1, 2])
    pos = positions(ab, tower)
    top1 = {pos[1][(0, ab.constant_class[1])]: 1}
    top2 = {pos[2][(1, ab.constant_class[2])]: 1}
    for sub in ({1: [top1]}, {1: [top1], 2: []}, {2: [], 1: [top1]},
                {3: [], 1: [top1]}, {2: [top2], 1: [top1]}):
        with pytest.raises(orc.OracleError, match="not inside the subspace"):
            orc.submodule_cover(ab, tower, sub)


@pytest.mark.parametrize("name", ["c3", "q9"])
def test_a_vector_outside_a_towers_support_raises(name):
    """A tower keeps nothing at a vertex where it has no basis: the zero
    vector there moves to zero, and a nonzero one raises `OracleError` in
    `_move`, in `submodule_cover`, in `_tower_map`, and as a presentation
    entry, never dropped.  `submodule_cover` refuses it on a module that is
    not a tower too, whose matrices would drop it.  A presentation entry
    whose class does not run from its p0 vertex to its p1 vertex raises,
    wherever it would land."""
    ab = orc.build_algebra(_quiver(name), 32003)
    F = ab.field
    tower = ab.radical_rep(ab.vertices[0])
    empty = [v for v in ab.vertices if not tower.dims.get(v, 0)]
    assert empty
    for u in empty:
        assert u not in tower.dims
        assert u not in tower.labels and u not in tower.start
        for a in ab.q.out_arrows[u]:
            assert a.id not in tower.maps
            assert orc._move(F, tower, a.id, {}) == {}
            with pytest.raises(orc.OracleError, match="no basis"):
                orc._move(F, tower, a.id, {0: 1})
            with pytest.raises(orc.OracleError, match="no basis"):
                orc._move(F, tower, a.id, {0: 1, 1: 2})
        assert orc.submodule_cover(ab, tower, {u: []}) == ([], [])
        with pytest.raises(orc.OracleError, match="no basis"):
            orc.submodule_cover(ab, tower, {u: [{0: 1}]})
        M = orc.cokernel_rep(ab, orc.radical_presentation(ab, ab.vertices[0]))
        assert not M.dims[u]
        with pytest.raises(orc.OracleError, match="no basis"):
            orc.submodule_cover(ab, M, {u: [{0: 1}]})
        # the top of P(u) sent to a vector at u, where the target is empty
        with pytest.raises(orc.OracleError, match="no basis"):
            orc._tower_map(ab, [u], tower, [{0: 1}])
    x, u = next((x, u) for x in ab.vertices for u in ab.vertices
                if not ab.projective(x).dims.get(u, 0))
    a = ab.q.out_arrows[x][0]
    bad = [
        # at p1[0] = u, where tower(p0) = P(x) is empty
        ([u], [x], ab.arrow_class(ab.q.in_arrows[u][0].id)),
        # at u, where P(u) has a basis but summand 0, P(x), has none
        ([u], [x, u], ab.constant_class[u]),
        # from x, but to the arrow's target rather than to p1[0] = x: its
        # rank would land on the constant of P(x)
        ([x], [x], ab.arrow_class(a.id)),
    ]
    for p1, p0, cid in bad:
        pres = orc.ModulePresentation(p1=p1, p0=p0, entries={(0, 0): [(1, cid)]})
        with pytest.raises(orc.OracleError, match="does not run from"):
            orc.presentation_columns(ab, pres)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ["c5", "q9", "k4"])
def test_submodule_cover_of_a_partial_sub_equals_every_vertex_present(field, name):
    """On the kernel of each presentation map of the radicals and of their
    next resolution step, `submodule_cover` given only the vertices with a
    basis, in shuffled order, or with their empty bases left in among
    them, gives what it gives with every vertex present in vertex order."""
    F = FIELDS[field]
    ab = orc.build_algebra(_quiver(name), F)
    rng = random.Random(43)
    for x in ab.vertices:
        pres = orc.radical_presentation(ab, x)
        for p in (pres, orc.resolve_step(ab, pres)):
            t1, _, cols = orc.presentation_columns(ab, p)
            full = {w: F.kernel_columns(cols.get(w, [])) for w in ab.vertices}
            want = orc.submodule_cover(ab, t1, full)
            assert want[0] == orc.resolve_step(ab, p).p1
            held = [w for w in ab.vertices if full[w]]
            some = held + [w for w in ab.vertices if not full[w] and rng.random() < 0.5]
            for keys in (held, some):
                rng.shuffle(keys)
                assert orc.submodule_cover(ab, t1, {w: full[w] for w in keys}) == want


@pytest.mark.parametrize("field", FIELDS)
def test_kernel_cover_of_unit_heavy_maps_equals_the_dense_nullspace(field, monkeypatch):
    """On random maps between random towers that send most tops to a unit
    vector, whose image columns are then mostly empty or unit, the kernel
    `_kernel_cover` takes at each vertex equals the dense nullspace's
    columns, and its cover and entries equal the dense reference's; a
    vertex without columns asks for no kernel."""
    F = FIELDS[field]
    rng = random.Random(47)
    ab = orc.build_algebra(load_fixture("q9"), F)
    asked = []
    kernel_columns = F.kernel_columns
    monkeypatch.setattr(F, "kernel_columns",
                        lambda cols: asked.append(cols) or kernel_columns(cols))
    for _ in range(60):
        target = orc.tower_rep(ab, [rng.choice(ab.vertices)
                                    for _ in range(rng.randint(1, 3))])
        summands = list(target.dims)
        summands = [rng.choice(summands) for _ in range(rng.randint(1, 3))]
        tops = []
        for v in summands:
            i, j = rng.randrange(target.dims[v]), rng.randrange(target.dims[v])
            tops.append({} if rng.random() < 0.1 else {i: 1}
                        if rng.random() < 0.8 or i == j
                        else {i: 1, j: _entry(F, rng) or 1})
        t1, cols = orc._tower_map(ab, summands, target, tops)
        asked.clear()
        got = orc._kernel_cover(ab, t1, cols)
        assert asked == [c for c in cols.values() if c]
        mats = as_matrices(ab, target, cols)
        assert got == dense_kernel_cover(ab, t1, mats)
        kernel = {w: kernel_columns(cols.get(w, [])) for w in ab.vertices}
        for w in ab.vertices:
            want = dense_nullspace(F, dense(mats[w])).columns()
            assert ([sorted(c.items()) for c in kernel[w]]
                    == [sorted(c.items()) for c in want]), w


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


def test_rep_outlives_the_algebra_it_came_from(c3):
    """A rep is plain data: kept after its algebra is dropped, it still
    works with an algebra rebuilt from the same quiver."""
    M = orc.build_algebra(c3, 32003).radical_rep(1)
    ab2 = orc.build_algebra(c3, 32003)
    assert orc._pres_hom_dims(ab2, orc.minimal_presentation(ab2, M), M) == (1, 1)
