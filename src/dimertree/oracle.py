"""Brute-force path-algebra oracle.

Models the quotient of the path algebra by the cyclic-derivative relations of
the potential, by explicit linear algebra on paths over GF(p) or the exact
rationals.  On top of the resulting basis of path classes it computes minimal
projective presentations, Hom/Ext spaces and stable Hom spaces of modules,
which serve as ground truth for the geometric model.

Everything the oracle builds from an algebra is built once and kept on its
`AlgebraBasis`: the projectives and radicals of projectives, the towers
(direct sums of projectives, one per summand list), the minimal
presentations of the radicals with the next resolution step of each
(`ModulePresentation._next`), and the boundary vanishing report.  Callers
must not mutate a cached object.  A `Rep` refers to its algebra weakly, so
the caches go with the algebra; a `Rep` is usable only while its algebra is
alive, and raises `OracleError` after.

Relation structure: a boundary arrow contributes a single vanishing word (the
rest of its cycle); an interior arrow equates the complementary words of its
two cycles, with signs taken from the potential.  Path spaces are spanned
lengthwise up to an adaptive cap and quotiented by all products
x * (relation) * y whose terms fit under the cap; a build is accepted only
once every class above a stabilization length is zero, with enough margin
that no relation product reaching past the cap could change the answer.
"""
from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass

from .linalg import DEFAULT_PRIME, Field, Matrix, parse_field_spec, rref_rows
from .quiver import (
    Check,
    Potential,
    Quiver,
    QuiverError,
    Report,
    StructureReport,
    WeightReport,
    _vkey,
    build_potential,
    validate_dimer_tree,
    weight_report,
)

Word = tuple[str, ...]


class OracleError(RuntimeError):
    pass


@dataclass(frozen=True)
class PathClass:
    cid: int
    source: object
    target: object
    word: Word                 # shortest representative; () for a constant

    @property
    def is_constant(self) -> bool:
        return not self.word


@dataclass
class ModulePresentation:
    """Minimal presentation tower(p1) -> tower(p0) -> M -> 0.

    entries[(l, k)] is the component mapping summand P(p1[k]) into summand
    P(p0[l]): a list of (coefficient, class id) with every class a
    non-constant path class from p0[l] to p1[k].

    A presentation is not mutated after construction: `resolve_step` keeps
    its result in `_next`, which `dataclasses.replace` does not copy.
    """
    p1: list
    p0: list
    entries: dict[tuple[int, int], list[tuple[object, int]]]
    _next: ModulePresentation | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def summand_multisets(self):
        return (tuple(sorted(self.p1, key=_vkey)),
                tuple(sorted(self.p0, key=_vkey)))


def _cycle_word_without(cycle, arrow_id: str) -> Word:
    i = cycle.arrows.index(arrow_id)
    return tuple(cycle.arrows[i + 1:]) + tuple(cycle.arrows[:i])


# ---------------------------------------------------------------------------
# algebra basis
# ---------------------------------------------------------------------------

class AlgebraBasis:
    """Finite basis of nonzero path classes with a multiplication table."""

    def __init__(self, q: Quiver, structure: StructureReport,
                 potential: Potential, weights: WeightReport, field: Field):
        self.q = q
        self.structure = structure
        self.potential = potential
        self.weights = weights
        self.field = field
        self.vertices = q.sorted_vertices()
        self.classes: list[PathClass] = []
        self.constant_class: dict[object, int] = {}
        self.by_pair: dict[tuple[object, object], list[int]] = {}
        self.stabilization_length = 0
        self.cap = 0
        self._word_class: dict[Word, int | None] = {}
        self._rep_cache: dict[object, "Rep"] = {}
        self._tower_cache: dict[tuple, tuple["Rep", dict]] = {}
        self._pres_cache: dict[object, ModulePresentation] = {}
        self._vanishing_report: Report | None = None

    # -- construction -------------------------------------------------------

    def _build(self, max_cap: int | None) -> None:
        q = self.q
        sign_of = {c.key: s for s, c in self.potential.terms}
        forbidden: list[Word] = []
        relations = []
        for a in q.arrows:
            owners = self.structure.cycles_of_arrow(a.id)
            if len(owners) == 1:
                forbidden.append(_cycle_word_without(owners[0], a.id))
            elif len(owners) == 2:
                u = _cycle_word_without(owners[0], a.id)
                v = _cycle_word_without(owners[1], a.id)
                relations.append((u, v, sign_of[owners[0].key],
                                  sign_of[owners[1].key], a.target, a.source))
        max_cycle = max(len(c) for c in self.structure.cycles)
        delta = max((abs(len(u) - len(v)) for u, v, *_ in relations), default=0)
        cap = max(3 * max_cycle, 12)
        hard_cap = max(max_cap or 4 * len(q.arrows), cap)
        while True:
            if self._try_build(forbidden, relations, cap, delta):
                return
            if cap >= hard_cap:
                raise OracleError(f"algebra not finite-dimensional at cap {cap}")
            cap = min(hard_cap, cap + delta + 4)

    def _enumerate_paths(self, forbidden: list[Word], cap: int):
        """All composable arrow words of length <= cap avoiding the vanishing
        words, in (length, lex) order."""
        q = self.q
        words: list[Word] = []
        index: dict[Word, int] = {}
        frontier: list[tuple[Word, object]] = []
        for a in sorted(q.arrows, key=lambda a: a.id):
            w = (a.id,)
            index[w] = len(words)
            words.append(w)
            frontier.append((w, a.target))
        length = 1
        while frontier and length < cap:
            nxt = []
            for w, tv in frontier:
                for a in sorted(q.out_arrows[tv], key=lambda a: a.id):
                    new = w + (a.id,)
                    if any(new[-len(f):] == f for f in forbidden):
                        continue
                    index[new] = len(words)
                    words.append(new)
                    nxt.append((new, a.target))
            frontier = nxt
            length += 1
        by_source: dict[object, list[Word]] = {v: [] for v in q.vertices}
        by_target: dict[object, list[Word]] = {v: [] for v in q.vertices}
        for w in words:
            by_source[q.arrow_by_id[w[0]].source].append(w)
            by_target[q.arrow_by_id[w[-1]].target].append(w)
        return words, index, by_source, by_target

    def _try_build(self, forbidden, relations, cap, delta) -> bool:
        F = self.field
        words, index, by_source, by_target = self._enumerate_paths(forbidden, cap)

        # columns count down from the last word, so each row's pivot is its
        # longest word and each reduced row gives the normal form of its pivot
        last = len(words) - 1
        zero = F.scalar(0)
        one = F.scalar(1)
        rows = []
        for u, v, su, sv, src, tgt in relations:
            xs = [()] + by_target[src]
            ys = [()] + by_source[tgt]
            for x in xs:
                lu, lv = len(x) + len(u), len(x) + len(v)
                if min(lu, lv) > cap:
                    continue
                for y in ys:
                    if max(lu, lv) + len(y) > cap:
                        continue
                    row: dict[int, object] = {}
                    t1 = index.get(x + u + y)
                    t2 = index.get(x + v + y)
                    if t1 is not None:
                        row[last - t1] = F.scalar(su)
                    if t2 is not None:
                        val = F.add(row.get(last - t2, zero), F.scalar(sv))
                        if F.is_zero(val):
                            row.pop(last - t2, None)
                        else:
                            row[last - t2] = val
                    if row:
                        rows.append(row)

        # reduced class of every word: itself, or minus the rest of its row
        memo: list[dict[int, object]] = [{idx: one} for idx in range(len(words))]
        for c, row in rref_rows(rows, F.p):
            memo[last - c] = {last - j: F.neg(x) for j, x in row.items() if j != c}

        longest = 0
        for idx, m in enumerate(memo):
            if m:
                longest = max(longest, len(words[idx]))
        n0 = longest + 1
        if n0 + delta > cap:
            return False

        for idx, m in enumerate(memo):
            if len(m) > 1 or (m and not F.is_zero(F.add(next(iter(m.values())),
                                                        F.neg(one)))):
                raise OracleError(
                    f"class of path {words[idx]} is not a single path class; "
                    "input is not a dimer tree quiver")

        self.cap = cap
        self.stabilization_length = n0
        self.classes = []
        self.constant_class = {}
        self.by_pair = {}
        self._word_class = {}
        self._rep_cache = {}
        self._tower_cache = {}
        self._pres_cache = {}
        self._vanishing_report = None
        for v in self.vertices:
            cid = len(self.classes)
            self.classes.append(PathClass(cid, v, v, ()))
            self.constant_class[v] = cid
            self.by_pair.setdefault((v, v), []).append(cid)
        basis_of_idx: dict[int, int] = {}
        for idx, w in enumerate(words):
            if memo[idx] == {idx: one}:
                cid = len(self.classes)
                src = self.q.arrow_by_id[w[0]].source
                tgt = self.q.arrow_by_id[w[-1]].target
                self.classes.append(PathClass(cid, src, tgt, w))
                self.by_pair.setdefault((src, tgt), []).append(cid)
                basis_of_idx[idx] = cid
        for idx, w in enumerate(words):
            m = memo[idx]
            self._word_class[w] = basis_of_idx[next(iter(m))] if m else None
        return True

    # -- queries ------------------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.classes)

    def dim_pair(self, i, j) -> int:
        return len(self.by_pair.get((i, j), []))

    def class_of_word(self, word, at_vertex=None) -> int | None:
        """Class id of a composable arrow word, or None if zero in the algebra."""
        word = tuple(word)
        if not word:
            if at_vertex is None:
                raise OracleError("constant path needs a vertex")
            return self.constant_class[at_vertex]
        prev = None
        for aid in word:
            a = self.q.arrow_by_id.get(aid)
            if a is None:
                raise OracleError(f"unknown arrow {aid!r}")
            if prev is not None and prev != a.source:
                raise OracleError(f"word {word} is not composable at {aid}")
            prev = a.target
        return self._word_class.get(word)

    def mult(self, c1: int, c2: int) -> int | None:
        """Product of classes, c1 then c2; None when the product vanishes."""
        k1, k2 = self.classes[c1], self.classes[c2]
        if k1.target != k2.source:
            raise OracleError(f"classes {c1} and {c2} are not composable")
        if k1.is_constant:
            return c2
        if k2.is_constant:
            return c1
        # both words are composable and they meet, so no need to check again
        return self._word_class.get(k1.word + k2.word)

    def arrow_class(self, arrow_id: str) -> int:
        cid = self.class_of_word((arrow_id,))
        if cid is None:
            raise OracleError(f"arrow {arrow_id} vanishes in the algebra")
        return cid

    def multiplication_table(self) -> dict[tuple[int, int], int | None]:
        """Products of all composable class pairs; None marks a zero product."""
        table = {}
        for c1 in self.classes:
            for c2 in self.classes:
                if c1.target == c2.source:
                    table[(c1.cid, c2.cid)] = self.mult(c1.cid, c2.cid)
        return table

    def weight_entry(self, arrow_id: str):
        for e in self.weights.entries:
            if e.arrow == arrow_id:
                return e
        raise OracleError(f"{arrow_id} is not a boundary arrow")

    # -- cached representations ----------------------------------------------

    def projective(self, v) -> "Rep":
        return tower_rep(self, (v,))[0]

    def radical_rep(self, v) -> "Rep":
        if v not in self._rep_cache:
            labels = {w: [(0, c) for c in self.by_pair.get((v, w), ())
                          if not self.classes[c].is_constant]
                      for w in self.vertices}
            self._rep_cache[v] = _class_rep(self, labels)[0]
        return self._rep_cache[v]


def build_algebra(q: Quiver, field: str | int | Field = DEFAULT_PRIME,
                  potential: Potential | None = None,
                  max_cap: int | None = None) -> AlgebraBasis:
    report = validate_dimer_tree(q)
    if not report.ok:
        raise QuiverError("oracle requires a valid dimer tree quiver: failed "
                          + ", ".join(c.name for c in report.failed()))
    structure = report.structure
    if potential is None:
        potential = build_potential(q, structure)
    weights = weight_report(q, structure)
    fld = field if isinstance(field, Field) else parse_field_spec(field)
    ab = AlgebraBasis(q, structure, potential, weights, fld)
    ab._build(max_cap)
    return ab


# ---------------------------------------------------------------------------
# representations (right modules as quiver representations)
# ---------------------------------------------------------------------------

class Rep:
    """dims[v] is the dimension at v; act[arrow] maps the space at the arrow's
    source to the space at its target (columns index the source basis).

    The algebra is held weakly, so that an algebra and its cached reps are
    freed together as soon as the algebra is dropped."""

    def __init__(self, ab: AlgebraBasis, dims, act, labels=None):
        self._ab = weakref.ref(ab)
        self.field = ab.field
        self.dims = dims
        self.act = act
        self.labels = labels or {}
        self._word_cache: dict[tuple, object] = {}

    @property
    def ab(self) -> AlgebraBasis:
        ab = self._ab()
        if ab is None:
            raise OracleError("the algebra of this representation is gone")
        return ab

    def word_matrix(self, word: Word, source):
        """Matrix of the right action of a composable word starting at source."""
        if not word:
            return self.field.eye(self.dims[source])
        key = (word, source)
        if key not in self._word_cache:
            m = self.act[word[0]]
            for aid in word[1:]:
                m = self.field.matmul(self.act[aid], m)
            self._word_cache[key] = m
        return self._word_cache[key]

    def class_matrix(self, cid: int):
        k = self.ab.classes[cid]
        return self.word_matrix(k.word, k.source)


def _class_rep(ab: AlgebraBasis, labels: dict) -> tuple[Rep, dict]:
    """The module with basis labels[w] at each vertex w, each basis element a
    pair (tag, class), on which an arrow sends (tag, c) to (tag, c * arrow),
    or to zero when that product vanishes or is not in the basis.  Returns the
    rep and pos[w][(tag, class)], the index of a basis element at w."""
    pos = {w: {t: i for i, t in enumerate(lab)} for w, lab in labels.items()}
    act = {}
    for a in ab.q.arrows:
        ac = ab.arrow_class(a.id)
        into = pos[a.target]
        rows: list[dict] = [{} for _ in labels[a.target]]
        for i, (tag, c) in enumerate(labels[a.source]):
            r = into.get((tag, ab.mult(c, ac)))
            if r is not None:
                rows[r][i] = 1
        act[a.id] = Matrix(rows, len(labels[a.source]))
    dims = {w: len(lab) for w, lab in labels.items()}
    return Rep(ab, dims, act, labels=labels), pos


def tower_rep(ab: AlgebraBasis, summands) -> tuple[Rep, dict]:
    """Direct sum of projectives P(v); coordinates are (summand index, class).

    Built once per summand list and kept on `ab`: callers must not mutate
    the rep or `pos`."""
    key = tuple(summands)
    tower = ab._tower_cache.get(key)
    if tower is None:
        labels = {w: [(li, c) for li, sv in enumerate(key)
                      for c in ab.by_pair.get((sv, w), ())]
                  for w in ab.vertices}
        tower = ab._tower_cache[key] = _class_rep(ab, labels)
    return tower


def presentation_matrices(ab: AlgebraBasis, pres: ModulePresentation):
    """Vertex-wise matrices of the tower map tower(p1) -> tower(p0)."""
    F = ab.field
    t1, _ = tower_rep(ab, pres.p1)
    t0, pos0 = tower_rep(ab, pres.p0)
    entries_by_col: dict[int, list[tuple[int, object, int]]] = {}
    for (l, k), combo in pres.entries.items():
        for coeff, ecls in combo:
            entries_by_col.setdefault(k, []).append((l, coeff, ecls))
    mats = {}
    for w in ab.vertices:
        m = F.zeros(t0.dims[w], t1.dims[w])
        for col, (k, c) in enumerate(t1.labels[w]):
            for l, coeff, ecls in entries_by_col.get(k, ()):
                prod = ab.mult(ecls, c)
                if prod is not None:
                    r = pos0[w][(l, prod)]
                    m[r, col] = F.add(m[r, col], F.scalar(coeff))
        mats[w] = m
    return t1, t0, mats


# -- subspace utilities ---------------------------------------------------------

def _columns(F: Field, mat) -> list[list]:
    m, n = F.shape(mat)
    cols = [[0] * m for _ in range(n)]
    for i, row in enumerate(mat.rows):
        for j, x in row.items():
            cols[j][i] = x
    return cols


def _nonzero_cols(F: Field, mat) -> list[list]:
    """The nonzero columns of mat, dense, in column order."""
    m = len(mat.rows)
    cols: dict[int, list] = {}
    for i, row in enumerate(mat.rows):
        for j, x in row.items():
            cols.setdefault(j, [0] * m)[i] = x
    return [cols[j] for j in sorted(cols)]


def _from_columns(F: Field, nrows: int, cols: list) -> Matrix:
    rows: list[dict] = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in enumerate(col):
            if x:
                rows[i][j] = x
    return Matrix(rows, len(cols))


def _apply(F: Field, mat, vec: list) -> list:
    """mat times the dense vector vec, over the nonzero entries of mat."""
    add, mul = F.add, F.mul
    out = []
    for row in mat.rows:
        acc = 0
        for j, v in row.items():
            x = vec[j]
            if x:
                acc = add(acc, mul(v, x))
        out.append(acc)
    return out


class _Quotient:
    """Coordinates for F^n modulo the span of the given column vectors."""

    def __init__(self, F: Field, n: int, cols: list):
        self.F = F
        self.n = n
        if cols:
            red, piv = F.rref(F.matrix([list(c) for c in cols], ncols=n))
            self.rows = [[red[i, j] for j in range(n)] for i in range(len(piv))]
            self.pivots = list(piv)
        else:
            self.rows, self.pivots = [], []
        pivset = set(self.pivots)
        self.free = [c for c in range(n) if c not in pivset]

    def dim(self) -> int:
        return len(self.free)

    def project(self, vec: list) -> list:
        F = self.F
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if not F.is_zero(c):
                v = [F.add(x, F.neg(F.mul(c, r))) for x, r in zip(v, row)]
        return [v[c] for c in self.free]

    def lift(self, k: int) -> list:
        v = [self.F.scalar(0)] * self.n
        v[self.free[k]] = self.F.scalar(1)
        return v


def _coords_in_columns(F: Field, bas_cols: list, n: int, targets: list) -> list[list]:
    """Coordinates of each target vector in the span of the basis columns
    (columns assumed independent, targets assumed inside the span)."""
    k = len(bas_cols)
    aug = _from_columns(F, n, bas_cols + targets)
    red, piv = F.rref(aug)
    for pc in piv:
        if pc >= k:
            raise OracleError("vector not inside the subspace")
    out = []
    for j in range(len(targets)):
        out.append([red[i, k + j] for i in range(k)])
    return out


# -- covers, kernels, presentations ---------------------------------------------

def radical_columns(rep: Rep) -> dict[object, list]:
    cols: dict[object, list] = {w: [] for w in rep.dims}
    F = rep.field
    for a in rep.ab.q.arrows:
        cols[a.target].extend(_nonzero_cols(F, rep.act[a.id]))
    return cols


def top_generators(rep: Rep) -> dict[object, list]:
    """Unit-vector lifts of a basis of top M = M / rad M, per vertex."""
    F = rep.field
    rad = radical_columns(rep)
    gens: dict[object, list] = {}
    for w, n in rep.dims.items():
        if n == 0:
            gens[w] = []
            continue
        if rad[w]:
            _, piv = F.rref(F.matrix([list(c) for c in rad[w]], ncols=n))
            pivset = set(piv)
        else:
            pivset = set()
        out = []
        for c in range(n):
            if c not in pivset:
                v = [F.scalar(0)] * n
                v[c] = F.scalar(1)
                out.append(v)
        gens[w] = out
    return gens


def cover_map(ab: AlgebraBasis, rep: Rep):
    """Projective cover tower -> rep.

    Returns (summand vertices, vertex-wise matrices, tower rep, generators)."""
    F = ab.field
    gens = top_generators(rep)
    summands: list = []
    gen_list: list[tuple[object, list]] = []
    for w in ab.vertices:
        for g in gens[w]:
            summands.append(w)
            gen_list.append((w, g))
    tower, _ = tower_rep(ab, summands)
    mats = {}
    for w in ab.vertices:
        cols = []
        for (li, c) in tower.labels[w]:
            gv, gvec = gen_list[li]
            mat = rep.word_matrix(ab.classes[c].word, gv)
            cols.append(_apply(F, mat, gvec))
        mats[w] = _from_columns(F, rep.dims[w], cols)
    return summands, mats, tower, gen_list


def kernel_subspaces(F: Field, tower: Rep, mats) -> dict[object, list]:
    out = {}
    for w, n in tower.dims.items():
        out[w] = _columns(F, F.nullspace(mats[w])) if n else []
    return out


def submodule_cover(ab: AlgebraBasis, ambient: Rep, sub: dict[object, list]):
    """Cover of a submodule of a tower/rep: summand vertices plus generator
    vectors (in ambient coordinates)."""
    F = ab.field
    radcols: dict[object, list] = {w: [] for w in ambient.dims}
    for a in ab.q.arrows:
        for col in sub[a.source]:
            moved = _apply(F, ambient.act[a.id], col)
            if any(not F.is_zero(x) for x in moved):
                radcols[a.target].append(moved)
    summands: list = []
    gen_list: list[tuple[object, list]] = []
    for w in ab.vertices:
        basis = sub[w]
        if not basis:
            continue
        if radcols[w]:
            coords = _coords_in_columns(F, basis, ambient.dims[w], radcols[w])
            _, piv = F.rref(F.matrix(coords, ncols=len(basis)))
            pivset = set(piv)
        else:
            pivset = set()
        for ci in range(len(basis)):
            if ci not in pivset:
                summands.append(w)
                gen_list.append((w, basis[ci]))
    return summands, gen_list


def tower_entries_of_generators(ab: AlgebraBasis, tower: Rep, gen_list):
    """Presentation entries of generators living inside a tower of projectives."""
    F = ab.field
    entries: dict[tuple[int, int], list[tuple[object, int]]] = {}
    for k, (w, gvec) in enumerate(gen_list):
        for pos_idx, (li, cls) in enumerate(tower.labels[w]):
            coeff = gvec[pos_idx]
            if not F.is_zero(coeff):
                entries.setdefault((li, k), []).append((coeff, cls))
    return entries


def minimal_presentation(ab: AlgebraBasis, rep: Rep) -> ModulePresentation:
    """Projective cover of rep, then cover of the kernel of the cover."""
    summands, mats, tower, _ = cover_map(ab, rep)
    ker = kernel_subspaces(ab.field, tower, mats)
    p1, gen_list = submodule_cover(ab, tower, ker)
    entries = tower_entries_of_generators(ab, tower, gen_list)
    pres = ModulePresentation(p1=p1, p0=list(summands), entries=entries)
    _assert_minimal(ab, pres)
    return pres


def _assert_minimal(ab: AlgebraBasis, pres: ModulePresentation) -> None:
    for combo in pres.entries.values():
        for _, cls in combo:
            if ab.classes[cls].is_constant:
                raise OracleError("presentation is not minimal: constant entry")


def resolve_step(ab: AlgebraBasis, pres: ModulePresentation) -> ModulePresentation:
    """Next presentation in the minimal resolution: its cokernel is the syzygy
    of coker(pres).  It is computed on the first call and kept on `pres`, so
    later calls return the same object; `pres` belongs to `ab`, whose class
    ids its entries use."""
    if pres._next is None:
        F = ab.field
        t1, _, mats = presentation_matrices(ab, pres)
        ker = kernel_subspaces(F, t1, mats)
        p2, gen_list = submodule_cover(ab, t1, ker)
        entries = tower_entries_of_generators(ab, t1, gen_list)
        pres._next = ModulePresentation(p1=p2, p0=list(pres.p1), entries=entries)
    return pres._next


def cokernel_rep(ab: AlgebraBasis, pres: ModulePresentation) -> Rep:
    """Materialize coker(tower(p1) -> tower(p0)) as a representation."""
    F = ab.field
    t1, t0, mats = presentation_matrices(ab, pres)
    quots = {w: _Quotient(F, t0.dims[w], _nonzero_cols(F, mats[w]))
             for w in ab.vertices}
    dims = {w: q.dim() for w, q in quots.items()}
    act = {}
    for a in ab.q.arrows:
        cols = []
        for k in range(dims[a.source]):
            moved = _apply(F, t0.act[a.id], quots[a.source].lift(k))
            cols.append(quots[a.target].project(moved))
        act[a.id] = _from_columns(F, dims[a.target], cols)
    return Rep(ab, dims, act)


# ---------------------------------------------------------------------------
# Hom and Ext
# ---------------------------------------------------------------------------

def hom_space(M: Rep, N: Rep):
    """Basis of Hom(M, N): list of {vertex: matrix} commuting families.

    The unknowns are the entries f_v[i, j], vertex by vertex; there is one
    relation f_t Ma = Na f_s per arrow a: s -> t and entry (i, j)."""
    F = M.field
    ab = M.ab
    verts = ab.vertices
    offsets = {}
    total = 0
    for v in verts:
        offsets[v] = total
        total += M.dims[v] * N.dims[v]
    rows = []
    for a in ab.q.arrows:
        s, t = a.source, a.target
        ms, mt = M.dims[s], M.dims[t]
        if N.dims[t] * ms == 0:
            continue
        ma_cols: list[list] = [[] for _ in range(ms)]
        for k, row in enumerate(M.act[a.id].rows):
            for j, x in row.items():
                ma_cols[j].append((k, x))
        # s != t, since a dimer tree has no loops: the f_t and f_s unknowns
        # of a relation never coincide
        ot, os_ = offsets[t], offsets[s]
        for i, na_row in enumerate(N.act[a.id].rows):
            for j in range(ms):
                # (f_t Ma)_{ij} = sum_k f_t[i,k] Ma[k,j]
                row = {ot + i * mt + k: x for k, x in ma_cols[j]}
                # -(Na f_s)_{ij} = -sum_k Na[i,k] f_s[k,j]
                for k, x in na_row.items():
                    row[os_ + k * ms + j] = F.neg(x)
                rows.append(row)
    if total == 0:
        return []
    null = F.nullspace(Matrix(rows, total))
    out = [{v: F.zeros(N.dims[v], M.dims[v]) for v in verts}
           for _ in range(null.ncols)]
    for v in verts:
        base, mv = offsets[v], M.dims[v]
        for i in range(N.dims[v]):
            for j in range(mv):
                for b, x in null.rows[base + i * mv + j].items():
                    out[b][v].rows[i][j] = x
    return out


def stable_hom_dim_reps(M: Rep, N: Rep) -> int:
    """dim Hom(M,N) minus the maps that factor through the cover of N."""
    return _stable_hom_dim(M, N, hom_space(M, N))


def _stable_hom_dim(M: Rep, N: Rep, homs: list) -> int:
    """`stable_hom_dim_reps` given homs = hom_space(M, N)."""
    F = M.field
    ab = M.ab
    if not homs:
        return 0
    _, pi_mats, towerN, _ = cover_map(ab, N)
    lifts = hom_space(M, towerN)
    if not lifts:
        return len(homs)
    verts = ab.vertices
    # each projected family flattened as in hom_space, one sparse row each
    projected = []
    for g in lifts:
        row = {}
        base = 0
        for v in verts:
            m = F.matmul(pi_mats[v], g[v])
            for i, mrow in enumerate(m.rows):
                for j, x in mrow.items():
                    row[base + i * m.ncols + j] = x
            base += len(m.rows) * m.ncols
        projected.append(row)
    rank = F.rank(Matrix(projected, base))
    return len(homs) - rank


def hom_tower_matrix(ab: AlgebraBasis, pres: ModulePresentation, N: Rep):
    """Matrix of Hom(tower(p0), N) -> Hom(tower(p1), N), phi -> phi o f."""
    F = ab.field
    col_offsets = []
    total_cols = 0
    for v in pres.p0:
        col_offsets.append(total_cols)
        total_cols += N.dims[v]
    row_offsets = []
    total_rows = 0
    for v in pres.p1:
        row_offsets.append(total_rows)
        total_rows += N.dims[v]
    # entry (l, k) fills its own block, rows of p1[k] by columns of p0[l]
    rows: list[dict] = [{} for _ in range(total_rows)]
    for (l, k), combo in pres.entries.items():
        r0, c0 = row_offsets[k], col_offsets[l]
        for coeff, cls in combo:
            c = F.scalar(coeff)
            # N_{p0[l]} -> N_{p1[k]}
            for i, mrow in enumerate(N.class_matrix(cls).rows):
                out = rows[r0 + i]
                for j, x in mrow.items():
                    out[c0 + j] = F.add(out.get(c0 + j, 0), F.mul(c, x))
    return Matrix([{j: x for j, x in row.items() if x} for row in rows],
                  total_cols)


def ext1_dim_pres(ab: AlgebraBasis, Mpres: ModulePresentation, N: Rep) -> int:
    """dim Ext^1(coker Mpres, N) from the three-term resolution."""
    F = ab.field
    pres2 = resolve_step(ab, Mpres)
    d0 = hom_tower_matrix(ab, Mpres, N)    # Hom(T0,N) -> Hom(T1,N)
    d1 = hom_tower_matrix(ab, pres2, N)    # Hom(T1,N) -> Hom(T2,N)
    comp = F.matmul(d1, d0)
    if not F.is_zero_matrix(comp):
        raise OracleError("resolution differentials do not compose to zero")
    hom_t1 = F.shape(d0)[0]
    ker = hom_t1 - F.rank(d1)
    return ker - F.rank(d0)


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def path_is_nonzero(ab: AlgebraBasis, arrows) -> bool:
    return ab.class_of_word(tuple(arrows)) is not None


def schurian_check(ab: AlgebraBasis):
    """True iff all pairwise class spaces are at most one-dimensional and no
    non-constant cyclic class survives."""
    counterexamples = []
    for (i, j), cls in sorted(ab.by_pair.items(), key=lambda kv: (_vkey(kv[0][0]),
                                                                  _vkey(kv[0][1]))):
        if i == j:
            noncst = [c for c in cls if not ab.classes[c].is_constant]
            if noncst:
                counterexamples.append(
                    f"non-constant cyclic class at {i}: {ab.classes[noncst[0]].word}")
        elif len(cls) > 1:
            counterexamples.append(
                f"dim of class space {i}->{j} is {len(cls)}")
    return (not counterexamples), counterexamples


def extension_lemma_check(ab: AlgebraBasis, arrow_id: str, side: str) -> bool:
    """Extendability of nonzero classes by a boundary arrow matches its weight.

    side='right': every nonzero class into the source extends iff weight 1.
    side='left': every nonzero class out of the target coextends iff coweight 1.
    """
    entry = ab.weight_entry(arrow_id)
    a = ab.q.arrow_by_id[arrow_id]
    ac = ab.arrow_class(arrow_id)
    if side == "right":
        always = all(
            ab.mult(c, ac) is not None
            for v in ab.q.vertices
            for c in ab.by_pair.get((v, a.source), []))
        return always == (entry.weight == 1)
    if side == "left":
        always = all(
            ab.mult(ac, c) is not None
            for v in ab.q.vertices
            for c in ab.by_pair.get((a.target, v), []))
        return always == (entry.coweight == 1)
    raise OracleError(f"unknown side {side!r}")


def schurian_report(ab: AlgebraBasis) -> Report:
    """`schurian_check` as one item that lists the counterexamples."""
    ok, counter = schurian_check(ab)
    return Report([Check("schurian", ok, "; ".join(counter))])


def extension_report(ab: AlgebraBasis) -> Report:
    """`extension_lemma_check` on both sides of every boundary arrow."""
    return Report([Check(f"extension_{side}[{e.arrow}]",
                         extension_lemma_check(ab, e.arrow, side))
                   for e in ab.weights.entries for side in ("right", "left")])


def radical_presentation(ab: AlgebraBasis, x) -> ModulePresentation:
    """Minimal presentation of rad P(x), computed from covers and kernels."""
    if x not in ab._pres_cache:
        ab._pres_cache[x] = minimal_presentation(ab, ab.radical_rep(x))
    return ab._pres_cache[x]


def ext1_dim(ab: AlgebraBasis, M: ModulePresentation, N: ModulePresentation) -> int:
    return ext1_dim_pres(ab, M, cokernel_rep(ab, N))


def boundary_vanishing_check(ab: AlgebraBasis) -> Report:
    """For every arrow i->j: Ext^1(syzygy of rad P(i), rad P(j)) = 0.
    For boundary arrows additionally: stable Hom(rad P(j), rad P(i)) = 0.
    The report is computed once per algebra; callers must not mutate it."""
    if ab._vanishing_report is not None:
        return ab._vanishing_report
    items = []
    for a in ab.q.arrows:
        omega_pres = resolve_step(ab, radical_presentation(ab, a.source))
        d = ext1_dim_pres(ab, omega_pres, ab.radical_rep(a.target))
        items.append(Check(
            f"ext1_syzygy_rad_vanishes[{a.id}]", d == 0,
            "" if d == 0 else f"dim {d}"))
    boundary = set(ab.structure.boundary_arrows)
    for a in ab.q.arrows:
        if a.id not in boundary:
            continue
        d = stable_hom_dim_reps(ab.radical_rep(a.target), ab.radical_rep(a.source))
        items.append(Check(
            f"stable_hom_rad_vanishes[{a.id}]", d == 0,
            "" if d == 0 else f"dim {d}"))
    ab._vanishing_report = Report(items)
    return ab._vanishing_report


def radical_cover_arrows(ab: AlgebraBasis, x) -> tuple[tuple, tuple]:
    """Arrow-neighbour multisets predicted for the presentation of rad P(x)."""
    ins = tuple(sorted((a.source for a in ab.q.in_arrows[x]), key=_vkey))
    outs = tuple(sorted((a.target for a in ab.q.out_arrows[x]), key=_vkey))
    return ins, outs


def radical_presentation_check(ab: AlgebraBasis) -> Report:
    """Presentation of rad P(x) must have P1 = in-neighbours, P0 = out-neighbours."""
    items = []
    for x in ab.vertices:
        pres = radical_presentation(ab, x)
        got = pres.summand_multisets()
        want = radical_cover_arrows(ab, x)
        items.append(Check(
            f"radical_presentation[{x}]", got == want,
            "" if got == want else f"got {got}, predicted {want}"))
    return Report(items)


def radical_ext_arrow_check(ab: AlgebraBasis) -> Report:
    """Ext^1(rad P(j), rad P(x)) is nonzero exactly when the arrow j->x exists."""
    items = []
    for j in ab.vertices:
        pres_j = radical_presentation(ab, j)
        for x in ab.vertices:
            d = ext1_dim_pres(ab, pres_j, ab.radical_rep(x))
            has_arrow = ab.q.arrow_between(j, x) is not None
            ok = (d != 0) == has_arrow
            items.append(Check(
                f"ext_iff_arrow[{j}->{x}]", ok,
                "" if ok else f"ext1 dim {d}, arrow present: {has_arrow}"))
    return Report(items)


def radical_indecomposability_check(ab: AlgebraBasis) -> Report:
    """Each rad P(x) is indecomposable (scalar endomorphism ring) and
    non-projective (its identity does not factor through a projective)."""
    items = []
    for x in ab.vertices:
        M = ab.radical_rep(x)
        homs = hom_space(M, M)
        end = len(homs)
        stable_end = _stable_hom_dim(M, M, homs)
        items.append(Check(
            f"radical_indecomposable[{x}]", end == 1,
            "" if end == 1 else f"End dim {end}"))
        items.append(Check(
            f"radical_non_projective[{x}]", stable_end > 0,
            "" if stable_end else "identity factors through a projective"))
    return Report(items)


# The sections of the oracle report, in the order `dimertree oracle --check
# all` prints them.  Each names its functions; they are looked up when the
# report runs, so that wrappers patched over the module's functions
# (perfbench's tracer) are the ones called.
SECTIONS = {
    "schurian": ("schurian_report",),
    "extension": ("extension_report",),
    "radicals": ("radical_presentation_check", "radical_ext_arrow_check",
                 "radical_indecomposability_check"),
    "boundary-ext": ("boundary_vanishing_check",),
}


def section_items(ab: AlgebraBasis, sections=tuple(SECTIONS)) -> list[Check]:
    """The items of the named sections, in the order given."""
    return [c for section in sections for name in SECTIONS[section]
            for c in globals()[name](ab).items]


def full_oracle_report(ab: AlgebraBasis) -> Report:
    return Report(section_items(ab))
