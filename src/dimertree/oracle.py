"""Brute-force path-algebra oracle.

Models the quotient of the path algebra by the cyclic-derivative relations of
the potential, over GF(p) or the exact rationals, with a basis of path
classes found by rewriting words.  On top of that basis it computes minimal
projective presentations, Hom/Ext spaces and stable Hom spaces of modules,
which serve as ground truth for the geometric model.

Everything the oracle builds from an algebra is built once and kept on its
`AlgebraBasis`: its modules, in one cache keyed by summand list and kind,
and the minimal presentations of the radicals with the next resolution step
of each (`ModulePresentation._next`).  One constructor, `tower_rep`, makes
every module: the direct sum of the projectives P(v) over a summand list,
or of their radicals.  On such a tower an arrow only relabels the basis,
(i, c) to (i, c * arrow), so it keeps one label map per arrow, read off the
class table, and no matrix.  A tower holds only its support: labels and
offsets at the vertices where it has a basis, and label maps for the
arrows out of them; every other vertex is empty, and a nonzero vector
there raises `OracleError`.  The basis at w comes summand by summand, each
block in `by_pair` order, so label (i, c) sits at the offset
start[w][i] plus `pair_rank[c]`, the index of c in its `by_pair` list:
positions are sums, with no position dict.  Each `Rep` keeps its
projective cover (`cover_map`) once computed.  Callers must not mutate a
cached object.  A `Rep` is plain data: its field, its dimensions, its
label maps (or, on a module that is not a tower, such as `cokernel_rep`
makes, its arrow matrices), its basis labels and their offsets, with no
reference to the algebra, so every function that needs the algebra takes
it first.

The report reuses these modules rather than rebuilding them.  The Ext check
runs one complex per vertex j against rad B, the direct sum of all the
rad P(x), and reads each Ext^1(rad P(j), rad P(x)) off the blocks of its
ranks.  Hom and stable Hom are read off the cached minimal presentations:
Hom(coker f, N) is the kernel of Hom(f, N) on the tops of the tower, and
the maps through a projective are the same kernel into the cover of N,
projected through the cover.

Covers, kernels and presentations share one vector format: a sparse dict
{coordinate: nonzero entry}, the shape of a `Matrix` row.  One helper,
`_move`, applies an arrow to a vector: through the label map on a tower,
through `_apply` of the matrix on any other module.  Hom blocks read a
class's action on a tower off the class table (`_class_action`).  One
routine, `_tower_map`, gives a map out of a tower as its image columns at
each vertex where the tower has a basis, from the images of its tops, one
move per basis vector: the projective cover and the map of a presentation.  Its kernel at
a vertex with columns is `Field.kernel_columns`, read straight off columns
that are empty or unit vectors, as almost all are, and one forward
elimination otherwise.  A tower is covered off its label maps: its tops
are the basis vectors no arrow reaches.  One routine, `submodule_cover`,
covers the kernel of a map out of a tower, and a module that is not a
tower given its unit vectors; both bases have leads, so a vector's
coordinates are read off without another row reduction, and only the
pivots of those coordinates are needed.
Every elimination goes through the `Field`: `rref`, with reduced=False
where only pivots or a rank are read, `kernel_columns` and `nullspace`.

Relation structure: a boundary arrow contributes a single vanishing word (the
rest of its cycle); an interior arrow equates the complementary words of its
two cycles, with signs from the potential that must make it u = +v.  Each is a
rule word -> smaller word or word -> 0, and Knuth-Bendix completion resolves
every overlap of two left sides, keeping them free of one another.  By
Bergman's diamond lemma each word then has one normal form, so the normal
words, those with no left side as a factor, are a basis: the path classes.
"""
from __future__ import annotations

import dataclasses
import heapq
import itertools
from collections import Counter
from dataclasses import dataclass

from .linalg import (DEFAULT_PRIME, Field, Matrix, _eliminate, from_columns,
                     parse_field_spec)
from .quiver import (
    Check,
    Potential,
    Quiver,
    Report,
    StructureReport,
    _vkey,
    build_potential,
    dimer_tree_structure,
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
    prefix: int | None = None  # the class of word[:-1]; None for a constant

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


# -- rewriting --------------------------------------------------------------------
#
# A rule lhs -> rhs rewrites a word to a smaller one in the (length, arrow ids)
# order, or to None, the zero.  `lengths` lists the left sides' lengths, ascending.

def _has_factor(w: Word, f: Word) -> bool:
    n = len(f)
    return f[0] in w and any(w[i:i + n] == f for i in range(len(w) - n + 1))


def _reduce(rules: dict, lengths: list[int], word: Word,
            normal: int = 0) -> Word | None:
    """Normal form of word, or None when it is zero, given that its first
    `normal` letters are normal.  Letters move onto `out` one at a time, and
    `out` never holds a left side, so only its suffixes are tested."""
    out, todo = word[:normal], list(reversed(word[normal:]))
    while todo:
        out += (todo.pop(),)
        for k in lengths:
            if k > len(out):
                break
            if out[-k:] in rules:
                rhs = rules[out[-k:]]
                if rhs is None:
                    return None
                out = out[:-k]
                todo.extend(reversed(rhs))
                break
    return out


def _complete(pairs) -> dict[Word, Word | None]:
    """Knuth-Bendix completion of the word equations u = v (v None for zero),
    smallest first: a pair whose normal forms differ becomes a rule, larger to
    smaller.  It takes out the rules whose left side contains it (back into the
    heap), rewrites right sides, and queues its overlaps with every rule: where
    a left side a ends in what b begins with, a + b[k:] rewrites two ways."""
    rules: dict[Word, Word | None] = {}
    lengths: list[int] = []
    heap: list = []
    seq = itertools.count()

    def push(w, u, v):
        heapq.heappush(heap, (len(w), w, next(seq), u, v))

    for u, v in pairs:
        push(u, u, v)
    while heap:
        *_, u, v = heapq.heappop(heap)
        u, v = (None if w is None else _reduce(rules, lengths, w) for w in (u, v))
        if u == v:
            continue
        if u is None or (v is not None and (len(u), u) < (len(v), v)):
            u, v = v, u
        lengths = sorted({*lengths, len(u)})
        rules[u] = v
        for lhs, rhs in list(rules.items()):
            if len(lhs) > len(u) and _has_factor(lhs, u):
                del rules[lhs]
                push(lhs, lhs, rhs)
                continue
            if rhs is not None and _has_factor(rhs, u):
                rhs = rules[lhs] = _reduce(rules, lengths, rhs)
            for (a, ra), (b, rb) in (((u, v), (lhs, rhs)), ((lhs, rhs), (u, v))):
                for k in range(1, min(len(a), len(b)) if b[0] in a else 0):
                    if a[-k:] == b[:k]:
                        push(a + b[k:], None if ra is None else ra + b[k:],
                             None if rb is None else a[:-k] + rb)
    return rules


# ---------------------------------------------------------------------------
# algebra basis
# ---------------------------------------------------------------------------

class AlgebraBasis:
    """Finite basis of nonzero path classes, with the action of each arrow."""

    def __init__(self, q: Quiver, structure: StructureReport,
                 potential: Potential, field: Field):
        self.q = q
        self.structure = structure
        self.potential = potential
        self.field = field
        self.vertices = q.sorted_vertices()
        self.classes: list[PathClass] = []
        self.constant_class: dict[object, int] = {}
        self.by_pair: dict[tuple[object, object], list[int]] = {}
        # class -> its index in by_pair[(source, target)]
        self.pair_rank: list[int] = []
        # v -> (w, by_pair[(v, w)]) for each w with a class from v
        self.blocks_from: dict[object, list[tuple[object, list[int]]]] = {
            v: [] for v in self.vertices}
        # v -> the classes from v, in class order: the constant first, and
        # each class after its prefix
        self.from_vertex: dict[object, list[int]] = {v: [] for v in self.vertices}
        self.stabilization_length = 0
        self.cap = 0
        # arrow -> {class: class of their product, or None when it vanishes}
        self._act: dict[str, dict[int, int | None]] = {a.id: {} for a in q.arrows}
        # (summands, radical) -> the module `tower_rep` built for them
        self._modules: dict[tuple, "Rep"] = {}
        self._pres_cache: dict[object, ModulePresentation] = {}

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        F = self.field
        sign_of = {c.key: s for s, c in self.potential.terms}
        pairs: list[tuple[Word, Word | None]] = []
        for a in self.q.arrows:
            # one cycle through a boundary arrow, two through an interior one
            owners = self.structure.cycles_of_arrow(a.id)
            u, *v = (_cycle_word_without(c, a.id) for c in owners)
            # su u + sv v = 0 makes u = +v only when su + sv = 0; any other
            # coefficient would make a class a multiple of a word
            if v and not F.is_zero(F.add(*(F.scalar(sign_of[c.key]) for c in owners))):
                raise OracleError(f"class of path {u} is not a single path class; "
                                  "input is not a dimer tree quiver")
            pairs.append((u, v[0] if v else None))
        self._classes(_complete(pairs))

    def _classes(self, rules: dict) -> None:
        """Classes and action table from completed rules, in (length, arrow
        ids) order: constants, arrows, then each class times each arrow where
        that is a new normal word.  With m the longest left side, a normal
        word longer than m - 1 plus the number of normal words of length m - 1
        repeats a window of length m - 1, and pumping the stretch between the
        two gives normal words of every length: the algebra is infinite."""
        lengths = sorted({len(lhs) for lhs in rules})
        m = self.cap = lengths[-1]
        sizes: Counter = Counter()
        cid_of: dict[Word, int] = {}

        def add(src, tgt, w, prefix):
            if len(w) > sizes[m - 1] + m - 1:
                windows = [w[i:i + m - 1] for i in range(len(w) - m + 2)]
                raise OracleError(
                    f"algebra not finite-dimensional: the normal word {w} is "
                    f"longer than {sizes[m - 1] + m - 1} and repeats the window "
                    f"{next(x for i, x in enumerate(windows) if x in windows[:i])}")
            sizes[len(w)] += 1
            cid = cid_of[w] = len(self.classes)
            self.classes.append(PathClass(cid, src, tgt, w, prefix))
            block = self.by_pair.setdefault((src, tgt), [])
            self.pair_rank.append(len(block))
            block.append(cid)
            self.from_vertex[src].append(cid)
            return cid

        for v in self.vertices:
            self.constant_class[v] = add(v, v, (), None)
        out = {v: sorted(self.q.out_arrows[v], key=lambda a: a.id)
               for v in self.vertices}
        for a in sorted(self.q.arrows, key=lambda a: a.id):
            if (a.id,) not in rules:
                add(a.source, a.target, (a.id,), self.constant_class[a.source])
        for c in self.classes:                 # the list grows as it is read
            for a in out[c.target]:
                w = c.word + (a.id,)
                nf = _reduce(rules, lengths, w, len(c.word))
                if nf == w and c.word:
                    add(c.source, a.target, w, c.cid)
                self._act[a.id][c.cid] = None if nf is None else cid_of[nf]
        for (src, tgt), block in self.by_pair.items():
            self.blocks_from[src].append((tgt, block))
        # 1 + the longest nonzero path, walked one arrow per level; the walk
        # ends, since the arrow ideal of a finite algebra is nilpotent
        level = set(self.constant_class.values())
        while level:
            level = {n for c in level for a in out[self.classes[c].target]
                     if (n := self._act[a.id][c]) is not None}
            self.stabilization_length += 1

    # -- queries ------------------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.classes)

    def dim_pair(self, i, j) -> int:
        return len(self.by_pair.get((i, j), []))

    def class_of_word(self, word, at_vertex=None) -> int | None:
        """Class id of a composable arrow word, or None if zero in the algebra."""
        word = tuple(word)
        if not word and at_vertex is None:
            raise OracleError("constant path needs a vertex")
        prev = None
        for aid in word:
            a = self.q.arrow_by_id.get(aid)
            if a is None:
                raise OracleError(f"unknown arrow {aid!r}")
            if prev is not None and prev != a.source:
                raise OracleError(f"word {word} is not composable at {aid}")
            prev = a.target
        start = self.q.arrow_by_id[word[0]].source if word else at_vertex
        return self._walk(self.constant_class[start], word)

    def mult(self, c1: int, c2: int) -> int | None:
        """Product of classes, c1 then c2; None when the product vanishes."""
        k1, k2 = self.classes[c1], self.classes[c2]
        if k1.target != k2.source:
            raise OracleError(f"classes {c1} and {c2} are not composable")
        return self._walk(c1, k2.word)

    def _walk(self, cid: int | None, word: Word) -> int | None:
        """The class cid times a word composable with it, arrow by arrow."""
        for aid in word:
            cid = None if cid is None else self._act[aid][cid]
        return cid

    def arrow_class(self, arrow_id: str) -> int:
        cid = self.class_of_word((arrow_id,))
        if cid is None:
            raise OracleError(f"arrow {arrow_id} vanishes in the algebra")
        return cid

    # -- cached representations ----------------------------------------------

    def projective(self, v) -> "Rep":
        return tower_rep(self, (v,))

    def radical_rep(self, v) -> "Rep":
        return tower_rep(self, (v,), radical=True)


def build_algebra(q: Quiver, field: str | int | Field = DEFAULT_PRIME,
                  potential: Potential | None = None) -> AlgebraBasis:
    structure = dimer_tree_structure(q, "oracle")
    if potential is None:
        potential = build_potential(q, structure)
    fld = field if isinstance(field, Field) else parse_field_spec(field)
    ab = AlgebraBasis(q, structure, potential, fld)
    ab._build()
    return ab


# ---------------------------------------------------------------------------
# representations (right modules as quiver representations)
# ---------------------------------------------------------------------------

class Rep:
    """dims[v] is the dimension at v, for every vertex v.  On a module
    `tower_rep` builds, an arrow acts by its label map: maps[arrow][j] is
    the index at the arrow's target of basis vector j at its source, or
    None where the arrow sends it to zero.  A tower keeps labels, offsets
    and label maps only on its support, the vertices where it has a basis,
    and the arrows out of them: any other vertex is empty, and a nonzero
    vector there raises `OracleError`.  labels[w] names the basis at w, the
    pairs (i, c) of a summand index and a path class, and label (i, c) has
    index start[w][i] + pair_rank[c] (`AlgebraBasis.pair_rank`).  On any
    other module an arrow acts by its matrix act[arrow], from the space at
    the source to the space at the target (columns index the source
    basis)."""

    def __init__(self, field: Field, dims, act=None, labels=None, maps=None,
                 start=None):
        self.field = field
        self.dims = dims
        self.act = act
        self.maps = maps
        self.labels = labels or {}
        self.start = start or {}
        self._cover: tuple | None = None

    def word_matrix(self, word: Word, source):
        """Matrix of the right action of a composable word starting at
        source, on a module whose arrows act by matrices."""
        if not word:
            return self.field.eye(self.dims[source])
        m = self.act[word[0]]
        for aid in word[1:]:
            m = self.field.matmul(self.act[aid], m)
        return m


def tower_rep(ab: AlgebraBasis, summands, radical: bool = False) -> Rep:
    """The direct sum of the P(v), v in summands, or of their radicals.

    Its basis at w is the pairs (i, c), c a path class from summands[i] to
    w, non-constant when `radical`, summand by summand, each block in
    `by_pair` order; so (i, c) sits at start[w][i] + pair_rank[c].  The
    constant at v = summands[i] heads its block by_pair[(v, v)], so a
    radical leaves it out by starting that block one index early.  An
    arrow sends (i, c) to (i, c * arrow), or to zero when that product
    vanishes, which is its label map.  Only the vertices where the tower
    has a basis, and the arrows out of them, are kept.  Built once per
    summand list and kind and kept on `ab`: callers must not mutate it."""
    key = (tuple(summands), radical)
    rep = ab._modules.get(key)
    if rep is None:
        n = len(key[0])
        labels: dict[object, list] = {}
        start: dict[object, list] = {}
        for i, v in enumerate(key[0]):
            for w, block in ab.blocks_from[v]:
                skip = radical and w == v
                if len(block) > skip:
                    lab = labels.get(w)
                    if lab is None:
                        lab = labels[w] = []
                        start[w] = [None] * n
                    start[w][i] = len(lab) - skip
                    for c in block[skip:]:
                        lab.append((i, c))
        dims = dict.fromkeys(ab.vertices, 0)
        maps = {}
        rank, act = ab.pair_rank, ab._act
        for s, lab in labels.items():
            dims[s] = len(lab)
            for a in ab.q.out_arrows[s]:
                into, times = start.get(a.target), act[a.id]
                maps[a.id] = ([None] * len(lab) if into is None else
                              [None if (p := times[c]) is None else into[i] + rank[p]
                               for i, c in lab])
        rep = ab._modules[key] = Rep(ab.field, dims, labels=labels, maps=maps,
                                     start=start)
    return rep


def presentation_columns(ab: AlgebraBasis, pres: ModulePresentation):
    """The towers of p1 and p0, and the vertex-wise image columns of the
    tower map tower(p1) -> tower(p0), which sends the top of summand k to
    the sum of its entries' classes."""
    F = ab.field
    t0 = tower_rep(ab, pres.p0)
    classes, rank = ab.classes, ab.pair_rank
    tops: list[dict] = [{} for _ in pres.p1]
    for (l, k), combo in pres.entries.items():
        v, w = pres.p0[l], pres.p1[k]
        into, top = t0.start.get(w), tops[k]
        for coeff, cid in combo:
            # a class from v to w is a label of tower(p0) at w, so into[l]
            # is set; any other class would land on another label's index
            if classes[cid].source != v or classes[cid].target != w:
                raise OracleError(f"entry {(l, k)}: class {cid} does not run "
                                  f"from {v!r} to {w!r}")
            r = into[l] + rank[cid]
            x = F.add(top.pop(r, 0), F.scalar(coeff))
            if x:
                top[r] = x
    t1, cols = _tower_map(ab, pres.p1, t0, tops)
    return t1, t0, cols


def _tower_map(ab: AlgebraBasis, summands, target: Rep, tops: list[dict]):
    """The tower of the summands, and the vertex-wise image columns of the
    map from it to target that sends the top of summand li to tops[li]:
    cols[w][j] is the image of basis vector j at w, in target coordinates.

    The basis vector (li, c) goes to tops[li] times c: the image of
    (li, prefix of c) moved by the last arrow of c.  The classes from each
    summand come prefix first, so each basis vector takes one move, and in
    the order of the tower's labels, so its image is the next column.
    cols has a key only where the tower has a basis."""
    F = ab.field
    classes = ab.classes
    tower = tower_rep(ab, summands)
    cols: dict[object, list[dict]] = {w: [] for w in tower.labels}
    for li, v in enumerate(summands):
        image: dict[int, dict] = {}
        for c in ab.from_vertex[v]:
            cls = classes[c]
            vec = image[c] = (tops[li] if cls.prefix is None else
                              _move(F, target, cls.word[-1], image[cls.prefix]))
            cols[cls.target].append(vec)
    return tower, cols


# -- sparse vectors ---------------------------------------------------------------
#
# A vector is a sparse dict {coordinate: nonzero entry}, the shape of a
# `Matrix` row.

def _apply(F: Field, mat: Matrix, vec: dict) -> dict:
    """mat times vec, over the nonzero entries of both."""
    add, mul = F.add, F.mul
    out = {}
    for i, row in enumerate(mat.rows):
        acc = 0
        for j, v in row.items():
            x = vec.get(j)
            if x:
                acc = add(acc, mul(v, x))
        if acc:
            out[i] = acc
    return out


def _move(F: Field, rep: Rep, aid: str, vec: dict) -> dict:
    """The arrow aid of rep applied to vec: through its label map on a
    tower, through `_apply` of its matrix on any other module.  A tower has
    no label map out of a vertex without basis, where only the zero vector
    moves."""
    if rep.maps is None:
        return _apply(F, rep.act[aid], vec)
    to = rep.maps.get(aid)
    if to is None:
        if vec:
            raise OracleError(f"vector {vec} lies at the source of {aid}, "
                              "where the module has no basis")
        return {}
    out: dict = {}
    for j, x in vec.items():
        i = to[j]
        if i is None:
            continue
        if i in out:
            x = F.add(out[i], x)
            if not x:
                del out[i]
                continue
        out[i] = x
    return out


def _combine(F: Field, basis: list[dict], coeffs: dict) -> dict:
    """The sum of coeffs[k] * basis[k]."""
    out: dict = {}
    for k, c in coeffs.items():
        for j, x in basis[k].items():
            out[j] = F.add(out.get(j, 0), F.mul(c, x))
    return {j: x for j, x in out.items() if x}


# -- covers, kernels, presentations ---------------------------------------------

def submodule_cover(ab: AlgebraBasis, ambient: Rep, sub: dict[object, list]):
    """Projective cover of a submodule of ambient: summand vertices, and one
    generator (w, vector) per summand, the vector in ambient coordinates.

    sub[w] is a basis of the submodule at w.  Each basis vector must have a
    lead: entry 1 at its largest coordinate, where every other basis vector
    at w is zero.  Unit vectors have one, which covers a whole module, and
    so do the `Field.kernel_columns` of a matrix.  The coordinates of a
    vector of the submodule are then its entries at the leads.  The
    generators are the basis vectors outside the span of the radical, the
    images of the basis under the arrows.  sub may leave a vertex out; a
    nonzero vector at a vertex where ambient is empty raises.

    Only the vertices with a basis move it, in the order of `sub`: the
    pivots of forward elimination depend only on the span, so the
    generators do not depend on that order.  Only the vertices in `sub` or
    reached by a radical vector are read, in vertex order."""
    F = ab.field
    radical: dict[object, list] = {}
    for v, basis in sub.items():
        if not basis:
            continue
        if not ambient.dims[v] and any(basis):
            raise OracleError(f"vector {next(filter(None, basis))} at {v!r}, "
                              "where the module has no basis")
        for a in ab.q.out_arrows[v]:
            for vec in basis:
                moved = _move(F, ambient, a.id, vec)
                if moved:
                    radical.setdefault(a.target, []).append(moved)
    gens = []
    for w in [w for w in ab.vertices if w in sub or w in radical]:
        basis, vecs = sub.get(w), radical.get(w)
        if vecs is None:
            if basis:
                gens += [(w, b) for b in basis]
            continue
        if not basis:
            raise OracleError("vector not inside the subspace")
        lead = {max(b): k for k, b in enumerate(basis)}
        coords: list[dict] = []
        for vec in vecs:
            c = {lead[j]: x for j, x in vec.items() if j in lead}
            if _combine(F, basis, c) != vec:
                raise OracleError("vector not inside the subspace")
            coords.append(c)
        # one-entry coordinate vectors are their own pivots
        pivots = ({k for c in coords for k in c} if all(len(c) == 1 for c in coords)
                  else set(F.rref(Matrix(coords, len(basis)), reduced=False)[1]))
        gens += [(w, b) for k, b in enumerate(basis) if k not in pivots]
    return [w for w, _ in gens], gens


def cover_map(ab: AlgebraBasis, rep: Rep):
    """Projective cover tower -> rep, where rep is a module over ab.

    Returns (summand vertices, vertex-wise image columns, tower rep).  It
    is computed on the first call and kept on `rep`, so callers must not
    mutate it.  On a tower an arrow sends basis vectors to basis vectors,
    so the tops are the basis vectors no label map reaches, in vertex then
    index order; any other module is covered through `submodule_cover` of
    its unit vectors."""
    if rep._cover is None:
        if rep.maps is None:
            units = {w: [{c: 1} for c in range(n)] for w, n in rep.dims.items()}
            summands, gens = submodule_cover(ab, rep, units)
        else:
            arrows = ab.q.arrow_by_id
            reached = {(arrows[aid].target, i)
                       for aid, to in rep.maps.items() for i in to}
            gens = [(w, {i: 1}) for w in ab.vertices
                    for i in range(rep.dims[w]) if (w, i) not in reached]
            summands = [w for w, _ in gens]
        tower, cols = _tower_map(ab, summands, rep, [g for _, g in gens])
        rep._cover = summands, cols, tower
    return rep._cover


def _kernel_cover(ab: AlgebraBasis, tower: Rep, cols):
    """Cover of the kernel of the map out of a tower of projectives with
    vertex-wise image columns cols, at each vertex with columns the
    `Field.kernel_columns` of its columns, kept where it is not zero: the
    summand vertices, and the presentation entries of each generator, read
    off its tower coordinates."""
    kernel_columns = ab.field.kernel_columns
    kernel = {w: k for w, c in cols.items() if c and (k := kernel_columns(c))}
    summands, gens = submodule_cover(ab, tower, kernel)
    entries: dict[tuple[int, int], list[tuple[object, int]]] = {}
    for k, (w, g) in enumerate(gens):
        labels = tower.labels[w]
        for i in sorted(g):
            li, cls = labels[i]
            entries.setdefault((li, k), []).append((g[i], cls))
    return summands, entries


def minimal_presentation(ab: AlgebraBasis, rep: Rep) -> ModulePresentation:
    """Projective cover of rep, then cover of the kernel of the cover."""
    summands, cols, tower = cover_map(ab, rep)
    p1, entries = _kernel_cover(ab, tower, cols)
    if any(ab.classes[cls].is_constant
           for combo in entries.values() for _, cls in combo):
        raise OracleError("presentation is not minimal: constant entry")
    return ModulePresentation(p1=p1, p0=list(summands), entries=entries)


def resolve_step(ab: AlgebraBasis, pres: ModulePresentation) -> ModulePresentation:
    """Next presentation in the minimal resolution: its cokernel is the syzygy
    of coker(pres).  It is computed on the first call and kept on `pres`, so
    later calls return the same object; `pres` belongs to `ab`, whose class
    ids its entries use."""
    if pres._next is None:
        t1, _, cols = presentation_columns(ab, pres)
        p2, entries = _kernel_cover(ab, t1, cols)
        pres._next = ModulePresentation(p1=p2, p0=list(pres.p1), entries=entries)
    return pres._next


def cokernel_rep(ab: AlgebraBasis, pres: ModulePresentation) -> Rep:
    """Materialize coker(tower(p1) -> tower(p0)) as a representation whose
    arrows act by matrices.

    At each vertex the quotient's basis is the unit vectors at the
    coordinates that are not pivots of the image's RREF; a vector is
    reduced against the RREF rows and read at those coordinates."""
    F = ab.field
    _, t0, images = presentation_columns(ab, pres)
    pivot_rows, free = {}, {}
    for w in ab.vertices:
        red, piv = F.rref(Matrix(images.get(w, []), t0.dims[w]))
        pivot_rows[w] = dict(zip(piv, red.rows))
        free[w] = {c: k for k, c in enumerate(
            c for c in range(t0.dims[w]) if c not in pivot_rows[w])}
    act = {}
    for a in ab.q.arrows:
        s, t = a.source, a.target
        cols = []
        for c in free[s]:
            vec = _move(F, t0, a.id, {c: 1})
            for p, x in list(vec.items()):
                if p in pivot_rows[t]:
                    _eliminate(vec, x, pivot_rows[t][p], F.p)
            cols.append({free[t][j]: x for j, x in vec.items()})
        act[a.id] = from_columns(len(free[t]), cols)
    return Rep(F, {w: len(f) for w, f in free.items()}, act)


# ---------------------------------------------------------------------------
# Hom and Ext
# ---------------------------------------------------------------------------

def hom_tower_matrix(ab: AlgebraBasis, pres: ModulePresentation, N: Rep):
    """Matrix of Hom(tower(p0), N) -> Hom(tower(p1), N), phi -> phi o f."""
    F = ab.field
    add, mul = F.add, F.mul
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
    # entry (l, k) fills its own block, rows of p1[k] by columns of p0[l]:
    # each class of the entry maps N at p0[l] into N at p1[k]
    rows: list[dict] = [{} for _ in range(total_rows)]
    for (l, k), combo in pres.entries.items():
        r0, c0 = row_offsets[k], col_offsets[l]
        for coeff, cid in combo:
            c = F.scalar(coeff)
            for i, j, x in _class_action(ab, N, cid):
                out = rows[r0 + i]
                y = add(out.pop(c0 + j, 0), mul(c, x))
                if y:
                    out[c0 + j] = y
    return Matrix(rows, total_cols)


def _class_action(ab: AlgebraBasis, N: Rep, cid: int):
    """The nonzero entries (i, j, x) of the matrix by which the class cid
    acts on N: on a tower read off the class table, (i, b) to (i, b * cid),
    on any other module the product of its arrow matrices."""
    cls = ab.classes[cid]
    if N.maps is None:
        return [(i, j, x) for i, row in
                enumerate(N.word_matrix(cls.word, cls.source).rows)
                for j, x in row.items()]
    labels = N.labels.get(cls.source)
    if labels is None:
        return []
    into, rank, walk, word = N.start.get(cls.target), ab.pair_rank, ab._walk, cls.word
    return [(into[i] + rank[p], j, 1) for j, (i, b) in enumerate(labels)
            if (p := walk(b, word)) is not None]


def _pres_hom_dims(ab: AlgebraBasis, pres: ModulePresentation,
                   N: Rep) -> tuple[int, int]:
    """(dim Hom(M, N), dim stable Hom(M, N)) for M = coker pres.

    Hom(M, N) is the kernel of Hom(T0, N) -> Hom(T1, N), a map out of T0
    given by its values at the tops of the summands.  A map factors through
    a projective exactly when it lifts through the cover pi: P_N -> N; the
    lifts are the same kernel into P_N, and pi at p0[l] takes block l of a
    lift to block l of its composite, so one product projects them all."""
    F = ab.field
    hom = hom_tower_matrix(ab, pres, N)
    dim_hom = hom.ncols - F.rank(hom)
    if not dim_hom:
        return 0, 0
    _, pi_cols, towerN = cover_map(ab, N)
    lifts = F.nullspace(hom_tower_matrix(ab, pres, towerN))
    if not lifts.ncols:
        return dim_hom, dim_hom
    proj: list[dict] = []
    offset = 0
    for v in pres.p0:
        proj.extend({offset + i: x for i, x in col.items()}
                    for col in pi_cols.get(v, ()))
        offset += N.dims[v]
    return dim_hom, dim_hom - F.rank(F.matmul(from_columns(offset, proj), lifts))


def _ext1_complex(ab: AlgebraBasis, pres: ModulePresentation, N: Rep):
    """Hom(-, N) of the three-term resolution of coker pres: the matrices
    d0: Hom(T0,N) -> Hom(T1,N) and d1: Hom(T1,N) -> Hom(T2,N), checked to
    compose to zero."""
    F = ab.field
    d0 = hom_tower_matrix(ab, pres, N)
    d1 = hom_tower_matrix(ab, resolve_step(ab, pres), N)
    if not F.is_zero_matrix(F.matmul(d1, d0)):
        raise OracleError("resolution differentials do not compose to zero")
    return d0, d1


def _ext1_by_tag(ab: AlgebraBasis, pres: ModulePresentation, N: Rep) -> Counter:
    """dim Ext^1(coker pres, N_x) for every summand index x of a direct sum
    N of the N_x from `tower_rep`, from one complex against N.  A single
    projective or radical has the one index 0.

    Both differentials are block-diagonal in x, so their echelon forms are
    too: the rank of block x is the number of pivot columns tagged x, read
    off forward elimination alone."""
    F = ab.field
    d0, d1 = _ext1_complex(ab, pres, N)
    t0, t1 = ([x for v in p for x, _ in N.labels.get(v, ())]
              for p in (pres.p0, pres.p1))
    ext = Counter(t1)                      # dim Hom(T1, N_x)
    for d, tags in ((d0, t0), (d1, t1)):
        for c in F.rref(d, reduced=False)[1]:
            ext[tags[c]] -= 1
    return ext


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

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
    weight = ab.structure.path_weights("cycle" if side == "right" else "cocycle")
    if arrow_id not in weight:
        raise OracleError(f"{arrow_id} is not a boundary arrow")
    a = ab.q.arrow_by_id[arrow_id]
    ac = ab.arrow_class(arrow_id)
    if side == "right":
        always = all(
            ab.mult(c, ac) is not None
            for v in ab.q.vertices
            for c in ab.by_pair.get((v, a.source), []))
    elif side == "left":
        always = all(
            ab.mult(ac, c) is not None
            for v in ab.q.vertices
            for c in ab.by_pair.get((a.target, v), []))
    else:
        raise OracleError(f"unknown side {side!r}")
    return always == (weight[arrow_id] == 1)


def schurian_report(ab: AlgebraBasis) -> Report:
    """`schurian_check` as one item that lists the counterexamples."""
    ok, counter = schurian_check(ab)
    return Report([Check("schurian", ok, "; ".join(counter))])


def extension_report(ab: AlgebraBasis) -> Report:
    """`extension_lemma_check` on both sides of every boundary arrow."""
    return Report([Check(f"extension_{side}[{a}]",
                         extension_lemma_check(ab, a, side))
                   for a in ab.structure.boundary_arrows
                   for side in ("right", "left")])


def radical_presentation(ab: AlgebraBasis, x) -> ModulePresentation:
    """Minimal presentation of rad P(x), computed from covers and kernels."""
    if x not in ab._pres_cache:
        ab._pres_cache[x] = minimal_presentation(ab, ab.radical_rep(x))
    return ab._pres_cache[x]


def boundary_vanishing_check(ab: AlgebraBasis) -> Report:
    """For every arrow i->j: Ext^1(syzygy of rad P(i), rad P(j)) = 0.
    For boundary arrows additionally: stable Hom(rad P(j), rad P(i)) = 0."""
    items = []
    for a in ab.q.arrows:
        omega_pres = resolve_step(ab, radical_presentation(ab, a.source))
        d = _ext1_by_tag(ab, omega_pres, ab.radical_rep(a.target))[0]
        items.append(Check(
            f"ext1_syzygy_rad_vanishes[{a.id}]", d == 0,
            "" if d == 0 else f"dim {d}"))
    boundary = set(ab.structure.boundary_arrows)
    for a in ab.q.arrows:
        if a.id not in boundary:
            continue
        d = _pres_hom_dims(ab, radical_presentation(ab, a.target),
                           ab.radical_rep(a.source))[1]
        items.append(Check(
            f"stable_hom_rad_vanishes[{a.id}]", d == 0,
            "" if d == 0 else f"dim {d}"))
    return Report(items)


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
    """Ext^1(rad P(j), rad P(x)) is nonzero exactly when the arrow j->x exists.

    Each j runs one complex against rad B, the direct sum of the rad P(x),
    whose summands are indexed by the position of x in `ab.vertices`."""
    rad_b = tower_rep(ab, ab.vertices, radical=True)
    items = []
    for j in ab.vertices:
        ext = _ext1_by_tag(ab, radical_presentation(ab, j), rad_b)
        for i, x in enumerate(ab.vertices):
            d = ext[i]
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
        end, stable_end = _pres_hom_dims(ab, radical_presentation(ab, x),
                                         ab.radical_rep(x))
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
