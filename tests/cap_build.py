"""The oracle's earlier basis build, kept as a differential reference.

It spans the path spaces lengthwise up to an adaptive cap and row-reduces
every relation product x * (relation) * y whose terms fit under the cap.  A
build is accepted only once every class above a stabilization length is
zero, with a margin of delta (the largest length gap of a relation) below
the cap.  On some trees with a chordless cycle that has no boundary arrow
that margin never closes, so this build gives up there; wherever it
finishes, the rewriting build in `dimertree.oracle` must give the same
classes, `by_pair`, stabilization length and multiplication table.

`_build`, `_enumerate_paths` and `_try_build` are the earlier bodies,
unchanged but that `rref_rows` and `neg` now come from `linalg_refs`;
`class_of_word` and `mult` read the all-words `_word_class` dict they
fill.
"""
from __future__ import annotations

from dimertree.linalg import DEFAULT_PRIME, Field, parse_field_spec
from dimertree.oracle import (AlgebraBasis, OracleError, PathClass, Word,
                              _cycle_word_without)
from dimertree.quiver import (PotentialTerm, Quiver, build_potential,
                              dimer_tree_structure)

from linalg_refs import neg, rref_rows


class CapLoopBasis(AlgebraBasis):
    """`AlgebraBasis` built by row reduction under a growing cap."""

    def __init__(self, *args):
        super().__init__(*args)
        self._word_class: dict[Word, int | None] = {}

    def _build(self, max_cap: int | None) -> None:
        q = self.q
        sign_of = {c.key: t.coeff
                   for c, t in zip(self.structure.cycles, self.potential)}
        forbidden: list[Word] = []
        relations = []
        for a in q.arrows:
            owners = self.structure.cycles_of_arrow(a.id)
            if len(owners) == 1:
                forbidden.append(_cycle_word_without(owners[0].arrows, a.id))
            elif len(owners) == 2:
                u = _cycle_word_without(owners[0].arrows, a.id)
                v = _cycle_word_without(owners[1].arrows, a.id)
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
        ending: dict[str, list[Word]] = {}
        for f in forbidden:
            ending.setdefault(f[-1], []).append(f)
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
                    if any(new[-len(f):] == f for f in ending.get(a.id, ())):
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
            memo[last - c] = {last - j: neg(F, x) for j, x in row.items() if j != c}

        longest = 0
        for idx, m in enumerate(memo):
            if m:
                longest = max(longest, len(words[idx]))
        n0 = longest + 1
        if n0 + delta > cap:
            return False

        for idx, m in enumerate(memo):
            if len(m) > 1 or (m and not F.is_zero(F.add(next(iter(m.values())),
                                                        neg(F, one)))):
                raise OracleError(
                    f"class of path {words[idx]} is not a single path class; "
                    "input is not a dimer tree quiver")

        self.cap = cap
        self.stabilization_length = n0
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


def build_reference(q: Quiver, field: str | int | Field = DEFAULT_PRIME,
                    potential: list[PotentialTerm] | None = None,
                    max_cap: int | None = None) -> CapLoopBasis:
    """`build_algebra` as it was, on the cap loop."""
    structure = dimer_tree_structure(q, "oracle")
    if potential is None:
        potential = build_potential(q, structure)
    fld = field if isinstance(field, Field) else parse_field_spec(field)
    ab = CapLoopBasis(q, structure, potential, fld)
    ab._build(max_cap)
    return ab
