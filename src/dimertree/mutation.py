"""Quiver-with-potential mutation and the reduction to a single cycle.

The engine provides mutation at a vertex (new composite arrows, reversed
arrows at the vertex, substitution in the potential, then elimination of
reducible 2-cycle terms), a small family of weight-checked local moves that
are derived or singular equivalences, and a driver that shrinks a dimer tree
quiver leaf cycle by leaf cycle until a single chordless cycle remains, with
the total weight preserved at every step.

Only the 2-cycle patterns produced by these moves are reduced: each member of
the 2-cycle may occur in at most one further potential term, linearly, and is
then substituted away.  Anything else is reported, never dropped.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .quiver import (
    Arrow,
    PotentialTerm,
    Quiver,
    QuiverError,
    StructureReport,
    _canonical_word,
    analyze_structure,
    build_potential,
    dimer_tree_structure,
    validate_dimer_tree,
)


class MutationError(RuntimeError):
    pass


class ReductionError(RuntimeError):
    def __init__(self, message: str, trace: "ReductionTrace | None" = None):
        super().__init__(message)
        self.trace = trace


class StepBudgetExceeded(ReductionError):
    """The reduction reached `step_budget` moves: a refusal to go on, not a
    broken invariant."""


@dataclass
class QP:
    """A quiver with potential.  `terms` may be the list `build_potential`
    keeps on a structure, so it is never mutated."""
    quiver: Quiver
    terms: list[PotentialTerm]


def qp_from_quiver(q: Quiver) -> QP:
    """Canonical quiver-with-potential: signed sum of the chordless cycles."""
    return QP(q, build_potential(q, dimer_tree_structure(q, "mutation")))


def _fresh_vertex(q: Quiver, base) -> str:
    """base', base'', ...: the first that is not a vertex of q."""
    cand = f"{base}'"
    while cand in q.out_arrows:
        cand += "'"
    return cand


def _fresh_id(q: Quiver, used: set[str], base: str) -> str:
    """base, base#2, base#3, ...: the first that is neither an arrow id of q
    nor in used, which it joins."""
    cand = base
    n = 1
    while cand in used or cand in q.arrow_by_id:
        n += 1
        cand = f"{base}#{n}"
    used.add(cand)
    return cand


def _word_is_cyclic_path(arrows: dict[str, Arrow],
                         word: tuple[str, ...]) -> bool:
    for a, b in zip(word, word[1:] + word[:1]):
        if arrows[a].target != arrows[b].source:
            return False
    return True


# ---------------------------------------------------------------------------
# mutation at a vertex
# ---------------------------------------------------------------------------

def qp_mutate(qp: QP, k) -> QP:
    """Mutation at k: composite arrows for the paths through k, arrows at k
    reversed, potential substituted, then reducible 2-cycle terms eliminated.

    The elimination works on the term list, so the mutated `Quiver` is built
    once, as one edit of q."""
    q = qp.quiver
    if k not in q.out_arrows:
        raise MutationError(f"unknown vertex {k!r}")
    ins, outs = q.in_arrows[k], q.out_arrows[k]
    for a in ins:
        if q.arrow_between(k, a.source) is not None:
            raise MutationError(f"2-cycle through {k!r}; mutation undefined")

    composite: dict[tuple[str, str], str] = {}
    reverse: dict[str, str] = {}
    added: list[Arrow] = []
    used: set[str] = set()
    for a in ins:
        for b in outs:
            cid = _fresh_id(q, used, f"[{a.id}.{b.id}]")
            composite[(a.id, b.id)] = cid
            added.append(Arrow(cid, a.source, b.target))
    for a in ins + outs:
        rid = _fresh_id(q, used, f"{a.id}~")
        reverse[a.id] = rid
        added.append(Arrow(rid, a.target, a.source))

    in_ids = {a.id for a in ins}
    out_ids = {a.id for a in outs}
    at_k = in_ids | out_ids
    new_terms: list[PotentialTerm] = []
    for t in qp.terms:
        word = t.word
        if at_k.isdisjoint(word):
            new_terms.append(t)
            continue
        # rotate so the word does not start at k, then substitute composites
        start = next((i for i, aid in enumerate(word)
                      if q.arrow_by_id[aid].source != k), None)
        if start is None:
            raise MutationError(f"potential term {word} never leaves {k!r}")
        word = word[start:] + word[:start]
        out: list[str] = []
        i = 0
        while i < len(word):
            aid = word[i]
            if aid in in_ids:
                nxt = word[(i + 1) % len(word)]
                if nxt not in out_ids:
                    raise MutationError(
                        f"term {word} enters {k!r} but does not leave")
                out.append(composite[(aid, nxt)])
                i += 2
            else:
                out.append(aid)
                i += 1
        new_terms.append(PotentialTerm(t.coeff, tuple(out)))
    for a in ins:
        for b in outs:
            new_terms.append(PotentialTerm(
                1, (composite[(a.id, b.id)], reverse[b.id], reverse[a.id])))

    new_terms, gone = _eliminate_two_cycles(new_terms)
    out_q = q.edit(drop=at_k | gone.intersection(q.arrow_by_id),
                   add=[a for a in added if a.id not in gone])
    # a term kept as it was keeps its arrows; the others must be cycles
    kept = {id(t) for t in qp.terms}
    for t in new_terms:
        if id(t) not in kept and not _word_is_cyclic_path(out_q.arrow_by_id,
                                                          t.word):
            raise MutationError(f"potential term {t.word} is not a cycle")
    return QP(out_q, new_terms)


def _eliminate_two_cycles(
        terms: list[PotentialTerm]) -> tuple[list[PotentialTerm], set[str]]:
    """Eliminate 2-cycle potential terms by the linear substitutions their
    cyclic derivatives dictate.  Returns the remaining terms and the ids of
    the arrows of the eliminated 2-cycles."""
    terms = list(terms)
    gone: set[str] = set()
    while True:
        i = next((i for i, t in enumerate(terms) if len(t.word) == 2), None)
        if i is None:
            return terms, gone
        two = terms.pop(i)
        x, y = two.word
        ix = [j for j, t in enumerate(terms) if x in t.word]
        iy = [j for j, t in enumerate(terms) if y in t.word]
        if len(ix) > 1 or len(iy) > 1 or (ix and ix == iy) \
                or any(terms[j].word.count(x) > 1 for j in ix) \
                or any(terms[j].word.count(y) > 1 for j in iy):
            raise MutationError(
                f"irreducible 2-cycle ({x}, {y}): "
                "member arrow occurs in more than one further term")
        merged = []
        if ix and iy:
            # each term rotated to start at its member, which is then dropped
            tx, ty = terms[ix[0]], terms[iy[0]]
            i, j = tx.word.index(x), ty.word.index(y)
            merged.append(PotentialTerm(
                -tx.coeff * ty.coeff * two.coeff,
                tx.word[i + 1:] + tx.word[:i] + ty.word[j + 1:] + ty.word[:j]))
        # with one member in no further term, the other's term vanishes
        terms = [t for j, t in enumerate(terms)
                 if j not in ix and j not in iy] + merged
        gone.update((x, y))


def normalize_signs(qp: QP) -> tuple[QP, list[str]]:
    """Renormalize term signs to the alternating tree-distance convention.
    Requires the term words to be exactly the chordless cycles.  A term that
    already spells a cycle's canonical word is kept as it is; only the terms
    a move rewrote are canonicalised."""
    structure = analyze_structure(qp.quiver)
    want = {t.word: t.coeff for t in build_potential(qp.quiver, structure)}
    words = [t.word if t.word in want else _canonical_word(t.word)
             for t in qp.terms]
    if set(words) != want.keys():
        raise MutationError(
            "potential terms do not match the chordless cycles; "
            "cannot renormalize")
    flips = []
    new_terms = []
    for t, w in zip(qp.terms, words):
        s = want[w]
        if s != t.coeff:
            flips.append("flip sign of cycle " + "->".join(w))
        new_terms.append(t if t.word is w and s == t.coeff
                         else PotentialTerm(s, w))
    return QP(qp.quiver, new_terms), flips


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

DERIVED = "derived"
SINGULAR = "singular"


@dataclass
class Move:
    kind: str
    site: dict
    equivalence: str
    weight_before: int
    weight_after: int
    dimer_tree_after: bool
    notes: list[str] = field(default_factory=list)


def total_weight_lenient(q: Quiver) -> int:
    """Total weight from cycle paths; arrows outside all cycles (coextension
    sockets) are ignored."""
    return sum(analyze_structure(q).path_weights("cycle").values())


def apply_move(qp: QP, kind: str, site: dict) -> tuple[QP, Move]:
    """Apply a named move after checking its weight preconditions; the total
    weight is recomputed and asserted unchanged."""
    if kind not in _MOVES:
        raise MutationError(f"unknown move kind {kind!r}")
    move_fn, equivalence = _MOVES[kind]
    if "vertex" in site and site["vertex"] not in qp.quiver.in_arrows:
        raise MutationError(f"unknown vertex {site['vertex']!r}")
    before = total_weight_lenient(qp.quiver)
    notes: list[str] = []
    out = move_fn(qp, site, notes)
    after = total_weight_lenient(out.quiver)
    if after != before:
        raise MutationError(
            f"move {kind} at {site} changed the total weight {before}->{after}")
    # a one-point (co)extension adds an arrow on no cycle; every other move
    # must leave a dimer tree quiver
    claims_tree = kind not in ("one_point_ext", "one_point_coext")
    if claims_tree:
        report = validate_dimer_tree(out.quiver)
        if not report.ok:
            raise MutationError(
                f"move {kind} at {site} left an invalid quiver: failed "
                + ", ".join(c.name for c in report.failed()))
        out, flips = normalize_signs(out)
        notes.extend(flips)
    return out, Move(kind, site, equivalence, before, after, claims_tree, notes)


def _check_weights(structure: StructureReport, alpha: str, beta: str,
                   beta_weight: int) -> None:
    """alpha and beta must be boundary arrows, alpha of coweight 1 and beta
    of weight beta_weight."""
    for a in (alpha, beta):
        if structure.classification[a] != "boundary":
            raise MutationError(f"{a} must be a boundary arrow")
    coweight = structure.path_weights("cocycle")[alpha]
    if coweight != 1:
        raise MutationError(f"coweight of {alpha} is {coweight}, need 1")
    weight = structure.path_weights("cycle")[beta]
    if weight != beta_weight:
        raise MutationError(
            f"weight of {beta} is {weight}, need {beta_weight}")


def _move_mutate_in_out(qp: QP, site: dict, notes: list[str]) -> QP:
    """Mutation at a two-valent vertex: the unique in-arrow has coweight 1 and
    the unique out-arrow has weight 2."""
    k = site["vertex"]
    ins, outs = qp.quiver.in_arrows[k], qp.quiver.out_arrows[k]
    if len(ins) != 1 or len(outs) != 1:
        raise MutationError(
            f"vertex {k!r} is not two-valent (in {len(ins)}, out {len(outs)})")
    _check_weights(analyze_structure(qp.quiver), ins[0].id, outs[0].id, 2)
    return qp_mutate(qp, k)


def _move_mutate_out_out(qp: QP, site: dict, notes: list[str]) -> QP:
    """Mutation at a vertex with one in-arrow and two boundary out-arrows,
    where one out-cycle closes through a non-boundary path and the other
    continues into an all-boundary cycle."""
    k = site["vertex"]
    ins, outs = qp.quiver.in_arrows[k], qp.quiver.out_arrows[k]
    if len(ins) != 1 or len(outs) != 2:
        raise MutationError(
            f"vertex {k!r} has in {len(ins)}, out {len(outs)}; need 1 and 2")
    structure = analyze_structure(qp.quiver)
    kind = structure.classification
    if not all(kind[o.id] == "boundary" for o in outs):
        raise MutationError(f"out-arrows at {k!r} must be boundary arrows")
    through_gamma = structure.cycles_of_arrow(ins[0].id)
    for alpha, beta in (outs, outs[::-1]):
        ca = [c for c in through_gamma if alpha.id in c.arrows]
        cb = [c for c in through_gamma if beta.id in c.arrows]
        if len(ca) != 1 or len(cb) != 1:
            continue
        # v completes gamma*alpha; it must not be a single boundary arrow
        va = [a for a in ca[0].arrows if a not in (ins[0].id, alpha.id)]
        if len(va) == 1 and kind[va[0]] == "boundary":
            continue
        # sigma follows beta in its cycle; sigma's other cycle is all boundary
        sigma = cb[0].next_arrows("cycle")[beta.id]
        osig = [c for c in structure.cycles_of_arrow(sigma) if c is not cb[0]]
        if len(osig) == 1 and all(kind[a] == "boundary"
                                  for a in osig[0].arrows if a != sigma):
            return qp_mutate(qp, k)
    raise MutationError(
        f"pattern for the double-out mutation not found at {k!r}")


def _move_mutate_coextended(qp: QP, site: dict, notes: list[str]) -> QP:
    """Mutation at a vertex that just received a coextension socket; the
    socket arrow extends every path, the reversed companion needs coweight 1."""
    k = site["vertex"]
    socket = site["socket"]
    if len(qp.quiver.in_arrows[k]) != 1:
        raise MutationError(f"vertex {k!r} must have a single in-arrow")
    if socket not in {a.id for a in qp.quiver.out_arrows[k]}:
        raise MutationError(f"socket {socket!r} does not leave {k!r}")
    if analyze_structure(qp.quiver).classification[socket] != "none":
        raise MutationError(f"socket {socket!r} lies on a cycle")
    return qp_mutate(qp, k)


def _move_triangle_slide(qp: QP, site: dict, notes: list[str]) -> QP:
    """Relocate a boundary triangle across its neighbouring square: the local
    rewrite replacing the 3-cycle hanging at sigma by one hanging at the far
    side, on a fresh vertex.  Singular equivalence; the interior path u of the
    outer cycle may be empty."""
    q = qp.quiver
    rho, sigma, alpha, beta, gamma = (
        q.arrow_by_id[site[key]]
        for key in ("rho", "sigma", "alpha", "beta", "gamma"))
    v2, v3, v4, v5 = rho.target, beta.target, sigma.target, gamma.target
    if sigma.source != v2 or alpha.source != v3 or alpha.target != v2 \
            or beta.source != v4 or gamma.source != v4:
        raise MutationError("triangle-slide arrows do not close up")
    structure = analyze_structure(q)
    for a in (alpha, beta, gamma):
        if structure.classification[a.id] != "boundary":
            raise MutationError(f"{a.id} must be a boundary arrow")
    for a in (rho, sigma):
        if structure.classification[a.id] != "interior":
            raise MutationError(f"{a.id} must be an interior arrow")
    if not any(set(c.arrows) == {sigma.id, beta.id, alpha.id}
               for c in structure.cycles_of_arrow(sigma.id)):
        raise MutationError("no triangle on sigma, beta, alpha")
    outer = next((c for c in structure.cycles_of_arrow(rho.id)
                  if sigma.id in c.arrows and gamma.id in c.arrows), None)
    if outer is None:
        raise MutationError("no outer cycle on rho, sigma, gamma")
    # path u completes the outer cycle after gamma and before rho
    word = outer.arrows
    i = word.index(gamma.id)
    rest = word[i + 1:] + word[:i + 1]
    u_ids = rest[:rest.index(rho.id)]

    used: set[str] = set()
    v3p = _fresh_vertex(q, v3)
    sigma_r = _fresh_id(q, used, f"{sigma.id}~")
    eps = _fresh_id(q, used, f"[{sigma.id}.{v3p}]")
    delta_r = _fresh_id(q, used, f"{v3p}>{beta.id}~")
    gamma_r = _fresh_id(q, used, f"{gamma.id}~")
    removed = {sigma.id, alpha.id, beta.id, gamma.id}
    if not u_ids:
        # the outer cycle was a triangle: rho is consumed and gamma reversed
        # closes through the old rho cycle
        removed.add(rho.id)
    added = [Arrow(sigma_r, v4, v2), Arrow(eps, v2, v3p),
             Arrow(delta_r, v3p, v4), Arrow(gamma_r, v5, v4)]
    if u_ids:
        added.append(Arrow(_fresh_id(q, used, f"[{sigma.id}.{gamma.id}]"), v2, v5))
    out_q = q.edit(drop=removed, add=added, drop_vertices=(v3,),
                   add_vertices=(v3p,))
    out = QP(out_q, build_potential(out_q, analyze_structure(out_q)))
    notes.append(f"replaced vertex {v3!r} by {v3p!r}")
    site["new_vertex"] = v3p
    return out


def _move_remove_3cycle(qp: QP, site: dict, notes: list[str]) -> QP:
    """Delete a boundary triangle: its middle vertex and two boundary arrows
    go away when the coweight into it and the weight out of it are both 1."""
    q = qp.quiver
    alpha = q.arrow_by_id[site["alpha"]]
    beta = q.arrow_by_id[site["beta"]]
    if alpha.target != beta.source:
        raise MutationError("alpha and beta do not meet at a vertex")
    k = alpha.target
    closing = q.arrow_between(beta.target, alpha.source)
    if closing is None:
        raise MutationError("no closing arrow for the 3-cycle")
    structure = analyze_structure(q)
    _check_weights(structure, alpha.id, beta.id, 1)
    triangle = {alpha.id, beta.id, closing.id}
    if sum(1 for c in structure.cycles_of_arrow(alpha.id)
           if set(c.arrows) == triangle) != 1:
        raise MutationError("alpha, beta do not bound a 3-cycle")
    out_q = q.edit(drop=(alpha.id, beta.id), drop_vertices=(k,))
    out = QP(out_q, build_potential(out_q, analyze_structure(out_q)))
    notes.append(f"removed vertex {k!r}")
    return out


def _move_one_point(qp: QP, site: dict, notes: list[str], co: bool) -> QP:
    """One-point (co)extension at a vertex: a fresh vertex with a single
    relation-free arrow; the potential is untouched."""
    v = site["vertex"]
    q = qp.quiver
    vp = _fresh_vertex(q, v)
    aid = f"{v}->{vp}" if co else f"{vp}->{v}"
    arrow = Arrow(aid, v, vp) if co else Arrow(aid, vp, v)
    out_q = q.edit(add=(arrow,), add_vertices=(vp,))
    notes.append(f"new vertex {vp!r}, socket {aid}")
    site["new_vertex"] = vp
    site["socket"] = aid
    return QP(out_q, list(qp.terms))


# kind -> (move, equivalence); derived equivalences are the mutations
_MOVES = {
    "mutate_in_out": (_move_mutate_in_out, DERIVED),
    "mutate_out_out": (_move_mutate_out_out, DERIVED),
    "mutate_coextended": (_move_mutate_coextended, DERIVED),
    "triangle_slide": (_move_triangle_slide, SINGULAR),
    "remove_3cycle": (_move_remove_3cycle, SINGULAR),
    "one_point_ext": (partial(_move_one_point, co=False), SINGULAR),
    "one_point_coext": (partial(_move_one_point, co=True), SINGULAR),
}
MOVE_KINDS = tuple(_MOVES)


# ---------------------------------------------------------------------------
# reduction driver
# ---------------------------------------------------------------------------

def step_budget(q: Quiver) -> int:
    """Moves before the reduction of q is abandoned: C * V^2, for V vertices
    and C = A - V + 1 chordless cycles (A arrows).  Each phase of
    `reduce_to_cycle` removes one cycle, so there are C - 1 phases.  A phase
    whose leaf has m vertices makes at most one coextension detour (m - 1
    moves) and one slide (m - 2 moves) at each leaf length, and each slide
    shortens the leaf by one: at most m^2 - 2m moves.  On every tree tried
    the leaf had fewer than V vertices, and no reduction used a sixth of
    the budget."""
    v = len(q.vertices)
    return (len(q.arrows) - v + 1) * v * v


@dataclass
class TraceStep:
    """A move and the vertices and arrows of the quiver it returned; the
    quiver document `quiver_after` is built from them when it is read."""
    move: Move
    vertices: tuple
    arrows: tuple[Arrow, ...]

    @property
    def quiver_after(self) -> dict:
        return _quiver_doc(self)


@dataclass
class ReductionTrace:
    initial: dict
    steps: list[TraceStep]
    final: dict
    final_cycle_length: int

    def to_dict(self) -> dict:
        return {
            "initial": self.initial,
            "steps": [{
                "move": s.move.kind,
                "site": dict(s.move.site),
                "equivalence": s.move.equivalence,
                "total_weight_before": s.move.weight_before,
                "total_weight_after": s.move.weight_after,
                "dimer_tree_after": s.move.dimer_tree_after,
                "notes": s.move.notes,
                "quiver_after": s.quiver_after,
            } for s in self.steps],
            "final": self.final,
            "final_cycle_length": self.final_cycle_length,
        }


def _quiver_doc(q: Quiver | TraceStep) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [[a.id, a.source, a.target] for a in q.arrows],
    }


def _leaf_vseq(q: Quiver) -> list:
    """The vertices of the working leaf cycle of a quiver with more than one
    cycle, starting with the source of the leaf's interior arrow."""
    structure = analyze_structure(q)
    if structure.base is None:
        raise MutationError("no leaf cycle available")
    leaf = structure.cycles[structure.base]
    kind = structure.classification
    i = next(i for i, a in enumerate(leaf.arrows) if kind[a] == "interior")
    return list(leaf.vertices[i:]) + list(leaf.vertices[:i])


def reduce_to_cycle(q: Quiver) -> ReductionTrace:
    """Shrink a dimer tree quiver to a single chordless cycle by derived and
    singular equivalences, recording every move and auditing the weight."""
    qp = qp_from_quiver(q)
    budget = step_budget(q)
    initial_doc = _quiver_doc(q)
    steps: list[TraceStep] = []
    trace = ReductionTrace(initial_doc, steps, initial_doc, 0)

    def do(kind, site):
        nonlocal qp
        if len(steps) >= budget:
            raise StepBudgetExceeded(
                f"reduction exceeded the step budget of {budget} moves", trace)
        try:
            qp, move = apply_move(qp, kind, site)
        except (MutationError, QuiverError) as exc:
            raise ReductionError(str(exc), trace) from exc
        steps.append(TraceStep(move, qp.quiver.vertices, qp.quiver.arrows))

    while len(analyze_structure(qp.quiver).cycles) > 1:
        vseq = _leaf_vseq(qp.quiver)
        # phase: process this leaf until the cycle count drops
        while True:
            structure = analyze_structure(qp.quiver)
            m = len(vseq)
            v1, v2, v3 = vseq[0], vseq[1], vseq[2]
            gamma = qp.quiver.arrow_between(v1, v2)
            alpha = qp.quiver.arrow_between(v2, v3)
            if gamma is None or alpha is None:
                raise ReductionError(
                    f"leaf bookkeeping lost arrows at {vseq}", trace)
            if structure.path_weights("cocycle").get(alpha.id) == 2:
                # coextension socket, then mutation at v3 turns the coweight
                site = {"vertex": v3}
                do("one_point_coext", site)
                do("mutate_coextended", {"vertex": v3, "socket": site["socket"]})
                if m >= 4:
                    for v in vseq[3:]:
                        do("mutate_out_out", {"vertex": v})
                    vseq = [vseq[-1], v2, site["new_vertex"], v3] + vseq[3:-1]
                else:
                    vseq = [v3, v2, site["new_vertex"]]
                alpha2 = qp.quiver.arrow_between(vseq[1], vseq[2])
                if alpha2 is None or analyze_structure(qp.quiver).path_weights(
                        "cocycle").get(alpha2.id) != 1:
                    raise ReductionError(
                        "coweight still 2 after the coextension detour", trace)
                continue
            if m >= 4:
                do("mutate_in_out", {"vertex": v3})
                site = _slide_site_after_mutation(qp, v1, v2, vseq[3])
                do("triangle_slide", site)
                for v in vseq[4:]:
                    do("mutate_out_out", {"vertex": v})
                vseq = [vseq[-1], v2, site["new_vertex"]] + vseq[3:-1]
                continue
            # m == 3 endgame: delete or absorb the triangle
            beta = qp.quiver.arrow_between(v3, v1)
            if beta is None:
                raise ReductionError(f"no closing arrow at {vseq}", trace)
            if structure.path_weights("cycle").get(beta.id) == 1:
                do("remove_3cycle", {"alpha": alpha.id, "beta": beta.id})
            else:
                do("mutate_in_out", {"vertex": v3})
            break

    trace.final = _quiver_doc(qp.quiver)
    trace.final_cycle_length = len(analyze_structure(qp.quiver).cycles[0])
    return trace


def _slide_site_after_mutation(qp: QP, v1, v2, v4) -> dict:
    """Locate the triangle-slide pattern created by the preceding mutation."""
    q = qp.quiver
    rho = q.arrow_between(v1, v2)
    sigma = q.arrow_between(v2, v4)
    if rho is None or sigma is None:
        raise MutationError("slide pattern: rho or sigma missing")
    structure = analyze_structure(q)
    tri = next((c for c in structure.cycles_of_arrow(sigma.id)
                if len(c) == 3 and rho.id not in c.arrows), None)
    if tri is None:
        raise MutationError("slide pattern: no triangle at sigma")
    after = tri.next_arrows("cycle")
    beta = after[sigma.id]
    alpha = after[beta]
    outer = next((c for c in structure.cycles_of_arrow(rho.id)
                  if sigma.id in c.arrows), None)
    if outer is None:
        raise MutationError("slide pattern: no outer cycle")
    gamma = outer.next_arrows("cycle")[sigma.id]
    return {"rho": rho.id, "sigma": sigma.id, "alpha": alpha,
            "beta": beta, "gamma": gamma}
