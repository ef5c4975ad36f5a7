import hashlib
import random

import pytest

from dimertree import mutation as mu
from dimertree.quiver import (Quiver, analyze_structure, validate_dimer_tree,
                              weight_report)

from conftest import cycle_quiver, glued_dimer_tree, load_fixture, parse_json_quiver


def case2_m3_quiver():
    """Leaf triangle whose first arrow has coweight 2 (coextension detour)."""
    return parse_json_quiver({
        "name": "case2-m3", "vertices": [1, 2, 3, 4, 5],
        "arrows": [[1, 2], [2, 3], [3, 1], [2, 4], [4, 1], [1, 5], [5, 4]]})


def case2_m4_quiver():
    return parse_json_quiver({
        "name": "case2-m4", "vertices": [1, 2, 3, 4, 5, 6],
        "arrows": [[1, 2], [2, 3], [3, 6], [6, 1], [2, 4], [4, 1],
                   [1, 5], [5, 4]]})


def slide_pattern_quiver():
    """Triangle between two larger cycles: the slide pattern before mutation."""
    return parse_json_quiver({
        "name": "q6s", "vertices": [1, 2, 3, 4, 5, 6],
        "arrows": [[1, 2], [2, 6], [6, 1], [2, 4], [4, 3], [3, 2],
                   [4, 5], [5, 1]]})


# -- qp_mutate ---------------------------------------------------------------------

def test_mutate_c3_gives_linear_quiver(c3):
    qp = mu.qp_from_quiver(c3)
    out = mu.qp_mutate(qp, 1)
    pairs = sorted((a.source, a.target) for a in out.quiver.arrows)
    assert pairs == [(1, 3), (2, 1)]
    assert out.terms == []


def test_mutate_twice_returns_isomorphic_triangle(c3):
    qp = mu.qp_from_quiver(c3)
    out = mu.qp_mutate(mu.qp_mutate(qp, 1), 1)
    pairs = sorted((a.source, a.target) for a in out.quiver.arrows)
    assert pairs == [(1, 2), (2, 3), (3, 1)]
    assert len(out.terms) == 1 and len(out.terms[0].word) == 3


def test_mutate_rejects_two_cycle():
    qp = mu.QP(parse_json_quiver({
        "name": "t", "vertices": [1, 2, 3], "arrows": [[1, 2], [2, 3], [3, 1]]}),
        [])
    out = mu.qp_mutate(qp, 1)
    # the mutated quiver has a 2-cycle only if we force one; build it directly
    from dimertree.quiver import Arrow, Quiver
    q2 = Quiver([1, 2], [Arrow("a", 1, 2), Arrow("b", 2, 1)], name="two")
    with pytest.raises(mu.MutationError, match="2-cycle"):
        mu.qp_mutate(mu.QP(q2, []), 1)


def test_mutate_q7_long_completing_path(q7):
    # mutation at a two-valent vertex where the remaining cycle path has
    # length at least two: the composite shortens the old cycle and closes a
    # new triangle with the two reversed arrows
    qp = mu.qp_from_quiver(q7)
    out = mu.qp_mutate(qp, 3)   # in 5->3, out 3->2
    st = analyze_structure(out.quiver)
    assert sorted(len(c) for c in st.cycles) == [3, 4, 4]
    comp = next(a for a in out.quiver.arrows if a.id.startswith("[5->3"))
    assert (comp.source, comp.target) == (5, 2)
    words = {mu._canonical_word(t.word) for t in out.terms}
    assert len(words) == 3
    # the composite appears in both new terms
    assert sum(1 for w in words if comp.id in w) == 2
    assert any(len(w) == 3 and comp.id in w for w in words)


def test_mutated_potential_signs_normalizable(q7):
    qp = mu.qp_from_quiver(q7)
    out, flips = mu.normalize_signs(mu.qp_mutate(qp, 3))
    st = analyze_structure(out.quiver)
    assert {mu._canonical_word(t.word) for t in out.terms} == {
        mu._canonical_word(c.arrows) for c in st.cycles}
    signs = sorted(t.coeff for t in out.terms)
    assert signs == [-1, 1, 1]    # alternating along the three-node dual path


def test_irreducible_two_cycle_reported():
    # an artificial potential with a 2-cycle term whose member occurs twice
    terms = [mu.PotentialTerm(1, ("x", "y")),
             mu.PotentialTerm(1, ("y", "u", "v", "x", "y", "u", "v", "x"))]
    with pytest.raises(mu.MutationError, match="irreducible 2-cycle"):
        mu._eliminate_two_cycles(terms)


def test_two_cycle_whose_members_share_a_term_is_irreducible():
    terms = [mu.PotentialTerm(1, ("x", "y")),
             mu.PotentialTerm(1, ("x", "u", "y", "v"))]
    with pytest.raises(mu.MutationError, match="irreducible 2-cycle"):
        mu._eliminate_two_cycles(terms)


def test_two_cycle_elimination_names_the_arrows_it_removes():
    # x y is a 2-cycle; x u v and y w z substitute into one term u v w z
    terms = [mu.PotentialTerm(1, ("x", "y")),
             mu.PotentialTerm(1, ("x", "u", "v")),
             mu.PotentialTerm(-1, ("y", "w", "z"))]
    rest, gone = mu._eliminate_two_cycles(terms)
    assert gone == {"x", "y"}
    assert rest == [mu.PotentialTerm(1, ("u", "v", "w", "z"))]


# -- moves -------------------------------------------------------------------------

def test_move_in_out_requires_weight_two(q9):
    # endgame triangle of q9: alpha = 3->1 has coweight 1 but w(1->2) = 1,
    # so the two-valent mutation must refuse vertex 1
    qp = mu.qp_from_quiver(q9)
    with pytest.raises(mu.MutationError, match="weight"):
        mu.apply_move(qp, "mutate_in_out", {"vertex": 1})


def test_move_in_out_requires_two_valent(q9):
    qp = mu.qp_from_quiver(q9)
    with pytest.raises(mu.MutationError, match="two-valent"):
        mu.apply_move(qp, "mutate_in_out", {"vertex": 3})


def test_remove_3cycle_q9_first_phase(q9):
    qp = mu.qp_from_quiver(q9)
    out, move = mu.apply_move(qp, "remove_3cycle",
                              {"alpha": "3->1", "beta": "1->2"})
    assert move.equivalence == "singular"
    assert move.weight_before == move.weight_after == 14
    assert 1 not in out.quiver.vertices
    st = analyze_structure(out.quiver)
    assert len(st.cycles) == 3
    # the closing arrow 2->3 became a boundary arrow of weight two
    wr = weight_report(out.quiver, st)
    entry = wr.by_arrow()["2->3"]
    assert entry.weight == 2 and entry.coweight == 2


def test_remove_3cycle_rejects_wrong_weights(c3):
    # every arrow of the plain triangle has weight 2, so the removal refuses
    qp = mu.qp_from_quiver(c3)
    with pytest.raises(mu.MutationError, match="weight|coweight"):
        mu.apply_move(qp, "remove_3cycle", {"alpha": "1->2", "beta": "2->3"})


def test_remove_3cycle_rejects_interior_member(q9):
    qp = mu.qp_from_quiver(q9)
    with pytest.raises(mu.MutationError, match="boundary"):
        mu.apply_move(qp, "remove_3cycle", {"alpha": "4->6", "beta": "6->9"})


def test_one_point_coextension_shape():
    # coextension at the triangle vertex of the slide pattern: fresh sink
    q = slide_pattern_quiver()
    qp = mu.qp_from_quiver(q)
    site = {"vertex": 4}
    out, move = mu.apply_move(qp, "one_point_coext", site)
    vp, socket = site["new_vertex"], site["socket"]
    assert vp in out.quiver.vertices
    arr = out.quiver.arrow_by_id[socket]
    assert (arr.source, arr.target) == (4, vp)
    assert move.weight_before == move.weight_after
    assert not move.dimer_tree_after          # socket lies on no cycle
    assert out.terms == qp.terms              # potential untouched


def test_one_point_extension_shape(c3):
    qp = mu.qp_from_quiver(c3)
    site = {"vertex": 2}
    out, move = mu.apply_move(qp, "one_point_ext", site)
    arr = out.quiver.arrow_by_id[site["socket"]]
    assert (arr.source, arr.target) == (site["new_vertex"], 2)


def test_triangle_slide_direct(q7):
    # first reduction step of q7 reaches the slide pattern after one mutation
    qp = mu.qp_from_quiver(q7)
    qp, _ = mu.apply_move(qp, "mutate_in_out", {"vertex": 3})
    site = mu._slide_site_after_mutation(qp, 4, 5, 2)
    out, move = mu.apply_move(qp, "triangle_slide", site)
    assert move.equivalence == "singular"
    assert move.weight_before == move.weight_after == 12
    assert move.dimer_tree_after
    assert site["new_vertex"] in out.quiver.vertices
    assert 3 not in out.quiver.vertices


def test_unknown_move_kind(c3):
    qp = mu.qp_from_quiver(c3)
    with pytest.raises(mu.MutationError, match="unknown move"):
        mu.apply_move(qp, "collapse_everything", {})


# -- reduction ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 5, 8])
def test_reduce_single_cycle_is_trivial(n):
    tr = mu.reduce_to_cycle(cycle_quiver(n))
    assert tr.steps == []
    assert tr.final_cycle_length == n


def test_reduce_q7(q7):
    tr = mu.reduce_to_cycle(q7)
    assert tr.final_cycle_length == 6
    assert all(s.move.weight_before == 12 and s.move.weight_after == 12
               for s in tr.steps)
    assert all(s.move.dimer_tree_after for s in tr.steps
               if s.move.kind != "one_point_coext")


def test_reduce_q9(q9):
    tr = mu.reduce_to_cycle(q9)
    assert tr.final_cycle_length == 7
    assert all(s.move.weight_before == 14 and s.move.weight_after == 14
               for s in tr.steps)
    kinds = {s.move.kind for s in tr.steps}
    assert "triangle_slide" in kinds and "remove_3cycle" in kinds


def test_reduce_case2_with_coextension():
    q = case2_m3_quiver()
    wr = weight_report(q)
    tr = mu.reduce_to_cycle(q)
    kinds = [s.move.kind for s in tr.steps]
    assert "one_point_coext" in kinds and "mutate_coextended" in kinds
    assert tr.final_cycle_length == wr.half
    for s in tr.steps:
        assert s.move.weight_before == s.move.weight_after == wr.total_weight


def test_reduce_case2_with_chain():
    q = case2_m4_quiver()
    wr = weight_report(q)
    tr = mu.reduce_to_cycle(q)
    kinds = [s.move.kind for s in tr.steps]
    assert "mutate_coextended" in kinds and "mutate_out_out" in kinds
    assert tr.final_cycle_length == wr.half


def test_reduce_endpoint_weight_matches(q9, q7):
    for q in (q9, q7):
        wr = weight_report(q)
        tr = mu.reduce_to_cycle(q)
        assert tr.final_cycle_length == wr.half
        final_pairs = [(s, t) for _, s, t in
                       (tuple(a) for a in tr.final["arrows"])]
        assert len(final_pairs) == wr.half
        # the endpoint is itself a dimer tree quiver of the same total weight
        from conftest import quiver_from_arrows
        endq = quiver_from_arrows(final_pairs, name="final")
        assert validate_dimer_tree(endq).ok
        assert weight_report(endq).total_weight == wr.total_weight


def test_step_budget_hit_raises_with_the_partial_trace(q9, monkeypatch):
    full = mu.reduce_to_cycle(q9)
    assert len(full.steps) > 5
    monkeypatch.setattr(mu, "step_budget", lambda q: 5)
    with pytest.raises(mu.StepBudgetExceeded,
                       match="exceeded the step budget of 5 moves") as exc:
        mu.reduce_to_cycle(q9)
    assert isinstance(exc.value, mu.ReductionError)
    partial = exc.value.trace
    assert [s.quiver_after for s in partial.steps] == [
        s.quiver_after for s in full.steps[:5]]


def test_step_budget_is_c_times_v_squared(q9, c3):
    # q9: 9 vertices and 12 arrows, so 4 cycles
    assert mu.step_budget(q9) == 4 * 9 * 9
    assert mu.step_budget(c3) == 9


def test_trace_document_schema(q7):
    tr = mu.reduce_to_cycle(q7)
    doc = tr.to_dict()
    assert doc["final_cycle_length"] == 6
    assert len(doc["steps"]) == len(tr.steps)
    for step in doc["steps"]:
        assert {"move", "site", "equivalence", "total_weight_before",
                "total_weight_after", "quiver_after"} <= set(step)
        assert step["equivalence"] in ("derived", "singular")
    assert mu.trace_to_json(tr).startswith("{")


def test_reduce_glued_trees_randomized():
    specs = [([3, 3], [0]), ([4, 3, 5], [1, 2]), ([5, 4], [3]),
             ([6, 3, 3], [0, 4]), ([3, 4, 3, 4], [2, 1, 5])]
    for lengths, attach in specs:
        q = glued_dimer_tree(lengths, attach)
        wr = weight_report(q)
        tr = mu.reduce_to_cycle(q)
        assert tr.final_cycle_length == wr.half, (lengths, attach)


def test_reduction_builds_one_quiver_per_move(monkeypatch):
    rng = random.Random(2)
    q = glued_dimer_tree([rng.randint(3, 6) for _ in range(8)],
                         [rng.randint(0, 100) for _ in range(7)])
    builds = {"init": 0, "edit": 0}
    init, edit = Quiver.__init__, Quiver.edit

    def counting_init(self, *args, **kwargs):
        builds["init"] += 1
        init(self, *args, **kwargs)

    def counting_edit(self, *args, **kwargs):
        builds["edit"] += 1
        return edit(self, *args, **kwargs)

    monkeypatch.setattr(Quiver, "__init__", counting_init)
    monkeypatch.setattr(Quiver, "edit", counting_edit)
    tr = mu.reduce_to_cycle(q)
    # every kind of move reduce_to_cycle makes is among them
    assert {s.move.kind for s in tr.steps} == set(mu.MOVE_KINDS) - {"one_point_ext"}
    # each move derives its quiver by one edit; none is built from scratch
    assert builds == {"init": 0, "edit": len(tr.steps)}


# sha256 of `trace_to_json(reduce_to_cycle(q))`, recorded before the move
# engine was flattened (k = 12 and 16: before moves built their quivers as
# edits).  Any change to an arrow or vertex id, a site, a note, an
# equivalence or the order of the moves changes a digest.
TRACE_SHA256 = {
    "q9": "ea0258c273d6fc2dedc0fa4e1a50c7f503f55c3877bee8866d996ba874354973",
    "q7": "bd249f7701468dbc160ba7f667bdd9d157be524d79eb649f45e2c24e3f24b877",
    "c3": "cfd56040d2eb6a10fd946fbe47dd2289bcf901679047d7590e1e041bdd17008a",
    "c4": "c7e23d0bb5b94ec0483573f6ad56b6f9e158acb98accd5afd5ca7eef6de0a577",
    "c5": "cdd0fa24626bb7f040ca0f94f9bd086c52dac0874f5e92aab2475aae31df2a3e",
    "c6": "a02b969d2a61882e4bf7a57136d03b035d291cd07a4396dcf72ee7a4213ab629",
    "c7": "48981889662871a9311a2702000ce2640b09729c9029471f8b595efd4834cbb6",
    "c8": "d76e2f729d7ca0f4148d455e59943ca9bdca41ebf48532dab9c3c731f4c25e2e",
    "glued_k2": "6233c779eed2d89b62558513137c5005a14263a2d5ece6848dfcb8d62dd001ce",
    "glued_k3": "f89de60427e5b0f707b35574d597091a00de7c19f0139767401ed896633601f9",
    "glued_k4": "10aa2d0e9151a16a876adeeef4e24c84d4b9a73e4b4ba7e0fe09c780a83dadef",
    "glued_k5": "abbe0720c6ff5ee582fb49ac30fe700b54ca8e376d1565f58ca6badc0278126a",
    "glued_k6": "4ff8fbc60e886df0bf5a1367b407d6e33dc51f236f7b13f5e3981a970fc9ea6c",
    "glued_k7": "0f94ec11db5506acc57c1d3adc4a472791b056548646a49ee579b7af0907829c",
    "glued_k8": "13b8aea581d50c124a30c2b43d10c23b362313d226746426f5a70475059493cd",
    "glued_k12": "7c8adb6c2c8d9d52fa931d6be3fa42a450e6629b3a466b75258b60de483d33c8",
    "glued_k16": "ff07a803ff9f089e69e3520470aab8620c28b7635db235515202ec0c9d4c6e50",
}


def pinned_quivers():
    """The 8 fixtures, then seeded glued trees with k = 2, ..., 8, 12 and 16
    cycles of lengths 3 to 6."""
    for name in ("q9", "q7", "c3", "c4", "c5", "c6", "c7", "c8"):
        yield name, load_fixture(name)
    rng = random.Random(2021)
    for k in (*range(2, 9), 12, 16):
        lengths = [rng.randint(3, 6) for _ in range(k)]
        attach = [rng.randint(0, 100) for _ in range(k - 1)]
        yield f"glued_k{k}", glued_dimer_tree(lengths, attach)


def test_reduce_traces_are_byte_identical_to_the_pinned_ones():
    digests, kinds = {}, set()
    for name, q in pinned_quivers():
        tr = mu.reduce_to_cycle(q)
        digests[name] = hashlib.sha256(mu.trace_to_json(tr).encode()).hexdigest()
        kinds.update(s.move.kind for s in tr.steps)
    assert digests == TRACE_SHA256
    # every kind of move reduce_to_cycle makes is pinned; it makes no one_point_ext
    assert kinds == set(mu.MOVE_KINDS) - {"one_point_ext"}
