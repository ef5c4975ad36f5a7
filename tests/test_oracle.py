import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimertree import oracle as orc
from dimertree.linalg import GF, QQ
from dimertree.quiver import (QuiverError, analyze_structure, build_potential,
                              weight_report)

from conftest import (cycle_quiver, glued_dimer_tree, multiplication_table,
                      quiver_from_arrows)


@pytest.fixture(scope="module")
def ab9(q9):
    return orc.build_algebra(q9, 32003)


@pytest.fixture(scope="module")
def ab7(q7):
    return orc.build_algebra(q7, 32003)


@pytest.fixture(scope="module")
def ab3(c3):
    return orc.build_algebra(c3, 32003)


# -- basis -----------------------------------------------------------------------

def test_c3_dimension_and_zero_paths(ab3):
    # three constants and three arrows survive; all longer paths vanish
    assert ab3.dimension == 6
    assert ab3.stabilization_length == 2
    assert ab3.class_of_word(("1->2", "2->3")) is None
    assert ab3.class_of_word(("1->2",)) is not None


def test_cycle_quiver_dimension():
    # a single cycle of length n keeps the paths of length < n-1
    for n in (4, 5, 6):
        ab = orc.build_algebra(cycle_quiver(n), 32003)
        assert ab.dimension == n * (n - 1)
        assert ab.stabilization_length == n - 1


def test_q9_schurian(ab9):
    ok, counter = orc.schurian_check(ab9)
    assert ok, counter
    for i in ab9.q.vertices:
        for j in ab9.q.vertices:
            assert ab9.dim_pair(i, j) <= 1


def test_q9_nonzero_path_example(ab9):
    assert ab9.class_of_word(("8->3", "3->4", "4->5")) is not None


def test_q7_interior_routes_identified(ab7):
    # the two ways around the shared arrow's cycles are the same class
    c1 = ab7.class_of_word(("5->3", "3->2", "2->1", "1->4"))
    c2 = ab7.class_of_word(("5->6", "6->7", "7->4"))
    assert c1 is not None and c1 == c2


def test_noncomposable_rejected(ab3):
    with pytest.raises(orc.OracleError, match="composable"):
        ab3.class_of_word(("1->2", "3->1"))


def test_multiplication_table_c3(ab3):
    table = multiplication_table(ab3)
    # constants act as identities; arrow pairs multiply to zero
    e1 = ab3.constant_class[1]
    a12 = ab3.arrow_class("1->2")
    a23 = ab3.arrow_class("2->3")
    assert table[(e1, a12)] == a12
    assert table[(a12, a23)] is None
    for c1, c2 in table:
        assert ab3.classes[c1].target == ab3.classes[c2].source


def test_stabilization_bound(ab9, ab7, ab3):
    for ab in (ab9, ab7, ab3):
        assert ab.stabilization_length <= 4 * len(ab.q.arrows)


def test_oracle_rejects_invalid_quiver():
    with pytest.raises(QuiverError):
        orc.build_algebra(quiver_from_arrows([(1, 2)]))


# -- extension behaviour of boundary arrows ----------------------------------------

def test_extension_lemma_all_fixtures(ab9, ab7, ab3):
    for ab in (ab9, ab7, ab3):
        for a in ab.structure.boundary_arrows:
            assert orc.extension_lemma_check(ab, a, "right"), a
            assert orc.extension_lemma_check(ab, a, "left"), a


def test_extension_witnesses_q9(ab9):
    # weight 1: every class into the source extends through the arrow
    a = ab9.q.arrow_by_id["8->3"]
    ac = ab9.arrow_class("8->3")
    assert all(ab9.mult(c, ac) is not None
               for v in ab9.q.vertices
               for c in ab9.by_pair.get((v, a.source), []))
    # weight 2: some class into the source is killed
    b = ab9.q.arrow_by_id["3->1"]
    bc = ab9.arrow_class("3->1")
    assert any(ab9.mult(c, bc) is None
               for v in ab9.q.vertices
               for c in ab9.by_pair.get((v, b.source), []))


def test_extension_killer_in_c3(ab3):
    # every arrow has weight 2 and a predecessor class that kills it
    for e in weight_report(ab3.q).entries:
        assert e.weight == 2
        a = ab3.q.arrow_by_id[e.arrow]
        ac = ab3.arrow_class(e.arrow)
        assert any(ab3.mult(c, ac) is None
                   for v in ab3.q.vertices
                   for c in ab3.by_pair.get((v, a.source), []))


# -- radical presentations ----------------------------------------------------------

def test_radical_presentations_match_arrow_sets(ab9, ab7, ab3):
    for ab in (ab9, ab7, ab3):
        rep = orc.radical_presentation_check(ab)
        assert rep.ok, [i.detail for i in rep.failed()]


def test_c3_radical_presentation_entries(ab3):
    pres = orc.radical_presentation(ab3, 1)
    assert pres.p0 == [2] and pres.p1 == [3]
    ((_, combo),) = pres.entries.items()
    ((coeff, cls),) = combo
    assert ab3.classes[cls].word == ("2->3",)


def test_q9_radical_summands_examples(ab9):
    p3 = orc.radical_presentation(ab9, 3)
    assert sorted(p3.p1) == [2, 8] and sorted(p3.p0) == [1, 4]
    p4 = orc.radical_presentation(ab9, 4)
    assert sorted(p4.p1) == [3, 9] and sorted(p4.p0) == [5, 6]


def test_presentations_have_no_constant_entries(ab9):
    for x in ab9.q.vertices:
        pres = orc.radical_presentation(ab9, x)
        for combo in pres.entries.values():
            for _, cls in combo:
                assert not ab9.classes[cls].is_constant


# -- hom, ext, stable hom -------------------------------------------------------------

def test_ext_iff_arrow(ab9, ab7, ab3):
    for ab in (ab9, ab7, ab3):
        rep = orc.radical_ext_arrow_check(ab)
        assert rep.ok, [i.name for i in rep.failed()]


def test_c3_simple_extension(ab3):
    # rad P(1) and rad P(2) are the simples at 2 and 3; the arrow 1->2 forces
    # a one-dimensional extension space between them
    ext = orc._ext1_by_tag(ab3, orc.radical_presentation(ab3, 1),
                           ab3.radical_rep(2))
    assert ext == {0: 1}


def test_ext_vanishes_into_projectives(ab9):
    # syzygies have no extensions with projective modules
    for x in (1, 4, 7):
        pres_rad = orc.radical_presentation(ab9, x)
        for j in (2, 3, 9):
            proj = ab9.projective(j)
            assert orc._ext1_by_tag(ab9, pres_rad, proj)[0] == 0


def test_stable_hom_examples(ab9, ab3):
    # boundary arrow i->j: maps rad P(j) -> rad P(i) all factor through P(j)
    for aid in ab9.structure.boundary_arrows:
        a = ab9.q.arrow_by_id[aid]
        pres = orc.radical_presentation(ab9, a.target)
        assert orc._pres_hom_dims(ab9, pres, ab9.radical_rep(a.source))[1] == 0
    # the identity of rad P(1) = S(2) does not factor through a projective
    pres = orc.radical_presentation(ab3, 1)
    assert orc._pres_hom_dims(ab3, pres, ab3.radical_rep(1))[1] == 1


def test_stable_hom_into_projective_is_zero(ab9):
    pres = orc.radical_presentation(ab9, 3)
    assert orc._pres_hom_dims(ab9, pres, ab9.projective(5))[1] == 0


def test_boundary_vanishing_all_fixtures(ab9, ab7, ab3):
    for ab in (ab9, ab7, ab3):
        rep = orc.boundary_vanishing_check(ab)
        assert rep.ok, [i.name for i in rep.failed()]


def test_radicals_indecomposable_non_projective(ab9, ab7, ab3):
    for ab in (ab9, ab7, ab3):
        rep = orc.radical_indecomposability_check(ab)
        assert rep.ok, [i.name for i in rep.failed()]


# -- field independence ----------------------------------------------------------------

@pytest.mark.parametrize("fixture", ["q9", "q7", "c3"])
def test_dimensions_field_independent(fixture, request):
    q = request.getfixturevalue(fixture)
    dims = []
    for field in (GF(101), GF(32003), QQ()):
        ab = orc.build_algebra(q, field)
        dims.append({(i, j): ab.dim_pair(i, j)
                     for i in q.vertices for j in q.vertices})
    assert dims[0] == dims[1] == dims[2]


def test_full_report_over_rationals(q7):
    ab = orc.build_algebra(q7, "Q")
    rep = orc.full_oracle_report(ab)
    assert rep.ok, [i.name for i in rep.failed()]


def glued_up_to_four():
    rng = random.Random(9)
    return [glued_dimer_tree([rng.randint(3, 5) for _ in range(k)],
                             [rng.randint(0, 100) for _ in range(k - 1)])
            for k in (2, 3, 4)]


@pytest.mark.parametrize("q", ["q9", "q7", "c3", *glued_up_to_four()],
                         ids=["q9", "q7", "c3", "glued2", "glued3", "glued4"])
def test_full_report_agrees_between_fields(q, request):
    if isinstance(q, str):
        q = request.getfixturevalue(q)
    verdicts = []
    for field in (GF(32003), QQ()):
        rep = orc.full_oracle_report(orc.build_algebra(q, field))
        verdicts.append([(i.name, i.passed) for i in rep.items])
    assert verdicts[0] == verdicts[1]
    assert all(passed for _, passed in verdicts[0])


# -- results computed once ------------------------------------------------------------

def test_resolve_step_is_computed_once_and_equals_a_fresh_resolve(ab9):
    for x in ab9.q.sorted_vertices():
        pres = orc.radical_presentation(ab9, x)
        for _ in range(2):
            nxt = orc.resolve_step(ab9, pres)
            assert orc.resolve_step(ab9, pres) is nxt
            copy = dataclasses.replace(pres)
            assert copy._next is None
            fresh = orc.resolve_step(ab9, copy)
            assert fresh is not nxt and fresh == nxt
            pres = nxt


# -- seeded faults: each check family of the report can fail ----------------------------
#
# Each fault puts another module's presentation in place of the minimal
# presentation of a radical of q9, and the failing item names it with its
# dimension.  The same report passes on the true presentations.

def direct_sum_presentation(*parts):
    """The minimal presentation of the direct sum of the parts' cokernels."""
    p1, p0, entries = [], [], {}
    for pres in parts:
        for (l, k), combo in pres.entries.items():
            entries[len(p0) + l, len(p1) + k] = combo
        p1 += pres.p1
        p0 += pres.p0
    return orc.ModulePresentation(p1=p1, p0=p0, entries=entries)


def projective_presentation(v):
    return orc.ModulePresentation(p1=[], p0=[v], entries={})


def seeded_items(ab, check, monkeypatch, faults):
    """{name: (passed, detail)} of check(ab), first on the true
    presentations, where every item must pass, then with faults[x] in
    place of the presentation of rad P(x)."""
    assert check(ab).ok
    true = orc.radical_presentation
    monkeypatch.setattr(orc, "radical_presentation", lambda ab, x: (
        faults[x] if x in faults else true(ab, x)))
    return {c.name: (c.passed, c.detail) for c in check(ab).items}


@pytest.mark.parametrize("field", ["32003", "Q"])
def test_ext1_syzygy_rad_vanishes_fails_on_a_seeded_summand(q9, field, monkeypatch):
    # Ext^1(syzygy of rad P(3), rad P(2)) is 1, and 1->2 is an arrow: with
    # rad P(1) + rad P(3) + rad P(3) in place of rad P(1) it counts 2
    ab = orc.build_algebra(q9, field)
    rad = {x: orc.radical_presentation(ab, x) for x in ab.vertices}
    items = seeded_items(ab, orc.boundary_vanishing_check, monkeypatch,
                         {1: direct_sum_presentation(rad[1], rad[3], rad[3])})
    assert items["ext1_syzygy_rad_vanishes[1->2]"] == (False, "dim 2")
    assert items["ext1_syzygy_rad_vanishes[2->3]"] == (True, "")


@pytest.mark.parametrize("field", ["32003", "Q"])
def test_stable_hom_rad_vanishes_fails_on_a_seeded_summand(q9, field, monkeypatch):
    # 1->2 is a boundary arrow: with rad P(1) + rad P(1) in place of
    # rad P(2), the stable Hom into rad P(1) is the stable End of rad P(1)
    # twice
    ab = orc.build_algebra(q9, field)
    rad1 = orc.radical_presentation(ab, 1)
    items = seeded_items(ab, orc.boundary_vanishing_check, monkeypatch,
                         {2: direct_sum_presentation(rad1, rad1)})
    assert items["stable_hom_rad_vanishes[1->2]"] == (False, "dim 2")
    assert items["stable_hom_rad_vanishes[3->1]"] == (True, "")


@pytest.mark.parametrize("field", ["32003", "Q"])
def test_radical_indecomposable_fails_on_a_seeded_sum(q9, field, monkeypatch):
    # rad P(4) + rad P(4) in place of rad P(4): two endomorphisms into
    # rad P(4), neither through a projective
    ab = orc.build_algebra(q9, field)
    rad4 = orc.radical_presentation(ab, 4)
    items = seeded_items(ab, orc.radical_indecomposability_check, monkeypatch,
                         {4: direct_sum_presentation(rad4, rad4)})
    assert items.pop("radical_indecomposable[4]") == (False, "End dim 2")
    assert all(passed for passed, _ in items.values())


@pytest.mark.parametrize("field", ["32003", "Q"])
def test_radical_non_projective_fails_on_a_seeded_projective(q9, field,
                                                             monkeypatch):
    # P(4) in place of rad P(4): no map to rad P(4), which is zero at 4;
    # and P(4) in place of the module too: End dim 1, through P(4) itself
    ab = orc.build_algebra(q9, field)
    items = seeded_items(ab, orc.radical_indecomposability_check, monkeypatch,
                         {4: projective_presentation(4)})
    assert items["radical_indecomposable[4]"] == (False, "End dim 0")
    assert items["radical_non_projective[4]"] == (
        False, "identity factors through a projective")
    radical_rep = orc.AlgebraBasis.radical_rep
    monkeypatch.setattr(orc.AlgebraBasis, "radical_rep", lambda ab, x: (
        ab.projective(x) if x == 4 else radical_rep(ab, x)))
    items = {c.name: (c.passed, c.detail)
             for c in orc.radical_indecomposability_check(ab).items}
    assert items.pop("radical_non_projective[4]") == (
        False, "identity factors through a projective")
    assert all(passed for passed, _ in items.values())


# -- base-cycle tie-break independence ---------------------------------------------------

def test_algebra_dimension_independent_of_base_cycle(q7, c3):
    for q in (q7, c3):
        structure = analyze_structure(q)
        canonical = build_potential(q, structure)
        dims = set()
        from dimertree.quiver import Potential, cycle_distances_from
        from structure_refs import leaf_cycles
        for base in leaf_cycles(structure):
            base_idx = structure.cycles.index(base)
            dist = cycle_distances_from(len(structure.cycles),
                                        structure.trunk_edges, base_idx)
            distances = {structure.cycles[i].key: d for i, d in dist.items()}
            pot = Potential([((-1) ** distances[c.key], c)
                             for c in structure.cycles], distances)
            ab = orc.build_algebra(q, 32003, potential=pot)
            dims.add(ab.dimension)
        assert len(dims) == 1


# -- randomized ---------------------------------------------------------------------------

small_tree = st.tuples(
    st.lists(st.integers(min_value=3, max_value=5), min_size=1, max_size=3),
    st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=2, max_size=2),
)


@settings(max_examples=12, deadline=None)
@given(small_tree)
def test_random_schurian_and_extension(spec):
    lengths, attach = spec
    q = glued_dimer_tree(lengths, attach)
    ab = orc.build_algebra(q, 32003)
    ok, counter = orc.schurian_check(ab)
    assert ok, counter
    for a in ab.structure.boundary_arrows:
        assert orc.extension_lemma_check(ab, a, "right")
        assert orc.extension_lemma_check(ab, a, "left")
    rep = orc.radical_presentation_check(ab)
    assert rep.ok
