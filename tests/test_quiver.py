import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimertree import checkerboard as cb
from dimertree import mutation as mu
from dimertree import oracle as orc
from dimertree import quiver as quiver_mod
from dimertree.quiver import (
    Arrow,
    Quiver,
    QuiverError,
    analyze_structure,
    build_potential,
    chordless_cycles,
    cycle_path,
    load_quiver,
    parse_quiver,
    validate_dimer_tree,
    weight_report,
)

from conftest import cycle_quiver, glued_dimer_tree, quiver_from_arrows


# -- parsing -------------------------------------------------------------------

def test_parse_q9_document(q9):
    assert q9.name == "q9"
    assert len(q9.vertices) == 9
    assert len(q9.arrows) == 12
    assert q9.arrow_by_id["1->2"].target == 2


def test_parse_preserves_arrow_order(q9):
    assert [a.id for a in q9.arrows][:4] == ["1->2", "2->3", "3->1", "3->4"]


def test_parse_object_arrows_and_ids():
    q = parse_quiver(json.dumps({
        "name": "t", "vertices": ["a", "b", "c"],
        "arrows": [{"id": "x", "source": "a", "target": "b"},
                   ["b", "c"], ["y", "c", "a"]]}))
    assert q.arrow_by_id["x"].source == "a"
    assert "b->c" in q.arrow_by_id
    assert (q.arrow_by_id["y"].source, q.arrow_by_id["y"].target) == ("c", "a")


@pytest.mark.parametrize("doc,fragment", [
    ("{not json", "malformed"),
    ('{"vertices": [1]}', "missing required field"),
    ('{"name": "l", "vertices": [1], "arrows": [[1, 1]]}', "loop"),
    ('{"name": "p", "vertices": [1, 2], "arrows": [[1, 2], [1, 2]]}', "parallel"),
    ('{"name": "t", "vertices": [1, 2], "arrows": [[1, 2], [2, 1]]}', "2-cycle"),
    ('{"name": "d", "vertices": [1, 2], "arrows": [[1, 3]]}', "unknown"),
    pytest.param('{"vertices": [1, 2], "arrows": [["a", 1, 2, 3]]}',
                 "arrows[0]: expected [source, target] or [id, source, target]",
                 id="arrow-list-of-four"),
    pytest.param('{"vertices": [1, 2], "arrows": [[7, 1, 2]]}',
                 "arrows[0]: arrow id must be a string", id="triple-int-id"),
    pytest.param('{"vertices": [1, 2], "arrows": [{"id": 7, "source": 1, "target": 2}]}',
                 "arrows[0]: arrow id must be a string", id="object-int-id"),
    pytest.param('{"vertices": [1, 2, 3], "arrows": [["a", 1, 2], ["a", 2, 3]]}',
                 "arrows[1]: duplicate arrow id 'a'", id="duplicate-id"),
    pytest.param('{"vertices": [1, 2], "arrows": [["a", 1, 2], ["b", 1, 2]]}',
                 "arrows[1]: parallel arrows 1->2 (first at arrows[0])",
                 id="parallel-distinct-ids"),
    # several faults: the arrows are indexed one by one, each checked for a
    # repeated id and then for unknown ends, so the first faulty arrow is
    # reported
    pytest.param('{"vertices": [1, 2, 3], "arrows": [["x", 1, 9], ["a", 1, 2], ["a", 2, 3]]}',
                 "arrow x: unknown target 9", id="unknown-target-before-duplicate-id"),
    pytest.param('{"vertices": [1, 2, 3], "arrows": [["x", 9, 1], ["a", 1, 2], ["a", 1, 2]]}',
                 "arrow x: unknown source 9", id="unknown-source-before-repeated-arrow"),
    pytest.param('{"vertices": [1, 2, 3], "arrows": [["a", 1, 2], ["a", 2, 3], ["x", 1, 9]]}',
                 "arrows[1]: duplicate arrow id 'a'", id="duplicate-id-before-unknown-target"),
    pytest.param('{"vertices": [1, 1, 2], "arrows": [[1, 9]]}',
                 "duplicate vertex ids", id="duplicate-vertex-before-unknown-target"),
    pytest.param("[" * 100_000 + "]" * 100_000, "malformed document: maximum recursion",
                 id="nested-too-deep"),
    pytest.param(b"\xff\xfe{}", "malformed document: 'utf-8' codec",
                 id="not-utf-8"),
    pytest.param('{"vertices": [' + "1" * 5000 + '], "arrows": []}',
                 "malformed document: Exceeds the limit", id="integer-too-long"),
])
def test_parse_errors(doc, fragment, tmp_path):
    with pytest.raises(QuiverError) as err:
        if isinstance(doc, bytes):
            # bytes are read from a file, which must be UTF-8
            path = tmp_path / "doc.json"
            path.write_bytes(doc)
            load_quiver(str(path))
        else:
            parse_quiver(doc)
    assert fragment in str(err.value)


def test_parse_disconnected_rejected():
    doc = {"name": "d", "vertices": [1, 2, 3, 4, 5, 6],
           "arrows": [[1, 2], [2, 3], [3, 1], [4, 5], [5, 6], [6, 4]]}
    with pytest.raises(QuiverError, match="connected"):
        parse_quiver(json.dumps(doc))


# -- chordless cycles ------------------------------------------------------------

def brute_force_chordless(q):
    """Independent oracle: filter the simple directed cycles of the quiver."""
    g = nx.DiGraph()
    g.add_nodes_from(q.vertices)
    g.add_edges_from((a.source, a.target) for a in q.arrows)
    found = set()
    for cyc in nx.simple_cycles(g):
        if len(cyc) < 3:
            continue
        vs = set(cyc)
        induced = [a for a in q.arrows if a.source in vs and a.target in vs]
        if len(induced) == len(cyc):
            i = cyc.index(min(cyc, key=lambda v: (str(type(v)), str(v))))
            found.add(tuple(cyc[i:] + cyc[:i]))
    return found


def as_vertex_cycles(cycles):
    out = set()
    for c in cycles:
        vs = list(c.vertices)
        i = vs.index(min(vs, key=lambda v: (str(type(v)), str(v))))
        out.add(tuple(vs[i:] + vs[:i]))
    return out


def test_q9_cycles_match_brute_force(q9):
    cycles = chordless_cycles(q9)
    assert len(cycles) == 4
    assert as_vertex_cycles(cycles) == brute_force_chordless(q9)
    assert {tuple(sorted(c.vertices)) for c in cycles} == {
        (1, 2, 3), (2, 3, 4, 5), (3, 4, 6, 7, 8), (4, 6, 9)}


def test_q7_cycles(q7):
    cycles = chordless_cycles(q7)
    assert {tuple(sorted(c.vertices)) for c in cycles} == {
        (1, 2, 3, 4, 5), (4, 5, 6, 7)}
    assert as_vertex_cycles(cycles) == brute_force_chordless(q7)


@pytest.mark.parametrize("seed", range(40))
def test_random_digraph_cycles_match_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    pairs = {(s, t) for s in range(1, n + 1) for t in range(1, n + 1)
             if s != t and rng.random() < 0.3}
    pairs = sorted(p for p in pairs if p[::-1] not in pairs or p[0] < p[1])
    q = quiver_from_arrows(pairs or [(1, 2)])
    assert as_vertex_cycles(chordless_cycles(q)) == brute_force_chordless(q)


def test_q9_arrow_classification(q9):
    st_ = analyze_structure(q9)
    assert sorted(st_.interior_arrows) == ["2->3", "3->4", "4->6"]
    assert len(st_.boundary_arrows) == 9
    # dual graph: path of 4 cycle nodes, and a leaf per boundary arrow
    assert len(st_.trunk_edges) == 3
    assert st_.is_tree()


def test_c3_structure(c3):
    st_ = analyze_structure(c3)
    assert len(st_.cycles) == 1
    assert len(st_.boundary_arrows) == 3
    assert st_.trunk_edges == []
    assert st_.is_tree()


# -- validation ------------------------------------------------------------------

def test_validate_fixtures_pass(q9, q7, c3):
    for q in (q9, q7, c3):
        assert validate_dimer_tree(q).ok


def test_validate_single_arrow_fails_cycle_cover():
    q = quiver_from_arrows([(1, 2)])
    rep = validate_dimer_tree(q)
    assert not rep.ok
    failed = {c.name for c in rep.failed()}
    assert "every_arrow_on_a_cycle" in failed


def test_validate_non_tree_dual_fails():
    # two hexagons sharing the two arrows 1->2 and 4->5
    q = quiver_from_arrows([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1),
                            (2, 7), (7, 4), (5, 8), (8, 1)])
    rep = validate_dimer_tree(q)
    assert not rep.ok
    assert "dual_graph_is_tree" in {c.name for c in rep.failed()}


def full_dual_graph(structure):
    """Node count, edge count and tree verdict of the whole dual graph: the
    cycles and the boundary arrows as nodes, the trunk edges and a leaf
    branch from each cycle to each of its boundary arrows as edges, checked
    by union-find over all of them."""
    boundary = set(structure.boundary_arrows)
    edges = [(i, j) for i, j, _ in structure.trunk_edges]
    edges += [(i, a) for i, c in enumerate(structure.cycles)
              for a in c.arrows if a in boundary]
    n = len(structure.cycles) + len(boundary)
    if n == 0 or len(edges) != n - 1:
        return n, len(edges), False
    root = {}
    for x, y in edges:
        while x in root:
            x = root[x]
        while y in root:
            y = root[y]
        if x == y:
            return n, len(edges), False
        root[y] = x
    return n, len(edges), True


@st.composite
def glued_or_random_quivers(draw):
    """A glued dimer tree with up to three extra arrows, a random digraph,
    or a fan of triangles on the arrow 1->2 with triangles hung at single
    vertices: valid trees, and invalid quivers whose dual graph is or is
    not a tree.  A fan of k triangles has k(k-1)/2 trunk edges, so with
    the hung triangles the edge count can fit a tree around a cycle."""
    kind = draw(st.sampled_from(("glued", "random", "fan")))
    extra = 0
    if kind == "glued":
        lengths = draw(st.lists(st.integers(3, 6), min_size=1, max_size=5))
        attach = draw(st.lists(st.integers(0, 100), min_size=4, max_size=4))
        pairs = [(a.source, a.target)
                 for a in glued_dimer_tree(lengths, attach).arrows]
        n, extra = max(max(p) for p in pairs), draw(st.integers(0, 3))
    elif kind == "random":
        pairs, n = [], draw(st.integers(2, 8))
        extra = draw(st.integers(1, 3 * n))
    else:
        k = draw(st.integers(2, 4))
        pairs = [(1, 2)] + [p for x in range(3, k + 3) for p in ((2, x), (x, 1))]
        n = k + 2
        for _ in range(draw(st.integers(0, 3))):
            v = draw(st.integers(1, n))
            pairs += [(v, n + 1), (n + 1, n + 2), (n + 2, v)]
            n += 2
    for _ in range(extra):
        s, t = draw(st.integers(1, n)), draw(st.integers(1, n))
        if s != t and (s, t) not in pairs and (t, s) not in pairs:
            pairs.append((s, t))
    return quiver_from_arrows(pairs)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(glued_or_random_quivers())
def test_trunk_only_tree_test_matches_the_full_dual_graph(q):
    structure = analyze_structure(q)
    nodes, edges, tree = full_dual_graph(structure)
    assert structure.is_tree() == tree
    check = next(c for c in validate_dimer_tree(q).items
                 if c.name == "dual_graph_is_tree")
    assert check.passed == tree
    if not tree:
        assert check.detail == f"dual graph has {nodes} nodes and {edges} edges"


def test_parallel_arrows_named_with_their_endpoints():
    # the parser rejects parallel arrows at load, so build the Quiver directly
    q = Quiver([1, 2, 3], [Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 1),
                           Arrow("d", 2, 3), Arrow("e", 1, 2)])
    check = next(c for c in validate_dimer_tree(q).items
                 if c.name == "no_parallel_arrows")
    assert not check.passed
    assert check.detail == "arrows b and d both run 2->3"
    ok = next(c for c in validate_dimer_tree(quiver_from_arrows(
        [(1, 2), (2, 3), (3, 1)])).items if c.name == "no_parallel_arrows")
    assert ok.passed and ok.detail == ""


def test_cycles_on_parallel_arrows_print_differently():
    # a and d both run 1->2, so two cycles have the same vertex route
    q = Quiver([1, 2, 3], [Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 1),
                           Arrow("d", 1, 2)])
    cycles = analyze_structure(q).cycles
    assert len(cycles) == 2
    assert len({repr(c) for c in cycles}) == 2
    assert repr(cycles[0]) == "Cycle(1->2->3 via a, b, c)"
    check = next(c for c in validate_dimer_tree(q).items
                 if c.name == "cycles_share_at_most_one_arrow")
    assert not check.passed
    assert check.detail == ("cycles Cycle(1->2->3 via a, b, c) and "
                            "Cycle(1->2->3 via d, b, c) share ['b', 'c']")


def test_arrow_in_three_cycles_reported():
    q = quiver_from_arrows([(1, 2), (2, 3), (3, 1), (2, 4), (4, 1), (2, 5), (5, 1)])
    st_ = analyze_structure(q)
    assert st_.classification["1->2"] == "overloaded"
    assert any("3 chordless cycles" in p for p in st_.problems)
    rep = validate_dimer_tree(q)
    assert not rep.ok
    assert "every_arrow_in_at_most_two_cycles" in {c.name for c in rep.failed()}


# -- potential -------------------------------------------------------------------

def test_potential_c3(c3):
    pot = build_potential(c3)
    assert len(pot.terms) == 1
    assert pot.terms[0][0] == 1


def test_potential_q7_signs(q7):
    pot = build_potential(q7)
    signs = {tuple(sorted(c.vertices)): s for s, c in pot.terms}
    assert signs[(1, 2, 3, 4, 5)] == 1    # base cycle under the tie-break
    assert signs[(4, 5, 6, 7)] == -1


def test_potential_q9_alternates_along_dual_path(q9):
    pot = build_potential(q9)
    signs = {tuple(sorted(c.vertices)): s for s, c in pot.terms}
    assert signs[(1, 2, 3)] == 1
    assert signs[(2, 3, 4, 5)] == -1
    assert signs[(3, 4, 6, 7, 8)] == 1
    assert signs[(4, 6, 9)] == -1
    base = [c for s, c in pot.terms if pot.distances[c.key] == 0]
    assert [tuple(sorted(c.vertices)) for c in base] == [(1, 2, 3)]


def test_potential_requires_valid_quiver():
    q = quiver_from_arrows([(1, 2)])
    with pytest.raises(QuiverError):
        build_potential(q)


@pytest.mark.parametrize("stage,entry", [
    ("potential", build_potential),
    ("weight report", weight_report),
    ("checkerboard", cb.build_checkerboard),
    ("oracle", orc.build_algebra),
    ("mutation", mu.qp_from_quiver),
])
def test_entry_points_share_one_validity_gate(stage, entry, c3, monkeypatch):
    """Each entry point validates its input once and rejects an invalid one
    with a QuiverError naming its stage."""
    calls = []
    original = quiver_mod.validate_dimer_tree

    def counted(q):
        calls.append(q)
        return original(q)

    monkeypatch.setattr(quiver_mod, "validate_dimer_tree", counted)
    with pytest.raises(QuiverError, match=(
            f"^{stage} requires a valid dimer tree quiver: failed "
            "every_arrow_on_a_cycle")):
        entry(quiver_from_arrows([(1, 2)]))
    entry(c3)
    assert len(calls) == 2


# -- cycle paths and weights ------------------------------------------------------

PAPER_TABLE = {
    "1->2": ("1->2->3->4->6->9", 1),
    "3->1": ("3->1->2", 2),
    "8->3": ("8->3->4->5", 1),
    "7->8": ("7->8->3", 2),
    "6->7": ("6->7->8", 2),
    "6->9": ("6->9->4", 2),
    "9->4": ("9->4->6->7", 1),
    "4->5": ("4->5->2", 2),
    "5->2": ("5->2->3->1", 1),
}


def test_q9_cycle_paths_and_weights(q9):
    wr = weight_report(q9)
    got = {e.arrow: (e.cycle_path.pretty(q9), e.weight) for e in wr.entries}
    assert got == PAPER_TABLE
    assert wr.total_weight == 14
    assert wr.half == 7


def test_cycle_path_examples(q9, q7):
    st9 = analyze_structure(q9)
    cp = cycle_path(st9, "1->2")
    assert cp.arrows == ("1->2", "2->3", "3->4", "4->6", "6->9")
    # each turn of the path follows one cycle, and no cycle twice
    witnesses = [[c for c in st9.cycles_of_arrow(a) if c.next_arrows("cycle")[a] == b]
                 for a, b in zip(cp.arrows, cp.arrows[1:])]
    assert [len(w) for w in witnesses] == [1] * (cp.length - 1)
    assert len({w[0].key for w in witnesses}) == cp.length - 1
    assert cycle_path(st9, "3->1").arrows == ("3->1", "1->2")
    st7 = analyze_structure(q7)
    assert cycle_path(st7, "1->4").arrows == ("1->4", "4->5", "5->6")


def test_cycle_path_rejects_interior(q9):
    st9 = analyze_structure(q9)
    with pytest.raises(QuiverError, match="not a boundary arrow"):
        cycle_path(st9, "2->3")


def test_cocycle_recovers_cycle_path(q9):
    st9 = analyze_structure(q9)
    wr = weight_report(q9, st9)
    for e in wr.entries:
        last = e.cycle_path.arrows[-1]
        back = cycle_path(st9, last, "cocycle")
        assert back.arrows == e.cycle_path.arrows


def test_cn_weights_all_two():
    for n in range(3, 9):
        q = cycle_quiver(n)
        wr = weight_report(q)
        assert all(e.weight == 2 and e.coweight == 2 for e in wr.entries)
        assert wr.total_weight == 2 * n


def test_q7_weights(q7):
    wr = weight_report(q7)
    by = {e.arrow: e.weight for e in wr.entries}
    # 4->5 is the interior arrow shared by both cycles, so it carries no weight
    assert by == {"2->1": 2, "1->4": 1, "5->3": 2, "3->2": 2,
                  "5->6": 2, "6->7": 2, "7->4": 1}
    assert wr.total_weight == 12


# -- randomized properties ---------------------------------------------------------

tree_spec = st.tuples(
    st.lists(st.integers(min_value=3, max_value=6), min_size=1, max_size=4),
    st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=3, max_size=3),
)


@settings(max_examples=40, deadline=None)
@given(tree_spec)
def test_random_dimer_trees_satisfy_invariants(spec):
    lengths, attach = spec
    q = glued_dimer_tree(lengths, attach)
    rep = validate_dimer_tree(q)
    assert rep.ok, [c.name for c in rep.failed()]
    wr = weight_report(q, rep.structure)
    assert wr.total_weight % 2 == 0
    assert sum(e.weight for e in wr.entries) == sum(e.coweight for e in wr.entries)
    # every vertex has exactly two incident boundary arrows
    boundary = set(rep.structure.boundary_arrows)
    for v in q.vertices:
        inc = [a for a in q.arrows
               if a.id in boundary and v in (a.source, a.target)]
        assert len(inc) == 2
    assert as_vertex_cycles(rep.structure.cycles) == brute_force_chordless(q)


@settings(max_examples=25, deadline=None)
@given(tree_spec)
def test_random_cocycle_duality(spec):
    lengths, attach = spec
    q = glued_dimer_tree(lengths, attach)
    st_ = analyze_structure(q)
    wr = weight_report(q, st_)
    for e in wr.entries:
        back = cycle_path(st_, e.cycle_path.arrows[-1], "cocycle")
        assert back.arrows == e.cycle_path.arrows
