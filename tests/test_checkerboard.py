import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimertree import checkerboard as cb
from dimertree import diagonals as dg
from dimertree.quiver import weight_report

import face_refs
import slot_build
from conftest import FIXTURES, cycle_quiver, glued_dimer_tree, load_fixture


def validated_as_the_reference(cp, q):
    """The `validate_checkerboard` report, asserted to carry the items it
    carried when the faces were traversed in `repr` order and compared as
    sorted lists (`face_refs`)."""
    rep = cb.validate_checkerboard(cp, q)
    assert [c.name for c in rep.items].count("faces_match_regions") == 1
    assert rep.items == [face_refs.faces_match_regions(cp)
                         if c.name == "faces_match_regions" else c
                         for c in rep.items]
    return rep


@pytest.fixture(scope="module")
def cp9(q9):
    return cb.build_checkerboard(q9)


@pytest.fixture(scope="module")
def cp7(q7):
    return cb.build_checkerboard(q7)


@pytest.fixture(scope="module")
def cp3(c3):
    return cb.build_checkerboard(c3)


def test_sizes_equal_total_weight(cp9, cp7, cp3):
    assert cp9.size == 14
    assert cp7.size == 12
    assert cp3.size == 6
    for n in range(3, 9):
        cp = cb.build_checkerboard(cycle_quiver(n))
        assert cp.size == 2 * n


def test_c3_lines_are_the_three_diameters(cp3):
    got = {v: (l.tail, l.head) for v, l in cp3.lines.items()}
    assert got == {1: (1, 4), 2: (5, 2), 3: (3, 6)}
    # pairwise crossing, matching the three arrows
    for u in (1, 2, 3):
        others = [(v, cp3.lines[v].diagonal()) for v in (1, 2, 3) if v != u]
        p0, p1 = dg.crossing_lines(cp3.lines[u].diagonal(), others, 3)
        assert sorted(p0 + p1) == [v for v, _ in others]


def test_q9_counts(cp9):
    assert len(cp9.lines) == 9
    assert len(cp9.crossings) == 12
    assert sum(1 for s in cp9.shaded if s.kind == "cycle") == 4
    assert sum(1 for s in cp9.shaded if s.kind == "boundary_arrow") == 9
    assert len(cp9.whites) == 9


def test_q7_counts(cp7):
    assert len(cp7.lines) == 7
    assert len(cp7.crossings) == 8
    assert sum(1 for s in cp7.shaded if s.kind == "cycle") == 2
    assert sum(1 for s in cp7.shaded if s.kind == "boundary_arrow") == 7


def test_validation_suite_passes_everywhere(q9, q7, c3, cp9, cp7, cp3):
    for q, cp in ((q9, cp9), (q7, cp7), (c3, cp3)):
        rep = cb.validate_checkerboard(cp, q)
        assert rep.ok, [(c.name, c.detail) for c in rep.failed()]
    for n in range(3, 9):
        q = cycle_quiver(n)
        rep = cb.validate_checkerboard(cb.build_checkerboard(q), q)
        assert rep.ok, [(c.name, c.detail) for c in rep.failed()]


def test_crossing_count_along_line_is_degree(cp9, q9):
    for v in q9.vertices:
        deg = len(q9.out_arrows[v]) + len(q9.in_arrows[v])
        assert len(cp9.lines[v].crossings) == deg


def test_canonical_rotation_tail_of_least_vertex(cp9, cp7, cp3):
    for cp in (cp9, cp7, cp3):
        vmin = cp.q.sorted_vertices()[0]
        assert cp.lines[vmin].tail == 1


def test_white_regions_spell_cycle_paths(cp9, q9):
    wr = cp9.weights.by_arrow()
    for w in cp9.whites:
        # crossings appear as the starts of all segments after the first
        read = [s.start.key for s in w.segments if s.start.kind == "x"]
        assert tuple(read) == wr[w.arrow].cycle_path.arrows


def test_white_contacts_follow_weights(cp9):
    wr = cp9.weights.by_arrow()
    for w in cp9.whites:
        if wr[w.arrow].weight == 1:
            assert w.contact[0] == "vertex"
        else:
            assert w.contact[0] == "edge"


def test_merged_vertices_host_two_lines(cp9):
    hosts = {k: [] for k in range(1, cp9.size + 1)}
    for line in cp9.lines.values():
        hosts[line.tail].append(line.vertex)
        hosts[line.head].append(line.vertex)
    merged = {k: v for k, v in hosts.items() if len(v) == 2}
    # one merge per weight-one boundary arrow
    ones = sum(1 for e in cp9.weights.entries if e.weight == 1)
    assert len(merged) == ones == 4


def test_misoriented_line_fails_validation(q9):
    cp = cb.build_checkerboard(q9)
    line = cp.lines[3]
    line.tail, line.head = line.head, line.tail
    rep = validated_as_the_reference(cp, q9)
    assert not rep.ok
    assert any(c.name == "radical_lines_are_oriented_2_diagonals"
               for c in rep.failed())


def test_corrupted_crossing_order_caught_by_face_traversal(q9):
    cp = cb.build_checkerboard(q9)
    line = cp.lines[4]
    assert len(line.crossings) >= 3
    line.crossings[0], line.crossings[1] = line.crossings[1], line.crossings[0]
    rep = validated_as_the_reference(cp, q9)
    assert any(c.name == "faces_match_regions" for c in rep.failed())


# a loaded polygon that disagrees with itself fails checks, naming the line
# or the arrow, instead of raising
@pytest.mark.parametrize("edit, name, detail", [
    (lambda d: d["radical_lines"][0]["crossings"].pop(), "faces_match_regions",
     "line 1 does not list its crossing 3->1"),
    (lambda d: d["white"][0].update(segments=[]), "white_regions_spell_cycle_paths",
     "1->2: read (), cycle path ('1->2', '2->3', '3->4', '4->6', '6->9')"),
    (lambda d: d["crossings"].pop(), "faces_match_regions",
     "line 4 lists 9->4, which is no crossing of it"),
    (lambda d: d["radical_lines"].pop(), "crossings_iff_arrows",
     "9: no radical line"),
    (lambda d: d["radical_lines"].pop(), "faces_match_regions",
     "line 9 does not list its crossing 6->9"),
    (lambda d: d["white"][0]["segments"][0].update(line=99),
     "white_regions_spell_cycle_paths",
     "1->2: sides on lines (99, 2, 3, 4, 6, 9), cycle path through "
     "(1, 2, 3, 4, 6, 9)"),
    (lambda d: d["white"][0].update(contact={"type": "vertex", "at": 3}),
     "white_regions_touch_boundary_once",
     "1->2: contact ('vertex', 3), triangle order places it at ('vertex', 1)"),
    (lambda d: d["white"][1].update(contact={"type": "edge", "at": [3, 4]}),
     "white_regions_touch_boundary_once",
     "3->1: contact ('edge', (3, 4)), triangle order places it at "
     "('edge', (2, 3))"),
    (lambda d: d["radical_lines"][0].update(head=18),
     "radical_lines_are_oriented_2_diagonals", "1: label 18 outside 1..14"),
    (lambda d: d["crossings"].pop(), "crossing_count_equals_arrow_count",
     "11 crossings, 12 arrows"),
])
def test_inconsistent_loaded_polygon_fails_validation(q9, cp9, edit, name, detail):
    doc = json.loads(json.dumps(cb.polygon_to_dict(cp9)))
    edit(doc)
    rep = validated_as_the_reference(cb.polygon_from_dict(doc, q9), q9)
    assert {c.name: c.detail for c in rep.failed()}[name] == detail


# the checks that read labels modulo the size report a size no 2N-gon with
# N >= 3 has, instead of dividing by it
@pytest.mark.parametrize("size", [0, 1, 13, -14])
def test_loaded_polygon_of_a_bad_size_fails_validation(q9, cp9, size):
    doc = json.loads(json.dumps(cb.polygon_to_dict(cp9)))
    doc["size"] = size
    rep = validated_as_the_reference(cb.polygon_from_dict(doc, q9), q9)
    reason = f"size {size} is not an even number >= 6"
    assert {c.name: c.detail for c in rep.failed()} == {
        "boundary_edge_count_equals_total_weight": f"size {size}, total weight 14",
        "radical_lines_are_oriented_2_diagonals": reason,
        "crossings_iff_arrows": reason,
        "white_regions_touch_boundary_once": reason,
        "rotated_source_line_misses_target_line": reason,
        "faces_match_regions": reason,
    }


def _doc_line(doc, v):
    return next(line for line in doc["radical_lines"] if line["vertex"] == v)


def _chord_between_boundary_neighbours(doc):
    """Line 7 loses its crossings and runs from label 9 to label 10, beside
    the boundary edge between them."""
    gone = set(_doc_line(doc, 7)["crossings"])
    for line in doc["radical_lines"]:
        line["crossings"] = [a for a in line["crossings"] if a not in gone]
    doc["crossings"] = [c for c in doc["crossings"] if c["arrow"] not in gone]
    _doc_line(doc, 7).update(tail=9, head=10)


def _two_lines_through_the_same_nodes(doc):
    """Line 2 starts at label 1 and crosses line 1 first, so it runs beside
    line 1 from label 1 to their crossing 1->2."""
    _doc_line(doc, 2).update(tail=1, crossings=["1->2", "5->2", "2->3"])


def _two_lines_toward_the_same_label(doc):
    """Line 2 heads for label 4, as line 1 does; both run on toward it from
    their crossing 1->2."""
    _doc_line(doc, 2)["head"] = _doc_line(doc, 1)["head"]


# a ray doubled by another between the same two nodes, or tied with another
# toward the same label out of one crossing, fails the face check by name,
# before the traversal, whatever order the lines and crossings are listed in
@pytest.mark.parametrize("edit, detail", [
    (_chord_between_boundary_neighbours,
     "two rays join label 9 and label 10, on the boundary and line 7"),
    (_two_lines_through_the_same_nodes,
     "two rays join label 1 and crossing 1->2, on line 1 and line 2"),
    (_two_lines_toward_the_same_label,
     "two rays out of crossing 1->2 head for label 4, on line 1 and line 2"),
])
def test_doubled_ray_fails_the_face_check_by_name(q9, cp9, edit, detail):
    doc = json.loads(json.dumps(cb.polygon_to_dict(cp9)))
    edit(doc)
    rng = random.Random(5)
    for _ in range(20):
        rng.shuffle(doc["radical_lines"])
        rng.shuffle(doc["crossings"])
        rep = cb.validate_checkerboard(cb.polygon_from_dict(doc, q9), q9)
        assert {c.name: c.detail for c in rep.failed()}["faces_match_regions"] == detail


def test_unmatched_faces_detail_does_not_follow_string_hashing(q9, cp9):
    """The faces_match_regions detail lists each face's nodes in sorted
    order, so two processes with different string hashing print the same."""
    doc = json.loads(json.dumps(cb.polygon_to_dict(cp9)))
    doc["white"][0]["segments"] = []
    code = ("import json, sys; from dimertree import checkerboard as cb; "
            "from dimertree.quiver import load_quiver; "
            "q = load_quiver(sys.argv[1]); "
            "cp = cb.polygon_from_dict(json.loads(sys.argv[2]), q); "
            "rep = cb.validate_checkerboard(cp, q); "
            "print({c.name: c.detail for c in rep.failed()}['faces_match_regions'])")
    src = str(Path(cb.__file__).resolve().parents[1])
    details = [subprocess.run(
        [sys.executable, "-c", code, str(FIXTURES / "q9.json"), json.dumps(doc)],
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        capture_output=True, text=True, check=True).stdout
        for seed in ("1", "2")]
    assert details[0] == details[1]
    assert details[0].startswith("unmatched faces: [[Node(kind='end', key=1), "
                                 "Node(kind='x', key='1->2'), ")


def test_structured_roundtrip(q9, cp9):
    doc = json.loads(json.dumps(cb.polygon_to_dict(cp9)))
    cp2 = cb.polygon_from_dict(doc, q9)
    rep = cb.validate_checkerboard(cp2, q9)
    assert rep.ok
    assert cb.polygon_to_dict(cp2) == cb.polygon_to_dict(cp9)


def test_render_formats(cp3, cp9):
    svg = cb.render(cp9, "svg")
    assert svg.startswith("<svg") and "marker-end" in svg
    assert svg.count("<circle") == 14
    dot = cb.render(cp3, "dot")
    assert "graph checkerboard" in dot
    structured = cb.render(cp3, "structured")
    assert json.loads(structured)["size"] == 6
    with pytest.raises(cb.CheckerboardError):
        cb.render(cp3, "png")


def test_radical_line_of_unknown_vertex(cp3):
    with pytest.raises(cb.CheckerboardError):
        cp3.radical_line_of(99)


@settings(max_examples=20, deadline=None)
@given(st.tuples(
    st.lists(st.integers(min_value=3, max_value=6), min_size=1, max_size=4),
    st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=3, max_size=3),
))
def test_random_quivers_build_valid_polygons(spec):
    lengths, attach = spec
    q = glued_dimer_tree(lengths, attach)
    cp = cb.build_checkerboard(q)
    assert cp.size == weight_report(q).total_weight
    rep = cb.validate_checkerboard(cp, q)
    assert rep.ok, [(c.name, c.detail) for c in rep.failed()]


@pytest.mark.parametrize("name", sorted(f.stem for f in FIXTURES.glob("*.json")))
def test_face_traversal_matches_the_repr_sorted_reference_on_the_fixtures(name):
    q = load_fixture(name)
    assert validated_as_the_reference(cb.build_checkerboard(q), q).ok


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.tuples(
    st.lists(st.integers(min_value=3, max_value=6), min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=5, max_size=5),
))
def test_face_traversal_matches_the_repr_sorted_reference_on_glued_trees(spec):
    q = glued_dimer_tree(*spec)
    assert validated_as_the_reference(cb.build_checkerboard(q), q).ok


def _same_as_slot_build(q):
    assert (cb.polygon_to_dict(cb.build_checkerboard(q))
            == cb.polygon_to_dict(slot_build.build_checkerboard(q)))


@pytest.mark.parametrize("name", sorted(f.stem for f in FIXTURES.glob("*.json")))
def test_walk_build_matches_the_slot_build_on_the_fixtures(name):
    _same_as_slot_build(load_fixture(name))


# the explicit examples glue a triangle or a square on all of its arrows,
# leaving a cycle with no boundary arrow
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.tuples(
    st.lists(st.integers(min_value=3, max_value=6), min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=5, max_size=5),
))
@example(([3, 4, 4, 4], [0, 0, 0, 0, 0]))
@example(([4, 3, 3, 3, 3, 5], [0, 0, 0, 0, 3]))
def test_walk_build_matches_the_slot_build_on_glued_trees(spec):
    _same_as_slot_build(glued_dimer_tree(*spec))
