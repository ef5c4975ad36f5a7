"""Structure derived from a parent quiver must equal a fresh full analysis.

A quiver made by `Quiver.edit` keeps its analysed parent and the `Edit`, and
`chordless_cycles` keeps the parent's cycles that the edit left alone and
searches only from the added arrows and the ends of the dropped ones.  Each
test here compares such a derived structure with the analysis of the same
vertices and arrows built afresh, with no parent.
"""
import gc
import random
import weakref

import pytest

from dimertree import mutation as mu
from dimertree import quiver as qv
from dimertree.quiver import Arrow, Quiver, analyze_structure, chordless_cycles

import structure_refs
from conftest import glued_dimer_tree, load_fixture, quiver_from_arrows

FIXTURE_NAMES = ("q9", "q7", "c3", "c4", "c5", "c6", "c7", "c8")


def fresh(q: Quiver) -> Quiver:
    return Quiver(q.vertices, q.arrows, name=q.name)


def whole_table_diff(q: Quiver, parent: Quiver) -> set:
    """The vertices of q that are new, or an endpoint of an arrow added,
    removed or re-pointed since parent, found by comparing the two whole
    arrow tables: the reference for the touched set an edit records, once
    the vertices the edit dropped are taken out of that set."""
    touched = {v for v in q.vertices if v not in parent.out_arrows}
    for x, y in ((q, parent), (parent, q)):
        by_id = y.arrow_by_id
        for a in x.arrows:
            b = by_id.get(a.id)
            if b is not a and b != a:
                touched.update((a.source, a.target))
    return {v for v in touched if v in q.out_arrows}


def same_indexes(q: Quiver, ref: Quiver) -> bool:
    """Whether q has the vertices, arrows and indexes of ref, in order;
    `arrow_between` reads `_arrow_index`."""
    return (q.vertices == ref.vertices and q.arrows == ref.arrows
            and list(q.arrow_by_id.items()) == list(ref.arrow_by_id.items())
            and q.out_arrows == ref.out_arrows
            and list(q.out_arrows) == list(ref.out_arrows)
            and q.in_arrows == ref.in_arrows
            and list(q.in_arrows) == list(ref.in_arrows)
            and q._arrow_index == ref._arrow_index)


def assert_same_structure(derived, full):
    assert derived.cycles == full.cycles
    assert derived.owners == full.owners
    assert derived.classification == full.classification
    assert derived.problems == full.problems
    assert derived.trunk_edges == full.trunk_edges
    assert derived.base == full.base
    assert derived.base_distances == full.base_distances
    for direction in ("cycle", "cocycle"):
        assert derived.path_weights(direction) == full.path_weights(direction)


def reduction_quivers():
    """The fixtures, then seeded glued trees with k = 2, ..., 16 cycles of
    lengths 3 to 6."""
    for name in FIXTURE_NAMES:
        yield name, load_fixture(name)
    rng = random.Random(16)
    for k in range(2, 17):
        lengths = [rng.randint(3, 6) for _ in range(k)]
        attach = [rng.randint(0, 100) for _ in range(k - 1)]
        yield f"glued_k{k}", glued_dimer_tree(lengths, attach)


REDUCTION_QUIVERS = list(reduction_quivers())
REDUCTION_IDS = [n for n, _ in REDUCTION_QUIVERS]


def record_reduction(q, monkeypatch):
    """Reduce q; return the trace, the quiver every move returned, and every
    edit made on the way as (parent, child, the `Edit` and the parent the
    child kept, as the edit left them)."""
    outputs = []
    edits = []
    apply_move, edit = mu.apply_move, Quiver.edit

    def recording_apply_move(qp, kind, site):
        out, move = apply_move(qp, kind, site)
        outputs.append(out.quiver)
        return out, move

    def recording_edit(parent, *args, **kwargs):
        child = edit(parent, *args, **kwargs)
        edits.append((parent, child, child._edit, child._parent))
        return child

    monkeypatch.setattr(mu, "apply_move", recording_apply_move)
    monkeypatch.setattr(Quiver, "edit", recording_edit)
    trace = mu.reduce_to_cycle(q)
    assert len(outputs) == len(trace.steps)
    return trace, outputs, edits


@pytest.mark.parametrize("name,q", REDUCTION_QUIVERS, ids=REDUCTION_IDS)
def test_every_reduction_step_derives_the_full_structure(name, q, monkeypatch):
    trace, outputs, edits = record_reduction(q, monkeypatch)
    # every quiver a move returns is one edit of the quiver the move was given
    assert [child for _, child, _, _ in edits] == outputs
    for (parent, out, edit, kept), step in zip(edits, trace.steps):
        # the parent was analysed, so the child kept it and the edit
        assert kept is parent
        assert {v for v in edit.touched if v in out.out_arrows} \
            == whole_table_diff(out, parent)
        assert out._parent is None and out._edit is None
        # the edit and the constructor index arrows by one step
        assert same_indexes(out, Quiver(step.vertices, step.arrows))
        assert_same_structure(analyze_structure(out), analyze_structure(fresh(out)))
        assert step.quiver_after == mu._quiver_doc(out)


@pytest.mark.parametrize("name,q", REDUCTION_QUIVERS, ids=REDUCTION_IDS)
def test_length_only_walk_matches_the_cycle_paths(name, q, monkeypatch):
    """The weights count each path's arrows without building it; the paths
    `cycle_path` builds must give the same parities."""
    _, outputs, _ = record_reduction(q, monkeypatch)
    for out in outputs:
        s = analyze_structure(out)
        boundary = [a for a, kind in s.classification.items()
                    if kind == "boundary"]
        for d in ("cycle", "cocycle"):
            weights = s.path_weights(d)
            assert list(weights) == boundary
            for a in boundary:
                length = len(qv.cycle_path(s, a, d).arrows)
                assert weights[a] == (1 if length % 2 == 1 else 2), (a, d)


@pytest.mark.parametrize("name,q", REDUCTION_QUIVERS, ids=REDUCTION_IDS)
def test_step_budget_covers_the_reduction(name, q):
    trace = mu.reduce_to_cycle(q)
    assert len(trace.steps) <= mu.step_budget(q)


def assert_audit_as_the_reference(q: Quiver):
    """The counts the analysis recorded in its loop over the arrows, its base
    leaf and its kept search of the dual graph equal a fresh recomputation;
    the leaves, tree test, weights, potential and validation items read from
    them equal the two-pass references (`structure_refs`)."""
    s = analyze_structure(q)
    kind = s.classification
    boundary_at = dict.fromkeys(q.vertices, 0)
    for a in q.arrows:
        if kind[a.id] == "boundary":
            boundary_at[a.source] += 1
            boundary_at[a.target] += 1
    assert list(s.boundary_at.items()) == list(boundary_at.items())
    assert s.interior_count == [[kind[a] for a in c.arrows].count("interior")
                                for c in s.cycles]
    leaves = structure_refs.leaf_cycles(s)
    base = min(leaves, key=lambda c: c.key) if leaves else None
    assert s.base == (None if base is None else s.cycles.index(base))
    assert qv.validate_dimer_tree(q).items == structure_refs.validate_dimer_tree(q).items
    assert s.is_tree() == structure_refs.is_tree(s)
    assert s.base_distances == ({} if base is None else qv.cycle_distances_from(
        len(s.cycles), s.trunk_edges, s.base))
    if s.is_tree():
        assert qv.build_potential(q, s) == structure_refs.build_potential(s)
    for direction in ("cycle", "cocycle"):
        assert s.path_weights(direction) == structure_refs.path_weights(s, direction)


@pytest.mark.parametrize("name,q", REDUCTION_QUIVERS, ids=REDUCTION_IDS)
def test_every_reduction_step_audits_as_the_two_pass_reference(name, q, monkeypatch):
    _, outputs, _ = record_reduction(fresh(q), monkeypatch)
    for out in [fresh(q)] + outputs:
        assert_audit_as_the_reference(out)


def test_deleting_a_chord_exposes_the_cycle_it_cut():
    # 1->3 is a chord of 1->2->3->4->1 and an arrow of the triangle 1->3->4
    parent = quiver_from_arrows([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    assert [c.vertices for c in analyze_structure(parent).cycles] == [(1, 3, 4)]
    child = parent.edit(drop=["1->3"])
    assert child._parent is parent and child._edit.touched == {1, 3}
    derived = analyze_structure(child)
    assert [c.vertices for c in derived.cycles] == [(1, 2, 3, 4)]
    assert_same_structure(derived, analyze_structure(fresh(child)))


def random_quiver(rng, n):
    pairs = {(s, t) for s in range(1, n + 1) for t in range(1, n + 1)
             if s != t and rng.random() < 0.3}
    pairs = sorted(p for p in pairs if p[::-1] not in pairs or p[0] < p[1])
    return quiver_from_arrows(pairs or [(1, 2)])


@pytest.mark.parametrize("seed", range(60))
def test_random_edits_derive_the_full_cycle_list(seed):
    """Remove and re-point arrows, add arrows and a vertex, drop a vertex:
    the cycles derived from the parent are those of a fresh search, and the
    edit's indexes and touched set are those of the whole-table rebuild."""
    rng = random.Random(seed)
    parent = random_quiver(rng, rng.randint(3, 9))
    analyze_structure(parent)
    drop = {a.id for a in parent.arrows if rng.random() < 0.2}
    kept = [a for a in parent.arrows if a.id not in drop]
    added, new_vertices, gone = [], [], []
    vertices = list(parent.vertices)
    if rng.random() < 0.5:
        new_vertices.append(max(vertices) + 1)
        vertices += new_vertices
    if rng.random() < 0.3 and len(vertices) > 3:
        v = rng.choice(parent.vertices)
        gone.append(v)
        vertices.remove(v)
        drop |= {a.id for a in kept if v in (a.source, a.target)}
        kept = [a for a in kept if a.id not in drop]
    if kept and rng.random() < 0.5:
        a = kept.pop(rng.randrange(len(kept)))
        drop.add(a.id)
        added.append(Arrow(a.id, a.target, a.source))      # re-pointed
    pairs = {(a.source, a.target) for a in kept + added}
    for _ in range(rng.randint(0, 3)):
        s, t = rng.sample(vertices, 2)
        if (s, t) not in pairs and (t, s) not in pairs:
            pairs.add((s, t))
            added.append(Arrow(f"new{s}->{t}", s, t))
    child = parent.edit(drop=drop, add=added, drop_vertices=gone,
                        add_vertices=new_vertices)
    assert child._parent is parent
    assert {v for v in child._edit.touched if v in child.out_arrows} \
        == whole_table_diff(child, parent)
    assert same_indexes(child, Quiver(vertices, kept + added))
    assert chordless_cycles(child) == chordless_cycles(fresh(child))
    # random quivers fail validation in every way: no cycle, a cycle in
    # three, a dual graph with a loop or none at all
    assert_audit_as_the_reference(parent)
    assert_audit_as_the_reference(child)


def test_parent_is_freed_once_the_child_is_analysed(q9):
    parent = fresh(q9)
    analyze_structure(parent)
    child = parent.edit(drop=[parent.arrows[0].id])
    ref = weakref.ref(parent)
    del parent
    gc.collect()
    assert ref() is not None            # held until the child is analysed
    analyze_structure(child)
    gc.collect()
    assert ref() is None


def test_only_an_analysed_parent_is_kept(q9):
    parent = fresh(q9)
    assert parent.edit(drop=[parent.arrows[0].id])._parent is None
    analyze_structure(parent)
    middle = parent.edit(drop=[parent.arrows[0].id])
    assert middle._parent is parent
    # an edit of an unanalysed quiver keeps no parent: it is analysed afresh
    child = middle.edit(drop=[middle.arrows[0].id])
    assert child._parent is None and child._edit is None
    assert_same_structure(analyze_structure(child),
                          analyze_structure(fresh(child)))


def test_a_cycle_on_dropped_vertices_is_not_kept():
    # the triangle 4 -> 5 -> 6 hangs off 1 -> 2 -> 3 by the arrow 3 -> 4;
    # dropping its vertices touches only 3 among those left
    parent = quiver_from_arrows([(1, 2), (2, 3), (3, 1), (3, 4), (4, 5),
                                 (5, 6), (6, 4)])
    assert len(analyze_structure(parent).cycles) == 2
    child = parent.edit(drop=["3->4", "4->5", "5->6", "6->4"],
                        drop_vertices=[4, 5, 6])
    assert [c.vertices for c in chordless_cycles(child)] == [(1, 2, 3)]


def test_an_edit_checks_what_it_drops_and_adds(q9):
    with pytest.raises(qv.QuiverError, match="unknown arrow"):
        q9.edit(drop=["nope"])
    with pytest.raises(qv.QuiverError, match="but not its arrows"):
        q9.edit(drop_vertices=[q9.vertices[0]])
    with pytest.raises(qv.QuiverError, match="duplicate arrow id"):
        q9.edit(add=[Arrow(q9.arrows[0].id, 1, 2)])
    with pytest.raises(qv.QuiverError, match="unknown target"):
        q9.edit(add=[Arrow("new", 1, "nowhere")])
    with pytest.raises(qv.QuiverError, match="duplicate vertex"):
        q9.edit(add_vertices=[q9.vertices[0]])
