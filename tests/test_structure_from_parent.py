"""Structure derived from a parent quiver must equal a fresh full analysis.

A quiver built by a move keeps its analysed parent, and `chordless_cycles`
keeps the parent's cycles away from the edit and searches only from the
touched vertices.  Each test here compares such a derived structure with the
analysis of the same vertices and arrows built afresh, with no parent.
"""
import gc
import random
import weakref

import pytest

from dimertree import mutation as mu
from dimertree import quiver as qv
from dimertree.quiver import Arrow, Quiver, analyze_structure, chordless_cycles

from conftest import glued_dimer_tree, load_fixture, quiver_from_arrows

FIXTURE_NAMES = ("q9", "q7", "c3", "c4", "c5", "c6", "c7", "c8")


def fresh(q: Quiver) -> Quiver:
    return Quiver(q.vertices, q.arrows, name=q.name)


def assert_same_structure(derived, full):
    assert derived.cycles == full.cycles
    assert derived.owners == full.owners
    assert derived.classification == full.classification
    assert derived.problems == full.problems
    assert derived.dual == full.dual
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
    quiver whose structure was derived from a parent's."""
    outputs = []
    derivations = []
    apply_move, touched = mu.apply_move, qv._touched_vertices

    def recording_apply_move(qp, kind, site):
        out, move = apply_move(qp, kind, site)
        outputs.append(out.quiver)
        return out, move

    def counting_touched(q, parent):
        derivations.append(q)
        return touched(q, parent)

    monkeypatch.setattr(mu, "apply_move", recording_apply_move)
    monkeypatch.setattr(qv, "_touched_vertices", counting_touched)
    trace = mu.reduce_to_cycle(q)
    assert len(outputs) == len(trace.steps)
    return trace, outputs, derivations


@pytest.mark.parametrize("name,q", REDUCTION_QUIVERS, ids=REDUCTION_IDS)
def test_every_reduction_step_derives_the_full_structure(name, q, monkeypatch):
    _, outputs, derivations = record_reduction(q, monkeypatch)
    # every quiver a move returns was analysed from its parent's structure
    assert {id(x) for x in outputs} <= {id(x) for x in derivations}
    for out in outputs:
        assert out._parent is None
        assert_same_structure(analyze_structure(out), analyze_structure(fresh(out)))


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


def test_deleting_a_chord_exposes_the_cycle_it_cut():
    # 1->3 is a chord of 1->2->3->4->1 and an arrow of the triangle 1->3->4
    parent = quiver_from_arrows([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    assert [c.vertices for c in analyze_structure(parent).cycles] == [(1, 3, 4)]
    child = Quiver(parent.vertices,
                   [a for a in parent.arrows if a.id != "1->3"], parent=parent)
    assert child._parent is parent
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
    the cycles derived from the parent are those of a fresh search."""
    rng = random.Random(seed)
    parent = random_quiver(rng, rng.randint(3, 9))
    analyze_structure(parent)
    arrows = [a for a in parent.arrows if rng.random() > 0.2]
    vertices = list(parent.vertices)
    if rng.random() < 0.5:
        vertices.append(max(vertices) + 1)
    if rng.random() < 0.3 and len(vertices) > 3:
        gone = rng.choice(vertices)
        vertices.remove(gone)
        arrows = [a for a in arrows if gone not in (a.source, a.target)]
    if arrows and rng.random() < 0.5:
        i = rng.randrange(len(arrows))
        a = arrows[i]
        arrows[i] = Arrow(a.id, a.target, a.source)      # re-pointed
    pairs = {(a.source, a.target) for a in arrows}
    for _ in range(rng.randint(0, 3)):
        s, t = rng.sample(vertices, 2)
        if (s, t) not in pairs and (t, s) not in pairs:
            pairs.add((s, t))
            arrows.append(Arrow(f"new{s}->{t}", s, t))
    child = Quiver(vertices, arrows, parent=parent)
    assert child._parent is parent
    assert chordless_cycles(child) == chordless_cycles(fresh(child))


def test_parent_is_freed_once_the_child_is_analysed(q9):
    parent = fresh(q9)
    analyze_structure(parent)
    child = Quiver(parent.vertices, parent.arrows[1:], parent=parent)
    ref = weakref.ref(parent)
    del parent
    gc.collect()
    assert ref() is not None            # held until the child is analysed
    analyze_structure(child)
    gc.collect()
    assert ref() is None


def test_only_an_analysed_parent_is_kept(q9):
    parent = fresh(q9)
    assert Quiver(parent.vertices, parent.arrows, parent=parent)._parent is None
    analyze_structure(parent)
    middle = Quiver(parent.vertices, parent.arrows[1:], parent=parent)
    # an unanalysed step hands on its own analysed parent
    child = Quiver(middle.vertices, middle.arrows[1:], parent=middle)
    assert child._parent is parent
    assert_same_structure(analyze_structure(child),
                          analyze_structure(fresh(child)))
