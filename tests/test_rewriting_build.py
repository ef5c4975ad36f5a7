"""The oracle's basis build by rewriting, against the cap-loop build it
replaced (`cap_build.py`), and on the trees that build gave up on.

On some trees with a chordless cycle that has no boundary arrow the cap loop
ran past every budget or exited 3; each must now build and pass every check.
"""
import dataclasses
import json
import sys
from pathlib import Path

import pytest

from dimertree import oracle as orc
from dimertree.cli import main
from dimertree.linalg import GF, QQ
from dimertree.quiver import analyze_structure

from cap_build import build_reference
from conftest import (fixture_path, glued_dimer_tree, load_fixture,
                      multiplication_table, parse_json_quiver,
                      quiver_from_arrows)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402
import worker  # noqa: E402

FIELDS = {"GF": GF(32003), "Q": QQ()}
FIXTURES = ["c3", "c4", "c5", "c6", "c7", "c8", "q7", "q9"]
GLUED = {
    "k2": ((3, 5), (1,)),
    "k3": ((4, 3, 5), (2, 7)),
    "k4": ((5, 3, 4, 4), (0, 3, 11)),
}
SCALING = {f"glued_k{k}": gen.scaling_family(1)[k] for k in (4, 8)}
POOL = {doc["name"]: doc for workload in ("sweep", "oracle-q")
        for doc in worker.generated_docs(workload, 1)[:30]}

# Pool trees on which the cap loop never closed its margin: 9 whose build
# ran past 5 s, 2 that exited 3 with "not finite-dimensional at cap 60".
CAP_LOOP_FAILURES = {
    "oracle-q_s1_42": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1], [5, 7], [7, 4], [3, 8], [8, 9], [9, 10], [10, 2], [7, 11], [11, 12], [12, 5], [4, 13], [13, 14], [14, 7], [13, 15], [15, 16], [16, 17], [17, 4]],
    "oracle-q_s1_55": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [3, 6], [6, 7], [7, 2], [1, 8], [8, 5], [5, 9], [9, 10], [10, 11], [11, 8], [2, 12], [12, 13], [13, 14], [14, 15], [15, 1], [8, 16], [16, 17], [17, 1]],
    "oracle-q_s2_4": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [4, 6], [6, 3], [3, 7], [7, 8], [8, 9], [9, 6], [6, 10], [10, 11], [11, 4], [3, 12], [12, 13], [13, 14], [14, 15], [15, 2], [10, 16], [16, 17], [17, 6]],
    "oracle-q_s2_41": [[1, 2], [2, 3], [3, 1], [3, 4], [4, 5], [5, 2], [2, 6], [6, 7], [7, 8], [8, 1], [6, 9], [9, 10], [10, 2], [1, 11], [11, 12], [12, 13], [13, 3], [9, 14], [14, 15], [15, 16], [16, 17], [17, 6]],
    "oracle-q_s2_42": [[1, 2], [2, 3], [3, 1], [2, 4], [4, 5], [5, 1], [1, 6], [6, 7], [7, 8], [8, 3], [3, 9], [9, 10], [10, 11], [11, 2], [7, 12], [12, 13], [13, 6], [1, 14], [14, 15], [15, 16], [16, 17], [17, 5]],
    "oracle-q_s2_57": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [4, 6], [6, 3], [3, 7], [7, 8], [8, 9], [9, 6], [9, 10], [10, 11], [11, 8], [6, 12], [12, 13], [13, 4], [1, 14], [14, 15], [15, 16], [16, 17], [17, 5]],
    "oracle-q_s2_6": [[1, 2], [2, 3], [3, 1], [2, 4], [4, 5], [5, 1], [1, 6], [6, 7], [7, 8], [8, 9], [9, 5], [4, 10], [10, 11], [11, 2], [1, 12], [12, 13], [13, 14], [14, 3], [3, 15], [15, 16], [16, 17], [17, 2]],
    "oracle-q_s2_64": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [5, 6], [6, 4], [4, 7], [7, 8], [8, 6], [4, 9], [9, 10], [10, 11], [11, 3], [3, 12], [12, 13], [13, 14], [14, 15], [15, 11], [6, 16], [16, 17], [17, 5]],
    "oracle-q_s2_79": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [4, 6], [6, 3], [3, 7], [7, 8], [8, 6], [2, 9], [9, 10], [10, 11], [11, 1], [6, 12], [12, 13], [13, 14], [14, 15], [15, 4], [6, 16], [16, 17], [17, 8]],
    "sweep_s2_34": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1], [3, 7], [7, 2], [7, 8], [8, 9], [9, 10], [10, 3], [2, 11], [11, 12], [12, 7]],
    "sweep_s2_40": [[1, 2], [2, 3], [3, 4], [4, 1], [2, 5], [5, 1], [5, 6], [6, 7], [7, 8], [8, 2], [1, 9], [9, 10], [10, 11], [11, 12], [12, 5]],
}


def _quiver(name):
    if name in GLUED:
        return glued_dimer_tree(*GLUED[name])
    if name in SCALING:
        return parse_json_quiver(SCALING[name])
    if name in POOL:
        return parse_json_quiver(POOL[name])
    return load_fixture(name)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", [*FIXTURES, *GLUED, *SCALING, *POOL])
def test_rewriting_build_equals_the_cap_loop(name, field):
    q = _quiver(name)
    ab = orc.build_algebra(q, FIELDS[field])
    ref = build_reference(q, FIELDS[field])
    assert [c.word for c in ab.classes] == [c.word for c in ref.classes]
    assert [(c.source, c.target) for c in ab.classes] == \
        [(c.source, c.target) for c in ref.classes]
    assert ab.by_pair == ref.by_pair
    assert ab.stabilization_length == ref.stabilization_length
    assert multiplication_table(ab) == multiplication_table(ref)


def _cap_loop_failure_paths(tmp_path):
    paths = [fixture_path("interior_triangle")]
    for name, arrows in CAP_LOOP_FAILURES.items():
        path = tmp_path / f"{name}.json"
        vertices = sorted({v for arrow in arrows for v in arrow})
        path.write_text(json.dumps({"name": name, "vertices": vertices,
                                    "arrows": arrows}))
        paths.append(str(path))
    return paths


def _marks(out):
    return [line.split()[0] for line in out.splitlines()
            if line.startswith(("pass ", "FAIL "))]


def test_trees_the_cap_loop_gave_up_on_pass_every_check(tmp_path, capsys):
    for path in _cap_loop_failure_paths(tmp_path):
        for argv in (["all", path, "--field", "32003"],
                     ["all", path, "--field", "Q"],
                     ["oracle", path, "--field", "Q", "--check", "all"]):
            code = main(argv)
            out, err = capsys.readouterr()
            marks = _marks(out)
            assert code == 0 and err == "", (argv, err)
            assert marks and set(marks) == {"pass"}, (argv, out)
            if argv[0] == "oracle":
                assert f"{len(marks)}/{len(marks)} oracle checks passed" in out


def test_a_potential_with_one_sign_flipped_is_refused(q7):
    ab = orc.build_algebra(q7)
    first = ab.potential[0]
    flipped = [dataclasses.replace(first, coeff=-first.coeff), *ab.potential[1:]]
    assert len(flipped) > 1
    with pytest.raises(orc.OracleError, match="is not a single path class"):
        orc.build_algebra(q7, potential=flipped)


def test_infinitely_many_normal_words_name_a_repeated_window():
    # the 2-cycle 1 -> 2 -> 1 survives a rule that kills only 2 -> 3 -> 2
    q = quiver_from_arrows([(1, 2), (2, 1), (2, 3), (3, 2)])
    rules = {("2->3", "3->2"): None}
    ab = orc.AlgebraBasis(q, None, None, GF(2))
    with pytest.raises(orc.OracleError) as exc:
        ab._classes(rules)
    msg = str(exc.value)
    assert msg.startswith("algebra not finite-dimensional: ")
    # 4 normal words of length 1, so a normal word longer than 4 + 1 repeats
    # one of them as a window
    assert "longer than 5 and repeats the window ('1->2',)" in msg


@pytest.mark.parametrize("name", ["q9", "interior_triangle"])
def test_completed_rules_are_reduced(name):
    q = load_fixture(name)
    structure = analyze_structure(q)
    pairs = []
    for a in q.arrows:
        u, *v = (orc._cycle_word_without(c.arrows, a.id)
                 for c in structure.cycles_of_arrow(a.id))
        pairs.append((u, v[0] if v else None))
    rules = orc._complete(pairs)
    lengths = sorted({len(lhs) for lhs in rules})
    for lhs, rhs in rules.items():
        assert not any(orc._has_factor(lhs, other)
                       for other in rules if other != lhs)
        if rhs is not None:
            assert (len(rhs), rhs) < (len(lhs), lhs)
            assert orc._reduce(rules, lengths, rhs) == rhs
