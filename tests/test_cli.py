import __future__
import dataclasses
import inspect
import json
import sys
import time

import pytest

from dimertree import cli
from dimertree import oracle as orc
from dimertree.cli import main

from dimertree.quiver import StructureReport, load_quiver

from conftest import FIXTURES as FIXTURE_DIR
from conftest import fixture_path, glued_dimer_tree, load_fixture

sys.path.insert(0, str(FIXTURE_DIR.parent / "perfbench"))
import worker  # noqa: E402


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_pass(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("q9"))
    assert code == 0
    assert "pass  dual_graph_is_tree" in out


def test_validate_fail_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "b", "vertices": [1, 2],
                               "arrows": [[1, 2]]}))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "FAIL" in out


def test_missing_file_is_bad_input(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "weights", "no-such-file.json")
    assert exc.value.code == 2


def test_malformed_file_is_bad_input(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{")
    with pytest.raises(SystemExit) as exc:
        run(capsys, "validate", str(bad))
    assert exc.value.code == 2


def test_non_utf8_file_is_bad_input(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{}")
    with pytest.raises(SystemExit) as exc:
        run(capsys, "validate", str(bad))
    assert exc.value.code == 2
    assert "malformed document" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["all", "oracle"])
@pytest.mark.parametrize("via_env", [False, True])
def test_all_refuses_a_bad_field_before_any_check(cmd, via_env, capsys,
                                                  monkeypatch):
    argv = [cmd, fixture_path("c3")]
    if via_env:
        monkeypatch.setenv("DIMERTREE_FIELD", "4")
    else:
        argv += ["--field", "4"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: 4 is not prime\n"


def test_weights_table(capsys):
    code, out, _ = run(capsys, "weights", fixture_path("q9"))
    assert code == 0
    assert "1->2->3->4->6->9" in out
    assert "total weight: 14" in out


def test_weights_structured_deterministic(capsys):
    code1, out1, _ = run(capsys, "weights", fixture_path("q7"),
                         "--format", "structured")
    code2, out2, _ = run(capsys, "weights", fixture_path("q7"),
                         "--format", "structured")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["total_weight"] == 12


def test_polygon_text_and_exit(capsys):
    code, out, _ = run(capsys, "polygon", fixture_path("c3"))
    assert code == 0
    assert "polygon size: 6" in out


def test_polygon_structured_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "poly.json"
    code, _, _ = run(capsys, "polygon", fixture_path("q9"),
                     "--format", "structured", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["size"] == 14
    from dimertree import checkerboard as cb
    from dimertree.quiver import load_quiver
    q = load_quiver(fixture_path("q9"))
    cp = cb.polygon_from_dict(doc, q)
    assert cb.validate_checkerboard(cp, q).ok


def test_polygon_svg(tmp_path, capsys):
    out_file = tmp_path / "poly.svg"
    code, _, _ = run(capsys, "polygon", fixture_path("q7"),
                     "--format", "svg", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("<svg")


@pytest.mark.parametrize("argv", [
    ("polygon", "q9"),
    ("resolve", "q9", "--diagonal", "5,12"),
    ("all", "q9"),
])
def test_checkerboard_failure_is_an_internal_error_in_every_command(
        capsys, monkeypatch, argv):
    from dimertree import checkerboard as cb

    def fail(*args, **kwargs):
        raise cb.CheckerboardError("triangle walk closed early")

    monkeypatch.setattr(cb, "build_checkerboard", fail)
    cmd, fixture, *rest = argv
    code, _, err = run(capsys, cmd, fixture_path(fixture), *rest)
    assert code == 3
    assert err.splitlines()[-1] == (
        "internal error: CheckerboardError: triangle walk closed early")


def test_diag_by_size(capsys):
    code, out, _ = run(capsys, "diag", "--size", "10")
    assert code == 0
    assert "15 2-diagonals" in out
    assert "translation axiom: pass" in out
    assert "boundary-arc bijection: pass" in out


def test_diag_from_quiver_structured(capsys):
    code, out, _ = run(capsys, "diag", fixture_path("q7"),
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6
    assert len(doc["diagonals"]) == 24


def test_diag_dot(capsys):
    code, out, _ = run(capsys, "diag", "--size", "6", "--format", "dot")
    assert code == 0
    assert "digraph" in out


def test_diag_bad_size(capsys):
    code, _, err = run(capsys, "diag", "--size", "7")
    assert code == 2


@pytest.mark.parametrize("size", [cli.MAX_DIAG_SIZE + 2, 1000000])
def test_diag_size_above_the_bound_is_refused_before_any_build(
        capsys, monkeypatch, size):
    def build(n):
        raise AssertionError(f"ar_quiver({n}) was called")
    monkeypatch.setattr(cli.dg, "ar_quiver", build)
    code, out, err = run(capsys, "diag", "--size", str(size))
    assert code == 2
    assert out == ""
    assert err == (f"error: --size must be an even number from 6 to "
                   f"{cli.MAX_DIAG_SIZE}, got {size}\n")


def test_resolve(capsys):
    code, out, _ = run(capsys, "resolve", fixture_path("q9"),
                       "--diagonal", "5,12")
    assert code == 0
    assert "P1=[5, 6]" in out and "P0=[3, 4]" in out
    # (5,12) is a diameter of the 14-gon, so the half turn already fixes it
    assert "minimal period: 7" in out
    # 2N = 14 steps, the most --steps accepts (see the out-of-range cases)
    code, out, _ = run(capsys, "resolve", fixture_path("q9"),
                       "--diagonal", "5,12", "--steps", "14")
    assert code == 0
    assert "step 14:" in out and "step 15:" not in out


def test_resolve_bad_diagonal(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "resolve", fixture_path("q9"), "--diagonal", "1,2")
    assert exc.value.code == 2


@pytest.mark.parametrize("spec", ["1,2,3", "1,x"])
def test_resolve_diagonal_not_two_integers_names_the_expected_form(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "resolve", fixture_path("q9"), "--diagonal", spec)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: bad diagonal {spec!r}: expected two integer "
                   "labels A,B in 1..14\n")


@pytest.mark.parametrize("argv, reason", [
    (("resolve", "q9", "--diagonal", "5,12", "--steps", "-2"),
     "--steps: must be at least 0, got -2"),
    (("resolve", "q9", "--diagonal", "5,12", "--steps", "15"),
     "--steps: must be at most 14"),
])
def test_out_of_range_counts_are_bad_input(capsys, argv, reason):
    cmd, fixture, *rest = argv
    with pytest.raises(SystemExit) as exc:
        run(capsys, cmd, fixture_path(fixture), *rest)
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err


def test_reduce_with_trace(tmp_path, capsys):
    trace_file = tmp_path / "trace.json"
    code, out, _ = run(capsys, "reduce", fixture_path("q7"),
                       "--trace", str(trace_file))
    assert code == 0
    assert "single cycle of length 6" in out
    doc = json.loads(trace_file.read_text())
    assert doc["final_cycle_length"] == 6
    assert all(s["total_weight_before"] == 12 for s in doc["steps"])


def test_oracle_all_checks(capsys):
    code, out, _ = run(capsys, "oracle", fixture_path("c3"), "--check", "all")
    assert code == 0
    assert "oracle checks passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("fixture", ["q9", "c3"])
def test_oracle_all_is_the_four_sections_in_order(capsys, fixture):
    def check_lines(section):
        code, out, _ = run(capsys, "oracle", fixture_path(fixture),
                           "--check", section)
        assert code == 0
        return [line for line in out.splitlines()
                if line.startswith(("pass ", "FAIL "))]

    whole = check_lines("all")
    assert whole == [line for section in ("schurian", "extension", "radicals",
                                          "boundary-ext")
                     for line in check_lines(section)]
    report = orc.full_oracle_report(orc.build_algebra(load_fixture(fixture)))
    assert [line.split()[1] for line in whole] == [c.name for c in report.items]


def test_oracle_field_flag(capsys):
    code, out, _ = run(capsys, "oracle", fixture_path("c3"),
                       "--check", "schurian", "--field", "Q")
    assert code == 0
    assert "QQ" in out


def test_oracle_env_field(capsys, monkeypatch):
    monkeypatch.setenv("DIMERTREE_FIELD", "101")
    code, out, _ = run(capsys, "oracle", fixture_path("c3"),
                       "--check", "schurian")
    assert code == 0
    assert "GF(101)" in out


def test_env_field_read_on_every_call_of_one_process(capsys, monkeypatch):
    # the parser is built on the first call and kept; its --field default
    # must not freeze the DIMERTREE_FIELD of that first call
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setenv("DIMERTREE_FIELD", "101")
    code, out, _ = run(capsys, "oracle", fixture_path("c3"),
                       "--check", "schurian")
    assert code == 0 and "GF(101)" in out
    parser = cli._parser
    monkeypatch.setenv("DIMERTREE_FIELD", "Q")
    code, out, _ = run(capsys, "oracle", fixture_path("c3"),
                       "--check", "schurian")
    assert code == 0 and "QQ" in out
    assert cli._parser is parser
    code, out, _ = run(capsys, "oracle", fixture_path("c3"),
                       "--check", "schurian", "--field", "7")
    assert code == 0 and "GF(7)" in out


def test_command_rebound_after_the_parser_is_built_is_called(capsys,
                                                             monkeypatch):
    run(capsys, "validate", fixture_path("c3"))
    calls = []
    validate = cli.cmd_validate

    def wrapped(args):
        calls.append(args.quiver)
        return validate(args)

    monkeypatch.setattr(cli, "cmd_validate", wrapped)
    code, _, _ = run(capsys, "validate", fixture_path("c3"))
    assert code == 0
    assert calls == [fixture_path("c3")]


def test_oracle_bad_field(capsys):
    code, _, err = run(capsys, "oracle", fixture_path("c3"),
                       "--field", "banana")
    assert code == 2


@pytest.mark.parametrize("prime", ["4294967311", "1000000000000000003"])
def test_oracle_field_too_large_for_int64(capsys, prime):
    start = time.monotonic()
    code, _, err = run(capsys, "oracle", fixture_path("q9"), "--field", prime)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert "3037000499" in err and "internal error" not in err


def test_oracle_has_no_cap_option(capsys):
    # the basis build has no path-length cap to set
    with pytest.raises(SystemExit) as exc:
        run(capsys, "oracle", fixture_path("q9"), "--cap", "30")
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 30" in capsys.readouterr().err


def test_oracle_over_the_largest_prime_matches_the_default_field(capsys):
    code, out, err = run(capsys, "oracle", fixture_path("q9"),
                         "--field", "3037000493")
    assert code == 0 and err == ""
    _, default_out, _ = run(capsys, "oracle", fixture_path("q9"))
    assert out.splitlines()[1:] == default_out.splitlines()[1:]
    assert out.splitlines()[-1] == "148/148 oracle checks passed"


def test_all_pipeline_q7(capsys):
    # q7 and every other fixture print exactly the checks the benchmark
    # requires of `all` (`worker.ALL_CHECKS`), in its order, all passing
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        for field, name in (("32003", "GF(32003)"), ("Q", "QQ")):
            code, out, _ = run(capsys, "all", str(path), "--field", field)
            assert code == 0, (path.name, field)
            lines = [line.split() for line in out.splitlines()]
            assert [w[1] for w in lines] == [
                f"oracle[{name}]" if c == "oracle[GF(32003)]" else c
                for c in worker.ALL_CHECKS], (path.name, field)
            assert all(w[0] == "pass" for w in lines), (path.name, field)


def test_all_names_the_first_diagonal_that_fails_a_resolution_check(
        capsys, monkeypatch):
    # from the fourth diagonal on, every resolution fails to glue, and from
    # the sixth on its period is 3
    resolution = cli.sy.resolution
    seen = []

    def corrupted(cp, d):
        tr = resolution(cp, d)
        seen.append(d)
        if len(seen) >= 4:
            tr = dataclasses.replace(tr, gluing_ok=False)
        if len(seen) >= 6:
            tr = dataclasses.replace(tr, minimal_period=3)
        return tr

    monkeypatch.setattr(cli.sy, "resolution", corrupted)
    code, out, _ = run(capsys, "all", fixture_path("q9"))
    assert code == 1
    lines = out.splitlines()
    assert f"FAIL  resolution_gluing  (diagonal {seen[3]} does not glue)" in lines
    assert (f"FAIL  resolution_periods  (diagonal {seen[5]} has period 3, "
            f"not 7 or 14)") in lines
    assert "pass  reduction  (final length 7)" in lines


def test_all_names_the_first_failing_oracle_item_with_its_values(
        capsys, monkeypatch):
    # the oracle predicts the presentation of rad P(x) with its two sides
    # swapped at the first two vertices, and the model reads every radical
    # line with its sides swapped
    q9 = load_fixture("q9")
    x0, x1 = q9.sorted_vertices()[:2]
    predict, present = orc.radical_cover_arrows, cli.sy.presentation_of

    def swapped_prediction(ab, x):
        ins, outs = predict(ab, x)
        return (outs, ins) if x in (x0, x1) else (ins, outs)

    def swapped_model(cp, d):
        model = present(cp, d)
        return dataclasses.replace(model, p0=model.p1, p1=model.p0)

    monkeypatch.setattr(orc, "radical_cover_arrows", swapped_prediction)
    monkeypatch.setattr(cli.sy, "presentation_of", swapped_model)
    code, out, _ = run(capsys, "all", fixture_path("q9"))
    assert code == 1
    ab = orc.build_algebra(q9, 32003)
    p1, p0 = orc.radical_presentation(ab, x0).summand_multisets()
    lines = out.splitlines()
    assert (f"FAIL  oracle[GF(32003)]  (radical_presentation[{x0}]: "
            f"got {(p1, p0)}, predicted {(p0, p1)}; and 1 more)") in lines
    n = len(q9.vertices)
    assert (f"FAIL  model_oracle_consistency  "
            f"(radical_presentation_matches_oracle[{x0}]: "
            f"model {(p0, p1)}, oracle {(p1, p0)}; and {n - 1} more)") in lines
    # with one failing item there is no count
    monkeypatch.setattr(orc, "radical_cover_arrows", lambda ab, x: (
        swapped_prediction(ab, x) if x == x0 else predict(ab, x)))
    _, out, _ = run(capsys, "all", fixture_path("q9"))
    assert (f"FAIL  oracle[GF(32003)]  (radical_presentation[{x0}]: "
            f"got {(p1, p0)}, predicted {(p0, p1)})") in out.splitlines()


def test_all_names_the_first_failing_validation_item_with_its_values(
        tmp_path, capsys):
    # 3->4 lies on no cycle, which also skips the boundary-arrow count
    path = tmp_path / "tail.json"
    path.write_text(json.dumps({"name": "tail", "vertices": [1, 2, 3, 4],
                                "arrows": [[1, 2], [2, 3], [3, 1], [3, 4]]}))
    code, out, _ = run(capsys, "all", str(path))
    assert code == 1
    assert out.splitlines() == [
        "FAIL  dimer_tree_validation  (every_arrow_on_a_cycle: arrows in no "
        "cycle: ['3->4']; and 1 more)"]


@pytest.mark.parametrize("directions, reason", [
    (("cycle",), "weight/coweight totals disagree: 15 vs 14"),
    (("cycle", "cocycle"), "total weight 15 is odd"),
])
def test_all_fails_total_weight_even_on_a_seeded_weight(
        directions, reason, capsys, monkeypatch):
    # a valid dimer tree has equal, even totals, so the line fails with the
    # reason, never exit 2
    seed_weight(monkeypatch, directions)
    code, out, _ = run(capsys, "all", fixture_path("q9"))
    assert code == 1
    assert out.splitlines() == ["pass  dimer_tree_validation",
                                f"FAIL  total_weight_even  ({reason})"]


def seed_weight(monkeypatch, directions):
    """q9's arrow 1->2 has weight 1 and coweight 2; adding 1 to it on one
    side makes the totals differ, on both sides makes them odd."""
    weights = StructureReport.path_weights

    def seeded(self, direction):
        w = dict(weights(self, direction))
        if direction in directions:
            w["1->2"] += 1
        return w

    monkeypatch.setattr(StructureReport, "path_weights", seeded)


def run_to_exit(capsys, *argv):
    """`run`, with an exit by SystemExit read as its code."""
    try:
        return run(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


# Each row seeds a fault in one call a command makes after its input passed
# validation: a bare KeyError, then the error of that call's own layer.
# Bad input is refused where it is read, so each is a fault of the program.
FAULTS = [
    (("weights",), "weight_report", KeyError),
    (("weights",), "weight_report", cli.QuiverError),
    (("diag",), "weight_report", KeyError),
    (("diag",), "weight_report", cli.QuiverError),
    (("polygon",), "cb.build_checkerboard", KeyError),
    (("polygon",), "cb.build_checkerboard", cli.cb.CheckerboardError),
    (("resolve", "--diagonal", "5,12"), "cb.build_checkerboard", KeyError),
    (("resolve", "--diagonal", "5,12"), "cb.build_checkerboard",
     cli.cb.CheckerboardError),
    (("resolve", "--diagonal", "5,12"), "sy.resolution", KeyError),
    (("resolve", "--diagonal", "5,12"), "sy.resolution", cli.sy.SyzygyError),
    (("reduce",), "mu.reduce_to_cycle", KeyError),
    (("reduce",), "mu.reduce_to_cycle", cli.mu.MutationError),
    (("oracle",), "orc.build_algebra", KeyError),
    (("oracle",), "orc.build_algebra", orc.OracleError),
    (("oracle",), "orc.build_algebra", cli.QuiverError),
    (("all",), "weight_report", KeyError),
    (("all",), "cb.build_checkerboard", cli.cb.CheckerboardError),
    (("all",), "dg.ar_quiver", KeyError),
    (("all",), "dg.ar_quiver", cli.dg.DiagonalError),
]


@pytest.mark.parametrize("argv, target, error", FAULTS)
def test_a_fault_after_validation_is_one_internal_error_line(
        capsys, monkeypatch, argv, target, error):
    def fault(*args, **kwargs):
        raise error("seeded fault")

    owner, _, name = target.rpartition(".")
    monkeypatch.setattr(getattr(cli, owner) if owner else cli, name, fault)
    cmd, *rest = argv
    code, _, err = run(capsys, cmd, fixture_path("q9"), *rest)
    assert code == 3
    lines = err.splitlines()
    # a KeyError's message is the repr of its key
    message = repr("seeded fault") if error is KeyError else "seeded fault"
    assert lines[-1] == f"internal error: {error.__name__}: {message}"
    assert not any(line.startswith(("error:", "Traceback")) for line in lines)
    assert sum(line.startswith("internal error:") for line in lines) == 1


@pytest.mark.parametrize("argv", [
    ("weights",),
    ("diag",),
    ("polygon",),
    ("resolve", "--diagonal", "5,12"),
])
def test_a_weight_refusal_after_validation_is_an_internal_error(
        capsys, monkeypatch, argv):
    seed_weight(monkeypatch, ("cycle",))
    cmd, *rest = argv
    code, out, err = run(capsys, cmd, fixture_path("q9"), *rest)
    assert (code, out) == (3, "")
    assert err == ("internal error: QuiverError: "
                   "weight/coweight totals disagree: 15 vs 14\n")


def test_a_one_sided_crossing_pattern_is_an_internal_error(
        capsys, monkeypatch):
    # q9's polygon reads (1,4) with no line crossing it left to right
    crossing_lines = cli.dg.crossing_lines

    def dropped(d, lines, n):
        p0, p1 = crossing_lines(d, lines, n)
        return (p0, []) if d == (1, 4) else (p0, p1)

    monkeypatch.setattr(cli.dg, "crossing_lines", dropped)
    code, _, err = run(capsys, "resolve", fixture_path("q9"),
                       "--diagonal", "1,4")
    assert code == 3
    assert err.startswith("internal error: SyzygyError: diagonal (1,4) has "
                          "a one-sided crossing pattern: p0=[")
    # the polygon validator reads the same pattern, so `all` fails its
    # checkerboard line and stops there
    code, out, err = run_to_exit(capsys, "all", fixture_path("q9"))
    assert (code, err) == (1, "")
    assert out.splitlines()[-1].startswith(
        "FAIL  checkerboard  (crossings_iff_arrows: ")


def test_a_dropped_pivot_fails_the_translation_axiom(capsys, monkeypatch):
    # (1,4)'s tail pivot (1,6) is gone, so (1,4), the tau of (3,6), has one
    # pivot out where (3,6) has two in
    pivot = cli.dg.pivot
    monkeypatch.setattr(cli.dg, "pivot", lambda d, fix, n: (
        None if (d, fix) == ((1, 4), "tail") else pivot(d, fix, n)))
    code, out, _ = run_to_exit(capsys, "all", fixture_path("q9"))
    assert code == 1
    assert [x for x in out.splitlines() if x.startswith("FAIL")] == [
        "FAIL  translation_quiver"]
    code, out, _ = run_to_exit(capsys, "diag", "--size", "10")
    assert code == 1
    assert "translation axiom: FAIL" in out.splitlines()
    # outside text the output is the document alone: the failing lines go
    # to stderr, with the same exit status
    failing = "".join(x + "\n" for x in out.splitlines() if "FAIL" in x)
    assert failing.startswith(
        "translation axiom: FAIL\nboundary-arc bijection: FAIL ")
    tq = cli.dg.ar_quiver(5)
    code, out, err = run_to_exit(capsys, "diag", "--size", "10",
                                 "--format", "structured")
    assert (code, err) == (1, failing)
    assert json.loads(out)["meshes"] == [{
        "target": [m.target.tail, m.target.head],
        "tau_target": [m.tau_target.tail, m.tau_target.head],
        "middles": [[d.tail, d.head] for d in m.middles]} for m in tq.meshes]
    code, out, err = run_to_exit(capsys, "diag", "--size", "10",
                                 "--format", "dot")
    assert (code, err, out) == (1, failing, cli.dg.translation_quiver_dot(tq))


def test_all_stops_after_a_failing_checkerboard_line(capsys, monkeypatch):
    # line 4 of q9's polygon is the boundary edge (13,14), which the model
    # checks after the checkerboard line cannot read as a 2-diagonal
    build = cli.cb.build_checkerboard

    def seeded(q, **kwargs):
        cp = build(q, **kwargs)
        cp.lines[4].tail, cp.lines[4].head = 13, 14
        return cp

    monkeypatch.setattr(cli.cb, "build_checkerboard", seeded)
    code, out, err = run_to_exit(capsys, "all", fixture_path("q9"))
    assert (code, err) == (1, "")
    assert out.splitlines()[-1].startswith(
        "FAIL  checkerboard  (radical_lines_are_oriented_2_diagonals: "
        "4: 13,14 are neighbours on the boundary")


@pytest.mark.parametrize("name, term, detail", [
    # (1,4) maps back to the arc (1,2), not to (1,5)
    ("diagonal_to_arc", "(-((d.head - 2) // 2)) % n + 1",
     "2-diagonal (1,4) maps back to BoundaryArc(a=1, b=2), "
     "not BoundaryArc(a=1, b=5)"),
    # the arc (1,5) maps to the boundary edge (1,2)
    ("arc_to_diagonal", "_norm(2 * (1 - arc.b) + 2, size)",
     "arc BoundaryArc(a=1, b=5) maps to (1,2), not a 2-diagonal"),
])
def test_a_fault_in_an_arc_map_fails_the_bijection_line(
        capsys, monkeypatch, name, term, detail):
    # the formula itself is seeded, so any check inside the map runs on it
    source = inspect.getsource(getattr(cli.dg, name))
    assert source.count(term) == 1
    which = ("d == (1, 4)" if name == "diagonal_to_arc"
             else "arc == BoundaryArc(1, 5)")
    source = source.replace(term, f"(2 if {which} else {term})")
    scope = {}
    exec(compile(source, cli.dg.__file__, "exec",
                 flags=__future__.annotations.compiler_flag),
         vars(cli.dg), scope)
    monkeypatch.setattr(cli.dg, name, scope[name])
    code, out, err = run_to_exit(capsys, "diag", "--size", "10")
    assert (code, err) == (1, "")
    assert out.splitlines()[-1].startswith(
        f"boundary-arc bijection: FAIL {detail}")


def test_all_names_the_first_failing_checkerboard_item_with_its_values(
        capsys, monkeypatch):
    # line 4 of q9's polygon lists its first two crossings swapped
    build = cli.cb.build_checkerboard
    seeded = []

    def swapped(q, **kwargs):
        cp = build(q, **kwargs)
        crossings = cp.lines[4].crossings
        crossings[0], crossings[1] = crossings[1], crossings[0]
        seeded.append(cp)
        return cp

    monkeypatch.setattr(cli.cb, "build_checkerboard", swapped)
    code, out, _ = run(capsys, "all", fixture_path("q9"))
    assert code == 1
    failed = cli.cb.validate_checkerboard(seeded[0], load_fixture("q9")).failed()
    assert failed and failed[0].detail
    more = f"; and {len(failed) - 1} more" if len(failed) > 1 else ""
    line = next(x for x in out.splitlines() if x.split()[1] == "checkerboard")
    assert line == f"FAIL  checkerboard  ({failed[0].name}: {failed[0].detail}{more})"
    assert failed[0].name == "faces_match_regions"


def test_reduce_refuses_at_the_step_budget_with_the_partial_trace(
        tmp_path, capsys, monkeypatch):
    # a budget hit is a refusal with its reason (exit 2), with the moves
    # made so far written under --trace; `all` fails its reduction line
    full = json.loads(json.dumps(cli.mu.reduce_to_cycle(
        load_fixture("q9")).to_dict(), indent=2, default=str) + "\n")
    monkeypatch.setattr(cli.mu, "step_budget", lambda q: 5)
    trace = tmp_path / "partial.json"
    code, out, err = run(capsys, "reduce", fixture_path("q9"),
                         "--trace", str(trace))
    assert (code, out) == (2, "")
    assert err == "error: reduction exceeded the step budget of 5 moves\n"
    assert json.loads(trace.read_text())["steps"] == full["steps"][:5]
    code, out, _ = run(capsys, "all", fixture_path("q9"))
    assert code == 1
    assert out.splitlines()[-1] == (
        "FAIL  reduction  (reduction exceeded the step budget of 5 moves)")


def test_reduce_exits_3_on_any_other_reduction_error(capsys, monkeypatch):
    def broken(qp, kind, site):
        raise cli.mu.MutationError(f"no {kind} at {site}")

    monkeypatch.setattr(cli.mu, "apply_move", broken)
    code, out, err = run(capsys, "reduce", fixture_path("q9"))
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ReductionError: no ")


@pytest.mark.parametrize("spec", ["17,20", "0,3", "3,15"])
def test_resolve_label_outside_the_polygon_is_bad_input(capsys, spec):
    # q9's polygon is a 14-gon: 17,20 would otherwise be read as 3,6
    with pytest.raises(SystemExit) as exc:
        run(capsys, "resolve", fixture_path("q9"), "--diagonal", spec)
    assert exc.value.code == 2
    assert "outside 1..14" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("reduce", "{q7}", "--trace", "{missing}/t.json"),
    ("weights", "{q9}", "--format", "structured", "--out", "{missing}/x"),
    ("diag", "--size", "10", "--format", "structured", "--out", "{missing}/x"),
])
def test_unwritable_output_is_bad_input(tmp_path, capsys, argv):
    # the file is opened before anything is encoded, and the trace is
    # written before the moves are printed
    argv = [a.format(missing=tmp_path / "no-such-dir", q7=fixture_path("q7"),
                     q9=fixture_path("q9")) for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: cannot write {tmp_path / 'no-such-dir'}/")
    assert captured.out == ""


STRUCTURED_COMMANDS = [
    ("weights", "--format", "structured"),
    ("polygon", "--format", "structured"),
    ("diag", "--format", "structured"),
    ("resolve", "--diagonal", "1,4", "--format", "structured"),
]


def test_structured_documents_are_encoded_as_they_are_written(
        tmp_path, capsys, monkeypatch):
    # no command builds a document's whole text before writing it
    def outputs():
        got = [run(capsys, cmd, fixture_path("q9"), *rest)
               for cmd, *rest in STRUCTURED_COMMANDS]
        trace = tmp_path / "trace.json"
        got.append((*run(capsys, "reduce", fixture_path("q9"),
                         "--trace", str(trace)), trace.read_text()))
        return got

    want = outputs()
    assert [code for code, *_ in want] == [0] * 5

    def refused(*args, **kwargs):
        raise AssertionError("a whole JSON text was built")

    monkeypatch.setattr(json, "dumps", refused)
    monkeypatch.setattr(json.JSONEncoder, "encode", refused)
    assert outputs() == want


TEXT_COMMANDS = {
    "weights": ("weights", "q9"),
    "polygon": ("polygon", "q9"),
    "diag": ("diag", "q9"),
    "resolve": ("resolve", "q9", "--diagonal", "1,4"),
}


@pytest.mark.parametrize("cmd", TEXT_COMMANDS)
def test_text_output_goes_to_out(tmp_path, capsys, cmd):
    name, fixture, *rest = TEXT_COMMANDS[cmd]
    argv = [name, fixture_path(fixture), *rest]
    code, want, _ = run(capsys, *argv)
    out = tmp_path / "out.txt"
    code_out, stdout, _ = run(capsys, *argv, "--out", str(out))
    assert code == code_out == 0
    # only the polygon's check lines stay on stdout
    assert (stdout != "") == (cmd == "polygon")
    assert stdout + out.read_text(encoding="utf-8") == want


@pytest.mark.parametrize("cmd", TEXT_COMMANDS)
def test_unwritable_text_output_is_bad_input(tmp_path, capsys, cmd):
    name, fixture, *rest = TEXT_COMMANDS[cmd]
    with pytest.raises(SystemExit) as exc:
        run(capsys, name, fixture_path(fixture), *rest,
            "--out", str(tmp_path / "no-such-dir" / "x"))
    assert exc.value.code == 2
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("diag", "{q9}", "--size", "8"),
    ("diag", "--size", "8", "{q9}"),
    ("diag",),
    ("diag", "--format", "structured"),
])
def test_diag_takes_a_quiver_or_a_size(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(capsys, *(a.format(q9=fixture_path("q9")) for a in argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage: dimertree diag" in err


FIXTURES = ["c3", "c4", "c5", "c6", "c7", "c8", "q7", "q9"]


@pytest.mark.parametrize("name", FIXTURES)
def test_trace_steps_load_and_validate(name, tmp_path, capsys):
    """Each `quiver_after` of a reduce trace is a quiver file: its arrows are
    [id, source, target] triples, and the loader keeps the ids."""
    trace = tmp_path / "trace.json"
    code, _, _ = run(capsys, "reduce", fixture_path(name), "--trace", str(trace))
    assert code == 0
    steps = [s for s in json.loads(trace.read_text())["steps"]
             if s["dimer_tree_after"]]
    assert steps or name.startswith("c")
    for i, step in enumerate(steps):
        doc = step["quiver_after"]
        path = tmp_path / f"step{i}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 0, (name, i, err)
        q = load_quiver(str(path))
        assert [[a.id, a.source, a.target] for a in q.arrows] == doc["arrows"]


@pytest.mark.parametrize("arrow,reason", [
    (["a", 1, 2, 3], "arrows[0]: expected [source, target] or [id, source, target]"),
    ([7, 1, 2], "arrows[0]: arrow id must be a string"),
], ids=["list-of-four", "triple-int-id"])
def test_bad_arrow_lists_are_bad_input(arrow, reason, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [1, 2, 3],
                               "arrows": [arrow, [2, 3], [3, 1]]}))
    with pytest.raises(SystemExit) as exc:
        run(capsys, "validate", str(bad))
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err


def test_polygon_text_lists_lines_in_vertex_order(tmp_path, capsys):
    q = glued_dimer_tree((5, 3, 4, 4), (0, 3, 11))
    assert len(q.vertices) >= 10
    path = tmp_path / "glued.json"
    path.write_text(json.dumps({
        "vertices": list(q.vertices),
        "arrows": [[a.source, a.target] for a in q.arrows]}))
    code, out, _ = run(capsys, "polygon", str(path))
    assert code == 0
    lines = [int(l.split()[1].rstrip(":")) for l in out.splitlines()
             if l.startswith("  line ")]
    assert lines == sorted(q.vertices)
