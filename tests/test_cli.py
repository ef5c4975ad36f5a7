import json
import time

import pytest

from dimertree import oracle as orc
from dimertree.cli import main

from conftest import fixture_path, load_fixture


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


def test_polygon_seed_flag_equivalent(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "polygon", fixture_path("q9"), "--format", "structured",
        "--out", str(f1))
    run(capsys, "polygon", fixture_path("q9"), "--format", "structured",
        "--seed", "8->3", "--out", str(f2))
    assert f1.read_text() == f2.read_text()


def test_polygon_seed_that_is_no_boundary_arrow_is_bad_input(capsys):
    code, _, err = run(capsys, "polygon", fixture_path("q9"), "--seed", "2->3")
    assert code == 2
    assert "--seed '2->3' is not a boundary arrow" in err


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
    with pytest.raises(SystemExit) as exc:
        run(capsys, cmd, fixture_path(fixture), *rest)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "checkerboard" in err and "triangle walk closed early" in err


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


def test_resolve(capsys):
    code, out, _ = run(capsys, "resolve", fixture_path("q9"),
                       "--diagonal", "5,12")
    assert code == 0
    assert "P1=[5, 6]" in out and "P0=[3, 4]" in out
    # (5,12) is a diameter of the 14-gon, so the half turn already fixes it
    assert "minimal period: 7" in out


def test_resolve_bad_diagonal(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "resolve", fixture_path("q9"), "--diagonal", "1,2")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, reason", [
    (("oracle", "c3", "--cap", "0"), "--cap: must be at least 1, got 0"),
    (("oracle", "c3", "--cap", "-3"), "--cap: must be at least 1, got -3"),
    (("resolve", "q9", "--diagonal", "5,12", "--steps", "-2"),
     "--steps: must be at least 0, got -2"),
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


def test_oracle_cap_below_the_initial_cap_is_raised_to_it(capsys):
    code, out, err = run(capsys, "oracle", fixture_path("q9"), "--cap", "1")
    _, default_out, default_err = run(capsys, "oracle", fixture_path("q9"))
    assert code == 0 and out == default_out and err == default_err


def test_oracle_over_the_largest_prime_matches_the_default_field(capsys):
    code, out, err = run(capsys, "oracle", fixture_path("q9"),
                         "--field", "3037000493")
    assert code == 0 and err == ""
    _, default_out, _ = run(capsys, "oracle", fixture_path("q9"))
    assert out.splitlines()[1:] == default_out.splitlines()[1:]
    assert out.splitlines()[-1] == "148/148 oracle checks passed"


def test_all_pipeline_q7(capsys):
    code, out, _ = run(capsys, "all", fixture_path("q7"))
    assert code == 0
    assert out.count("pass") >= 8 and "FAIL" not in out
