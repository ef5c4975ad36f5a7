"""Tests of the benchmark itself:

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

MODS = worker.import_program()
from dimertree import checkerboard, cli, mutation, quiver  # noqa: E402
from dimertree.linalg import GF  # noqa: E402


def as_quiver(doc):
    return quiver.parse_quiver(json.dumps(doc))


def test_seed_1_reproduces_the_roadmap_size_table():
    family = gen.scaling_family(1)
    sizes = {}
    for k, doc in family.items():
        q = as_quiver(doc)
        sizes[k] = (len(q.vertices), len(q.arrows), quiver.weight_report(q).half)
    assert sizes == {4: (9, 12, 8), 8: (26, 33, 23), 16: (38, 53, 34)}


def test_streams_depend_only_on_the_seed():
    for workload in worker.WORKLOADS:
        a = worker.quiver_docs(workload, 7)
        assert a == worker.quiver_docs(workload, 7)
        assert a != worker.quiver_docs(workload, 8)
    assert [d["name"] for d in worker.quiver_docs("sweep", 1)[:8]] == list(worker.FIXTURES)


def test_runs_leave_out_exactly_the_known_defects():
    known = worker.load_known_defects()
    for workload in worker.WORKLOADS:
        docs = worker.quiver_docs(workload, 5)
        assert not {worker.quiver_key(d) for d in docs} & set(known)
        classes, skipped = worker.pool(workload)
        pooled = sum(len(worker.generated_docs(workload, s)) for s in worker.POOL_SEEDS)
        assert sum(map(len, classes)) + skipped == pooled
        assert skipped == sum(1 for v in known.values() if v["workload"] == workload)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("quiver.validate_dimer_tree", 1.0, 4.0, 0, 0),
        ("quiver.analyze_structure", 1.5, 3.5, 1, 0),
        ("oracle.build_algebra", 5.0, 9.0, 0, 0),
        ("linalg.GF.rref", 6.0, 6.5, 3, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.0, 2.0, 3.5, 0.5])
    layers = tracing.layer_times(spans)
    # quiver's total counts the nested analyze_structure once
    assert layers["quiver"] == pytest.approx({"total_s": 3.0, "self_s": 3.0})
    assert layers["cli"] == pytest.approx({"total_s": 10.0, "self_s": 3.0})
    assert layers["oracle"] == pytest.approx({"total_s": 4.0, "self_s": 3.5})
    assert sum(t["self_s"] for t in layers.values()) == pytest.approx(10.0)


def test_every_wrapper_is_restored():
    originals = {
        "quiver.analyze_structure": quiver.analyze_structure,
        "mutation.analyze_structure": mutation.analyze_structure,
        "checkerboard.validate_dimer_tree": checkerboard.validate_dimer_tree,
        "cli.main": cli.main,
        "GF.rref": GF.__dict__["rref"],
    }
    assert tracing.installed_wrappers() == []
    with tracing.Tracer():
        assert mutation.analyze_structure is not originals["mutation.analyze_structure"]
        assert mutation.analyze_structure is quiver.analyze_structure
        assert "dimertree.linalg.GF.rref" in tracing.installed_wrappers()
    assert tracing.installed_wrappers() == []
    assert quiver.analyze_structure is originals["quiver.analyze_structure"]
    assert mutation.analyze_structure is originals["mutation.analyze_structure"]
    assert checkerboard.validate_dimer_tree is originals["checkerboard.validate_dimer_tree"]
    assert cli.main is originals["cli.main"]
    assert GF.__dict__["rref"] is originals["GF.rref"]


def test_wrappers_are_restored_after_an_exception():
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    assert tracing.installed_wrappers() == []


def _traced_counts(paths):
    t = tracing.Tracer()
    for i, path in enumerate(paths):
        t.verdict = i
        with t:
            worker.call_cli(MODS, ["all", str(path)])
    metrics = tracing.layer_metrics(t, mutation.MOVE_KINDS)
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_counts_repeat_across_traced_runs(tmp_path):
    docs = [json.loads((ROOT / "fixtures" / "q7.json").read_text())]
    docs += [gen.draw_tree(random.Random(3), k) for k in (3, 4)]
    paths = worker.write_inputs(docs, tmp_path)
    first, second = _traced_counts(paths), _traced_counts(paths)
    assert first == second
    assert first["linalg.gf.rref_calls"] > 0 and first["mutation.moves"] > 0


def test_k8_reduction_counts():
    q = as_quiver(gen.scaling_family(1)[8])
    t = tracing.Tracer()
    with t:
        trace = mutation.reduce_to_cycle(q)
    assert trace.final_cycle_length == 23
    m = tracing.layer_metrics(t, mutation.MOVE_KINDS)
    assert m["mutation.moves"] == 377
    assert m["quiver.analyze_structure_calls"] == 2047
    assert m["mutation.structures_per_move"] == pytest.approx(2047 / 377)
    assert sum(m[f"mutation.moves.{k}"] for k in mutation.MOVE_KINDS) == 377


def test_watchdog_stops_a_long_build_and_names_the_call():
    # the third quiver of the generator's oracle-q stream at seed 3 has a
    # build that runs far past any budget; it is a recorded defect
    doc = worker.generated_docs("oracle-q", 3)[2]
    dog = worker.Watchdog(verdict_budget=30.0, stage_budgets={"build_algebra": 0.2})
    start = time.monotonic()
    with pytest.raises(worker.BudgetHit) as hit:
        with dog.armed():
            MODS["oracle"].build_algebra(as_quiver(doc), "Q")
    assert time.monotonic() - start < 2.0
    assert hit.value.stage == "build_algebra"
    assert hit.value.call[0] == "oracle.build_algebra"


def test_result_line_has_exactly_the_contract_keys():
    summary = {"correct": True, "attempted": 3, "failed": 0,
               "metrics": {n: (1.5, "s") for n in run.END_TO_END}}
    doc = json.loads(run.result_line(summary, traced=False))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert set(doc["metrics"]) == set(run.END_TO_END)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_run_reports_exactly_the_per_layer_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "TRACE_LEN", {"sweep": 1})
    monkeypatch.setattr(worker, "OUT", tmp_path)
    docs = worker.quiver_docs("sweep", 1)[:1]
    result = worker._run_traced(MODS, "sweep", docs, worker.write_inputs(docs, tmp_path))
    assert [v["ok"] for v in result["verdicts"]] == [True]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["layers"]) == [m["name"] for m in spec["per_layer"]]
    assert tracing.installed_wrappers() == []
