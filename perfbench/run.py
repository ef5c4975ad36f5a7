"""Pipeline benchmark for dimertree: one workload per run, in fresh children.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

With `--trace 0` the run reports the end-to-end metrics, measured untraced;
with `--trace 1` it reports the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import CAL_REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("sweep", "large", "oracle-q")

# Set-up is measured in this many fresh interpreters per run, plus the one
# that runs the workload; the run reports the median.
SETUP_REPEATS = 6
# All children of one run must end within this many seconds.
RUN_TIMEOUT_S = 170
# Percentiles need enough samples beyond them to mean anything.
P90_MIN_SAMPLES = 100


class RunError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run the worker in a fresh interpreter, killing it at `deadline`; return
    its start time and the JSON object on the last line of its output."""
    start = time.monotonic()
    timeout = deadline - start
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {args} ran past {timeout} s")
    if proc.returncode != 0:
        raise RunError(f"worker {args} exited {proc.returncode}: "
                       + proc.stderr.strip()[-2000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"worker {args} printed nothing")
    return start, json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []  # (seconds, mean calibration kernel time right after)
    if not traced:
        for _ in range(SETUP_REPEATS):
            start, res = spawn(base + ["--setup-only"], deadline)
            setups.append((res["ready"] - start, res["setup_kernel_s"]))
    start, res = spawn(base + ["--seconds", str(seconds),
                               "--trace", str(int(traced))], deadline)
    verdicts = res["verdicts"]
    times = [v["seconds"] for v in verdicts]
    failed = [v for v in verdicts if not v["ok"]]
    summary = {
        "workload": workload,
        "attempted": len(verdicts),
        "failed": len(failed),
        # A budget hit is a failed verdict but not a wrong answer.
        "correct": all("budget_hit" in v for v in failed),
        "failures": [{k: v[k] for k in ("id", "quiver", "error", "budget_hit")
                      if k in v} for v in failed],
        "pinned": sum(1 for v in verdicts if v.get("pinned")),
        "timed_s": res["timed_s"],
    }
    if traced:
        summary["metrics"] = {name: (value, _unit(name))
                              for name, value in res["layers"].items()}
        summary["spans_file"] = res["spans_file"]
        return summary
    setups.append((res["ready"] - start, res["setup_kernel_s"]))
    passed = len(verdicts) - len(failed)
    # Times in reference seconds: scaled by the machine's speed in this run.
    speed = CAL_REFERENCE_S / res["kernel_s"]
    metrics = {
        "setup_s": (statistics.median(s * CAL_REFERENCE_S / k for s, k in setups), "s"),
        "quivers_per_s": (passed / (res["timed_s"] * speed), "1/s"),
        "verdict_p50_s": (statistics.median(times) * speed, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "failed_frac": (len(failed) / len(verdicts), "ratio"),
    }
    if len(times) >= P90_MIN_SAMPLES:
        metrics["verdict_p90_s"] = (statistics.quantiles(times, n=10)[-1] * speed, "s")
    # The same, as measured on the clock.
    metrics["setup_wall_s"] = (statistics.median(s for s, _ in setups), "s")
    metrics["quivers_per_wall_s"] = (passed / res["timed_s"], "1/s")
    metrics["verdict_p50_wall_s"] = (statistics.median(times), "s")
    metrics["speed"] = (speed, "ratio")
    summary["metrics"] = metrics
    summary["samples"] = len(times)
    summary["setup_samples"] = len(setups)
    return summary


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_per_move"):
        return "ratio"
    if "cells" in name:
        return "cells"
    return "count"


# The metrics BENCHMARK.json lists; each run reports all of them.  The
# per-layer list is what the traced run's metrics hold, in that order.
END_TO_END = ("setup_s", "quivers_per_s", "peak_rss_mb")


def result_line(summary: dict, traced: bool) -> str:
    metrics = summary["metrics"]
    names = list(metrics) if traced else END_TO_END
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names},
    })


def print_summary(summary: dict, traced: bool) -> None:
    mode = "traced" if traced else "untraced"
    print(f"# {summary['workload']} ({mode}): {summary['attempted']} verdicts, "
          f"{summary['failed']} failed, {summary['pinned']} pinned, "
          f"{summary['timed_s']:.2f} s timed")
    if not traced:
        print(f"#   per-quiver samples: {summary['samples']}; "
              f"set-up samples: {summary['setup_samples']}")
    for name, (value, unit) in summary["metrics"].items():
        print(f"{summary['workload']}  {name:<36} {value:>14.6g} {unit}")
    for f in summary["failures"]:
        print(f"#   failed: {json.dumps(f)}")
    if traced:
        print(f"#   spans written to {summary['spans_file']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="dimertree pipeline benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "dimertree" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            summary = run_workload(workload, args.seed, args.seconds, traced)
            print_summary(summary, traced)
            print(result_line(summary, traced), flush=True)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
