"""One benchmark run of one workload, in a fresh interpreter.

`run.py` starts this file as a child process.  The child imports the program
from `src/`, writes the workload's quiver files, then runs a closed loop: one
client, one quiver at a time, the next verdict only after the previous one.
Its last line of standard output is a JSON object with the verdicts and the
timestamps `run.py` turns into metrics.

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 30
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("sweep", "large", "oracle-q")
FIXTURES = ("q9", "q7", "c3", "c4", "c5", "c6", "c7", "c8")
OUT = HERE / "out"
PINS = HERE / "pins.json"

# Every run draws its quivers from a fixed pool: the generator's streams at
# POOL_SEEDS, STREAM_LEN quivers each.  `--seed` picks the order in which a
# run takes them; the loop starts over at the first quiver if a faster
# program uses them all.
POOL_SEEDS = (1, 2)
STREAM_LEN = {"sweep": 200, "large": 60, "oracle-q": 100}
# Each quiver shuffles a fixed multiset of cycle lengths: the generator seed
# picks the order and the gluing, not the size.  Drawn at random, the sizes
# would make the cost of a run depend on the seed more than on the program.
# `sweep` takes its multisets in turn, 2 to 4 cycles of lengths 3 to 6.
LENGTHS = {
    "sweep": ((3, 5), (4, 6), (3, 4, 5), (4, 5, 6), (3, 4, 5, 6), (4, 4, 5, 5)),
    "large": ((3, 4, 4, 5, 5, 5, 6),),
    "oracle-q": ((3, 4, 4, 5, 5, 6),),
}
# Pool quivers on which the program fails today, each with the failure it
# showed: left out of every run, and counted in `oracle.known_defects`.
KNOWN_DEFECTS = HERE / "known_defects.json"
# Quivers in a traced run: a fixed prefix of the stream, so that counts repeat.
TRACE_LEN = {"sweep": 24, "large": 4, "oracle-q": 8}
# Quivers whose contract outputs are pinned at the default seed.
PIN_LEN = {"sweep": 16, "large": 3}
DEFAULT_SEED = 1

# Budgets.  The oracle build is bimodal: on the pool quivers it passes, it
# takes at most 0.2 s; on the recorded blow-ups it runs past any budget
# tried.  The budgets only keep a new blow-up from hanging a run: it is
# recorded as a failed verdict.
VERDICT_BUDGET_S = 60.0
STAGE_BUDGET_S = {"build_algebra": 5.0}
WATCHDOG_TICK_S = 0.05

# Machine speed.  On a shared machine the same quiver can take 25% longer a
# minute later, because other tenants load the host.  After every verdict,
# outside the timed region, the worker times a fixed pure-Python kernel for
# about a tenth as long as the verdict took; the run reports each time
# scaled by CAL_REFERENCE_S over the kernel's mean time in that run.
CAL_REFERENCE_S = 0.008
CAL_SHARE = 0.1
CAL_SETUP_REPS = 4

ALL_CHECKS = ("dimer_tree_validation", "total_weight_even", "checkerboard",
              "translation_quiver", "oracle[GF(32003)]",
              "model_oracle_consistency", "resolution_gluing",
              "resolution_periods", "reduction")


class SetupError(Exception):
    pass


def import_program():
    """Import `dimertree` from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dimertree" / "__init__.py").is_file():
        raise SetupError(f"no program source at {src / 'dimertree'}")
    sys.path.insert(0, str(src))
    import dimertree
    from dimertree import (checkerboard, cli, diagonals, mutation, oracle,
                           quiver, syzygy)
    if Path(dimertree.__file__).resolve().parent != (src / "dimertree").resolve():
        raise SetupError(f"dimertree imported from {dimertree.__file__}")
    return {"cli": cli, "quiver": quiver, "checkerboard": checkerboard,
            "diagonals": diagonals, "syzygy": syzygy, "mutation": mutation,
            "oracle": oracle}


# -- inputs ------------------------------------------------------------------

def fixture_docs() -> list[dict]:
    docs = []
    for name in FIXTURES:
        path = ROOT / "fixtures" / f"{name}.json"
        if not path.is_file():
            raise SetupError(f"missing fixture {path}")
        docs.append(json.loads(path.read_text(encoding="utf-8")))
    return docs


def generated_docs(workload: str, seed: int) -> list[dict]:
    """The generator's stream for one seed, in order."""
    rng = random.Random(seed)
    lengths = LENGTHS[workload]
    return [gen.shuffled_tree(rng, lengths[i % len(lengths)], f"{workload}_s{seed}_{i}")
            for i in range(STREAM_LEN[workload])]


def load_known_defects() -> dict[str, dict]:
    return json.loads(KNOWN_DEFECTS.read_text(encoding="utf-8"))["quivers"]


def pool(workload: str) -> tuple[list[list[dict]], int]:
    """The workload's pool, one list per multiset of cycle lengths, without
    the known defects; and how many known defects were left out."""
    known = load_known_defects()
    classes: list[list[dict]] = [[] for _ in LENGTHS[workload]]
    skipped = 0
    for seed in POOL_SEEDS:
        for i, doc in enumerate(generated_docs(workload, seed)):
            if quiver_key(doc) in known:
                skipped += 1
            else:
                classes[i % len(classes)].append(doc)
    return classes, skipped


def quiver_docs(workload: str, seed: int) -> list[dict]:
    """The quivers of one run: for `sweep` the fixtures first, then the pool
    in an order drawn from `seed`, taking the multisets in turn."""
    docs = fixture_docs() if workload == "sweep" else []
    classes, _ = pool(workload)
    rng = random.Random(seed)
    for members in classes:
        rng.shuffle(members)
    depth = min(len(members) for members in classes)
    docs.extend(members[j] for j in range(depth) for members in classes)
    return docs


def quiver_key(doc: dict) -> str:
    """Digest of a quiver's vertices and arrows; names do not count."""
    body = {"vertices": doc["vertices"], "arrows": doc["arrows"]}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def write_inputs(docs: list[dict], workdir: Path) -> list[Path]:
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, doc in enumerate(docs):
        path = workdir / f"{i:04d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(path)
    return paths


# -- budgets -----------------------------------------------------------------

class BudgetHit(BaseException):
    """Raised inside the program by the watchdog.  A BaseException, so that
    no handler in the program can swallow it."""

    def __init__(self, call: list[str], stage: str | None):
        super().__init__(" > ".join(call))
        self.call = call
        self.stage = stage


def _program_frames(frame) -> list:
    package = str(ROOT / "src" / "dimertree")
    frames = []
    while frame is not None:
        if frame.f_code.co_filename.startswith(package):
            frames.append(frame)
        frame = frame.f_back
    return frames[::-1]


def _frame_name(frame) -> str:
    return f"{Path(frame.f_code.co_filename).stem}.{frame.f_code.co_name}"


class Watchdog:
    """Per-verdict and per-stage time budgets, enforced by a periodic timer
    signal that looks at which program functions are running."""

    def __init__(self, verdict_budget: float, stage_budgets: dict[str, float]):
        self.verdict_budget = verdict_budget
        self.stage_budgets = stage_budgets
        self._t0 = 0.0
        self._seen: dict[int, float] = {}

    def _tick(self, signum, frame):
        now = time.monotonic()
        frames = _program_frames(frame)
        seen = {}
        for f in frames:
            budget = self.stage_budgets.get(f.f_code.co_name)
            if budget is None:
                continue
            first = seen[id(f)] = self._seen.get(id(f), now)
            if now - first >= budget:
                raise BudgetHit([_frame_name(x) for x in frames], f.f_code.co_name)
        self._seen = seen
        if now - self._t0 >= self.verdict_budget:
            raise BudgetHit([_frame_name(x) for x in frames], None)

    @contextlib.contextmanager
    def armed(self):
        self._t0 = time.monotonic()
        self._seen = {}
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, WATCHDOG_TICK_S, WATCHDOG_TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


# -- machine speed -----------------------------------------------------------

def _kernel(n: int = 3000) -> int:
    """Dict, tuple, list and Fraction work, like the program's own."""
    acc = 0
    counts: dict = {}
    for i in range(n):
        key = (i % 31, i % 17)
        counts[key] = counts.get(key, 0) + 1
        row = sorted([(i * 7) % 13, (i * 5) % 11, i % 3, (i * 3) % 7])
        acc += row[0] + len({x: i for x in row})
        if i % 8 == 0:
            acc += int(Fraction(i, 7) * Fraction(3, i + 1) + 1)
    return acc


class Calibration:
    def __init__(self):
        self.reps = 0
        self.seconds = 0.0

    def run(self, reps: int) -> float:
        """Mean kernel time over `reps` runs."""
        start = time.perf_counter()
        for _ in range(reps):
            _kernel()
        seconds = time.perf_counter() - start
        self.seconds += seconds
        self.reps += reps
        return seconds / reps

    def after(self, verdict_seconds: float) -> float:
        return self.run(max(1, math.ceil(verdict_seconds * CAL_SHARE / CAL_REFERENCE_S)))

    @property
    def kernel_s(self) -> float:
        return self.seconds / self.reps


# -- verdicts ----------------------------------------------------------------

class CheckFailed(Exception):
    pass


class CapHit(Exception):
    """The oracle build gave up at its path-length cap: exit 3 from the CLI.
    Like a timed-out build, a refusal to answer and not a wrong answer."""


CAP_MESSAGE = "algebra not finite-dimensional at cap"


def _raise_on_cap(rc: int, err: str) -> None:
    if rc == 3 and CAP_MESSAGE in err:
        raise CapHit(err.strip())


def call_cli(mods, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = mods["cli"].main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def _check_lines(out: str) -> dict[str, str]:
    """`pass  name  (detail)` lines as {name: 'pass' | 'FAIL'}."""
    marks = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] in ("pass", "FAIL"):
            marks[parts[1]] = parts[0]
    return marks


def verdict_sweep(mods, path: Path) -> None:
    rc, out, err = call_cli(mods, ["all", str(path)])
    _raise_on_cap(rc, err)
    marks = _check_lines(out)
    failed = [n for n, m in marks.items() if m != "pass"]
    missing = [n for n in ALL_CHECKS if n not in marks]
    if rc != 0 or failed or missing:
        raise CheckFailed(f"exit {rc}, failed {failed}, missing {missing}: {err.strip()}")
    total = final = None
    for line in out.splitlines():
        if line.startswith("pass  total_weight_even"):
            total = int(line.rsplit("total ", 1)[1].rstrip(")"))
        if line.startswith("pass  reduction"):
            final = int(line.rsplit("final length ", 1)[1].rstrip(")"))
    if total is None or final is None or final * 2 != total:
        raise CheckFailed(f"final cycle length {final}, total weight {total}")


def verdict_large(mods, path: Path) -> None:
    qv, cb, dg = mods["quiver"], mods["checkerboard"], mods["diagonals"]
    q = qv.load_quiver(str(path))
    report = qv.validate_dimer_tree(q)
    if not report.ok:
        raise CheckFailed(f"validate: {[c.name for c in report.failed()]}")
    wr = qv.weight_report(q, report.structure)
    cp = cb.build_checkerboard(q, structure=report.structure)
    val = cb.validate_checkerboard(cp, q, report.structure)
    if not val.ok:
        raise CheckFailed(f"checkerboard: {[c.name for c in val.failed()]}")
    if not dg.ar_quiver(cp.half).check_translation_axiom():
        raise CheckFailed("translation axiom")
    for d in dg.enumerate_diagonals(cp.half):
        if not mods["syzygy"].resolution(cp, d).gluing_ok:
            raise CheckFailed(f"gluing fails on {d}")
    trace = mods["mutation"].reduce_to_cycle(q)
    if trace.final_cycle_length != wr.half:
        raise CheckFailed(f"final cycle length {trace.final_cycle_length} != N {wr.half}")


def verdict_oracle_q(mods, path: Path) -> None:
    rc, out, err = call_cli(mods, ["oracle", str(path), "--field", "Q",
                                   "--check", "all"])
    _raise_on_cap(rc, err)
    marks = [line.split()[:2] for line in out.splitlines()
             if line.startswith(("pass ", "FAIL "))]
    failed = [name for mark, name in marks if mark != "pass"]
    summary = f"{len(marks)}/{len(marks)} oracle checks passed"
    if rc != 0 or failed or not marks or summary not in out:
        raise CheckFailed(f"exit {rc}, failed {failed}: {err.strip()}")


VERDICT = {"sweep": verdict_sweep, "large": verdict_large,
           "oracle-q": verdict_oracle_q}


# -- output pin --------------------------------------------------------------

def contract_digest(mods, path: Path, workdir: Path) -> str:
    """sha256 over the structured outputs a refactor must keep byte-identical:
    weights, polygon and diag structured, resolve structured on every
    diagonal, the reduce trace JSON and the oracle's item verdicts."""
    h = hashlib.sha256()

    def feed(argv, text):
        h.update(json.dumps(argv[:1] + argv[2:]).encode() + b"\0")
        h.update(text.encode() + b"\0")

    for cmd in ("weights", "polygon", "diag"):
        argv = [cmd, str(path), "--format", "structured"]
        rc, out, _ = call_cli(mods, argv)
        feed(argv, f"{rc}\n{out}")
        if cmd == "diag":
            diagonals = json.loads(out)["diagonals"] if rc == 0 else []
    for tail, head in diagonals:
        argv = ["resolve", str(path), "--diagonal", f"{tail},{head}",
                "--format", "structured"]
        rc, out, _ = call_cli(mods, argv)
        feed(argv, f"{rc}\n{out}")
    trace_file = workdir / "reduce-trace.json"
    rc, out, _ = call_cli(mods, ["reduce", str(path), "--trace", str(trace_file)])
    feed(["reduce"], f"{rc}\n{out}\n{trace_file.read_text(encoding='utf-8')}")
    trace_file.unlink()
    rc, out, _ = call_cli(mods, ["oracle", str(path), "--check", "all"])
    items = sorted(_check_lines(out).items())
    feed(["oracle"], f"{rc}\n{json.dumps(items)}")
    return h.hexdigest()


def load_pins() -> dict[str, str]:
    if not PINS.is_file():
        return {}
    return json.loads(PINS.read_text(encoding="utf-8"))["digests"]


# -- the loop ----------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, traced: bool,
        setup_only: bool) -> dict:
    mods = import_program()
    docs = quiver_docs(workload, seed)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        paths = write_inputs(docs, workdir)
        ready = time.monotonic()
        cal = Calibration()
        cal.run(CAL_SETUP_REPS)
        if setup_only:
            return {"ready": ready, "setup_kernel_s": cal.kernel_s}
        if traced:
            result = _run_traced(mods, workload, docs, paths)
        else:
            result = _run_timed(mods, workload, docs, paths, seconds)
        # before the pin checks, which run the oracle on `large` quivers too
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        _check_pins(mods, result["verdicts"], docs, paths, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["ready"] = ready
    result["setup_kernel_s"] = cal.kernel_s
    return result


def _one_verdict(mods, workload, vid, doc, path, watchdog) -> dict:
    record = {"id": vid, "quiver": doc["name"], "ok": False}
    start = time.perf_counter()
    try:
        with watchdog.armed():
            VERDICT[workload](mods, path)
        record["ok"] = True
    except BudgetHit as hit:
        record["budget_hit"] = {"call": hit.call, "stage": hit.stage}
    except CapHit as exc:
        record["budget_hit"] = {"call": ["oracle.build_algebra"],
                                "stage": "build_cap", "detail": str(exc)}
    except CheckFailed as exc:
        record["error"] = str(exc)[:500]
    except Exception as exc:  # any other error is a failed verdict, recorded
        record["error"] = f"{type(exc).__name__}: {exc}"[:500]
    record["seconds"] = time.perf_counter() - start
    return record


def _check_pins(mods, verdicts, docs, paths, workdir) -> None:
    """After the timed loop: fail every passed verdict on a pinned quiver
    whose contract outputs differ from the pin."""
    pins, digests = load_pins(), {}
    for record in verdicts:
        i = record["id"] % len(docs)
        key = quiver_key(docs[i])
        if key not in pins or not record["ok"]:
            continue
        if key not in digests:
            digests[key] = contract_digest(mods, paths[i], workdir)
        record["pinned"] = True
        if digests[key] != pins[key]:
            record["ok"] = False
            record["error"] = "contract outputs differ from the pinned digest"


def _run_timed(mods, workload, docs, paths, seconds) -> dict:
    watchdog = Watchdog(VERDICT_BUDGET_S, STAGE_BUDGET_S)
    cal = Calibration()
    verdicts = []
    timed = 0.0
    while not verdicts or timed < seconds:
        i = len(verdicts)
        doc, path = docs[i % len(docs)], paths[i % len(paths)]
        record = _one_verdict(mods, workload, i, doc, path, watchdog)
        timed += record["seconds"]
        record["kernel_s"] = cal.after(record["seconds"])
        verdicts.append(record)
    return {"verdicts": verdicts, "timed_s": timed, "kernel_s": cal.kernel_s}


def _run_traced(mods, workload, docs, paths) -> dict:
    """Each quiver of the trace set runs untraced, then traced; the wall-time
    difference is the tracing overhead."""
    watchdog = Watchdog(VERDICT_BUDGET_S, STAGE_BUDGET_S)
    tracer = tracing.Tracer()
    verdicts = []
    untraced = traced = 0.0
    for i in range(TRACE_LEN[workload]):
        doc, path = docs[i], paths[i]
        plain = _one_verdict(mods, workload, i, doc, path, watchdog)
        untraced += plain["seconds"]
        tracer.verdict = i
        with tracer:
            record = _one_verdict(mods, workload, i, doc, path, watchdog)
        traced += record["seconds"]
        if plain["ok"] != record["ok"]:
            record["ok"] = False
            record["error"] = "traced and untraced verdicts differ"
        if record.get("budget_hit", {}).get("stage") == "build_algebra":
            tracer.counters["oracle.build_timeouts"] += 1
        verdicts.append(record)
    leftover = tracing.installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracer left wrappers behind: {leftover}")
    metrics = tracing.layer_metrics(tracer, mods["mutation"].MOVE_KINDS)
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced if untraced else 0
    metrics["trace.spans"] = len(tracer.spans)
    metrics["oracle.known_defects"] = pool(workload)[1]
    spans_file = OUT / f"spans-{workload}-{os.getpid()}.json"
    spans_file.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "verdict"],
        "spans": tracer.spans,
        "counters": dict(tracer.counters),
    }), encoding="utf-8")
    return {"verdicts": verdicts, "timed_s": traced, "layers": metrics,
            "spans_file": os.path.relpath(spans_file, ROOT)}


def make_pins() -> dict:
    """Digests for the fixtures and the first quivers of the generator's
    `sweep` and `large` streams at the default seed, from the program as it
    is now."""
    mods = import_program()
    workdir = OUT / f"work-{os.getpid()}"
    digests = {}
    try:
        for workload, n in PIN_LEN.items():
            head = fixture_docs() if workload == "sweep" else []
            head += generated_docs(workload, DEFAULT_SEED)[:n]
            for doc, path in zip(head, write_inputs(head, workdir)):
                digests[quiver_key(doc)] = contract_digest(mods, path, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"seed": DEFAULT_SEED, "digests": digests}


def find_known_defects() -> dict:
    """Run the verdict of every pool quiver once, with the budgets of a run,
    and record each one that fails, with its failure."""
    mods = import_program()
    workdir = OUT / f"work-{os.getpid()}"
    watchdog = Watchdog(VERDICT_BUDGET_S, STAGE_BUDGET_S)
    quivers = {}
    try:
        for workload in WORKLOADS:
            docs = [doc for seed in POOL_SEEDS for doc in generated_docs(workload, seed)]
            for i, (doc, path) in enumerate(zip(docs, write_inputs(docs, workdir))):
                record = _one_verdict(mods, workload, i, doc, path, watchdog)
                if not record["ok"]:
                    quivers[quiver_key(doc)] = {
                        "workload": workload, "name": doc["name"],
                        "arrows": doc["arrows"],
                        "failure": record.get("budget_hit") or record["error"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"pool_seeds": list(POOL_SEEDS), "budgets_s": STAGE_BUDGET_S,
            "quivers": quivers}


def dump_known_defects(doc: dict) -> str:
    """JSON with one line per quiver."""
    lines = [f" {json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
             for key, entry in sorted(doc["quivers"].items(),
                                      key=lambda item: item[1]["name"])]
    head = {k: v for k, v in doc.items() if k != "quivers"}
    return (json.dumps(head, sort_keys=True)[:-1] + ', "quivers": {\n'
            + ",\n".join(lines) + "\n}}\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--make-pins", action="store_true",
                   help="rewrite pins.json from the current program")
    p.add_argument("--make-known-defects", action="store_true",
                   help="rewrite known_defects.json from the current program")
    args = p.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    try:
        if args.make_pins:
            PINS.write_text(json.dumps(make_pins(), indent=1, sort_keys=True)
                            + "\n", encoding="utf-8")
            return 0
        if args.make_known_defects:
            KNOWN_DEFECTS.write_text(dump_known_defects(find_known_defects()),
                                     encoding="utf-8")
            return 0
        if args.workload is None:
            p.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.setup_only)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
