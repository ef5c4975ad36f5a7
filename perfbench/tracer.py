"""Spans and counters recorded around the public functions of each layer.

The tracer patches a wrapper over each function in `TARGETS`, under every
name that binds it in a loaded `dimertree` module (a function imported with
`from .quiver import analyze_structure` is reached through several modules),
and puts every original back in `uninstall`.  Nothing in the package changes:
an untraced run carries no wrapper at all.

A span is `(name, start, end, parent, verdict)`: `parent` is the index of the
enclosing span or -1, and `verdict` the id of the quiver being processed.
Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter

# The package's modules are the layers; `_modp` is the GF(p) kernel of linalg.
LAYER_OF_MODULE = {
    "quiver": "quiver", "checkerboard": "checkerboard",
    "diagonals": "diagonals", "syzygy": "syzygy", "mutation": "mutation",
    "oracle": "oracle", "linalg": "linalg", "_modp": "linalg", "cli": "cli",
}
LOST = ("lost", 0.0, 0.0, -1, None)
LAYERS = ("quiver", "checkerboard", "diagonals", "syzygy", "mutation",
          "oracle", "linalg", "cli")

# The checks that make up an oracle report, through `cli oracle` or `all`.
ORACLE_REPORT = ("full_oracle_report", "schurian_check",
                 "extension_lemma_check", "radical_presentation_check",
                 "radical_ext_arrow_check", "radical_indecomposability_check",
                 "boundary_vanishing_check")

TARGETS = (
    ("quiver", "load_quiver"),
    ("quiver", "validate_dimer_tree"),
    ("quiver", "analyze_structure"),
    ("quiver", "weight_report"),
    ("checkerboard", "build_checkerboard"),
    ("checkerboard", "validate_checkerboard"),
    ("diagonals", "ar_quiver"),
    ("syzygy", "presentation_of"),
    ("syzygy", "resolution"),
    ("syzygy", "radical_consistency_check"),
    ("mutation", "reduce_to_cycle"),
    ("mutation", "apply_move"),
    ("oracle", "build_algebra"),
    ("oracle", "resolve_step"),
    *(("oracle", name) for name in ORACLE_REPORT),
    *(("linalg", f"{cls}.{op}") for cls in ("GF", "QQ")
      for op in ("rref", "nullspace", "matmul")),
    ("_modp", "rref_modp"),
    ("_modp", "nullspace_modp"),
    ("_modp", "matmul_modp"),
    ("cli", "main"),
    ("cli", "cmd_all"),
    ("cli", "cmd_oracle"),
)


def _field_of(args) -> str:
    return "gf" if type(args[0]).__name__ == "GF" else "qq"


def _record_result(tracer: "Tracer", idx: int, name: str, args, result):
    """Counts read from a call's arguments or result, at the span boundary."""
    counters, samples = tracer.counters, tracer.samples
    if name == "diagonals.ar_quiver":
        counters["diagonals.meshes"] += len(result.meshes)
    elif name == "mutation.apply_move":
        counters[f"mutation.moves.{result[1].kind}"] += 1
    elif name == "oracle.build_algebra":
        samples.setdefault("oracle.dimension", []).append(result.dimension)
        samples.setdefault("oracle.cap", []).append(result.cap)
    elif name in ("oracle.schurian_check", "oracle.extension_lemma_check"):
        tracer.span_items[idx] = 1
    elif name.startswith("oracle.") and name[7:] in ORACLE_REPORT:
        tracer.span_items[idx] = len(result.items)
    elif name.endswith(".rref") and name.startswith("linalg."):
        rows, cols = args[1].shape
        samples.setdefault(f"linalg.rref_cells.{_field_of(args)}", []).append(rows * cols)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.samples: dict[str, list] = {}
        self.span_items: dict[int, int] = {}
        self.verdict = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.verdict)
            _record_result(self, idx, name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__perfbench_span__ = name
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dimertree"
                                         or key.startswith("dimertree."))]
        for modname, qualname in TARGETS:
            mod = importlib.import_module(f"dimertree.{modname}")
            span = f"{LAYER_OF_MODULE[modname]}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(span, original))
                continue
            original = getattr(mod, qualname)
            wrapper = self._wrap(span, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def installed_wrappers() -> list[str]:
    """Names in loaded `dimertree` modules and classes still bound to a
    tracer wrapper; empty whenever no tracer is installed."""
    found = []
    for key, m in list(sys.modules.items()):
        if m is None or not (key == "dimertree" or key.startswith("dimertree.")):
            continue
        for attr, value in list(vars(m).items()):
            owners = [(attr, value)]
            if isinstance(value, type) and value.__module__ == key:
                owners += [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            found += [f"{key}.{a}" for a, v in owners
                      if hasattr(v, "__perfbench_span__")]
    return found


# -- arithmetic over spans ----------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.  One
    thread runs one call at a time, so children never overlap."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (name, start, end, parent, _) in enumerate(spans)]


def _outermost(spans, i, key) -> bool:
    """True when no ancestor of span i satisfies `key`."""
    parent = spans[i][3]
    while parent >= 0:
        if key(spans[parent]):
            return False
        parent = spans[parent][3]
    return True


def _has_ancestor(spans, i, name) -> bool:
    return not _outermost(spans, i, lambda s: s[0] == name)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per layer: `total_s`, the time covered by its outermost spans, and
    `self_s`, the time spent in its own code outside any traced child."""
    selfs = self_times(spans)
    out = {layer: {"total_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for i, span in enumerate(spans):
        layer = layer_of(span[0])
        if layer not in out:
            continue
        out[layer]["self_s"] += selfs[i]
        if _outermost(spans, i, lambda s: layer_of(s[0]) == layer):
            out[layer]["total_s"] += span[2] - span[1]
    return out


def _pct(values, q: float) -> float:
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, move_kinds) -> dict[str, float]:
    """The per-layer metrics, named as in the benchmark's definition."""
    # A budget hit can interrupt a wrapper before it records its span.
    spans = [s if s is not None else LOST for s in tracer.spans]
    calls: Counter = Counter(s[0] for s in spans)
    total: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        if _outermost(spans, i, lambda s, n=name: s[0] == n):
            total[name] += end - start
    report_names = {f"oracle.{n}" for n in ORACLE_REPORT}
    report_s = items = 0
    for i, (name, start, end, _, _) in enumerate(spans):
        if name in report_names and _outermost(
                spans, i, lambda s: s[0] in report_names):
            report_s += end - start
            items += tracer.span_items.get(i, 0)
    moves = calls["mutation.apply_move"]
    in_reduce = sum(1 for i, s in enumerate(spans)
                    if s[0] == "quiver.analyze_structure"
                    and _has_ancestor(spans, i, "mutation.reduce_to_cycle"))
    layers = layer_times(spans)
    dims = tracer.samples.get("oracle.dimension", [])
    caps = tracer.samples.get("oracle.cap", [])
    m = {
        "quiver.load_s": total["quiver.load_quiver"],
        "quiver.validate_s": total["quiver.validate_dimer_tree"],
        "quiver.validate_calls": calls["quiver.validate_dimer_tree"],
        "quiver.analyze_structure_s": total["quiver.analyze_structure"],
        "quiver.analyze_structure_calls": calls["quiver.analyze_structure"],
        "quiver.weights_s": total["quiver.weight_report"],
        "checkerboard.build_s": total["checkerboard.build_checkerboard"],
        "checkerboard.validate_s": total["checkerboard.validate_checkerboard"],
        "diagonals.ar_quiver_s": total["diagonals.ar_quiver"],
        "diagonals.meshes": tracer.counters["diagonals.meshes"],
        "syzygy.resolutions_s": total["syzygy.resolution"],
        "syzygy.resolution_calls": calls["syzygy.resolution"],
        "syzygy.presentation_calls": calls["syzygy.presentation_of"],
        "syzygy.consistency_s": total["syzygy.radical_consistency_check"],
        "mutation.reduce_s": total["mutation.reduce_to_cycle"],
        "mutation.moves": moves,
        **{f"mutation.moves.{k}": tracer.counters[f"mutation.moves.{k}"]
           for k in move_kinds},
        "mutation.structures_per_move": in_reduce / moves if moves else 0,
        "oracle.build_s": total["oracle.build_algebra"],
        "oracle.build_timeouts": tracer.counters["oracle.build_timeouts"],
        "oracle.dimension": max(dims, default=0),
        "oracle.cap": max(caps, default=0),
        "oracle.report_s": report_s,
        "oracle.check_items": items,
        "oracle.resolve_step_calls": calls["oracle.resolve_step"],
    }
    for f, cls in (("gf", "GF"), ("qq", "QQ")):
        cells = tracer.samples.get(f"linalg.rref_cells.{f}", [])
        m[f"linalg.{f}.rref_calls"] = calls[f"linalg.{cls}.rref"]
        m[f"linalg.{f}.rref_s"] = total[f"linalg.{cls}.rref"]
        m[f"linalg.{f}.rref_cells_p50"] = statistics.median(cells) if cells else 0
        m[f"linalg.{f}.rref_cells_p99"] = _pct(cells, 0.99)
        m[f"linalg.{f}.rref_cells_max"] = max(cells, default=0)
        m[f"linalg.{f}.nullspace_calls"] = calls[f"linalg.{cls}.nullspace"]
        m[f"linalg.{f}.matmul_calls"] = calls[f"linalg.{cls}.matmul"]
    m["cli.all_s"] = total["cli.cmd_all"]
    m["cli.oracle_s"] = total["cli.cmd_oracle"]
    m["cli.self_s"] = layers["cli"]["self_s"]
    for layer, t in layers.items():
        m[f"layer.{layer}.total_s"] = t["total_s"]
        m[f"layer.{layer}.self_s"] = t["self_s"]
    return m
