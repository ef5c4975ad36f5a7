"""Command-line front end.

Subcommands: validate, weights, polygon, diag, resolve, reduce, oracle, all.
Exit status:

- 0 when every requested check passes;
- 1 on a failed check;
- 2 on bad input, or on a request refused with a reason: a `diag --size`
  above `MAX_DIAG_SIZE`, or a `reduce` that reaches its step budget
  (`all` reports that as a failed `reduction` line);
- 3 on an internal invariant breach.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import checkerboard as cb
from . import diagonals as dg
from . import mutation as mu
from . import oracle as orc
from . import syzygy as sy
from .linalg import DEFAULT_PRIME, FieldError, parse_field_spec
from .quiver import (Check, QuiverError, _vkey, load_quiver,
                     validate_dimer_tree, weight_report)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

# The largest `diag --size`: the work grows as N^2, and at 2N = 512 the
# structured output takes 3.3 s and 410 MB (see README).
MAX_DIAG_SIZE = 512


def _field(args) -> str:
    """--field if given, else DIMERTREE_FIELD as it is when the command runs,
    else the default prime."""
    if args.field is not None:
        return args.field
    return os.environ.get("DIMERTREE_FIELD", str(DEFAULT_PRIME))


def _load(path: str):
    try:
        return load_quiver(path)
    except (OSError, QuiverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def _require_valid(q):
    report = validate_dimer_tree(q)
    if not report.ok:
        for c in report.failed():
            print(f"FAIL {c.name}: {c.detail}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)
    return report


def _checkerboard(q, structure):
    """The checkerboard polygon of a quiver that passed validation.  A failure
    here is the program's, not the input's: exit 3, naming the stage."""
    try:
        return cb.build_checkerboard(q, structure=structure)
    except cb.CheckerboardError as exc:
        print(f"internal error: checkerboard construction failed: {exc}",
              file=sys.stderr)
        raise SystemExit(EXIT_INTERNAL)


def _print_check(c: Check, file=None) -> None:
    print(f"{'pass' if c.passed else 'FAIL'}  {c.name}"
          + (f"  ({c.detail})" if c.detail else ""), file=file)


def _emit(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}",
              file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def cmd_validate(args) -> int:
    q = _load(args.quiver)
    report = validate_dimer_tree(q)
    for c in report.items:
        _print_check(c)
    for p in report.structure.problems:
        print(f"note  {p}")
    print(f"cycles: {len(report.structure.cycles)}  "
          f"boundary arrows: {len(report.structure.boundary_arrows)}  "
          f"interior arrows: {len(report.structure.interior_arrows)}")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_weights(args) -> int:
    q = _load(args.quiver)
    report = _require_valid(q)
    wr = weight_report(q, report.structure)
    if args.format == "structured":
        doc = {
            "total_weight": wr.total_weight,
            "half": wr.half,
            "entries": [{
                "arrow": e.arrow,
                "weight": e.weight,
                "coweight": e.coweight,
                "cycle_path": list(e.cycle_path.arrows),
                "cocycle_path": list(e.cocycle_path.arrows),
            } for e in wr.entries],
        }
        _emit(json.dumps(doc, indent=2, default=str) + "\n", args.out)
        return EXIT_OK
    rows = [(e.cycle_path.pretty(q), e.weight, e.arrow) for e in wr.entries]
    width = max(len(r[0]) for r in rows)
    lines = [f"{'cycle path':<{width}}  weight  arrow"]
    lines += [f"{path:<{width}}  {w:>6}  {arrow}" for path, w, arrow in rows]
    lines.append(f"total weight: {wr.total_weight}  "
                 f"(polygon size 2N with N={wr.half})")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_polygon(args) -> int:
    q = _load(args.quiver)
    report = _require_valid(q)
    cp = _checkerboard(q, report.structure)
    val = cb.validate_checkerboard(cp, q, report.structure)
    for c in val.items:
        _print_check(c, sys.stdout if c.passed else sys.stderr)
    if args.format != "text":
        _emit(cb.render(cp, args.format), args.out)
    else:
        lines = [f"polygon size: {cp.size}"] + [
            f"  line {v}: ({line.tail},{line.head})  "
            f"crossings {', '.join(line.crossings)}"
            for v, line in sorted(cp.lines.items(), key=lambda kv: _vkey(kv[0]))]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if val.ok else EXIT_CHECK_FAILED


def cmd_diag(args) -> int:
    if args.size is not None:
        if args.size % 2 != 0 or not 6 <= args.size <= MAX_DIAG_SIZE:
            print(f"error: --size must be an even number from 6 to "
                  f"{MAX_DIAG_SIZE}, got {args.size}", file=sys.stderr)
            return EXIT_BAD_INPUT
        n = args.size // 2
    else:
        q = _load(args.quiver)
        report = _require_valid(q)
        n = weight_report(q, report.structure).half
    tq = dg.ar_quiver(n)
    if args.format == "dot":
        _emit(dg.translation_quiver_dot(tq), args.out)
        return EXIT_OK
    if args.format == "structured":
        doc = {
            "n": n,
            "diagonals": [[d.tail, d.head] for d in tq.nodes],
            "arrows": [[[s.tail, s.head], [t.tail, t.head]]
                       for s, t in tq.arrows],
            "tau": {f"{x.tail},{x.head}": [tx.tail, tx.head]
                    for x, tx in sorted(tq.tau.items())},
            "meshes": [{
                "target": [m.target.tail, m.target.head],
                "tau_target": [m.tau_target.tail, m.tau_target.head],
                "middles": [[d.tail, d.head] for d in m.middles],
            } for m in tq.meshes],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return EXIT_OK
    axiom = tq.check_translation_axiom()
    lines = [f"2N = {2 * n}: {len(tq.nodes)} 2-diagonals, {len(tq.arrows)} pivots, "
             f"{len(tq.tau_orbits())} rotation-square orbits",
             f"translation axiom: {'pass' if axiom else 'FAIL'}"]
    for m in tq.meshes:
        mids = " + ".join(str(d) for d in m.middles)
        lines.append(f"  mesh at {m.target}: {m.tau_target} -> {mids} -> {m.target}")
    bij = dg.arc_bijection_report(n)
    detail = "; ".join(c.detail for c in bij.failed())
    lines.append(f"boundary-arc bijection: {'pass' if bij.ok else 'FAIL ' + detail}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if axiom and bij.ok else EXIT_CHECK_FAILED


def _parse_diagonal(spec: str, n: int) -> dg.TwoDiagonal:
    """A diagonal of the 2n-gon from "A,B"; labels run 1..2n, and
    `make_diagonal` would otherwise read any other label modulo 2n."""
    try:
        a, b = (int(x) for x in spec.split(","))
        for label in (a, b):
            if not 1 <= label <= 2 * n:
                raise dg.DiagonalError(
                    f"label {label} is outside 1..{2 * n}")
        return dg.make_diagonal(a, b, n)
    except dg.DiagonalError as exc:        # a ValueError, so caught first
        reason = str(exc)
    except ValueError:
        reason = f"expected two integer labels A,B in 1..{2 * n}"
    print(f"error: bad diagonal {spec!r}: {reason}", file=sys.stderr)
    raise SystemExit(EXIT_BAD_INPUT)


def cmd_resolve(args) -> int:
    q = _load(args.quiver)
    report = _require_valid(q)
    cp = _checkerboard(q, report.structure)
    d = _parse_diagonal(args.diagonal, cp.half)
    # the trace repeats after at most 2N steps, and every step is kept
    if args.steps is not None and args.steps > 2 * cp.half:
        print(f"error: --steps: must be at most {2 * cp.half}, got {args.steps}",
              file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)
    trace = sy.resolution(cp, d, steps=args.steps)
    if args.format == "structured":
        doc = {
            "diagonal": [d.tail, d.head],
            "minimal_period": trace.minimal_period,
            "gluing_ok": trace.gluing_ok,
            "steps": [{"diagonal": [s.diagonal.tail, s.diagonal.head],
                       "P1": list(s.p1), "P0": list(s.p0)}
                      for s in trace.steps],
        }
        _emit(json.dumps(doc, indent=2, default=str) + "\n", args.out)
    else:
        lines = [f"step {i}: {s.diagonal}  P1={list(s.p1)}  P0={list(s.p0)}"
                 for i, s in enumerate(trace.steps)]
        lines.append(f"minimal period: {trace.minimal_period}  "
                     f"gluing: {'pass' if trace.gluing_ok else 'FAIL'}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if trace.gluing_ok else EXIT_CHECK_FAILED


def cmd_reduce(args) -> int:
    q = _load(args.quiver)
    _require_valid(q)
    try:
        trace = mu.reduce_to_cycle(q)
    except mu.ReductionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.trace is not None and args.trace:
            _emit(mu.trace_to_json(exc.trace), args.trace)
        # a budget hit is a refusal with its reason, not a broken invariant
        return (EXIT_BAD_INPUT if isinstance(exc, mu.StepBudgetExceeded)
                else EXIT_INTERNAL)
    if args.trace:
        _emit(mu.trace_to_json(trace), args.trace)
    print(f"moves: {len(trace.steps)}")
    for s in trace.steps:
        print(f"  {s.move.kind} at {s.move.site}  [{s.move.equivalence}] "
              f"weight {s.move.weight_before}->{s.move.weight_after}")
    print(f"final: single cycle of length {trace.final_cycle_length}")
    return EXIT_OK


ORACLE_CHECKS = (*orc.SECTIONS, "all")


def cmd_oracle(args) -> int:
    q = _load(args.quiver)
    _require_valid(q)
    field = parse_field_spec(_field(args))
    ab = orc.build_algebra(q, field)
    print(f"algebra over {field.name}: dimension {ab.dimension}, "
          f"stabilization length {ab.stabilization_length}")
    items = orc.section_items(
        ab, orc.SECTIONS if args.check == "all" else (args.check,))
    failed = [c for c in items if not c.passed]
    for c in items:
        _print_check(c)
    print(f"{len(items) - len(failed)}/{len(items)} oracle checks passed")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def _first_failure(report) -> str:
    """The witness of a report: its first failing item with that item's own
    detail, then how many more fail; empty when every item passes."""
    failed = report.failed()
    if not failed:
        return ""
    first = failed[0]
    witness = first.name + (f": {first.detail}" if first.detail else "")
    return witness + (f"; and {len(failed) - 1} more" if len(failed) > 1 else "")


def cmd_all(args) -> int:
    # refuse a bad field before any check prints
    field = parse_field_spec(_field(args))
    q = _load(args.quiver)
    report = validate_dimer_tree(q)
    status = EXIT_OK

    def note(name, ok, detail=""):
        nonlocal status
        _print_check(Check(name, ok, detail))
        if not ok:
            status = EXIT_CHECK_FAILED

    note("dimer_tree_validation", report.ok, _first_failure(report))
    if not report.ok:
        return EXIT_CHECK_FAILED
    wr = weight_report(q, report.structure)
    note("total_weight_even", wr.total_weight % 2 == 0,
         f"total {wr.total_weight}")
    cp = _checkerboard(q, report.structure)
    val = cb.validate_checkerboard(cp, q, report.structure)
    note("checkerboard", val.ok, _first_failure(val))
    tq = dg.ar_quiver(cp.half)
    note("translation_quiver", tq.check_translation_axiom())
    ab = orc.build_algebra(q, field)
    rep = orc.full_oracle_report(ab)
    note(f"oracle[{field.name}]", rep.ok, _first_failure(rep))
    cons = sy.radical_consistency_check(cp, ab)
    note("model_oracle_consistency", cons.ok, _first_failure(cons))
    # each names the first diagonal that fails it
    gluing = periods = ""
    for d in dg.enumerate_diagonals(cp.half):
        tr = sy.resolution(cp, d)
        if not tr.gluing_ok and not gluing:
            gluing = f"diagonal {d} does not glue"
        if tr.minimal_period not in (cp.half, 2 * cp.half) and not periods:
            periods = (f"diagonal {d} has period {tr.minimal_period}, "
                       f"not {cp.half} or {2 * cp.half}")
    note("resolution_gluing", not gluing, gluing)
    note("resolution_periods", not periods, periods)
    try:
        trace = mu.reduce_to_cycle(q)
        note("reduction", trace.final_cycle_length == wr.half,
             f"final length {trace.final_cycle_length}")
    except mu.ReductionError as exc:
        note("reduction", False, str(exc))
    return status


def _int_at_least(low: int):
    """An argparse `type=` that accepts integers >= low, so a bad count exits
    2 with a reason instead of being reinterpreted."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dimertree",
        description="Dimer tree quivers: weights, checkerboard polygons, "
                    "syzygy combinatorics, mutation, and the path-algebra oracle.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="structural axioms of the input quiver")
    sp.add_argument("quiver")

    sp = sub.add_parser("weights", help="cycle paths, weights and total weight")
    sp.add_argument("quiver")
    sp.add_argument("--format", choices=("text", "structured"), default="text")
    sp.add_argument("--out")

    sp = sub.add_parser("polygon", help="build and validate the checkerboard polygon")
    sp.add_argument("quiver")
    sp.add_argument("--format", choices=("text", "structured", "svg", "dot"),
                    default="text")
    sp.add_argument("--out")

    sp = sub.add_parser("diag", help="2-diagonals and their translation quiver")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("quiver", nargs="?")
    source.add_argument("--size", type=int, help="polygon size 2N")
    sp.add_argument("--format", choices=("text", "structured", "dot"),
                    default="text")
    sp.add_argument("--out")

    sp = sub.add_parser("resolve", help="periodic projective resolution of a diagonal")
    sp.add_argument("quiver")
    sp.add_argument("--diagonal", required=True, metavar="A,B")
    sp.add_argument("--steps", type=_int_at_least(0), default=None)
    sp.add_argument("--format", choices=("text", "structured"), default="text")
    sp.add_argument("--out")

    sp = sub.add_parser("reduce", help="reduce to a single cycle by equivalences")
    sp.add_argument("quiver")
    sp.add_argument("--trace", help="write the move trace to this file")

    sp = sub.add_parser("oracle", help="path-algebra checks over a chosen field")
    sp.add_argument("quiver")
    sp.add_argument("--check", choices=ORACLE_CHECKS, default="all")
    sp.add_argument("--field",
                    help="prime p or Q (default from DIMERTREE_FIELD)")

    sp = sub.add_parser("all", help="full pipeline and consistency suite")
    sp.add_argument("quiver")
    sp.add_argument("--field")

    return p


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # the parser is built on the first call and kept for the process
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # the command function is looked up when it runs, not when the parser
    # was built, so a name rebound since (by a tracer, say) is honoured
    fn = globals()[f"cmd_{args.command}"]
    try:
        return fn(args)
    except SystemExit:
        raise
    except (QuiverError, cb.CheckerboardError, dg.DiagonalError,
            sy.SyzygyError, FieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (orc.OracleError, mu.MutationError, mu.ReductionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
