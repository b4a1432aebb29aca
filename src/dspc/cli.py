"""Command-line driver: build, run, and benchmark DSL programs.

Exit codes: 0 success, 1 usage, 2 lex/parse, 3 graph build/verify,
4 runtime (divergence, division by zero, non-finite results), 5 failed
bench assertion.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Mapping, Optional, Sequence

from . import corpus
from .corpus import (BenchContext, CorpusApp, InputPlan, compile_source,
                     max_relative_deviation)
from .errors import UsageError
from .frontend import FrontendError, ast_to_text, parse_source, tokenize
from .graph import (DspGraph, GraphBuildError, ShapeMismatch, VerificationFailed,
                    graph_to_text)
from .interp import (TABLES, LoopRuntimeError, NonFinite, Tensor, check_budget,
                     compiled_source, counters_report, evaluate_loop_ir, report_table, tensor)
from .loop_ir import LoopIrError
from .lowering import LoweringUnsupported, lower_graph
from .rewriter import PatternId, RewriteError, RewriteStats, apply_dsp_patterns
from .synth import noise

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_RUNTIME = 4
EXIT_BENCH = 5

_STAGES = ("tokens", "ast", "dsp", "dsp-opt", "loop")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code scheme."""

    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="dspc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _ArgumentParser) -> None:
        p.add_argument("--opt", choices=("none", "dsp"), default="none")
        p.add_argument("--patterns", default=None,
                       help="comma-separated pattern ids, e.g. 1,2,C3a")
        p.add_argument("--input", action="append", default=[],
                       metavar="NAME=FILE.json")
        p.add_argument("--synth", action="append", default=[],
                       metavar="NAME=N[,SEED]")

    b = sub.add_parser("build", description="dump a pipeline stage")
    b.add_argument("source")
    b.add_argument("--emit", choices=_STAGES, default="dsp")
    common(b)

    r = sub.add_parser("run", description="execute via the loop backend")
    r.add_argument("source")
    common(r)
    r.add_argument("--counters", action="store_true")
    r.add_argument("--print-index", type=int, default=None, metavar="I")

    n = sub.add_parser("bench",
                       description="compare --opt=none against --opt=dsp")
    n.add_argument("target", help="corpus app name (app1..app7) or .dsp path")
    n.add_argument("--json", default=None, metavar="OUT.json")
    n.add_argument("--patterns", default=None)
    n.add_argument("--synth", action="append", default=[],
                   metavar="NAME=N[,SEED]")
    return parser


# --------------------------------------------------------------------------
# Shared plumbing


def _read_source(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _parse_patterns(spec: Optional[str]) -> Optional[set[PatternId]]:
    if spec is None:
        return None
    ids = set()
    for code in spec.split(","):
        code = code.strip()
        if not code:
            continue
        try:
            ids.add(PatternId(code))
        except ValueError:
            raise UsageError(f"unknown pattern id {code!r}") from None
    if not ids:
        raise UsageError("--patterns given but empty")
    return ids


def _route_patterns(args) -> Optional[set[PatternId]]:
    """The patterns `--patterns` enables on the `--opt=dsp` route."""
    enabled = _parse_patterns(args.patterns)
    if enabled is not None and args.opt != "dsp":
        raise UsageError("--patterns requires --opt=dsp")
    return enabled


def _parse_synth(item: str) -> tuple[str, int, int]:
    name, eq, rest = item.partition("=")
    if not eq or not name:
        raise UsageError(f"bad --synth {item!r}, expected NAME=N[,SEED]")
    size, comma, seed_text = rest.partition(",")
    try:
        n = int(size)
        seed = int(seed_text) if comma else 0  # int() rejects "5,9": at most two fields
    except ValueError:
        raise UsageError(f"bad --synth {item!r}, expected NAME=N[,SEED]"
                         ) from None
    if n < 1:
        raise UsageError(f"--synth {name}: size must be >= 1, got {n}")
    return name, n, seed


def _parse_bindings(input_items: Sequence[str], synth_items: Sequence[str]
                    ) -> tuple[dict[str, Tensor], dict[str, tuple[int, int]]]:
    """The tensors of the `--input` files and the (size, seed) of each
    `--synth` input; `_draw` makes the samples once the program compiles and
    its buffers fit (`interp.check_budget`)."""
    bindings: dict[str, Tensor] = {}
    for item in input_items:
        name, eq, path = item.partition("=")
        if not eq or not name:
            raise UsageError(f"bad --input {item!r}, expected NAME=FILE.json")
        try:
            values = json.loads(_read_source(path))
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: not valid JSON ({exc})") from None
        if (not isinstance(values, list) or not values
                or not all(type(v) in (int, float) for v in values)):  # not bool
            raise UsageError(f"{path}: expected a non-empty JSON number array")
        if name in bindings:
            raise UsageError(f"input {name!r} bound twice")
        try:
            bindings[name] = tensor(values)
        except OverflowError:
            raise UsageError(f"{path}: an integer is too large for a float") from None
        if not all(map(math.isfinite, bindings[name].values)):  # NaN, Infinity, 1e400
            raise UsageError(f"{path}: a number is NaN or infinite")
    synth: dict[str, tuple[int, int]] = {}
    for item in synth_items:
        name, n, seed = _parse_synth(item)
        if name in bindings or name in synth:
            raise UsageError(f"input {name!r} bound twice")
        synth[name] = n, seed
    return bindings, synth


def _lengths(bindings: dict[str, Tensor],
             synth: dict[str, tuple[int, int]]) -> dict[str, int]:
    return {**{n: len(t) for n, t in bindings.items()},
            **{n: size for n, (size, _seed) in synth.items()}}


def _draw(bindings: dict[str, Tensor],
          synth: dict[str, tuple[int, int]]) -> dict[str, Tensor]:
    return {**bindings, **{n: noise(size, seed) for n, (size, seed) in synth.items()}}


def _compile(source: str, lengths: dict[str, int]) -> DspGraph:
    """The verified graph of `source`; each bound name must be an input of main."""
    graph = compile_source(source, lengths or None)
    taken = {name for name, _vid in graph.inputs}
    for name in lengths:
        if name not in taken:
            raise UsageError(f"main has no input {name!r}")
    return graph


def _require_bound(graph: DspGraph, bindings: Mapping[str, object]) -> None:
    missing = [name for name, _vid in graph.inputs if name not in bindings]
    if missing:
        raise UsageError(
            "unbound input(s) " + ", ".join(repr(m) for m in missing)
            + "; bind with --input NAME=FILE.json or --synth NAME=N,SEED")


def _require_finite(program, outputs: dict[int, Tensor]) -> None:
    for vid, _buf in program.outputs:
        if not all(map(math.isfinite, outputs[vid].values)):
            raise NonFinite(f"non-finite value in printed %{vid}")


def _rewrite_log(stats: RewriteStats) -> str:
    """One ``#`` line per application, in the ids of the rewritten graph."""
    return "".join(f"# pattern {a.pattern.value} at %{a.site} {a.opcode.value}: new "
                   f"{' '.join(f'%{v}' for v in a.new) or 'none'}, {a.ops} ops\n"
                   for a in stats.log)


def _format_tensor(t: Tensor) -> str:
    return "[" + ", ".join(repr(v) for v in t.values) + "]"


# --------------------------------------------------------------------------
# Commands


def cmd_build(args) -> int:
    source = _read_source(args.source)
    enabled = _route_patterns(args)
    if args.emit == "dsp-opt" and args.opt != "dsp":
        raise UsageError("--emit=dsp-opt requires --opt=dsp")

    if args.emit == "tokens":
        for tok in tokenize(source):
            print(f"{tok.span}: {tok.kind.value} {tok.text!r}")
        return EXIT_OK
    module = parse_source(source)
    if args.emit == "ast":
        print(ast_to_text(module), end="")
        return EXIT_OK

    graph = _compile(source, _lengths(*_parse_bindings(args.input, args.synth)))
    if args.emit == "dsp":
        print(graph_to_text(graph), end="")
        return EXIT_OK
    if args.opt == "dsp":
        graph, stats = apply_dsp_patterns(graph, enabled)
        if args.emit == "dsp-opt":
            print(_rewrite_log(stats) + graph_to_text(graph), end="")
            return EXIT_OK
    print(compiled_source(lower_graph(graph)))
    return EXIT_OK


def cmd_run(args) -> int:
    source = _read_source(args.source)
    enabled = _route_patterns(args)
    bindings, synth = _parse_bindings(args.input, args.synth)
    lengths = _lengths(bindings, synth)
    graph = _compile(source, lengths)
    _require_bound(graph, lengths)
    if args.opt == "dsp":
        graph, _stats = apply_dsp_patterns(graph, enabled)
    program = lower_graph(graph)
    check_budget(program)
    outputs, counters = evaluate_loop_ir(program, _draw(bindings, synth))
    _require_finite(program, outputs)
    for vid, _buf in program.outputs:
        t = outputs[vid]
        if args.print_index is not None:
            i = args.print_index
            if not 0 <= i < len(t):
                raise UsageError(
                    f"--print-index {i} out of range for %{vid} "
                    f"(length {len(t)})")
            print(f"%{vid}[{i}] = {t.values[i]!r}")
        else:
            print(f"%{vid} = {_format_tensor(t)}")
    if args.counters:
        print(json.dumps(counters.as_dict(), indent=2))
    return EXIT_OK


def _bench_runs(program, bindings):
    """Outputs and counters of a program's first run, from no twiddle tables, which
    builds them (`interp.TABLES`), and the mean wall time of the next four."""
    TABLES.clear()
    outputs, counters = evaluate_loop_ir(program, bindings)
    return outputs, counters, sum(evaluate_loop_ir(program, bindings)[1].wall_time_ns
                                  for _ in range(4)) // 4


def _resolve_bench_target(args) -> tuple[CorpusApp, dict[str, int],
                                         dict[str, tuple[int, int]]]:
    """The app, its sizes, and the (size, seed) of each input.  A file target
    but a packaged app's becomes an app whose every input is its own size;
    inputs of an app that share a size must be given the same one."""
    _files, synth = _parse_bindings((), args.synth)
    app = corpus.find_app(args.target)
    if app is None:
        path = Path(args.target)
        if not path.exists():
            raise UsageError(
                f"{args.target!r} is neither a corpus app "
                f"(app1..app7) nor a readable file")
        app = CorpusApp(
            name=path.stem, alias="", filename=path.name, text=_read_source(args.target),
            sizes=tuple((name, n) for name, (n, _seed) in synth.items()),
            inputs=tuple(InputPlan(name, name) for name in synth),
            checks=(corpus._check_deviation, corpus._check_never_worse))
    plans = {p.name: p for p in app.inputs}
    sizes, bound_by = app.default_sizes(), {}
    for name, (n, _seed) in synth.items():
        plan = plans.get(name)
        if plan is None:
            raise UsageError(f"main has no input {name!r}")
        other = bound_by.setdefault(plan.size_param, name)
        if synth[other][0] != n:
            raise UsageError(f"inputs {other!r} and {name!r} share size "
                             f"{plan.size_param!r} but are bound to {synth[other][0]} and {n}")
        sizes[plan.size_param] = n
    return app, sizes, {p.name: synth.get(p.name, (sizes[p.size_param],
                                                   app.base_seed + p.seed_offset))
                        for p in app.inputs}


def cmd_bench(args) -> int:
    app, sizes, synth = _resolve_bench_target(args)
    enabled = _parse_patterns(args.patterns)
    source = app.source(sizes)
    graph_none = _compile(source, _lengths({}, synth))
    _require_bound(graph_none, synth)
    graph_dsp, stats = apply_dsp_patterns(graph_none, enabled)

    prog_none = lower_graph(graph_none)
    prog_dsp = lower_graph(graph_dsp)
    check_budget(prog_none)
    check_budget(prog_dsp)
    bindings = _draw({}, synth)
    outs_none, before, steady_none = _bench_runs(prog_none, bindings)
    outs_dsp, after, steady_dsp = _bench_runs(prog_dsp, bindings)
    vals_none = [outs_none[vid] for vid, _ in prog_none.outputs]
    vals_dsp = [outs_dsp[vid] for vid, _ in prog_dsp.outputs]

    deviation = max_relative_deviation(vals_none, vals_dsp)

    fired = frozenset(pid.value for pid in stats.fired)
    ctx = BenchContext(app=app, sizes=sizes, fired=fired,
                       before=before, after=after, graph_none=graph_none,
                       graph_dsp=graph_dsp, deviation=deviation)
    results = [check(ctx) for check in app.checks]
    report = counters_report(before, after, (steady_none, steady_dsp))

    size_text = ", ".join(f"{k}={v}" for k, v in sizes.items())
    print(f"app: {app.name}" + (f" ({size_text})" if size_text else ""))
    print(f"fired patterns: {sorted(fired)}")
    print(report_table(report))
    print(f"max relative deviation: {deviation:.3e}")
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        failed += 0 if ok else 1

    if args.json:
        doc = {
            "app": app.name,
            "sizes": sizes,
            "fired": sorted(fired),
            "applications": {pid.value: n for pid, n in stats.applications.items() if n},
            "rewrites": [{**a._asdict(), "pattern": a.pattern.value, "opcode": a.opcode.value}
                         for a in stats.log],
            "deviation": deviation,
            "counters": report,
            "checks": [{"name": n, "ok": ok, "detail": d}
                       for n, ok, d in results],
        }
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
    if failed:
        return EXIT_BENCH
    _require_finite(prog_none, outs_none)
    _require_finite(prog_dsp, outs_dsp)
    return EXIT_OK


# --------------------------------------------------------------------------
# Entry point


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "build":
            return cmd_build(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_bench(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FrontendError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GraphBuildError, ShapeMismatch, VerificationFailed,
            RewriteError, LoopIrError, LoweringUnsupported) as exc:
        print(f"verify error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except LoopRuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
