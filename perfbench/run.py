"""dspc benchmark: one workload and one seed, in one process and one thread.

    python3 perfbench/run.py --workload corpus-exec --seed 1 --seconds 30 --trace 0

The load is a closed loop: each operation starts when the previous one ends.
Times are scaled to a reference speed (see calibration_ns below).  Every
output is checked against the numpy oracle in oracle.py.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
records a span around every call into a dspc layer, runs every operation
once with and once without spans (alternating which goes first), and reports
per-layer metrics and the tracing overhead.  Spans are written to
``.bench_build/perfbench/`` at the end of a traced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md for the
workloads, seeds and the known failures of the baseline.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
import types
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import oracle
import programs
from spans import NoSpans, SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("corpus-exec", "compile-fire", "compile-miss")
ROUTES = ("none", "dsp")
SETUPS = 9  # set-ups per run; setup_s is their median
# At least 105 compile samples per run, so that ten or more lie beyond p90.
MIN_ROUNDS = 15  # corpus-exec: rounds of one compile and two runs per app
MIN_BLOCKS = 7  # compile workloads: blocks of programs.BLOCK programs
INPUT_POOL = 8  # corpus-exec: distinct seeded inputs per app
SETUP_BLOCKS = 4  # compile workloads: program blocks generated in set-up
DSPC_MODULES = ("frontend", "graph", "rewriter", "lowering", "interp",
                "corpus", "ops", "synth")
COMPILE_LAYERS = ("frontend", "graph.build", "graph.shape", "graph.verify",
                  "rewriter", "lowering", "interp.codegen")
PATTERNS = ("1", "2", "3", "4", "5", "6", "7", "C3a", "C3b")
EXEC_COUNTS = ("loop_iterations", "loads", "stores", "mults", "adds",
               "trig_calls")

# Counts pinned by the acceptance suite, per (app, route); each proves that
# the benchmark runs the intended program.
PINNED = {
    ("LowPassFiltering", "none"): ("tap loads", 413696),
    ("LowPassFiltering", "dsp"): ("tap loads", 208896),
    ("EnergyOfSignal", "none"): ("mults", 4196353),
    ("EnergyOfSignal", "dsp"): ("mults", 1024),
    ("AudioCompression", "none"): ("DFT inner trips", 131072),
    ("AudioCompression", "dsp"): ("DFT inner trips", 65536),
}
KNOWN_DEFECT = ("pattern 7 folds the gain into the LMS update, which is not "
                "an identity: the error term sees g*w*x instead of w*x")

NO_SPANS = NoSpans()

# On a shared virtual machine, speed can drift by 10-20% over seconds, even
# within one process.  Each timed operation is therefore bracketed by a fixed
# pure-Python kernel in the style of generated loop code, and its times are
# scaled by CAL_REF_NS / (the median of the kernel's last six times, the last
# one just after the operation).  Every reported time is thus at the reference
# speed, at which the kernel takes CAL_REF_NS (about its median on a 2-vCPU
# Intel Xeon virtual machine).  The kernel uses no dspc code.
CAL_REF_NS = 220_000
_CAL_X = [((i * 7919) % 1000) / 1000.0 for i in range(64)]


def calibration_ns():
    t0 = time.perf_counter_ns()
    acc = 0.0
    c = 2.0 * math.pi / 64
    for k in range(32):
        for n in range(64):
            acc += _CAL_X[n] * math.cos(c * (k * n))
    return time.perf_counter_ns() - t0


def import_dspc():
    """Import dspc afresh, so that each set-up pays its import cost."""
    for name in [m for m in sys.modules if m.split(".")[0] == "dspc"]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"dspc.{m}") for m in DSPC_MODULES})


def ms(ns):
    return ns / 1e6


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def count_stmts(stmts):
    return sum(1 + count_stmts(getattr(s, "body", ()))
               + count_stmts(getattr(s, "orelse", ())) for s in stmts)


def counter_key(c):
    """Every counter except wall time, for exact comparison."""
    return (c.loop_iterations, c.loads, c.stores, c.mults, c.adds,
            c.trig_calls, tuple(sorted(c.loop_iters_by_tag.items())),
            tuple(sorted(c.loads_by_buffer.items())))


class Compiled(types.SimpleNamespace):
    """graph (unoptimized), graph_dsp, stats, programs[route], compile_ns."""


class Bench:
    """State of one run: the dspc modules in use, spans, samples and checks."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.recorder = SpanRecorder() if trace else None
        self.spans = NO_SPANS
        self.d = None
        self.layer_failed = Counter()
        self.attempted = 0
        self.failed = 0
        self.raised = 0
        self.mismatches = 0
        self.known_failures = 0
        self.known_worst = 0.0
        self.unexplained: list[str] = []
        self.violations: list[str] = []
        self.calibrations: list[int] = []
        self.scale = 1.0  # reference speed / current speed, see calibration_ns
        self.pair_ns = {False: 0, True: 0}
        self.pairs = 0
        self.facts = Counter()  # counts over the run's first unit of work
        self.fired = Counter()
        self.mult_ratios: list[float] = []
        self.totals = Counter()  # tokens, applications, iterations, calls

    # -- calls into dspc ---------------------------------------------------

    def call(self, layer, fn, *args):
        with self.spans.span(layer):
            try:
                return fn(*args)
            except Exception:
                self.layer_failed[layer] += 1
                raise

    def compile(self, source, lengths) -> Compiled:
        """Both routes share one front end; compile_ns ends at the dsp callable."""
        d = self.d
        t0 = time.perf_counter_ns()
        module = self.call("frontend", d.frontend.parse_source, source)
        graph = self.call("graph.build", d.graph.build_graph, module)
        graph = self.call("graph.shape", d.graph.infer_shapes, graph, lengths)
        problems = self.call("graph.verify", d.graph.verify_graph, graph)
        if problems:
            self.layer_failed["graph.verify"] += 1
            raise d.graph.VerificationFailed(problems)
        graph_dsp, stats = self.call("rewriter", d.rewriter.apply_dsp_patterns,
                                     graph)
        dsp = self.call("lowering", d.lowering.lower_graph, graph_dsp)
        self.call("interp.codegen", d.interp.compiled_source, dsp)
        compile_ns = time.perf_counter_ns() - t0
        none = self.call("lowering", d.lowering.lower_graph, graph)
        self.call("interp.codegen", d.interp.compiled_source, none)
        return Compiled(source=source, graph=graph, graph_dsp=graph_dsp,
                        stats=stats, programs={"none": none, "dsp": dsp},
                        compile_ns=compile_ns)

    def execute(self, program, inputs):
        """(printed outputs in print order, counters, wall ns)."""
        t0 = time.perf_counter_ns()
        out, counters = self.call("interp.exec", self.d.interp.evaluate_loop_ir,
                                  program, inputs)
        wall = time.perf_counter_ns() - t0
        return [out[vid] for vid, _ in program.outputs], counters, wall

    def calibrated(self, fn):
        """fn(), bracketed by calibrations that set `scale` for its times."""
        before = calibration_ns()
        result = fn()
        after = calibration_ns()
        self.calibrations += [before, after]
        self.scale = CAL_REF_NS / statistics.median(self.calibrations[-6:])
        return result

    def op(self, pid, fn):
        """One calibrated operation.  A traced run makes it twice, with and
        without spans, and returns the traced result."""
        self.attempted += 1
        return self.calibrated(lambda: self._op(pid, fn))

    def _op(self, pid, fn):
        if self.recorder is None:
            return fn()
        result = None
        for traced in ((False, True) if self.pairs % 2 else (True, False)):
            self.spans = self.recorder if traced else NO_SPANS
            self.recorder.program = pid
            t0 = time.perf_counter_ns()
            with self.spans.span("op"):
                got = fn()
            self.pair_ns[traced] += time.perf_counter_ns() - t0
            if traced:
                result = got
        self.spans = NO_SPANS
        self.pairs += 1
        return result

    def fail(self, what, exc):
        """An operation raised: counted, reported, and the run goes on."""
        if not self.raised:
            traceback.print_exception(exc, file=sys.stderr)
        self.raised += 1
        self.failed += 1
        self.unexplained.append(f"{what}: {type(exc).__name__}: {exc}")

    # -- checks ------------------------------------------------------------

    def check_outputs(self, what, got, want, known) -> bool:
        """Compare printed outputs with the oracle; `known(i)` says whether a
        mismatch of output i is the known pattern-7 deviation.  True when
        any output deviates."""
        bad = False
        for i, (tensor, expect) in enumerate(zip(got, want)):
            dev = oracle.deviation(np.asarray(tensor.values), expect)
            if dev <= oracle.REL_TOL:
                continue
            bad = True
            self.mismatches += 1
            if known(i):
                self.known_failures += 1
                self.known_worst = max(self.known_worst, dev)
            else:
                self.unexplained.append(
                    f"{what} output {i}: relative deviation {dev:.3e}")
        if len(got) != len(want):
            bad = True
            self.mismatches += 1
            self.unexplained.append(
                f"{what}: {len(got)} outputs, oracle has {len(want)}")
        return bad

    def count_compile(self, c: Compiled, first_unit: bool):
        """Totals over every traced compile; counts over the first unit."""
        if self.recorder is None:
            return
        apps = {pid.value: n for pid, n in c.stats.applications.items() if n}
        tokens = len(self.d.frontend.tokenize(c.source))
        self.totals.update(tokens=tokens, applications=sum(apps.values()),
                           rewriter_calls=1)
        if not first_unit:
            return
        self.facts.update(tokens=tokens, ops=len(c.graph.ops),
                          ops_after=len(c.graph_dsp.ops))
        self.fired.update(apps)
        for p in c.programs.values():
            self.facts.update(stmts=count_stmts(p.body), source_lines=len(
                self.d.interp.compiled_source(p).splitlines()))

    def count_exec(self, counters_by_route, first_unit: bool):
        self.totals["iterations"] += sum(
            c.loop_iterations for c in counters_by_route.values())
        if not first_unit:
            return
        for c in counters_by_route.values():
            self.facts.update({name: getattr(c, name) for name in EXEC_COUNTS})
        none, dsp = counters_by_route["none"], counters_by_route["dsp"]
        if none.mults:
            self.mult_ratios.append(dsp.mults / none.mults)


# --------------------------------------------------------------------------
# corpus-exec


def setup_corpus(bench: Bench):
    d = bench.d = import_dspc()
    rng = random.Random(f"corpus-exec/{bench.seed}")
    apps = d.corpus.APPS
    with (bench.recorder or NO_SPANS).span("synth"):
        pool = {app.name: [app.synth_inputs(app.default_sizes(),
                                            rng.getrandbits(48))
                           for _ in range(INPUT_POOL)] for app in apps}
    compiled = {app.name: compile_app(bench, app) for app in apps}
    return apps, pool, compiled


def compile_app(bench: Bench, app) -> Compiled:
    sizes = app.default_sizes()
    return bench.compile(app.source(sizes), app.input_lengths(sizes) or None)


def pinned_value(d, what, c: Compiled, route, counters):
    if what == "mults":
        return counters.mults
    if what == "DFT inner trips":
        return sum(counters.loop_iters_by_tag.get(f"{tag}.inner", 0)
                   for tag in ("dft1d_real", "dft1d_imag", "dft1d_fused"))
    opcode = (d.ops.OpCode.FIR_FILTER_RESPONSE if route == "none"
              else d.ops.OpCode.FILTER_RES_SYMM_OPT)
    graph = c.graph if route == "none" else c.graph_dsp
    taps = next(op.operands[1] for op in graph.ops if op.opcode is opcode)
    return counters.loads_by_buffer.get(f"v{taps}", 0)


def run_corpus(bench: Bench, seconds: float, report: dict):
    """The seven apps, compiled once in set-up; each round compiles every app
    again, for compile_ms, and executes it on both routes on the next input
    of its pool."""
    apps, pool, compiled = setup_and_time(bench, setup_corpus, report)
    d = bench.d
    expected = {app.name: [programs.CORPUS_ORACLES[app.name](
        app.default_sizes(), {k: np.asarray(t.values) for k, t in inputs.items()})
        for inputs in pool[app.name]] for app in apps}
    deadline = time.perf_counter() + seconds

    compile_ns = []
    walls = defaultdict(list)
    seen = {}  # (app, route, input) -> counters of its first execution
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        k = rounds % INPUT_POOL
        order = ROUTES if rounds % 2 == 0 else ROUTES[::-1]
        for app in apps:
            try:
                c = bench.op(f"{app.name}/compile",
                             lambda: compile_app(bench, app))
            except Exception as exc:  # counted, and the run goes on
                bench.fail(f"{app.name} compile", exc)
                continue
            bench.count_compile(c, first_unit=rounds == 0)
            compile_ns.append(c.compile_ns * bench.scale)
        for app in apps:
            c = compiled[app.name]
            fired_7 = c.stats.applications.get(d.rewriter.PatternId("7"), 0)
            by_route = {}
            for route in order:
                what = f"{app.name} {route} input {k}"
                try:
                    got, counters, wall = bench.op(
                        f"{app.name}/{route}",
                        lambda: bench.execute(c.programs[route],
                                              pool[app.name][k]))
                except Exception as exc:  # counted, and the run goes on
                    bench.fail(what, exc)
                    continue
                walls[app.name, route].append(wall * bench.scale)
                by_route[route] = counters
                bench.failed += bench.check_outputs(
                    what, got, expected[app.name][k],
                    lambda i: (app.name == programs.PATTERN7_APP
                               and route == "dsp" and fired_7 > 0))
                first = seen.setdefault((app.name, route, k), counters)
                if counter_key(first) != counter_key(counters):
                    bench.violations.append(f"{what}: counters changed "
                                            "between executions")
                if (app.name, route) in PINNED:
                    name, want = PINNED[app.name, route]
                    got_n = pinned_value(d, name, c, route, counters)
                    if got_n != want:
                        bench.violations.append(
                            f"{app.name} {route}: {name} {got_n}, "
                            f"pinned {want}")
            if len(by_route) == 2:
                bench.count_exec(by_route, first_unit=rounds == 0)
        rounds += 1

    median = {key: statistics.median(v) for key, v in walls.items()}
    per_app = {}
    for app in apps:
        first = {route: seen[app.name, route, 0] for route in ROUTES}
        row = {}
        for route in ROUTES:
            row[f"exec_ms.{route}"] = ms(median[app.name, route])
            row[f"ns_per_iteration.{route}"] = (
                median[app.name, route] / first[route].loop_iterations)
        row["mult_ratio"] = first["dsp"].mults / first["none"].mults
        row["wall_ratio"] = median[app.name, "dsp"] / median[app.name, "none"]
        for route in ROUTES:
            if (app.name, route) in PINNED:
                name, _ = PINNED[app.name, route]
                row[f"{name}.{route}"] = pinned_value(
                    d, name, compiled[app.name], route, first[route])
        per_app[app.name] = row
    report["e2e"] = {
        "exec_dsp_ms": geomean(ms(median[a.name, "dsp"]) for a in apps),
        "exec_none_ms": geomean(ms(median[a.name, "none"]) for a in apps),
        "compile_ms_p50": ms(statistics.median(compile_ns)),
        "compile_ms_p90": ms(p90(compile_ns)),
    }
    report["samples"] = (f"{len(compile_ns)} compiles, {rounds} rounds of "
                         f"{2 * len(apps)} executions")
    report["wall_ratio"] = geomean(row["wall_ratio"] for row in per_app.values())
    report["per_app"] = per_app


# --------------------------------------------------------------------------
# compile-fire and compile-miss


def make_block(bench: Bench, block: int):
    """Programs of one block with their inputs, drawn with dspc's synth."""
    noise = bench.d.synth.noise
    return [(p, {name: noise(p.length, s) for name, s in p.input_seeds})
            for p in programs.make_block(bench.workload, bench.seed, block)]


def setup_compile(bench: Bench):
    bench.d = import_dspc()
    with (bench.recorder or NO_SPANS).span("synth"):
        return [make_block(bench, b) for b in range(SETUP_BLOCKS)]


def compile_and_run(bench: Bench, prog, inputs):
    lengths = {name: len(t) for name, t in inputs.items()}
    c = bench.compile(prog.source, lengths)
    c.runs = {route: bench.execute(c.programs[route], inputs)
              for route in ROUTES}
    return c


def check_generated(bench: Bench, prog, c: Compiled):
    """Fire programs trigger exactly their built-in applications; miss
    programs trigger none and leave the graph as it was."""
    apps = {pid.value: n for pid, n in c.stats.applications.items() if n}
    if apps != prog.expected:
        bench.violations.append(f"program {prog.pid}: applications {apps}, "
                                f"built for {prog.expected}")
    if bench.workload == "compile-miss":
        text = bench.d.graph.graph_to_text
        if text(c.graph) != text(c.graph_dsp):
            bench.violations.append(f"program {prog.pid}: dsp route changed "
                                    "the graph")
    return apps.get("7", 0) > 0


def run_compile(bench: Bench, seconds: float, report: dict):
    """A stream of distinct generated programs; each is compiled, executed
    on both routes and checked.  Whole blocks only."""
    blocks = setup_and_time(bench, setup_compile, report)
    deadline = time.perf_counter() + seconds
    compile_ns = []
    exec_ns = {route: [] for route in ROUTES}
    wall_ratios = []
    b = 0
    while b < MIN_BLOCKS or time.perf_counter() < deadline:
        block = blocks[b] if b < len(blocks) else make_block(bench, b)
        for prog, inputs in block:
            try:
                c = bench.op(prog.pid,
                             lambda: compile_and_run(bench, prog, inputs))
            except Exception as exc:  # counted, and the run goes on
                bench.fail(f"program {prog.pid}", exc)
                continue
            fired_7 = check_generated(bench, prog, c)
            bench.count_compile(c, first_unit=b == 0)
            bench.count_exec({r: c.runs[r][1] for r in ROUTES},
                             first_unit=b == 0)
            compile_ns.append(c.compile_ns * bench.scale)
            want = prog.oracle({name: np.asarray(t.values)
                                for name, t in inputs.items()})
            bad = False
            for route in ROUTES:
                got, _, wall = c.runs[route]
                exec_ns[route].append(wall * bench.scale)
                bad |= bench.check_outputs(
                    f"program {prog.pid} {route}", got, want,
                    lambda i: (route == "dsp" and fired_7 and
                               prog.printed_kinds[i] == programs.LMS_STAGE))
            bench.failed += bad
            wall_ratios.append(c.runs["dsp"][2] / c.runs["none"][2])
        b += 1
    report["e2e"] = {
        "exec_dsp_ms": geomean(ms(v) for v in exec_ns["dsp"]),
        "exec_none_ms": geomean(ms(v) for v in exec_ns["none"]),
        "compile_ms_p50": ms(statistics.median(compile_ns)),
        "compile_ms_p90": ms(p90(compile_ns)),
    }
    report["samples"] = f"{len(compile_ns)} programs in {b} blocks"
    report["wall_ratio"] = geomean(wall_ratios)


# --------------------------------------------------------------------------
# Entry point


def setup_and_time(bench: Bench, setup, report):
    """Set up SETUPS times; setup_s is the median, the last set-up is used."""
    def timed_setup():
        t0 = time.perf_counter_ns()
        world = setup(bench)
        return world, time.perf_counter_ns() - t0

    walls = []
    for _ in range(SETUPS):
        gc.collect()  # start each set-up without the garbage of the last
        world, wall = bench.calibrated(timed_setup)
        walls.append(wall * bench.scale)
    report["setup_s"] = statistics.median(walls) / 1e9
    return world


def layer_metrics(bench: Bench, report: dict) -> dict:
    self_ns, calls = bench.recorder.self_times()

    def per_call_ms(layer):
        return ms(self_ns.get(layer, 0)) / max(calls.get(layer, 0), 1)

    f, t = bench.facts, bench.totals
    compile_ns = sum(self_ns.get(layer, 0) for layer in COMPILE_LAYERS)
    op_ns = sum(end - start for layer, start, end, _, _ in bench.recorder.spans
                if layer == "op")
    graph_failed = sum(bench.layer_failed[f"graph.{s}"]
                       for s in ("build", "shape", "verify"))
    metrics = {
        "frontend.parse_ms": per_call_ms("frontend"),
        "frontend.tokens": f["tokens"],
        "frontend.tokens_per_ms": t["tokens"] / ms(self_ns["frontend"]),
        "frontend.failed": bench.layer_failed["frontend"],
        "graph.build_ms": per_call_ms("graph.build"),
        "graph.shape_ms": per_call_ms("graph.shape"),
        "graph.verify_ms": per_call_ms("graph.verify"),
        "graph.ops": f["ops"],
        "graph.failed": graph_failed,
        "rewriter.ms": per_call_ms("rewriter"),
        "rewriter.applications": sum(bench.fired.values()),
        "rewriter.ms_per_application": ms(self_ns["rewriter"]) / (
            t["applications"] + t["rewriter_calls"]),
        "rewriter.ops_ratio": f["ops_after"] / f["ops"],
        **{f"rewriter.fired.{p}": bench.fired[p] for p in PATTERNS},
        "rewriter.failed": bench.layer_failed["rewriter"],
        "rewriter.compile_share": self_ns["rewriter"] / compile_ns,
        "lowering.ms": per_call_ms("lowering"),
        "lowering.stmts": f["stmts"],
        "lowering.failed": bench.layer_failed["lowering"],
        "interp.codegen_ms": per_call_ms("interp.codegen"),
        "interp.source_lines": f["source_lines"],
        "interp.exec_ms": per_call_ms("interp.exec"),
        **{f"interp.{name}": f[name] for name in EXEC_COUNTS},
        "interp.ns_per_iteration": self_ns["interp.exec"] / t["iterations"],
        "interp.failed": (bench.layer_failed["interp.exec"]
                          + bench.layer_failed["interp.codegen"]),
        "interp.exec_share": self_ns["interp.exec"] / op_ns,
        "interp.mult_ratio": geomean(bench.mult_ratios),
        "interp.wall_ratio": report["wall_ratio"],
        "synth.ms": per_call_ms("synth"),
        "oracle.mismatches": bench.mismatches,
        "failed_share": bench.failed / bench.attempted,
        "trace.overhead": bench.pair_ns[True] / bench.pair_ns[False] - 1.0,
    }
    return metrics


UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "compile_ms_p50": "ms",
         "compile_ms_p90": "ms", "frontend.tokens_per_ms": "1/ms",
         "interp.ns_per_iteration": "ns", "rewriter.ms_per_application": "ms",
         "failed_share": "fraction",
         "trace.overhead": "fraction"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dspc" / "__init__.py").is_file():
        print(f"perfbench: dspc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    selftest = oracle.self_test()
    bench = Bench(args.workload, args.seed, bool(args.trace))
    report: dict = {}
    if args.workload == "corpus-exec":
        run_corpus(bench, args.seconds, report)
    else:
        run_compile(bench, args.seconds, report)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if bench.recorder is not None:
        metrics = layer_metrics(bench, report)
    else:
        metrics = {"setup_s": report["setup_s"], **report["e2e"],
                   "peak_rss_mb": peak_rss_mb}
    unexplained = bench.unexplained
    correct = not (selftest or bench.violations or unexplained)

    print(f"dspc benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; {report['samples']}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit_of(name)}")
    if "failed_share" not in metrics:  # in the JSON as failed / attempted
        print(f"  {'failed_share':34s} {bench.failed / bench.attempted:14.6g}"
              " fraction")
    print(f"  {bench.failed} of {bench.attempted} operations failed; "
          f"calibration kernel median "
          f"{ms(statistics.median(bench.calibrations)):.4f} ms, reference "
          f"{ms(CAL_REF_NS):.4f} ms")
    if bench.known_failures:
        print(f"known failures: {bench.known_failures} outputs of the dsp "
              f"route deviate from the oracle (worst relative "
              f"{bench.known_worst:.3g}) because {KNOWN_DEFECT}")
    for app, values in sorted(report.get("per_app", {}).items()):
        print(f"  {app}: " + ", ".join(f"{k} {v:.6g}" for k, v in values.items()))
    problems = bench.violations[:10] + unexplained[:10]
    if selftest:
        problems.insert(0, f"oracle self-test failed: {selftest}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("checks: " + ("passed" if correct else "FAILED"))

    if bench.recorder is not None:
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        bench.recorder.write(path, {"workload": args.workload,
                                    "seed": args.seed, "metrics": metrics,
                                    "per_app": report.get("per_app", {})})
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
