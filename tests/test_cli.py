import json
import time
from pathlib import Path

import pytest

from dspc.cli import main
from dspc.corpus import compile_source
from dspc.interp import compiled_source
from dspc.lowering import lower_graph
from dspc.rewriter import apply_dsp_patterns

APPS = Path(__file__).resolve().parents[1] / "src" / "dspc" / "apps"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
FILTER_DESIGN = str(APPS / "filter_design.dsp")
ENERGY = str(APPS / "energy_of_signal.dsp")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_public_name_resolves():
    import dspc
    assert dspc.__all__ and all(hasattr(dspc, name) for name in dspc.__all__)


def test_build_emit_tokens(capsys):
    code, out, _ = run_cli(capsys, "build", FILTER_DESIGN, "--emit=tokens")
    assert code == 0
    assert "keyword 'def'" in out
    assert "number '101'" in out


def test_build_emit_ast(capsys):
    code, out, _ = run_cli(capsys, "build", FILTER_DESIGN, "--emit=ast")
    assert code == 0
    assert out.startswith("def main()")


def test_build_emit_dsp_golden(capsys):
    code, out, _ = run_cli(capsys, "build", FILTER_DESIGN, "--emit=dsp")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("%0 = low_pass_fir_coeffs() {L=101, wc=")
    assert lines[1] == "%1 = hamming_window() {L=101} : tensor<101>"
    assert lines[2] == "%2 = mul(%0, %1) : tensor<101>"
    assert lines[3] == "print(%2)"


def test_build_emit_dsp_opt(capsys):
    code, out, _ = run_cli(capsys, "build", FILTER_DESIGN,
                           "--emit=dsp-opt", "--opt=dsp")
    assert code == 0
    assert "filter_hamm_opt" in out
    assert "hamming_window" not in out


def test_build_emit_loop(capsys):
    code, out, _ = run_cli(capsys, "build", FILTER_DESIGN, "--emit=loop")
    assert code == 0
    assert "buffer" in out and "for " in out


def test_build_emit_loop_prints_the_generated_source(capsys):
    code, out, _ = run_cli(capsys, "build", FILTER_DESIGN, "--emit=loop",
                           "--opt=dsp")
    assert code == 0
    graph, _ = apply_dsp_patterns(
        compile_source(Path(FILTER_DESIGN).read_text(), None))
    assert out == compiled_source(lower_graph(graph)) + "\n"


def test_build_emit_dsp_opt_prints_the_rewrite_log(capsys):
    code, out, _ = run_cli(capsys, "build", str(FIXTURES / "identity_dftidft.dsp"),
                           "--emit=dsp-opt", "--opt=dsp", "--synth", "x=8")
    assert code == 0
    # ids of the working graph: %0-%3 as --emit=dsp numbers them, then new ops
    assert out.splitlines()[:2] == ["# pattern 6 at %2 dft1d_imag: new %4, 4 ops",
                                    "# pattern C3a at %3 idft1d: new none, 2 ops"]
    assert out.splitlines()[2:] == ["%0 = input() {name=x} : tensor<8>", "print(%0)"]


def test_emit_dsp_opt_requires_opt_flag(capsys):
    code, _, err = run_cli(capsys, "build", FILTER_DESIGN, "--emit=dsp-opt")
    assert code == 1
    assert "--opt=dsp" in err


def test_patterns_requires_opt_flag(capsys):
    code, _, err = run_cli(capsys, "build", FILTER_DESIGN, "--patterns=1")
    assert code == 1


def test_unknown_pattern_id(capsys):
    code, _, err = run_cli(capsys, "build", FILTER_DESIGN,
                           "--opt=dsp", "--patterns=42")
    assert code == 1
    assert "42" in err


def test_run_both_routes_agree(capsys):
    code, plain, _ = run_cli(capsys, "run", ENERGY, "--synth", "x=1024,5")
    code2, opt, _ = run_cli(capsys, "run", ENERGY, "--synth", "x=1024,5",
                            "--opt=dsp")
    assert code == code2 == 0
    a = float(plain.split("=")[1].strip(" []\n"))
    b = float(opt.split("=")[1].strip(" []\n"))
    assert a == pytest.approx(b, rel=1e-9)


def test_run_counters_json(capsys):
    code, out, _ = run_cli(capsys, "run", FILTER_DESIGN, "--counters")
    assert code == 0
    body = out[out.index("{"):]
    counters = json.loads(body)
    assert counters["trig_calls"] == 201
    assert counters["stores"] == 303


def test_run_print_index(capsys):
    code, out, _ = run_cli(capsys, "run", FILTER_DESIGN, "--print-index=50")
    assert code == 0
    assert out.startswith("%2[50] = ")


def test_run_print_index_out_of_range(capsys):
    code, _, err = run_cli(capsys, "run", FILTER_DESIGN, "--print-index=500")
    assert code == 1
    assert "out of range" in err


def test_run_json_input(capsys, tmp_path):
    data = tmp_path / "x.json"
    data.write_text("[1.0, 2.0]")
    src = tmp_path / "p.dsp"
    src.write_text("def main(x) { print(sum(square(x))); }\n")
    code, out, _ = run_cli(capsys, "run", str(src), "--input", f"x={data}")
    assert code == 0
    assert "[5.0]" in out


def test_run_rejects_bad_json(capsys, tmp_path):
    data = tmp_path / "x.json"
    data.write_text('{"not": "an array"}')
    src = tmp_path / "p.dsp"
    src.write_text("def main(x) { print(x); }\n")
    code, _, err = run_cli(capsys, "run", str(src), "--input", f"x={data}")
    assert code == 1


@pytest.mark.parametrize("values", ["[true, 2]", "[1.0, false]"])
def test_run_rejects_boolean_json_input(capsys, tmp_path, values):
    # JSON booleans are Python ints; a number array must hold no booleans
    data = tmp_path / "x.json"
    data.write_text(values)
    src = tmp_path / "p.dsp"
    src.write_text("def main(x) { print(x); }\n")
    code, out, err = run_cli(capsys, "run", str(src), "--input", f"x={data}")
    assert code == 1
    assert "expected a non-empty JSON number array" in err
    assert out == ""


def test_run_rejects_json_integer_too_large_for_a_float(capsys, tmp_path):
    data = tmp_path / "big.json"
    data.write_text(f"[{'9' * 400}, 1]")
    src = tmp_path / "p.dsp"
    src.write_text("def main(x) { print(x); }\n")
    code, out, err = run_cli(capsys, "run", str(src), "--input", f"x={data}")
    assert code == 1
    assert err == f"usage error: {data}: an integer is too large for a float\n"
    assert out == ""


@pytest.mark.parametrize("number", ["NaN", "Infinity", "1e400"])
def test_run_rejects_non_finite_json_input(capsys, tmp_path, number):
    # Python's json reads NaN, Infinity and an overflowing float as nan or
    # inf; an input file must hold finite numbers
    data = tmp_path / "x.json"
    data.write_text(f"[{number}, 1]")
    src = tmp_path / "p.dsp"
    src.write_text("def main(x) { print(x); }\n")
    code, out, err = run_cli(capsys, "run", str(src), "--input", f"x={data}")
    assert code == 1
    assert err == f"usage error: {data}: a number is NaN or infinite\n"
    assert out == ""


@pytest.mark.parametrize("command", ["build", "run", "bench"])
def test_a_source_that_is_not_utf8_is_a_usage_error(capsys, command):
    fixture = FIXTURES / "not_utf8.dsp"
    code, out, err = run_cli(capsys, command, str(fixture))
    assert (code, out) == (1, "")
    assert err.startswith(f"usage error: cannot read {fixture}: 'utf-8' codec can't decode")


def test_an_input_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    data = tmp_path / "x.json"
    data.write_bytes(b"[1.0, \xff]")
    code, out, err = run_cli(capsys, "run", ENERGY, "--input", f"x={data}")
    assert (code, out) == (1, "")
    assert err.startswith(f"usage error: cannot read {data}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("args, message", [
    (("--opt=dsp", "--patterns", ","), "--patterns given but empty\n"),
    (("--synth", "x"), "bad --synth 'x', expected NAME=N[,SEED]\n"),
    (("--synth", "x=abc"), "bad --synth 'x=abc', expected NAME=N[,SEED]\n"),
    (("--synth", "x=0"), "--synth x: size must be >= 1, got 0\n"),
    (("--synth", "x=1024,5,9"), "bad --synth 'x=1024,5,9', expected NAME=N[,SEED]\n"),
    (("--input", "x"), "bad --input 'x', expected NAME=FILE.json\n"),
    (("--input", "x={tmp}/missing.json"), "cannot read {tmp}/missing.json: "),
    (("--input", "x={tmp}/bad.json"), "{tmp}/bad.json: not valid JSON ("),
    (("--input", "x={tmp}/x.json", "--input", "x={tmp}/x.json"), "input 'x' bound twice\n"),
], ids=["empty_patterns", "synth_no_size", "synth_bad_size", "synth_zero_size",
        "synth_extra_field", "input_no_file", "input_unreadable", "input_bad_json",
        "input_twice"])
def test_usage_error_exit_1(capsys, tmp_path, args, message):
    (tmp_path / "x.json").write_text("[1.0, 2.0]")
    (tmp_path / "bad.json").write_text("[1.0,")
    code, out, err = run_cli(capsys, "run", ENERGY, *(a.format(tmp=tmp_path) for a in args))
    assert (code, out) == (1, "")
    assert err.startswith("usage error: " + message.format(tmp=tmp_path))


def test_unbound_input_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", ENERGY)
    assert code == 1
    assert "unbound input" in err


@pytest.mark.parametrize("argv", [
    ("run", ENERGY, "--synth", "x=8,1", "--synth", "typo=8,1"),
    ("build", FILTER_DESIGN, "--emit=dsp", "--synth", "y=4"),
    ("build", ENERGY, "--emit=loop", "--synth", "x=8,1", "--synth", "typo=8,1"),
    ("bench", ENERGY, "--synth", "x=8,1", "--synth", "typo=8,1"),
], ids=["run", "build_dsp", "build_loop", "bench_ad_hoc"])
def test_binding_main_does_not_take_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err == f"usage error: main has no input {argv[-1].split('=')[0]!r}\n"
    assert out == ""


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "run", "no_such_file.dsp")
    assert code == 1


def test_parse_error_exit_2(capsys, tmp_path):
    src = tmp_path / "broken.dsp"
    src.write_text("def main( {")
    code, _, err = run_cli(capsys, "build", str(src))
    assert code == 2
    assert "1:" in err  # span diagnostic


def test_verify_error_exit_3(capsys, tmp_path):
    src = tmp_path / "bad.dsp"
    src.write_text("def main(x) { print(delay(x, 0 - 3)); }\n")
    code, _, err = run_cli(capsys, "run", str(src), "--synth", "x=8,1")
    assert code == 3
    assert "k >= 0" in err


@pytest.mark.parametrize("source, code, message", [
    ("def main(x, y) { print(gain(x, y * 2.0)); }",
     3, "verify error: 1:34: gain attribute 'g' must be a constant number\n"),
    ("def f(x) { return x; }\ndef f(x) { return x; }\ndef main(x) { print(x); }",
     2, "parse error: 2:1: expected a unique function name, found redefinition of 'f'\n"),
    ("def main(x) { print(x);", 2, "parse error: 1:24: expected '}', found end of input\n"),
], ids=["attribute_reads_a_value", "function_redefined", "body_cut_off"])
def test_frontend_error_exit_code(capsys, tmp_path, source, code, message):
    src = tmp_path / "p.dsp"
    src.write_text(source)
    assert run_cli(capsys, "build", str(src), "--emit=dsp") == (code, "", message)


def test_zero_divisor_attribute_exit_3(capsys):
    # the folded constant is reported at the division, not as "not constant"
    code, out, err = run_cli(capsys, "build", str(FIXTURES / "zero_divisor_attr.dsp"))
    assert (code, out) == (3, "")
    assert err == "verify error: 3:31: lowPassFIRFilter attribute 'wc' divides by zero\n"


def test_op_reading_a_dynamic_tensor_exit_3(capsys, tmp_path):
    src = tmp_path / "dyn.dsp"
    src.write_text("def main(x) { print(sum(runLenEncoding(x))); }\n")
    code, out, err = run_cli(capsys, "run", str(src), "--synth", "x=8,1")
    assert (code, out) == (3, "")
    assert err == "verify error: %2 sum: a dynamic tensor feeds only print and return\n"


def test_non_finite_literal_exit_2(capsys, tmp_path):
    src = tmp_path / "huge.dsp"
    src.write_text("def main() { print([" + "9" * 400 + "]); }\n")
    code, _, err = run_cli(capsys, "build", "--emit=ast", str(src))
    assert code == 2
    assert "fits a float" in err


def test_superscript_digit_exit_2(capsys, tmp_path):
    # str.isdigit() accepts "\u00b2" but float() does not
    src = tmp_path / "sup.dsp"
    src.write_text("def main(x) { print(gain(x, \u00b2)); }\n")
    code, _, err = run_cli(capsys, "run", str(src), "--synth", "x=4,1")
    assert code == 2
    assert "unexpected character" in err


def test_out_of_range_factor_with_bound_shapes_exit_3(capsys, tmp_path):
    # shape inference must not divide by k before the verifier checks k >= 1
    src = tmp_path / "down0.dsp"
    src.write_text("def main(x) { print(downsample(x, 0)); }\n")
    code, out, err = run_cli(capsys, "run", str(src), "--synth", "x=4,1")
    assert code == 3 and out == ""
    assert "attribute k=0 violates k >= 1" in err


@pytest.mark.parametrize("argv", [("run", "--synth", "x=2,1"), ("build", "--emit=dsp")])
def test_non_finite_attribute_exit_3(capsys, tmp_path, argv):
    big = "9" * 200  # each factor is finite, their folded product is not
    src = tmp_path / "overflow.dsp"
    src.write_text(f"def main(x) {{ print(gain(x, {big} * {big})); }}\n")
    code, out, err = run_cli(capsys, argv[0], str(src), *argv[1:])
    assert code == 3
    assert "g=inf is not finite" in err and "inf" not in out


_B, _M = "1" + "0" * 300, "1" + "0" * 308  # 1e300 and 1e308 as plain literals


@pytest.mark.parametrize("source, argv, code, message", [
    # the quantizer step (max - min) / (levels - 1) overflows, or underflows to 0
    (f"def main(x) {{ print(quantize(x, 2, 0 - {_M}, {_M})); }}",
     ("--synth", "x=4,1"), 3, "quantize requires a finite step (max-min)/(levels-1) above 0"),
    (f"def main(x) {{ print(quantize(x, {_M}, 0, 0.00000000000000000001)); }}",
     ("--synth", "x=4,1"), 3, "quantize requires a finite step (max-min)/(levels-1) above 0"),
    # big - big is inf - inf, a NaN, which no clamp moves and floor rejects;
    # threshold and quantize name the operand buffer holding it
    (f"def main(x) {{ var big = gain(x, {_M}) * 10; print(quantize(big - big, 4, 0, 1)); }}",
     ("--synth", "x=4,1"), 4, "non-finite value in v4"),
    # abs(nan) >= t is false, so threshold would print the NaN as 0.0
    (f"def main(x) {{ var big = gain(x, {_M}) * 10; print(threshold(big - big, 0.5)); }}",
     ("--synth", "x=4,1"), 4, "non-finite value in v4"),
    # the clamps map +-inf to the bounds, so quantize would print them as finite
    (f"def main(x) {{ var big = gain(x, {_M}) * 10; print(quantize(big, 4, 0, 1)); }}",
     ("--synth", "x=4,1"), 4, "non-finite value in v3"),
    # the step mu = 1e300 makes the LMS weights diverge on both routes, inside
    # the LMS itself and before any gain scales them
    (f"def main(x, d) {{ print(gain(lmsFilter(x, d, {_B}, 2), {_B})); }}",
     ("--opt=dsp", "--synth", "x=4,1", "--synth", "d=4,2"), 4, "non-finite value in"),
    (f"def main(x, d) {{ print(gain(lmsFilter(x, d, {_B}, 2), {_B})); }}",
     ("--opt=none", "--synth", "x=4,1", "--synth", "d=4,2"), 4, "non-finite value in"),
    # the phase step 2*pi*f/fs overflows, and sin(inf) has no value
    (f"def main() {{ print(sinVec(4, {_B}, 0.000000000000000000001)); }}",
     (), 3, "phase 2*pi*f/fs*(n-1) is not finite"),
], ids=["quantize_step", "quantize_step_zero", "quantize_nan", "threshold_nan",
        "quantize_inf", "lms_gain_step_dsp", "lms_gain_step_none", "sin_vec_phase"])
def test_overflowing_folded_constant_exits_cleanly(capsys, tmp_path, source, argv, code,
                                                   message):
    src = tmp_path / "overflow.dsp"
    src.write_text(source + "\n")
    got, out, err = run_cli(capsys, "run", str(src), *argv)
    assert (got, out) == (code, "")
    assert message in err


def test_runtime_error_exit_4(capsys, tmp_path):
    src = tmp_path / "dz.dsp"
    src.write_text("def main(x) { print(x / sum(x - x)); }\n")
    code, _, err = run_cli(capsys, "run", str(src), "--synth", "x=8,1")
    assert code == 4
    assert "division by zero" in err


def test_unallocatable_buffer_exit_4(capsys, tmp_path):
    # the length is 4e20 slots, past the index range, so nothing is allocated
    src = tmp_path / "huge.dsp"
    src.write_text("def main(x) { print(upsample(x, 100000000000000000000)); }\n")
    code, out, err = run_cli(capsys, "run", str(src), "--synth", "x=4,1")
    assert (code, out) == (4, "")
    assert "buffer v1 of capacity 400000000000000000000 cannot be allocated" in err


def test_buffers_past_the_element_budget_exit_4_before_allocating(capsys, tmp_path):
    # 8e8 elements fit the index range, and where memory is overcommitted
    # allocating them kills the process; the run fails before it allocates
    from dspc.interp import MAX_ELEMENTS
    src = tmp_path / "big.dsp"
    src.write_text("def main(x) { print(upsample(x, 100000000)); }\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "run", str(src), "--synth", "x=8,1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err == (f"runtime error: buffer v1 of capacity 800000000 cannot be allocated: "
                   f"a program's buffers hold at most {MAX_ELEMENTS} elements\n")


def test_run_non_finite_output_exit_4(capsys):
    # the unoptimized route overflows to inf; the rewritten one stays finite
    fixture = str(FIXTURES / "overflow_energy.dsp")
    code, out, err = run_cli(capsys, "run", fixture, "--opt=none",
                             "--synth", "x=64,3")
    assert code == 4
    assert "non-finite value in printed" in err and out == ""
    code, out, _ = run_cli(capsys, "run", fixture, "--opt=dsp",
                           "--synth", "x=64,3")
    assert code == 0
    assert out.startswith("%") and "inf" not in out and "nan" not in out


def test_lowering_unbound_input_exit_3(capsys):
    code, _, err = run_cli(capsys, "build", str(APPS / "hearing_aid.dsp"),
                           "--emit=loop")
    assert code == 3
    assert "bind all inputs before lowering" in err
    assert "Traceback" not in err


def test_bench_app_by_alias(capsys):
    code, out, _ = run_cli(capsys, "bench", "app5")
    assert code == 0
    assert "fired patterns: ['6']" in out
    assert "FAIL" not in out
    # the first run's wall time, then the steady state's, which skips the
    # input-free calls, each a row of its own
    rows = [line.split()[0] for line in out.splitlines()]
    assert rows[rows.index("wall_time_ns") + 1] == "steady_wall_time_ns"


def test_bench_starts_each_route_from_no_twiddle_tables(capsys, monkeypatch):
    # the none route's tables must not serve the dsp route's first run, and
    # the steady-state row starts after the run that builds a route's tables
    import dspc.cli
    from dspc.interp import TABLES
    seen, run = [], dspc.cli.evaluate_loop_ir

    def recorded(program, inputs):
        seen.append(sorted(key[1] for key in TABLES))
        return run(program, inputs)

    monkeypatch.setattr(dspc.cli, "evaluate_loop_ir", recorded)
    code, out, _ = run_cli(capsys, "bench", "AudioCompression", "--synth", "x=64")
    assert code == 0 and "FAIL" not in out
    # per route: no table, then both built by the first run for the four timed runs
    assert seen == 2 * ([[]] + 4 * [["cos", "sin"]])


def test_bench_app_with_size_override(capsys):
    code, out, _ = run_cli(capsys, "bench", "app5", "--synth", "x=32,7")
    assert code == 0
    assert "N=32" in out


def test_bench_writes_json(capsys, tmp_path):
    report = tmp_path / "bench.json"
    code, out, _ = run_cli(capsys, "bench", "AudioCompression",
                           "--synth", "x=32,7", "--json", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["app"] == "AudioCompression"
    assert doc["fired"] == ["6"]
    assert all(c["ok"] for c in doc["checks"])
    assert doc["counters"]["ratios"]["loop_iterations"] < 1.0
    assert all(doc["counters"][side]["steady_wall_time_ns"] > 0 for side in ("before", "after"))


def test_bench_json_logs_each_rewrite(capsys, tmp_path):
    report = tmp_path / "bench.json"
    code, _, _ = run_cli(capsys, "bench", "app2", "--json", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["applications"] == {"1": 1, "2": 1}
    assert [r["pattern"] for r in doc["rewrites"]] == ["1", "2"]
    assert doc["rewrites"][0] == {"pattern": "1", "site": 5, "opcode": "mul",
                                  "new": [7], "ops": 6}


@pytest.mark.parametrize("app", ["app1", "app6"])
def test_bench_packaged_file_runs_its_apps_checks(capsys, app, monkeypatch):
    # a path to a packaged app's file, relative or absolute, is that app
    from dspc.corpus import find_app
    path = APPS / find_app(app).filename
    monkeypatch.chdir(APPS.parents[2])
    outs = [run_cli(capsys, "bench", target) for target in
            (app, str(path), str(path.relative_to(APPS.parents[2])))]
    checks = [[line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
              for _, out, _ in outs]
    assert [code for code, _, _ in outs] == [0, 0, 0]
    assert checks[0] == checks[1] == checks[2] and len(checks[0]) >= 3, checks


def test_bench_ad_hoc_file(capsys):
    fixture = str(FIXTURES / "identity_updown.dsp")
    code, out, _ = run_cli(capsys, "bench", fixture, "--synth", "x=12,3")
    assert code == 0
    assert "max relative deviation: 0.000e+00" in out


def test_bench_failing_check_exits_5(capsys):
    # at N=64 the multiply ratio lands near 0.004, over the 0.001 bar
    code, out, _ = run_cli(capsys, "bench", "app3", "--synth", "x=64,1")
    assert code == 5
    assert "FAIL" in out


def test_bench_overflow_disagreement_exits_5(capsys):
    # the unoptimized route prints inf, the rewritten one a finite value
    fixture = str(FIXTURES / "overflow_energy.dsp")
    code, out, _ = run_cli(capsys, "bench", fixture, "--synth", "x=64,3")
    assert code == 5
    assert "max relative deviation: inf" in out
    assert "FAIL  output deviation" in out


def test_bench_agreeing_non_finite_output_exits_4(capsys, tmp_path):
    # both routes overflow to inf and agree, so every bench check passes
    src = tmp_path / "overflow.dsp"
    src.write_text("def main(x) { print(square(gain(x, 1" + "0" * 200
                   + "))); }\n")
    code, out, err = run_cli(capsys, "bench", str(src), "--synth", "x=8,1")
    assert code == 4
    assert "FAIL" not in out
    assert "non-finite value in printed" in err


@pytest.mark.parametrize("printed, fired", [
    ("idft1d(dft1dreal(a), dft1dimg(a))", "['3', '4', 'C3a']"),
    ("sum(square(dft1dreal(a)) + square(dft1dimg(a))) / 15", "['3', '4', '5']"),
], ids=["identity", "parseval"])
def test_bench_transforms_of_an_autocorrelation(capsys, tmp_path, printed, fired):
    src = tmp_path / "auto.dsp"
    src.write_text("def main(x) { var a = conv1d(x, reverse(x)); print(%s); }\n" % printed)
    code, out, _ = run_cli(capsys, "bench", str(src), "--synth", "x=8,1")
    assert code == 0
    assert f"fired patterns: {fired}" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("target", [ENERGY, "app3"], ids=["file", "app"])
def test_bench_input_bound_twice_is_usage_error(capsys, target):
    code, out, err = run_cli(capsys, "bench", target, "--synth", "x=8,1", "--synth", "x=16,2")
    assert (code, out, err) == (1, "", "usage error: input 'x' bound twice\n")


def test_bench_inputs_sharing_a_size_bound_to_two_sizes_is_usage_error(capsys):
    # HearingAid's x and d are both N samples long
    code, out, err = run_cli(capsys, "bench", "app6", "--synth", "x=8,1", "--synth", "d=16,2")
    assert (code, out) == (1, "")
    assert err == "usage error: inputs 'x' and 'd' share size 'N' but are bound to 8 and 16\n"


def test_bench_unknown_target(capsys):
    code, _, err = run_cli(capsys, "bench", "app99")
    assert code == 1


def test_signed_zero_gains_print_their_own_signs(capsys, tmp_path):
    # 0.0 == -0.0, yet a gain by -0.0 flips every sign: compiled in one
    # process, in either order, each program prints its own signs
    from dspc.lowering import op_unit
    x = tmp_path / "x.json"
    x.write_text("[-1.0, 1.0, 2.0, -3.0]")
    printed = {"0.0": "%1 = [-0.0, 0.0, 0.0, -0.0]\n",
               "0.0 * (0 - 1)": "%1 = [0.0, -0.0, -0.0, 0.0]\n"}
    for order in (list(printed), list(printed)[::-1]):
        op_unit.cache_clear()
        for g in order:
            src = tmp_path / "gain.dsp"
            src.write_text(f"def main(x) {{ print(gain(x, {g})); }}")
            assert run_cli(capsys, "run", str(src), "--input", f"x={x}") == (
                0, printed[g], "")


@pytest.fixture
def noise_calls(monkeypatch):
    import dspc.cli
    calls = []

    def counted(n, seed):
        calls.append((n, seed))
        return noise(n, seed)

    noise = dspc.cli.noise
    monkeypatch.setattr(dspc.cli, "noise", counted)
    return calls


@pytest.mark.parametrize("command", [("run",), ("bench",), ("build", "--emit=loop")])
def test_inputs_are_synthesized_only_for_a_program_that_compiles(capsys, tmp_path,
                                                                 noise_calls, command):
    src = tmp_path / "p.dsp"
    src.write_text("def main(x) { print(mul(x, x)); }\n")
    code, _, err = run_cli(capsys, command[0], str(src), *command[1:], "--synth", "x=8,1")
    assert code == 3 and "unknown builtin 'mul'" in err
    assert noise_calls == []


def test_inputs_are_synthesized_after_the_bindings_are_checked(capsys, noise_calls):
    code, _, _ = run_cli(capsys, "run", ENERGY, "--synth", "x=8,1", "--synth", "typo=8,1")
    assert code == 1 and noise_calls == []
    code, _, _ = run_cli(capsys, "build", ENERGY, "--emit=loop", "--synth", "x=8,1")
    assert code == 0 and noise_calls == []  # build needs only the lengths
    code, _, _ = run_cli(capsys, "run", ENERGY, "--synth", "x=8,1")
    assert code == 0 and noise_calls == [(8, 1)]


@pytest.mark.parametrize("command", ["run", "bench"])
def test_inputs_are_synthesized_only_for_buffers_within_the_budget(capsys, tmp_path,
                                                                  monkeypatch, command):
    # drawing 2^24 + 1 samples takes seconds: the budget is checked before any is drawn
    import dspc.cli
    from dspc.interp import MAX_ELEMENTS

    def refused(n, seed):
        raise AssertionError(f"drew {n} samples")

    monkeypatch.setattr(dspc.cli, "noise", refused)
    src = tmp_path / "p.dsp"
    src.write_text("def main(x) { print(x); }\n")
    code, out, err = run_cli(capsys, command, str(src), "--synth", f"x={MAX_ELEMENTS + 1}")
    assert (code, out) == (4, "")
    assert err == (f"runtime error: buffer v0 of capacity {MAX_ELEMENTS + 1} cannot be "
                   f"allocated: a program's buffers hold at most {MAX_ELEMENTS} elements\n")
