import json
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


def test_unbound_input_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", ENERGY)
    assert code == 1
    assert "unbound input" in err


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
    # the quantizer step (max - min) / (levels - 1) overflows
    (f"def main(x) {{ print(quantize(x, 2, 0 - {_M}, {_M})); }}",
     ("--synth", "x=4,1"), 4, "non-finite value in printed"),
    # the step mu = 1e300 makes the LMS weights diverge on both routes, inside
    # the LMS itself and before any gain scales them
    (f"def main(x, d) {{ print(gain(lmsFilter(x, d, {_B}, 2), {_B})); }}",
     ("--opt=dsp", "--synth", "x=4,1", "--synth", "d=4,2"), 4, "non-finite value in"),
    (f"def main(x, d) {{ print(gain(lmsFilter(x, d, {_B}, 2), {_B})); }}",
     ("--opt=none", "--synth", "x=4,1", "--synth", "d=4,2"), 4, "non-finite value in"),
    # the phase step 2*pi*f/fs overflows, and sin(inf) has no value
    (f"def main() {{ print(sinVec(4, {_B}, 0.000000000000000000001)); }}",
     (), 3, "phase 2*pi*f/fs*(n-1) is not finite"),
], ids=["quantize_step", "lms_gain_step_dsp", "lms_gain_step_none", "sin_vec_phase"])
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
