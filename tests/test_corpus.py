import math
from dataclasses import replace

import pytest

from dspc import corpus
from dspc.interp import tensor
from dspc.synth import Lcg, noise


def test_registry_covers_seven_apps():
    assert len(corpus.APPS) == 7
    assert [a.alias for a in corpus.APPS] == [f"app{i}" for i in range(1, 8)]


@pytest.mark.parametrize("key", ["app4", "SpectralAnalysis",
                                 "spectral_analysis", "spectralanalysis"])
def test_find_app_accepts_aliases(key):
    app = corpus.find_app(key)
    assert app is not None and app.name == "SpectralAnalysis"


def test_find_app_rejects_unknown():
    assert corpus.find_app("app99") is None


def test_every_app_compiles_and_verifies():
    for app in corpus.APPS:
        sizes = app.default_sizes()
        g = corpus.compile_source(app.source(sizes), app.input_lengths(sizes))
        assert g.prints, app.name


def test_compile_source_raises_on_violations():
    with pytest.raises(corpus.VerificationFailed):
        corpus.compile_source("def main(x) { print(delay(x, 0 - 1)); }",
                              {"x": 8})


def test_app_sizes_flow_into_template():
    app = corpus.find_app("app3")
    src = app.source({"N": 64})
    assert "/ 64" in src  # the energy divisor tracks the input length


# the whole-number literals of each packaged program that a size's default
# is written as; a size at 0 is an input length only
SIZE_LITERALS = {
    "FilterDesign": {"L": 2},
    "LowPassFiltering": {"N": 1, "L": 2},
    "EnergyOfSignal": {"N": 1},
    "SpectralAnalysis": {"N": 0},
    "AudioCompression": {"N": 0},
    "HearingAid": {"N": 0, "M": 1},
    "AudioEqualizer": {"N": 0, "L": 4},
}


@pytest.mark.parametrize("app", corpus.APPS, ids=lambda app: app.name)
def test_rebinding_a_size_replaces_only_its_literals(app):
    defaults = [d for _, d in app.sizes]
    assert len(set(defaults)) == len(defaults)  # else a rebinding is ambiguous
    assert app.source() == app.source(app.default_sizes()) == app.text
    counts = {}
    for name, default in app.sizes:
        src = app.source({name: 987654})
        counts[name] = src.count("987654")
        assert src.replace("987654", str(default)) == app.text
    assert counts == SIZE_LITERALS[app.name]


def test_swapped_sizes_rebind_in_one_pass():
    # one replace per size would turn both lengths into the same value
    src = corpus.find_app("LowPassFiltering").source({"N": 101, "L": 4096})
    assert "sinVec(101, 200, 8000)" in src
    assert "lowPassFIRFilter(4096, 1.2566370614359172)" in src
    assert "hammingWindow(4096)" in src


def test_rebinding_skips_comments_floats_and_names():
    text = ("# patterns: 2\n"
            "def main(x2) { print(gain(sinVec(2, 2.5, 12), 0.2) + x2); }  # 2\n")
    app = corpus.CorpusApp("T", "", "t.dsp", text, sizes=(("n", 2),),
                           inputs=(), checks=())
    assert app.expected_patterns == {"2"}
    assert app.source({"n": 7}) == text.replace("(2,", "(7,")
    assert replace(app, text=text.partition("\n")[2]).expected_patterns == frozenset()


# --------------------------------------------------------------------------
# deviation metric


def test_deviation_zero_for_identical():
    a = [tensor([1.0, 2.0])]
    assert corpus.max_relative_deviation(a, a) == 0.0


def test_deviation_relative():
    a, b = [tensor([100.0])], [tensor([100.0 + 1e-7])]
    dev = corpus.max_relative_deviation(a, b)
    assert dev == pytest.approx(1e-9, rel=1e-2)


def test_deviation_absolute_floor():
    # near zero, tiny absolute wiggle does not explode the relative measure
    a, b = [tensor([0.0])], [tensor([1e-13])]
    assert corpus.max_relative_deviation(a, b) == 0.0


def test_deviation_length_mismatch_is_infinite():
    a, b = [tensor([1.0])], [tensor([1.0, 2.0])]
    assert corpus.max_relative_deviation(a, b) == math.inf


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("x,y,want", [
    (INF, INF, 0.0), (-INF, -INF, 0.0), (NAN, NAN, 0.0),
    (NAN, 1.0, INF), (1.0, NAN, INF), (INF, 1.0, INF), (1.0, -INF, INF),
    (INF, -INF, INF), (NAN, INF, INF),
])
def test_deviation_non_finite(x, y, want):
    # a non-finite value scores 0 only against an equal one, even when a
    # finite pair before it deviates
    a, b = [tensor([100.0, x])], [tensor([100.0 + 1e-7, y])]
    dev = corpus.max_relative_deviation(a, b)
    if want == 0.0:
        assert dev == pytest.approx(1e-9, rel=1e-2)
    else:
        assert dev == INF


# --------------------------------------------------------------------------
# synthetic input generator


def test_lcg_known_sequence():
    g = Lcg(7)
    assert g.next_u64() == 9098160460397411210
    assert g.next_u64() == 17628806926561717905


def test_noise_frozen_values():
    got = noise(4, 42).values
    want = (0.1364606532878152, -0.5490731421044974,
            -0.17432336234097634, 0.2607960996791958)
    assert got == want


def test_noise_is_seed_deterministic():
    assert noise(16, 3).values == noise(16, 3).values
    assert noise(16, 3).values != noise(16, 4).values


def test_noise_stays_in_unit_interval():
    xs = noise(10000, 11).values
    assert all(-1.0 <= v <= 1.0 for v in xs)
    assert max(xs) > 0.9 and min(xs) < -0.9  # actually spreads out

