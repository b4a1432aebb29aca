import math
from pathlib import Path

import pytest

from dspc import corpus
from dspc.kernels import tensor
from dspc.synth import Lcg, noise

APPS_DIR = Path(__file__).resolve().parents[1] / "src" / "dspc" / "apps"


def test_registry_covers_seven_apps():
    assert len(corpus.APPS) == 7
    assert [a.alias for a in corpus.APPS] == [f"app{i}" for i in range(1, 8)]


def test_packaged_sources_match_templates():
    # the shipped .dsp files are the templates rendered at default sizes
    for app in corpus.APPS:
        packaged = (APPS_DIR / app.filename).read_text()
        assert packaged == app.source(), app.filename


def test_pattern_annotations_agree_with_registry():
    for app in corpus.APPS:
        line = next(l for l in app.source().splitlines()
                    if l.startswith("# patterns:"))
        annotated = set(line.split(":", 1)[1].replace(",", " ").split())
        assert annotated == set(app.expected_patterns), app.name


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

