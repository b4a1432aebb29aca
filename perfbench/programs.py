"""Benchmark inputs: numpy oracles for the corpus apps and the seeded
generator of compile-workload programs.

A generated program is a list of corpus-style stages, each printing its
result.  On compile-fire every stage is written so that its rewrite pattern
fires; on compile-miss each stage carries one small change so that no pattern
matches, and computes the same kind of result from inputs of the same size.

Programs come in blocks of fifteen whose stage counts are 1..15, each once.
The stage kinds of a program follow from its stage count, and every numeric
parameter that sets how much work a stage does (signal length, taps, LMS
order, resampling factor) is dealt from a deck that holds each choice equally
often.  The seed draws the order of programs and stages, which choice each
stage gets, the other constants and the input data; every block keeps the
same size distribution, kind mix and work mix, so the compile and run times
of a run depend little on the seed.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle as o

# Programs per block, with stage counts 1..BLOCK.  With an odd count the
# median and the 90th percentile of compile times fall inside one stage count's
# samples, not in the gap between two.
BLOCK = 15
SIGNAL_LENGTHS = (16, 24, 32, 48, 64)
LMS_STAGE = "lms_gain"

# Rewrite applications each stage is built to trigger on compile-fire.
FIRES = {
    "fir_band": {"1": 1, "2": 1},
    "autocorr": {"3": 1, "4": 2},
    "energy": {"5": 1},
    "compress": {"6": 1},
    LMS_STAGE: {"7": 1},
    "dft_idft": {"6": 1, "C3a": 1},
    "up_down": {"C3b": 1},
}
KINDS = tuple(FIRES)

Oracle = Callable[[dict], list]


@dataclass(frozen=True)
class Program:
    pid: int
    source: str
    length: int  # samples per input
    input_seeds: tuple[tuple[str, int], ...]
    printed_kinds: tuple[str, ...]  # stage kind of each printed output
    expected: dict[str, int]  # pattern code -> applications; empty on miss
    oracle: Oracle


# --------------------------------------------------------------------------
# Corpus apps, written out from their templates in dspc/corpus.py


def _filter_design(s, v):
    return [o.low_pass(s["L"], 0.4 * math.pi) * o.hamming(s["L"])]


def _low_pass_filtering(s, v):
    h = o.low_pass(s["L"], 0.4 * math.pi) * o.hamming(s["L"])
    return [o.fir(o.sin_vec(s["N"], 200.0, 8000.0) + v["x"], h)]


def _energy_of_signal(s, v):
    re, im = o.dft(v["x"])
    return [np.array([np.sum(re * re + im * im) / s["N"]])]


def _spectral_analysis(s, v):
    re, im = o.dft(o.conv1d(v["x"], v["x"][::-1]))
    return [re * re + im * im]


def _audio_compression(s, v):
    return [o.run_length(o.quantize(o.threshold(part, 0.5), 16, -16.0, 16.0))
            for part in o.dft(v["x"])]


def _hearing_aid(s, v):
    w = o.lms(v["x"], v["d"], 0.01, s["M"])
    return [o.fir(v["x"], 2.0 * w)]


def _audio_equalizer(s, v):
    L = s["L"]
    window = o.hamming(L)
    low = o.low_pass(L, 0.2 * math.pi) * window
    mid_cut = o.low_pass(L, 0.5 * math.pi) * window
    high_cut = o.low_pass(L, 0.8 * math.pi) * window
    x = v["x"]
    return [0.5 * o.fir(x, low) + 1.0 * o.fir(x, mid_cut - low)
            + 2.0 * o.fir(x, high_cut - mid_cut)]


CORPUS_ORACLES = {
    "FilterDesign": _filter_design,
    "LowPassFiltering": _low_pass_filtering,
    "EnergyOfSignal": _energy_of_signal,
    "SpectralAnalysis": _spectral_analysis,
    "AudioCompression": _audio_compression,
    "HearingAid": _hearing_aid,
    "AudioEqualizer": _audio_equalizer,
}
# The app whose dsp route carries the known pattern-7 deviation.
PATTERN7_APP = "HearingAid"


# --------------------------------------------------------------------------
# Stages.  Each returns source lines and one oracle per printed value.


class _Deck:
    """Deals each parameter's choices equally often, in a shuffled order."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.cards: dict[str, list] = {}

    def __call__(self, name, choices):
        cards = self.cards.setdefault(name, [])
        if not cards:
            cards.extend(choices)
            self.rng.shuffle(cards)
        return cards.pop()


def _source(i, deal, lines):
    g = deal("g", (0.5, 0.75, 1.25, 1.5, 2.0))
    lines.append(f"  var s{i} = gain(x, {g});")
    return lambda v: g * v["x"]


def _st_fir_band(i, deal, n, miss):
    L = deal("L", (8, 11, 16, 21, 31))
    wc = f"{deal.rng.uniform(0.15, 0.85) * math.pi:.6f}"
    window = f"gain(hammingWindow({L}), 1.0)" if miss else f"hammingWindow({L})"
    lines = [f"  var h{i} = lowPassFIRFilter({L}, {wc}) * {window};",
             f"  print(firFilterResponse(x, h{i}));"]
    return lines, [lambda v: o.fir(v["x"], o.low_pass(L, float(wc)) * o.hamming(L))]


def _st_autocorr(i, deal, n, miss):
    lines = []
    s = _source(i, deal, lines)
    left = f"gain(s{i}, 1.0)" if miss else f"s{i}"
    im_of = f"gain(a{i}, 1.0)" if miss else f"a{i}"
    lines += [f"  var a{i} = conv1d({left}, reverse(s{i}));",
              f"  print(square(dft1dreal(a{i})) + square(dft1dimg({im_of})));"]

    def spectrum(v):
        re, im = o.dft(o.conv1d(s(v), s(v)[::-1]))
        return re * re + im * im
    return lines, [spectrum]


def _st_energy(i, deal, n, miss):
    lines = []
    s = _source(i, deal, lines)
    im_of = f"gain(s{i}, 1.0)" if miss else f"s{i}"
    divisor = n - 1 if miss else n
    lines.append(f"  print(sum(square(dft1dreal(s{i})) + "
                 f"square(dft1dimg({im_of}))) / {divisor});")

    def energy(v):
        re, im = o.dft(s(v))
        return np.array([np.sum(re * re + im * im) / divisor])
    return lines, [energy]


def _st_compress(i, deal, n, miss):
    lines = []
    s = _source(i, deal, lines)
    t = deal("t", (0.5, 1.0, 2.0))
    levels = deal("levels", (8, 16, 32))
    hi = deal("hi", (8, 16, 32))
    im_of = f"gain(s{i}, 1.0)" if miss else f"s{i}"
    lines += [f"  var re{i} = dft1dreal(s{i});",
              f"  var im{i} = dft1dimg({im_of});"]
    lines += [f"  print(runLenEncoding(quantize(threshold({part}{i}, {t}), "
              f"{levels}, 0 - {hi}, {hi})));" for part in ("re", "im")]

    def part(j):
        return lambda v: o.run_length(o.quantize(
            o.threshold(o.dft(s(v))[j], t), levels, -float(hi), float(hi)))
    return lines, [part(0), part(1)]


def _st_lms_gain(i, deal, n, miss):
    mu = deal("mu", (0.005, 0.01, 0.02))
    M = deal("M", (4, 8, 16))
    g = deal("lms_gain", (0.5, 1.5, 2.0, 3.0))
    lines = [f"  var w{i} = lmsFilter(x, d, {mu}, {M});"]
    if miss:  # the gain moves from the weights to the signal
        lines.append(f"  print(firFilterResponse(gain(x, {g}), w{i}));")
    else:
        lines.append(f"  print(firFilterResponse(x, gain(w{i}, {g})));")
    return lines, [lambda v: o.fir(v["x"], g * o.lms(v["x"], v["d"], mu, M))]


def _st_dft_idft(i, deal, n, miss):
    lines = []
    s = _source(i, deal, lines)
    im_of = f"gain(s{i}, 1.0)" if miss else f"s{i}"
    lines.append(f"  print(idft1d(dft1dreal(s{i}), dft1dimg({im_of})));")
    return lines, [lambda v: o.idft(*o.dft(s(v)))]


def _st_up_down(i, deal, n, miss):
    lines = []
    s = _source(i, deal, lines)
    k = deal("k", (2, 3, 4))
    down = k + 1 if miss else k
    lines.append(f"  print(downsample(upsample(s{i}, {k}), {down}));")
    return lines, [lambda v: o.downsample(o.upsample(s(v), k), down)]


_STAGES = {
    "fir_band": _st_fir_band,
    "autocorr": _st_autocorr,
    "energy": _st_energy,
    "compress": _st_compress,
    LMS_STAGE: _st_lms_gain,
    "dft_idft": _st_dft_idft,
    "up_down": _st_up_down,
}


def _program(pid, kinds, n, deal, miss, workload):
    lines, oracles, printed = [], [], []
    for i, kind in enumerate(kinds):
        stage_lines, outs = _STAGES[kind](i, deal, n, miss)
        lines += stage_lines
        oracles += outs
        printed += [kind] * len(outs)
    names = ("x", "d") if LMS_STAGE in kinds else ("x",)
    source = "\n".join([f"# {workload} program {pid}",
                        f"def main({', '.join(names)}) {{", *lines, "}", ""])
    expected = Counter()
    if not miss:
        for kind in kinds:
            expected.update(FIRES[kind])
    return Program(
        pid=pid, source=source, length=n,
        input_seeds=tuple((name, deal.rng.getrandbits(48)) for name in names),
        printed_kinds=tuple(printed), expected=dict(expected),
        oracle=lambda v: [f(v) for f in oracles])


def make_block(workload: str, seed: int, block: int) -> list[Program]:
    """Block `block` of the program stream for (workload, seed)."""
    miss = workload == "compile-miss"
    rng = random.Random(f"{workload}/{seed}/{block}")
    deal = _Deck(rng)
    sizes = list(range(1, BLOCK + 1))
    rng.shuffle(sizes)
    programs = []
    for j, size in enumerate(sizes):
        kinds = [KINDS[(size + i) % len(KINDS)] for i in range(size)]
        rng.shuffle(kinds)
        programs.append(_program(block * BLOCK + j, kinds,
                                 deal("N", SIGNAL_LENGTHS), deal, miss,
                                 workload))
    return programs
