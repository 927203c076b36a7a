"""The vectorised Otsu threshold against the step-for-step float32 loop.

``reference_otsu_threshold`` is the C actor's loop transcribed with one
NumPy float32 scalar operation per C operation.  The vectorised
``golden_otsu_threshold`` must return the same bin for every histogram,
not a near-optimal one: the simulated hardware compares its output to
the golden image byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.otsu.golden import golden_histogram, golden_otsu_threshold

VGA_PIXELS = 640 * 480


def reference_otsu_threshold(hist, npix):
    """Between-class-variance maximization, one float32 step at a time."""
    f32 = np.float32
    hist = np.asarray(hist)
    total = f32(npix)
    s = f32(0.0)
    for i in range(256):
        s = f32(s + f32(f32(i) * f32(hist[i])))
    sum_b = f32(0.0)
    w_b = f32(0.0)
    max_var = f32(0.0)
    threshold = 0
    for t in range(256):
        w_b = f32(w_b + f32(hist[t]))
        if w_b == 0.0:
            continue
        w_f = f32(total - w_b)
        if w_f == 0.0:
            break
        sum_b = f32(sum_b + f32(f32(t) * f32(hist[t])))
        m_b = f32(sum_b / w_b)
        m_f = f32(f32(s - sum_b) / w_f)
        diff = f32(m_b - m_f)
        between = f32(f32(f32(w_b * w_f) * diff) * diff)
        if between > max_var:
            max_var = between
            threshold = t
    return threshold


def hist_of(levels_counts):
    hist = np.zeros(256, dtype=np.int32)
    for level, count in levels_counts.items():
        hist[level] = count
    return hist


def assert_same(hist, npix):
    with np.errstate(all="ignore"):  # corrupted counts overflow float32
        want = reference_otsu_threshold(hist, npix)
    assert golden_otsu_threshold(hist, npix) == want
    return want


@st.composite
def histograms(draw):
    """Sparse to dense histograms of up to a 640x480 image."""
    levels = draw(st.lists(st.integers(0, 255), min_size=1, max_size=256, unique=True))
    per_level = VGA_PIXELS // len(levels)
    counts = draw(
        st.lists(st.integers(1, per_level), min_size=len(levels), max_size=len(levels))
    )
    return hist_of(dict(zip(levels, counts)))


@st.composite
def corrupted_histograms(draw):
    """Any int32 counts, as a fault-flipped histogram in DRAM can hold.

    Negative counts make the background weight return to zero and the
    foreground weight cross zero mid-scan, which exercises the skip and
    the stop of the loop.
    """
    levels = draw(st.lists(st.integers(0, 255), min_size=1, max_size=12, unique=True))
    small = st.integers(-60, 60)
    any_int32 = st.integers(-(2**31), 2**31 - 1)
    counts = draw(
        st.lists(st.one_of(small, any_int32), min_size=len(levels), max_size=len(levels))
    )
    return hist_of(dict(zip(levels, counts)))


class TestThresholdOracle:
    @given(histograms())
    @settings(max_examples=200, deadline=None)
    def test_matches_loop(self, hist):
        assert_same(hist, int(hist.sum()))

    @given(histograms(), st.integers(0, VGA_PIXELS))
    @settings(max_examples=100, deadline=None)
    def test_matches_loop_for_any_pixel_count(self, hist, npix):
        assert_same(hist, npix)

    @given(corrupted_histograms(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_on_corrupted_counts(self, hist, data):
        # Prefix sums are where the foreground weight hits zero.
        prefix = np.cumsum(hist.astype(np.int64))
        npix = data.draw(
            st.one_of(st.sampled_from(prefix.tolist()), st.integers(-(2**31), 2**31 - 1))
        )
        assert_same(hist, npix)

    def test_stops_at_first_empty_foreground(self):
        # A negative (corrupted) count makes w_f positive again after it
        # hit zero at bin 20; the loop has stopped by then.
        hist = hist_of({10: 50, 20: 50, 30: -50, 40: 50})
        assert assert_same(hist, 100) == 10

    def test_skips_bins_with_empty_background(self):
        # The background weight returns to zero at bin 106; the loop
        # skips that bin, so its count never enters sum_b.
        hist = hist_of({75: 15, 106: -15, 157: 3, 181: -7})
        assert assert_same(hist, 53) == 157

    def test_large_counts_round_step_by_step(self):
        # Sums past 2**24 round in float32, so the threshold depends on
        # summing and multiplying in the loop's order.  About one in a
        # hundred of these histograms tells the orders apart.
        for seed in range(300):
            rng = np.random.default_rng(seed)
            hist = rng.integers(0, 300_000, 256).astype(np.int32)
            assert_same(hist, int(hist.astype(np.int64).sum()))

    @pytest.mark.parametrize("npix", [0, 1, 4096])
    def test_all_zero_histogram(self, npix):
        assert assert_same(np.zeros(256, dtype=np.int32), npix) == 0

    @pytest.mark.parametrize("level", [0, 1, 128, 254, 255])
    def test_single_non_empty_bin(self, level):
        assert assert_same(hist_of({level: 4096}), 4096) == 0

    def test_all_mass_in_last_bin(self):
        # w_b stays zero up to bin 255, where w_f drops to zero: the
        # scan stops with the initial threshold.
        assert assert_same(hist_of({255: VGA_PIXELS}), VGA_PIXELS) == 0
        # Mass below 255 as well: the stop at 255 keeps the earlier best.
        assert assert_same(hist_of({10: 5, 255: 100}), 105) == 10

    @pytest.mark.parametrize(
        "low,high,n_low,n_high",
        [(0, 255, 1, 1), (0, 1, 100, 100), (40, 200, 3000, 1096), (7, 8, 1, VGA_PIXELS - 1)],
    )
    def test_two_level_image(self, low, high, n_low, n_high):
        # Every split between the levels scores the same; the first wins.
        hist = hist_of({low: n_low, high: n_high})
        assert assert_same(hist, n_low + n_high) == low

    @pytest.mark.parametrize("shape", ["uniform", "normal", "bimodal"])
    def test_vga_images(self, shape):
        rng = np.random.default_rng(7)
        if shape == "uniform":
            gray = rng.integers(0, 256, VGA_PIXELS)
        elif shape == "normal":
            gray = rng.normal(120, 40, VGA_PIXELS)
        else:
            gray = np.concatenate([
                rng.normal(60, 15, VGA_PIXELS // 2),
                rng.normal(190, 20, VGA_PIXELS - VGA_PIXELS // 2),
            ])
        hist = golden_histogram(np.clip(gray, 0, 255).astype(np.int32))
        assert assert_same(hist, VGA_PIXELS) > 0
