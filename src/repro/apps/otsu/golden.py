"""Golden NumPy references for the Otsu pipeline.

Bit-exact with the HLS-compiled C: the grayscale conversion uses the
same fixed-point coefficients, and the threshold search replays the same
float32 operation order as the interpreter, so a hardware run and the
software reference produce identical images.
"""

from __future__ import annotations

import numpy as np

from repro.apps.otsu.csrc import LUMA_B, LUMA_G, LUMA_R


def golden_grayscale(packed: np.ndarray) -> np.ndarray:
    """Packed 0x00RRGGBB words -> gray values (int32, same length)."""
    p = np.asarray(packed, dtype=np.int64)
    r = (p >> 16) & 255
    g = (p >> 8) & 255
    b = p & 255
    return ((LUMA_R * r + LUMA_G * g + LUMA_B * b) >> 8).astype(np.int32)


def golden_histogram(gray: np.ndarray) -> np.ndarray:
    """256-bin histogram (int32)."""
    return np.bincount(
        np.asarray(gray, dtype=np.int64) & 255, minlength=256
    ).astype(np.int32)


def golden_otsu_threshold(hist: np.ndarray, npix: int) -> int:
    """Between-class-variance maximization, float32 step-for-step.

    Mirrors the C actor exactly (same accumulation order, same float32
    rounding) so the reference threshold equals the hardware one.  The
    C loop's running sums are sequential float32 ``cumsum`` scans
    (``add.accumulate`` rounds after every step, unlike the pairwise
    ``sum``), its per-bin arithmetic is elementwise float32, and its
    ``between > max_var`` update keeps the first strict maximum above
    zero — ``argmax`` with a ``> 0`` guard.  Bins with an empty
    background are skipped, and the scan stops at the first empty
    foreground.
    """
    f32 = np.float32
    h = np.asarray(hist)[:256].astype(f32)
    prod = np.arange(256, dtype=f32) * h
    s = np.cumsum(prod, dtype=f32)[-1]
    w_b = np.cumsum(h, dtype=f32)
    live = w_b != 0
    w_f = f32(npix) - w_b
    stop = np.flatnonzero(live & (w_f == 0))
    n = int(stop[0]) if stop.size else 256
    if n == 0:
        return 0
    live, w_b, w_f = live[:n], w_b[:n], w_f[:n]
    # A skipped bin adds nothing to sum_b: adding +0.0 is exact.
    sum_b = np.cumsum(np.where(live, prod[:n], f32(0)), dtype=f32)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m_b = sum_b / w_b
        m_f = (s - sum_b) / w_f
        diff = m_b - m_f
        between = w_b * w_f * diff * diff
    # A skipped bin scores 0 or NaN (its w_b is 0), never above 0.  With
    # no bin above 0, argmax gives 0: the loop's initial threshold.
    return int(np.argmax(np.where(between > 0, between, f32(0))))


def golden_binarize(gray: np.ndarray, threshold: int) -> np.ndarray:
    """gray -> 0/255 binary image (int32)."""
    return np.where(np.asarray(gray) > threshold, 255, 0).astype(np.int32)


def golden_pipeline(packed: np.ndarray) -> dict[str, np.ndarray | int]:
    """Run the whole software pipeline; returns every intermediate."""
    gray = golden_grayscale(packed)
    hist = golden_histogram(gray)
    threshold = golden_otsu_threshold(hist, len(gray))
    binary = golden_binarize(gray, threshold)
    return {
        "gray": gray,
        "hist": hist,
        "threshold": threshold,
        "binary": binary,
    }
