"""Similarity metrics between EEG signal windows.

Implements the paper's two similarity measures:

* Eq. 2 — **cross-correlation** ``ω(A, B) = Σ A_n · B_n`` (sliding dot
  product), plus a normalised variant bounded in ``[-1, 1]``.  The
  cloud search threshold δ = 0.8 only makes sense for the normalised
  form (see DESIGN.md, "Paper ambiguities resolved").
* Eq. 3 — **area between curves** ``A(A, B) = Σ |A_i − B_i|``, the cheap
  edge-side similarity used by Algorithm 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SignalError

#: Floor used to avoid division by zero when normalising flat windows.
NORM_EPSILON = 1e-12


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate that two windows are 1-D, equal-length and non-empty."""
    first = np.asarray(a, dtype=np.float64)
    second = np.asarray(b, dtype=np.float64)
    if first.ndim != 1 or second.ndim != 1:
        raise SignalError(
            f"metric inputs must be 1-D, got shapes {first.shape} and {second.shape}"
        )
    if first.size != second.size:
        raise SignalError(
            f"metric inputs must have equal length, got {first.size} and {second.size}"
        )
    if first.size == 0:
        raise SignalError("metric inputs must not be empty")
    return first, second


def cross_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Raw sliding dot product of two equal-length windows (paper Eq. 2).

    This is the unnormalised form; its magnitude scales with signal
    amplitude, which is why the framework thresholds the normalised
    variant instead.
    """
    first, second = _check_pair(a, b)
    return float(np.dot(first, second))


def normalized_cross_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Zero-mean, unit-norm cross-correlation, bounded in ``[-1, 1]``.

    Equivalent to the Pearson correlation of the two windows.  A window
    with (numerically) zero variance has no shape to correlate, so any
    pairing involving one yields 0.
    """
    first, second = _check_pair(a, b)
    first = first - first.mean()
    second = second - second.mean()
    denom = float(np.linalg.norm(first) * np.linalg.norm(second))
    if denom < NORM_EPSILON:
        return 0.0
    value = float(np.dot(first, second) / denom)
    # Guard against floating-point drift just outside the valid range.
    return min(1.0, max(-1.0, value))


def area_between_curves(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of absolute sample differences (paper Eq. 3).

    Expressed in "square units": µV · sample.  The paper's edge-side
    area threshold δ_A ≈ 900 assumes raw µV-scale inputs.
    """
    first, second = _check_pair(a, b)
    return float(np.abs(first - second).sum())


def mean_absolute_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Area between curves normalised by window length (µV per sample)."""
    first, second = _check_pair(a, b)
    return float(np.abs(first - second).mean())


def sliding_normalized_correlation(
    window: np.ndarray, series: np.ndarray
) -> np.ndarray:
    """Normalised correlation of ``window`` against every offset of ``series``.

    Returns an array of length ``len(series) - len(window) + 1`` whose
    entry ``k`` is ``normalized_cross_correlation(window, series[k:k+m])``.
    Computed with FFT-free vectorised prefix sums, which is exact and
    fast enough for the MDB slice length (1000 samples).

    This is the reference implementation used by the exhaustive search
    baseline and by tests to validate the sliding-window search.
    """
    win = np.asarray(window, dtype=np.float64)
    data = np.asarray(series, dtype=np.float64)
    if win.ndim != 1 or data.ndim != 1:
        raise SignalError("sliding correlation inputs must be 1-D")
    m = win.size
    if m == 0:
        raise SignalError("window must not be empty")
    if data.size < m:
        raise SignalError(
            f"series of length {data.size} shorter than window of length {m}"
        )

    win_centered = win - win.mean()
    win_norm = float(np.linalg.norm(win_centered))

    n_offsets = data.size - m + 1
    if win_norm < NORM_EPSILON:
        return np.zeros(n_offsets)

    # Windowed sums and sums of squares via prefix sums: O(n) overall.
    prefix = np.concatenate(([0.0], np.cumsum(data)))
    prefix_sq = np.concatenate(([0.0], np.cumsum(data * data)))
    window_sums = prefix[m:] - prefix[:-m]
    window_sq_sums = prefix_sq[m:] - prefix_sq[:-m]
    window_means = window_sums / m
    # Var * m = Σx² − m·mean²; clamp tiny negatives from cancellation.
    centered_norms_sq = np.maximum(window_sq_sums - m * window_means**2, 0.0)
    centered_norms = np.sqrt(centered_norms_sq)

    # Σ win_centered · data[k:k+m] via correlation; subtracting the mean
    # of each data window contributes nothing because Σ win_centered = 0.
    dots = np.correlate(data, win_centered, mode="valid")

    denom = win_norm * centered_norms
    flat = denom < NORM_EPSILON
    denom[flat] = 1.0
    values = dots / denom
    values[flat] = 0.0
    return np.clip(values, -1.0, 1.0)


@dataclass(frozen=True)
class SlidingWindowStats:
    """Frame-invariant per-offset statistics of a series' strided windows.

    Everything here depends only on the *series*, the window length and
    the stride — never on the query frame — so it can be computed once
    when a slice is adopted and reused for every subsequent comparison
    (the compiled edge engine's compile step,
    :func:`repro.edge.plane.compile_slice_windows`).  ``windows`` is a read-only strided view
    into the original series; entry ``k`` covers offset ``k · stride``.
    """

    windows: np.ndarray
    means: np.ndarray
    rms: np.ndarray
    flat: np.ndarray
    stride: int

    @property
    def n_offsets(self) -> int:
        return int(self.windows.shape[0])

    @property
    def window_samples(self) -> int:
        return int(self.windows.shape[1])


def sliding_window_stats(
    series: np.ndarray, window_samples: int, stride: int = 1
) -> SlidingWindowStats:
    """Precompute every strided window's mean/RMS statistics.

    This is the query-independent half of
    :func:`sliding_area_normalized`, split out so callers that compare
    many frames against an unchanged series (the edge tracker between
    cloud refreshes) pay for the prefix sums exactly once.  The
    formulas are identical to the inline versions, so consumers remain
    bit-identical to the one-shot path.
    """
    data = np.asarray(series, dtype=np.float64)
    if data.ndim != 1:
        raise SignalError(f"series must be 1-D, got shape {data.shape}")
    if stride < 1:
        raise SignalError(f"stride must be >= 1, got {stride}")
    m = window_samples
    if m <= 0:
        raise SignalError(f"window length must be positive, got {m}")
    if data.size < m:
        raise SignalError(
            f"series of length {data.size} shorter than window of length {m}"
        )
    n_offsets = (data.size - m) // stride + 1
    shape = (n_offsets, m)
    strides = (data.strides[0] * stride, data.strides[0])
    windows = np.lib.stride_tricks.as_strided(data, shape=shape, strides=strides)

    prefix = np.concatenate(([0.0], np.cumsum(data)))
    prefix_sq = np.concatenate(([0.0], np.cumsum(data * data)))
    starts = np.arange(n_offsets) * stride
    sums = prefix[starts + m] - prefix[starts]
    sq_sums = prefix_sq[starts + m] - prefix_sq[starts]
    means = sums / m
    variances = np.maximum(sq_sums / m - means**2, 0.0)
    rms = np.sqrt(variances)
    flat = rms < NORM_EPSILON
    return SlidingWindowStats(
        windows=windows, means=means, rms=rms, flat=flat, stride=stride
    )


def normalized_sliding_windows(
    stats: SlidingWindowStats, reference_rms: float
) -> np.ndarray:
    """Materialise every window rescaled to zero mean and ``reference_rms``.

    Flat (zero-variance) windows are centred and scaled by
    ``reference_rms`` itself, exactly as the one-shot path computes
    them before overriding their area with the worst case; consumers
    must still apply that override using ``stats.flat``.
    """
    if reference_rms <= 0:
        raise SignalError(f"reference RMS must be positive, got {reference_rms}")
    safe_rms = np.where(stats.flat, 1.0, stats.rms)
    scale = reference_rms / safe_rms
    return (stats.windows - stats.means[:, None]) * scale[:, None]


def normalized_query(window: np.ndarray, reference_rms: float) -> np.ndarray:
    """The query half of :func:`sliding_area_normalized`'s rescaling.

    Centres the frame and rescales it to ``reference_rms`` (a frame
    with numerically zero variance is only centred, matching the
    inline path).
    """
    win = np.asarray(window, dtype=np.float64)
    if win.ndim != 1:
        raise SignalError(f"query window must be 1-D, got shape {win.shape}")
    if win.size == 0:
        raise SignalError("window must not be empty")
    if reference_rms <= 0:
        raise SignalError(f"reference RMS must be positive, got {reference_rms}")
    centered = win - win.mean()
    win_rms = float(np.sqrt(np.mean(centered**2)))
    return centered * (reference_rms / win_rms) if win_rms > NORM_EPSILON else centered


def sliding_area(
    window: np.ndarray, series: np.ndarray, stride: int = 1
) -> np.ndarray:
    """Area between curves of ``window`` against offsets of ``series``.

    Evaluates offsets ``0, stride, 2·stride, …`` (O(n·m / stride));
    entry ``k`` corresponds to offset ``k · stride``.  Used by the edge
    tracker (Algorithm 2) and the Fig. 8 experiments.
    """
    win = np.asarray(window, dtype=np.float64)
    data = np.asarray(series, dtype=np.float64)
    if win.ndim != 1 or data.ndim != 1:
        raise SignalError("sliding area inputs must be 1-D")
    if stride < 1:
        raise SignalError(f"stride must be >= 1, got {stride}")
    m = win.size
    if m == 0:
        raise SignalError("window must not be empty")
    if data.size < m:
        raise SignalError(
            f"series of length {data.size} shorter than window of length {m}"
        )
    n_offsets = (data.size - m) // stride + 1
    # Build a strided view of the evaluated windows, reduce along axis 1.
    shape = (n_offsets, m)
    strides = (data.strides[0] * stride, data.strides[0])
    windows = np.lib.stride_tricks.as_strided(data, shape=shape, strides=strides)
    return np.abs(windows - win).sum(axis=1)


def sliding_area_normalized(
    window: np.ndarray,
    series: np.ndarray,
    reference_rms: float,
    stride: int = 1,
) -> np.ndarray:
    """Shape-comparing sliding area: windows normalised per offset.

    Both the query ``window`` and every evaluated window of ``series``
    are rescaled to zero mean and ``reference_rms`` before the Eq. 3
    area is taken, so the test compares *shape* like the cloud's
    normalised correlation does — the property behind the paper's
    δ_A ≈ 900 ↔ δ = 0.8 equivalence (Fig. 8a).  A slice window with
    (numerically) zero variance has no shape; its area is reported as
    the worst case Σ|query| so it never survives a sensible threshold.
    """
    win = np.asarray(window, dtype=np.float64)
    data = np.asarray(series, dtype=np.float64)
    if win.ndim != 1 or data.ndim != 1:
        raise SignalError("sliding area inputs must be 1-D")
    if stride < 1:
        raise SignalError(f"stride must be >= 1, got {stride}")
    if reference_rms <= 0:
        raise SignalError(f"reference RMS must be positive, got {reference_rms}")
    m = win.size
    if m == 0:
        raise SignalError("window must not be empty")
    if data.size < m:
        raise SignalError(
            f"series of length {data.size} shorter than window of length {m}"
        )

    query = normalized_query(win, reference_rms)
    stats = sliding_window_stats(data, m, stride)
    areas = np.abs(normalized_sliding_windows(stats, reference_rms) - query).sum(
        axis=1
    )
    areas[stats.flat] = float(np.abs(query).sum())
    return areas
