"""Prefix-sum windowed statistics over signal slices.

The sliding-window search (Algorithm 1) needs the mean and centred norm
of arbitrary windows of each 1000-sample MDB slice.  Recomputing them
per offset would cost O(m) each; :class:`WindowedStats` precomputes two
prefix-sum arrays per slice so any window's sums come out in O(1), and
:func:`centered_window_norms` derives every window's centred norm in
one vectorised pass.  That one function is the norm of both the scalar
reference and the compiled search plane, so the two read the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SignalError
from repro.signals.metrics import NORM_EPSILON

#: A window whose prefix-sum variance ``Σx² − (Σx)²/m`` is below this
#: share of the running ``Σx²`` at its end has lost most of its digits
#: to cancellation (a quiet window after a loud stretch, or a large DC
#: offset); it is recomputed two-pass.  The prefix error is at most
#: about ``N·ε`` of that running sum, so a kept window's variance is
#: accurate to about ``N·ε / 1e-6`` relative (2e-7 for the 1000-sample
#: MDB slices).
_CANCELLATION_SHARE = 1e-6

_EPSILON = float(np.finfo(np.float64).eps)


def centered_window_norms(series: np.ndarray, length: int) -> np.ndarray:
    """The L2 norm of every mean-subtracted ``length``-window of ``series``.

    Entry ``k`` covers ``series[k : k + length]``; a series shorter than
    the window has no entries.  Computed as ``sqrt(Σx² − (Σx)²/m)`` from
    prefix sums, tiny negatives clamped to zero, except where that
    difference cancels (see :data:`_CANCELLATION_SHARE`): those windows
    are centred and summed directly, and a window whose centred values
    are only its mean's rounding error has norm 0.
    """
    n_windows = series.size - length + 1
    if n_windows <= 0:
        return np.zeros(0)
    prefix = np.concatenate(([0.0], np.cumsum(series)))
    prefix_sq = np.concatenate(([0.0], np.cumsum(series * series)))
    sums = prefix[length:] - prefix[:-length]
    centered_sq = prefix_sq[length:] - prefix_sq[:-length]
    centered_sq -= sums * sums / length
    lossy = np.flatnonzero(centered_sq < _CANCELLATION_SHARE * prefix_sq[length:])
    if lossy.size:
        windows = np.lib.stride_tricks.sliding_window_view(series, length)[lossy]
        means = windows.mean(axis=1)
        windows = windows - means[:, None]
        direct = (windows * windows).sum(axis=1)
        # A constant window centres to the rounding error of its mean,
        # at most about m·ε·|mean| per sample: below that it is flat.
        direct[direct <= length * (length * _EPSILON * means) ** 2] = 0.0
        centered_sq[lossy] = direct
    return np.sqrt(np.maximum(centered_sq, 0.0))


class WindowedStats:
    """O(1) mean / centred-norm queries over windows of a 1-D series."""

    def __init__(self, data: np.ndarray) -> None:
        series = np.asarray(data, dtype=np.float64)
        if series.ndim != 1:
            raise SignalError(f"series must be 1-D, got shape {series.shape}")
        if series.size == 0:
            raise SignalError("series must not be empty")
        self._data = series
        self._prefix = np.concatenate(([0.0], np.cumsum(series)))
        self._prefix_sq = np.concatenate(([0.0], np.cumsum(series * series)))
        self._norms: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self._data.size

    @property
    def data(self) -> np.ndarray:
        """The underlying series (read-only view)."""
        view = self._data.view()
        view.flags.writeable = False
        return view

    def _check_window(self, offset: int, length: int) -> None:
        if length <= 0:
            raise SignalError(f"window length must be positive, got {length}")
        if offset < 0 or offset + length > self._data.size:
            raise SignalError(
                f"window [{offset}, {offset + length}) outside series of "
                f"length {self._data.size}"
            )

    def window_sum(self, offset: int, length: int) -> float:
        """Σ data[offset : offset+length]."""
        self._check_window(offset, length)
        return float(self._prefix[offset + length] - self._prefix[offset])

    def window_mean(self, offset: int, length: int) -> float:
        """Mean of the window."""
        return self.window_sum(offset, length) / length

    def window_sq_sum(self, offset: int, length: int) -> float:
        """Σ data² over the window."""
        self._check_window(offset, length)
        return float(self._prefix_sq[offset + length] - self._prefix_sq[offset])

    def centered_norm(self, offset: int, length: int) -> float:
        """L2 norm of the mean-subtracted window.

        Read from :func:`centered_window_norms` of the whole series,
        computed once per window length.
        """
        self._check_window(offset, length)
        norms = self._norms.get(length)
        if norms is None:
            norms = self._norms[length] = centered_window_norms(self._data, length)
        return float(norms[offset])

    def is_flat(self, offset: int, length: int) -> bool:
        """Whether the window has (numerically) zero variance."""
        return self.centered_norm(offset, length) < NORM_EPSILON

    def normalized_correlation_with(
        self,
        window_centered: np.ndarray,
        window_norm: float,
        offset: int,
    ) -> float:
        """Normalised correlation against a precentred query window.

        ``window_centered`` must already be mean-subtracted and
        ``window_norm`` its L2 norm; this is the hot inner loop of
        Algorithm 1, so the query-side statistics are computed once by
        the caller.
        """
        length = window_centered.size
        self._check_window(offset, length)
        slice_norm = self.centered_norm(offset, length)
        # Flatness gates on the *product* of the norms — the same
        # criterion as normalized_cross_correlation and the compiled
        # search plane, so all three paths agree on near-flat windows.
        denominator = window_norm * slice_norm
        if denominator < NORM_EPSILON:
            return 0.0
        segment = self._data[offset : offset + length]
        # Window mean cancels against Σ window_centered = 0.  numpy's
        # pairwise sum, not BLAS ``np.dot``: its summation order is the
        # one the compiled cloud walk replays bit for bit.
        dot = float(np.multiply(window_centered, segment).sum())
        value = dot / denominator
        return min(1.0, max(-1.0, value))
