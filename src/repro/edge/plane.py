"""Frame-invariant compiled slice windows for the edge tracker.

:class:`~repro.edge.tracker.ScalarTrackingEngine` calls
:func:`~repro.signals.metrics.sliding_area_normalized` per candidate per
frame, rebuilding prefix sums, per-offset means/RMS and normalised
windows for slices that have not changed since the cloud returned
them.  Those statistics are frame-invariant, so the compiled engine
(:class:`~repro.edge.fleet.FleetTracker`, which also backs
``TrackerConfig(engine="plane")``) computes them once per slice with
:func:`compile_slice_windows` and shares the result across every
session tracking that slice.

Bit-identity: the compile step uses the same
:func:`~repro.signals.metrics.sliding_window_stats` /
:func:`~repro.signals.metrics.normalized_sliding_windows` formulas as
the scalar path, so a step over the compiled windows reads the exact
values the scalar engine recomputes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.signals.metrics import normalized_sliding_windows, sliding_window_stats


@dataclass(frozen=True)
class CompiledSliceWindows:
    """One slice's comparison windows, materialised and frame-invariant.

    ``windows`` holds the per-offset comparison windows — normalised to
    zero mean and the reference RMS when the tracker runs in
    reference-RMS mode, the raw strided windows otherwise.  ``flat``
    marks zero-variance offsets whose area must be overridden with the
    query's worst case at evaluation time (all-False in raw mode,
    which has no such override).
    """

    windows: np.ndarray
    flat: np.ndarray

    @property
    def n_offsets(self) -> int:
        return int(self.windows.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self.windows.nbytes + self.flat.nbytes)


def compile_slice_windows(
    data: np.ndarray,
    frame_samples: int,
    stride: int,
    reference_rms: float | None,
) -> CompiledSliceWindows | None:
    """Compile one slice's windows; ``None`` when the slice is short.

    Called once per cached slice by :mod:`repro.edge.fleet`, so the
    compiled engine holds exactly the statistics the scalar path would
    recompute per frame.
    """
    if data.size < frame_samples:
        return None
    stats = sliding_window_stats(data, frame_samples, stride)
    if reference_rms is not None:
        windows = normalized_sliding_windows(stats, reference_rms)
        flat = stats.flat.copy()
    else:
        windows = np.ascontiguousarray(stats.windows)
        flat = np.zeros(stats.n_offsets, dtype=bool)
    return CompiledSliceWindows(windows=windows, flat=flat)
