"""Frame-invariant compiled slice windows for the edge tracker.

The scalar reference, :class:`~repro.edge.tracker.SignalTracker`, calls
:func:`~repro.signals.metrics.sliding_area_normalized` per candidate per
frame, rebuilding prefix sums, per-offset means/RMS and normalised
windows for slices that have not changed since the cloud returned
them.  Those statistics are frame-invariant, so the production tracker
(:class:`~repro.edge.fleet.FleetTracker`, which every closed loop
tracks on) computes them once per slice with
:func:`compile_slice_windows` and shares the result across every
session tracking that slice.

Bit-identity: the compile step uses the same
:func:`~repro.signals.metrics.sliding_window_stats` statistics as the
scalar path and keeps, per offset, the mean and scale that
:func:`~repro.signals.metrics.normalized_sliding_windows` applies.  A
row is rebuilt from the slice samples with the same subtraction and
product, so a step reads the exact values the scalar reference
recomputes, without any window matrix being kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels import bound_panels, group_record, window_rows
from repro.signals.metrics import sliding_window_stats


def _frozen(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class CompiledSliceWindows:
    """One slice's comparison windows, frame-invariant and never materialised.

    Row ``r`` of the slice is ``(samples[r * stride + i] - means[r]) *
    scales[r]`` for ``i < width``: normalised to zero mean and the
    reference RMS when the tracker runs in reference-RMS mode, the raw
    strided window (means 0, scales 1) otherwise.  ``flat`` marks
    zero-variance offsets whose area must be overridden with the
    query's worst case at evaluation time (all-False in raw mode, which
    has no such override).  :meth:`rows` builds the matrix on demand.

    Construction checks the inputs once — float64 samples, means and
    scales, a bool mask, at least one row, ``width`` and ``stride`` of
    at least 1, and ``(n_rows - 1) * stride + width`` samples, exactly
    what the kernel reads — keeps read-only copies of them (the samples
    cut to that extent), and derives what the argmin kernel reads
    besides: ``blocks``, each row's block sums (the data of its lower
    bound, computed from the rows built once and then dropped), and
    ``record``, the packed pointers and shape, so a step only gathers
    records.
    """

    samples: np.ndarray
    means: np.ndarray
    scales: np.ndarray
    flat: np.ndarray
    width: int
    stride: int
    blocks: np.ndarray = field(init=False, repr=False)
    record: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        samples, means, scales, flat = self.samples, self.means, self.scales, self.flat
        if means.ndim != 1 or means.size == 0:
            raise ValueError(f"means of shape {means.shape} need at least one row")
        n_rows = means.size
        if scales.shape != (n_rows,):
            raise ValueError(f"scales of shape {scales.shape} do not match {n_rows} rows")
        if flat.shape != (n_rows,) or flat.dtype != np.bool_:
            raise ValueError(f"flat mask must be bool of shape ({n_rows},)")
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if any(array.dtype != np.float64 for array in (samples, means, scales)):
            raise ValueError("kernel inputs must be float64")
        width, stride = int(self.width), int(self.stride)
        if width < 1 or stride < 1:
            raise ValueError(f"width {width} and stride {stride} must be at least 1")
        extent = (n_rows - 1) * stride + width
        if extent > samples.size:
            raise ValueError(
                f"{n_rows} rows of {width} samples at stride {stride} read "
                f"{extent} samples, but only {samples.size} are given"
            )
        kept = {
            "samples": samples[:extent],
            "means": means,
            "scales": scales,
            "flat": flat,
        }
        for name, array in kept.items():
            object.__setattr__(self, name, _frozen(np.array(array, order="C")))
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "stride", stride)
        blocks = _frozen(bound_panels(self.rows()))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(
            self,
            "record",
            group_record(self.samples, self.means, self.scales, self.flat, blocks, stride),
        )

    @classmethod
    def from_rows(cls, rows: np.ndarray, flat: np.ndarray) -> CompiledSliceWindows:
        """A group over an arbitrary C-contiguous float64 ``(n_rows, m)``
        matrix: its rows laid end to end, stride ``m``, means 0, scales 1."""
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError(f"windows of shape {rows.shape} need at least one row")
        if rows.dtype != np.float64:
            raise ValueError("kernel inputs must be float64")
        if not rows.flags.c_contiguous:
            raise ValueError("kernel inputs must be C-contiguous")
        n_rows, m = rows.shape
        return cls(rows.reshape(-1), np.zeros(n_rows), np.ones(n_rows), flat, m, m)

    def rows(self) -> np.ndarray:
        """A fresh ``(n_offsets, width)`` matrix of the rows the kernel reads."""
        return window_rows(self.samples, self.means, self.scales, self.width, self.stride)

    @property
    def n_offsets(self) -> int:
        return int(self.means.size)

    @property
    def nbytes(self) -> int:
        return int(
            self.samples.nbytes
            + self.means.nbytes
            + self.scales.nbytes
            + self.flat.nbytes
            + self.blocks.nbytes
        )


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
    n_rows = stats.n_offsets
    if reference_rms is not None:
        # normalized_sliding_windows' scale, value for value.
        means = stats.means
        scales = reference_rms / np.where(stats.flat, 1.0, stats.rms)
        flat = stats.flat
    else:
        means = np.zeros(n_rows)
        scales = np.ones(n_rows)
        flat = np.zeros(n_rows, dtype=bool)
    return CompiledSliceWindows(
        np.asarray(data, dtype=np.float64), means, scales, flat, frame_samples, stride
    )
