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
:func:`~repro.signals.metrics.sliding_window_stats` /
:func:`~repro.signals.metrics.normalized_sliding_windows` formulas as
the scalar path, so a step over the compiled windows reads the exact
values the scalar reference recomputes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels import block_sums, group_record
from repro.signals.metrics import normalized_sliding_windows, sliding_window_stats


def _frozen(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class CompiledSliceWindows:
    """One slice's comparison windows, materialised and frame-invariant.

    ``windows`` holds the per-offset comparison windows — normalised to
    zero mean and the reference RMS when the tracker runs in
    reference-RMS mode, the raw strided windows otherwise.  ``flat``
    marks zero-variance offsets whose area must be overridden with the
    query's worst case at evaluation time (all-False in raw mode,
    which has no such override).

    Construction checks the arrays once — a C-contiguous float64
    ``(n_rows, m)`` matrix with ``n_rows >= 1`` and a ``(n_rows,)``
    bool mask — keeps read-only views of them, and derives what the
    argmin kernel reads besides: ``blocks``, each row's block sums (the
    data of its lower bound), and ``record``, the packed pointers and
    shape, so a step only gathers records.
    """

    windows: np.ndarray
    flat: np.ndarray
    blocks: np.ndarray = field(init=False, repr=False)
    record: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        windows, flat = self.windows, self.flat
        if windows.ndim != 2 or windows.shape[0] == 0:
            raise ValueError(
                f"windows of shape {windows.shape} need at least one row"
            )
        if flat.shape != (windows.shape[0],) or flat.dtype != np.bool_:
            raise ValueError(
                f"flat mask must be bool of shape ({windows.shape[0]},)"
            )
        if windows.dtype != np.float64:
            raise ValueError("kernel inputs must be float64")
        if not (windows.flags.c_contiguous and flat.flags.c_contiguous):
            raise ValueError("kernel inputs must be C-contiguous")
        windows, flat = _frozen(windows), _frozen(flat)
        blocks = _frozen(block_sums(windows))
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "record", group_record(windows, flat, blocks))

    @property
    def n_offsets(self) -> int:
        return int(self.windows.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self.windows.nbytes + self.flat.nbytes + self.blocks.nbytes)


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
