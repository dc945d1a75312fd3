"""The compiled edge tracking plane (Algorithm 2 as one batched reduction).

:class:`~repro.edge.tracker.ScalarTrackingEngine` walks the correlation
set in a Python loop and calls
:func:`~repro.signals.metrics.sliding_area_normalized` per candidate per
frame — rebuilding prefix sums, per-offset means/RMS and normalised
windows for slices that *have not changed since the cloud returned
them*.  Those statistics are frame-invariant, so the plane computes
them exactly once per :meth:`TrackingPlane.load`: every candidate's
strided slice windows are stacked into one contiguous
``(candidates, offsets, frame_samples)`` tensor (offsets padded to the
longest slice, normalised at compile time in reference-RMS mode), and a
whole tracking step becomes a single vectorised reduction
``|W_norm − query|.sum(axis=-1)`` plus mask-based pruning.  The
reduction itself runs through :func:`repro.edge._kernels.abs_diff_rect_sums`
with one query — one fused pass over the tensor instead of numpy's
three (subtract, abs, sum), which matters because the tensor is far
larger than cache.

Bit-identity: the compile step uses the same
:func:`~repro.signals.metrics.sliding_window_stats` /
:func:`~repro.signals.metrics.normalized_sliding_windows` formulas as
the scalar path, and the step kernel applies the identical
subtract → abs → pairwise-sum operation order over the same window
values (self-checked bitwise against numpy at backend selection), so
areas, best offsets, removals, ``area_evaluations`` and the anomaly
probability match the scalar engine exactly
(``tests/test_edge_plane.py`` holds the plane to that property).

Pruning never re-stacks per frame: a removal only clears the
candidate's row in the *alive* mask, and the tensor is compacted (one
gather) lazily once the live fraction drops below
:data:`COMPACT_FRACTION`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.edge._kernels import abs_diff_rect_sums, kernel_backend, kernel_threads
from repro.edge.tracker import EngineStep, TrackedSignal, TrackerConfig
from repro.signals.metrics import (
    normalized_query,
    normalized_sliding_windows,
    sliding_window_stats,
)

#: Compact the compiled tensor once fewer than this fraction of its
#: rows is still alive; until then removals only flip the alive mask.
COMPACT_FRACTION = 0.5


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

    Shared by the single-session :class:`TrackingPlane` and the
    fleet-level slice cache (:mod:`repro.edge.fleet`) so both compile
    exactly the statistics the scalar path would recompute per frame.
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


class TrackingPlane:
    """Compiled single-session tracking engine (the plane proper).

    Implements the :class:`~repro.edge.tracker.TrackingEngine` seam:
    :meth:`load` compiles the adopted correlation set,
    :meth:`step` evaluates one frame against every live candidate in a
    single reduction and prunes via the alive mask.
    """

    def __init__(self, config: TrackerConfig) -> None:
        self.config = config
        self.compiles = 0
        self.compactions = 0
        self._signals: list[TrackedSignal] = []
        self._tensor = np.zeros((0, 0, config.frame_samples))
        self._areas = np.zeros((0, 0))
        self._valid = np.zeros((0, 0), dtype=bool)
        self._flat = np.zeros((0, 0), dtype=bool)
        self._n_offsets = np.zeros(0, dtype=np.int64)
        self._short = np.zeros(0, dtype=bool)
        self._alive = np.zeros(0, dtype=bool)

    # -- introspection -------------------------------------------------

    @property
    def compiled_candidates(self) -> int:
        """Rows currently held in the compiled tensor (alive or not)."""
        return len(self._signals)

    @property
    def alive_count(self) -> int:
        return int(self._alive.sum())

    @property
    def nbytes(self) -> int:
        """Bytes of the compiled tensor, masks and area buffer."""
        return int(
            self._tensor.nbytes
            + self._areas.nbytes
            + self._valid.nbytes
            + self._flat.nbytes
        )

    @property
    def kernel(self) -> str:
        """Reduction backend in use: ``"c"`` (fused) or ``"numpy"``."""
        return kernel_backend()

    @property
    def kernel_threads(self) -> int:
        """Worker threads the step reduction fans out over (1 = serial)."""
        return kernel_threads() if kernel_backend() == "c" else 1

    # -- engine seam ---------------------------------------------------

    def load(self, signals: Sequence[TrackedSignal]) -> None:
        """Adopt and compile a fresh correlation set (once per load)."""
        self._signals = list(signals)
        self._compile()

    def _compile(self) -> None:
        m = self.config.frame_samples
        stride = self.config.offset_stride
        entries = self._signals
        with obs.trace.span("edge.plane.compile", candidates=len(entries)) as span:
            compiled: list[CompiledSliceWindows | None] = [
                compile_slice_windows(
                    signal.sig_slice.data, m, stride, self.config.reference_rms
                )
                for signal in entries
            ]
            n_offsets = np.array(
                [0 if c is None else c.n_offsets for c in compiled], dtype=np.int64
            )
            count = len(entries)
            width = int(n_offsets.max()) if count else 0
            self._tensor = np.zeros((count, width, m))
            self._valid = np.zeros((count, width), dtype=bool)
            self._flat = np.zeros((count, width), dtype=bool)
            for row, entry in enumerate(compiled):
                if entry is None:
                    continue
                k = entry.n_offsets
                self._tensor[row, :k] = entry.windows
                self._valid[row, :k] = True
                self._flat[row, :k] = entry.flat
            self._n_offsets = n_offsets
            self._short = n_offsets == 0
            self._alive = np.ones(count, dtype=bool)
            self._areas = np.empty((count, width))
            self.compiles += 1
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("edge.plane.compiles")
            registry.observe("edge.plane.compile_s", span.elapsed_s)
            registry.set_gauge("edge.plane.candidates", count)
            registry.set_gauge("edge.plane.compiled_bytes", self.nbytes)

    def step(self, data: np.ndarray) -> EngineStep:
        """Evaluate one frame against every live candidate at once."""
        if not self._signals:
            return EngineStep(survivors=[], removed=[], area_evaluations=0)
        if self.config.reference_rms is not None:
            query = normalized_query(data, self.config.reference_rms)
            worst = float(np.abs(query).sum())
        else:
            query = np.ascontiguousarray(data)
            worst = float("inf")

        evaluable = self._alive & ~self._short
        best: np.ndarray | None = None
        best_areas: np.ndarray | None = None
        if bool(evaluable.any()):
            # One fused pass over the whole compiled tensor (dead rows
            # included — compaction keeps that waste bounded), spread
            # over the kernel thread pool: each (row, query) cell is
            # independent, so the result is thread-count-invariant.
            abs_diff_rect_sums(
                self._tensor.reshape(-1, self._tensor.shape[2]),
                query.reshape(1, -1),
                out=self._areas.reshape(1, -1),
                threads=self.kernel_threads,
            )
            areas = self._areas
            areas[self._flat] = worst
            areas[~self._valid] = np.inf
            best = np.argmin(areas, axis=1)
            best_areas = areas[np.arange(areas.shape[0]), best]

        survivors: list[TrackedSignal] = []
        removed: list[TrackedSignal] = []
        evaluations = int(self._n_offsets[evaluable].sum())
        for row, signal in enumerate(self._signals):
            if not self._alive[row]:
                continue
            if self._short[row]:
                signal.last_area = float("inf")
                removed.append(signal)
                self._alive[row] = False
                continue
            assert best is not None and best_areas is not None
            signal.last_area = float(best_areas[row])
            if signal.last_area > self.config.area_threshold:
                removed.append(signal)
                self._alive[row] = False
            else:
                signal.offset = int(best[row]) * self.config.offset_stride
                survivors.append(signal)

        if removed and self.alive_count < COMPACT_FRACTION * len(self._signals):
            self._compact(survivors)
        return EngineStep(
            survivors=survivors, removed=removed, area_evaluations=evaluations
        )

    # -- lazy compaction ----------------------------------------------

    def _compact(self, survivors: list[TrackedSignal]) -> None:
        """Gather live rows into a dense tensor (no recompilation)."""
        keep = self._alive
        self._tensor = self._tensor[keep]
        self._valid = self._valid[keep]
        self._flat = self._flat[keep]
        self._n_offsets = self._n_offsets[keep]
        self._short = self._short[keep]
        self._signals = list(survivors)
        self._alive = np.ones(len(self._signals), dtype=bool)
        self._tensor = np.ascontiguousarray(self._tensor)
        self._areas = np.empty(self._tensor.shape[:2])
        self.compactions += 1
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("edge.plane.compactions")
            registry.set_gauge("edge.plane.candidates", len(self._signals))
            registry.set_gauge("edge.plane.compiled_bytes", self.nbytes)
