"""The fused area-reduction kernel behind the edge's compiled step.

A fleet step's cost is one reduction: for every compiled window row
``w`` of a tracked slice compute ``Σ|w − query|`` (Eq. 3 over
normalised windows) against each query that tracks the slice, and keep
the minimum.  Expressed as separate numpy ufunc calls that is three
full passes (subtract, abs, sum) over windows far bigger than cache.

:func:`abs_diff_argmin` runs a whole step in one call.  It takes a
ragged list of groups (one :class:`~repro.edge.plane.CompiledSliceWindows`
per deduplicated compiled slice), one ``(sessions, m)`` query matrix
and each (group, query) pair's query row, and returns each pair's
``np.argmin`` offset and area after flat rows are set to that pair's
worst-case area.  No area rectangle is ever written: the compiled
kernel keeps only each pair's row bounds, in per-thread scratch.

Every area is **bit-identical** to ``np.abs(rows - q).sum(axis=1)[r]``
on every backend and at every thread count, and every argmin equals
what ``np.argmin`` picks over those areas (first index on ties, the
first NaN before anything else), with the area it reads.

Backends (selected once per process by :mod:`repro.kernels`, which
builds, caches and self-checks the one compiled library both tiers
load):

* ``"c"`` — the library's ``abs_diff_argmin``.  Its work units are up
  to :data:`~repro.kernels.TILE` pairs of one group, taken by one
  pthread team per call from an atomic counter.  A unit runs two
  passes.  The first takes every row's block-sum lower bound
  (:data:`~repro.kernels.BLOCK` samples a block) in float32, for all
  of the unit's pairs and :data:`~repro.kernels.PANEL` rows at a time.
  The second seeds each pair with the exact area of its row of least
  bound, skips every row whose bound exceeds that area by more than a
  proven rounding slack, and gives every other row its exact area in
  numpy's pairwise order, building the row from the slice's samples as
  it reads it.  A skipped row's area is strictly above the seed's, so
  skipping never changes a bit; each pair's result depends only on its
  own areas, so neither does the schedule.
* ``"numpy"`` — rebuilds each group's rows
  (:meth:`~repro.edge.plane.CompiledSliceWindows.rows`) and evaluates
  their full area rectangle with :func:`_numpy_rect_sums`, which runs
  the three ufunc passes through an L2-sized scratch block reused per
  shape and per thread, then applies the flat override and
  ``np.argmin``.  Same rows and the same pairwise sum per row, so it is
  bit-identical by construction.

``kernel_backend``, ``kernel_threads`` and ``_reset_backend_selection``
are re-exported from :mod:`repro.kernels`.
"""

from __future__ import annotations

import threading
from typing import NamedTuple, Sequence

import numpy as np

from repro.edge.plane import CompiledSliceWindows
from repro.kernels import (
    TILE,
    _reset_backend_selection,
    compiled_kernels,
    kernel_backend,
    kernel_threads,
)

__all__ = [
    "ArgminResult",
    "TILE",
    "_reset_backend_selection",
    "abs_diff_argmin",
    "kernel_backend",
    "kernel_threads",
]

#: Fallback scratch-block size: large enough to amortise per-call numpy
#: overhead, small enough to stay resident in L2 while the three ufunc
#: passes run over it.
_BLOCK_BYTES = 1 << 18

#: Per-thread scratch blocks for the numpy fallback, keyed by shape.
#: Thread-local because two trackers may step from different threads
#: (an executor worker beside the event loop) — a shared buffer would
#: race.
_scratch_local = threading.local()


def _scratch(shape: tuple[int, int]) -> np.ndarray:
    """A reusable per-thread scratch block for the numpy fallback."""
    buffers = getattr(_scratch_local, "buffers", None)
    if buffers is None:
        buffers = {}
        _scratch_local.buffers = buffers
    block = buffers.get(shape)
    if block is None:
        block = np.empty(shape)
        buffers[shape] = block
    return block


def _numpy_rect_sums(
    rows: np.ndarray, queries: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``out[q, r] = Σ|rows[r] − queries[q]|``, three ufunc passes per
    L2-sized block.

    Every cell is bit-identical to ``np.abs(rows - queries[q]).sum(axis=1)[r]``.
    The numpy fallback's per-group step; ``out`` defaults to a fresh
    ``(n_queries, n_rows)`` matrix.
    """
    n_rows, m = rows.shape
    if out is None:
        out = np.empty((queries.shape[0], n_rows))
    block = max(1, _BLOCK_BYTES // max(1, m * rows.itemsize))
    scratch = _scratch((min(block, n_rows), m))
    for index in range(queries.shape[0]):
        query = queries[index]
        for start in range(0, n_rows, block):
            chunk = rows[start : start + block]
            buffer = scratch[: chunk.shape[0]]
            np.subtract(chunk, query, out=buffer)
            np.abs(buffer, out=buffer)
            np.sum(buffer, axis=1, out=out[index, start : start + chunk.shape[0]])
    return out


class ArgminResult(NamedTuple):
    """One step's argmin: per-pair ``best`` offsets and ``area`` values,
    and how many rows were evaluated exactly (``exact_rows``)."""

    best: np.ndarray
    area: np.ndarray
    exact_rows: int


def _numpy_argmin(
    groups: Sequence[CompiledSliceWindows],
    counts: np.ndarray,
    queries: np.ndarray,
    worst: np.ndarray,
    pair_query: np.ndarray,
    best: np.ndarray,
    area: np.ndarray,
) -> int:
    """Fallback: each group's rectangle, flat override, then argmin.

    Returns the exactly evaluated rows: every non-flat row of every pair.
    """
    exact = 0
    start = 0
    for group, count in zip(groups, counts.tolist()):
        if count == 0:
            continue
        stop = start + count
        owners = pair_query[start:stop]
        areas = _numpy_rect_sums(group.rows(), queries[owners])
        flat = group.flat
        if flat.any():
            areas[:, flat] = worst[owners][:, None]
        picked = np.argmin(areas, axis=1)
        best[start:stop] = picked
        area[start:stop] = areas[np.arange(count), picked]
        exact += count * (flat.size - int(np.count_nonzero(flat)))
        start = stop
    return exact


def abs_diff_argmin(
    groups: Sequence[CompiledSliceWindows],
    pair_counts: Sequence[int],
    queries: np.ndarray,
    worst: np.ndarray,
    pair_query: np.ndarray,
    threads: int | None = None,
) -> ArgminResult:
    """Each pair's best offset and area over a ragged set of groups.

    Group ``g`` is one compiled slice, ``groups[g]``, whose rows and
    flat mask were checked when it was compiled.  It is
    evaluated for ``pair_counts[g]`` pairs; pairs are numbered
    group-major, and pair ``p`` compares against query row
    ``pair_query[p]`` (int64) of the C-contiguous float64
    ``(sessions, m)`` matrix ``queries``, whose worst-case area is
    ``worst[pair_query[p]]``.

    Returns ``(best, area, exact_rows)``: for every pair, the int64
    index and the float64 value that ``np.argmin`` picks and reads over
    ``np.abs(rows - q).sum(axis=1)`` once the flat rows are set to
    the pair's worst area — ties to the first index, NaN first — bit
    for bit the same on every backend and at every thread count; and
    the number of (pair, row) areas computed exactly, which only the
    compiled kernel's lower bound makes smaller than every non-flat
    row of every pair.  ``threads`` defaults to :func:`kernel_threads`;
    the numpy fallback ignores it.
    """
    n_groups = len(groups)
    if len(pair_counts) != n_groups:
        raise ValueError(
            f"{n_groups} window groups but {len(pair_counts)} pair counts"
        )
    if queries.ndim != 2:
        raise ValueError(f"queries must be 2-D, got shape {queries.shape}")
    sessions, m = queries.shape
    if worst.shape != (sessions,):
        raise ValueError(
            f"worst of shape {worst.shape} does not match {sessions} queries"
        )
    counts = np.asarray(pair_counts, dtype=np.intp).reshape(n_groups)
    n_pairs = int(counts.sum())
    if n_groups and int(counts.min()) < 0:
        raise ValueError("pair counts must be non-negative")
    if pair_query.shape != (n_pairs,) or pair_query.dtype != np.int64:
        raise ValueError(
            f"pair_query must be int64 of shape ({n_pairs},), got "
            f"{pair_query.dtype} {pair_query.shape}"
        )
    if n_pairs and (
        int(pair_query.min()) < 0 or int(pair_query.max()) >= sessions
    ):
        raise ValueError(f"pair_query rows must lie in [0, {sessions})")
    if any(group.width != m for group in groups):
        raise ValueError(f"a window group does not match row length {m}")
    best = np.empty(n_pairs, dtype=np.int64)
    area = np.empty(n_pairs)
    if n_pairs == 0:
        return ArgminResult(best, area, 0)
    for array in (queries, worst, pair_query):
        if not array.flags.c_contiguous:
            raise ValueError("kernel inputs must be C-contiguous")
    if queries.dtype != np.float64 or worst.dtype != np.float64:
        raise ValueError("kernel inputs must be float64")
    kernels = compiled_kernels()
    if kernels is None:
        exact = _numpy_argmin(
            groups, counts, queries, worst, pair_query, best, area
        )
    else:
        exact = kernels.argmin(
            b"".join([group.record for group in groups]),
            counts, queries, worst, pair_query, best, area,
            kernel_threads() if threads is None else threads,
        )
    return ArgminResult(best, area, exact)
