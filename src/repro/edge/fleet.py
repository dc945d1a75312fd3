"""Fleet-scale edge tracking: many sessions, shared compiled slices.

A deployment tracking thousands of concurrent patients does not get
thousands of independent correlation sets: the cloud hands every
session matches drawn from the *same* mega-database, so the expensive
frame-invariant compile work (strided windows, per-offset means/RMS,
normalisation — see :mod:`repro.edge.plane`) is massively duplicated
across sessions.  :class:`FleetTracker` hosts the sessions behind one
object and deduplicates that work content-addressed by slice id: the
first session to adopt an MDB slice compiles it via
:func:`~repro.edge.plane.compile_slice_windows`; every other session
tracking the same slice shares the compiled tensor.  Entries are
reference-counted and evicted as soon as no session tracks them.

:meth:`FleetTracker.step` advances every session supplied in one
batched call.  The default **fused** path is *slice-major*: a step
planner normalises every session's frame once into one
``(sessions, m)`` query matrix and groups every (session, candidate)
pair by its deduplicated compiled slice (the content-addressed cache
entry already identifies sharing); each group records only its pairs'
query rows.  The whole step is then a single
:func:`repro.edge._kernels.abs_diff_argmin` call over all groups: the
kernel returns every pair's best offset and area directly, tiling a
group's pairs so each window-row load serves several queries and
running one thread team per call (ctypes releases the GIL, so the
step runs truly multi-core).  Results are committed back per session
in submission order, so per-session outcomes — areas, offsets, removals,
``area_evaluations``, PA — stay **bit-identical** both to the
sequential session-major path (``fused=False``) and to an independent
:class:`~repro.edge.tracker.SignalTracker` stepping the same frames
(``tests/test_edge_plane.py`` asserts it).

Slices with an empty ``slice_id`` cannot be content-addressed and are
compiled privately per candidate (correct, just unshared — each
becomes its own single-pair group under the fused planner).

Every frame is checked (shape, finite samples, known session) by
:meth:`FleetTracker.check_frame` before any state changes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.cloud.results import SearchMatch, SearchResult
from repro.edge._kernels import (
    abs_diff_argmin,
    abs_diff_rect_sums,
    kernel_backend,
    kernel_threads,
)
from repro.edge.plane import CompiledSliceWindows, compile_slice_windows
from repro.edge.tracker import (
    TrackedSignal,
    TrackerConfig,
    TrackingStep,
    checked_frame,
)
from repro.errors import TrackingError
from repro.signals.metrics import normalized_query


@dataclass
class _CacheEntry:
    """One compiled slice plus how many live candidates reference it."""

    key: object
    windows: CompiledSliceWindows | None  # None: slice shorter than a frame
    refs: int = 0


@dataclass
class _FleetSession:
    """Per-session tracking state (mirrors ``SignalTracker``'s)."""

    signals: list[TrackedSignal]
    entries: list[_CacheEntry]  # parallel to ``signals``
    iteration: int = 0


@dataclass
class _SliceGroup:
    """One unique compiled slice's share of a fused step.

    ``rows`` holds, in plan order, the query-matrix row (the session's
    index in the step) of every (session, candidate) pair that tracks
    this slice this step.  After evaluation ``best``/``best_areas`` hold
    each pair's argmin offset index and its area as plain Python
    ints/floats — one bulk ``tolist`` beats 10k per-pair numpy-scalar
    conversions in the commit loop, with identical values.
    """

    windows: CompiledSliceWindows
    rows: list[int] = field(default_factory=list)
    best: list[int] | None = None
    best_areas: list[float] | None = None


class FleetTracker:
    """Steps many concurrent tracking sessions in one batched call.

    All sessions share a single :class:`~repro.edge.tracker.TrackerConfig`
    — the fleet shape assumes one deployment-wide parameterisation, which
    is also what makes compiled slices shareable (windows depend on frame
    size, stride and reference RMS).
    """

    def __init__(
        self, config: TrackerConfig | None = None, *, fused: bool = True
    ) -> None:
        self.config = config or TrackerConfig()
        self.fused = fused
        self._sessions: dict[str, _FleetSession] = {}
        self._cache: dict[object, _CacheEntry] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        # Introspection for benchmarks / `emap obs`: shape of the last
        # fused plan (0s until a fused step has run).
        self.last_fused_groups = 0
        self.last_fused_pairs = 0
        self.last_fused_max_group = 0
        self.last_fused_step_s = 0.0

    # -- introspection -------------------------------------------------

    @property
    def session_ids(self) -> tuple[str, ...]:
        return tuple(self._sessions)

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    @property
    def unique_slices(self) -> int:
        """Distinct compiled slices currently cached."""
        return len(self._cache)

    @property
    def tracked_references(self) -> int:
        """Live candidate → compiled-slice references across sessions."""
        return sum(entry.refs for entry in self._cache.values())

    @property
    def compiled_bytes(self) -> int:
        """Bytes of compiled windows held (shared entries counted once)."""
        return sum(
            entry.windows.nbytes
            for entry in self._cache.values()
            if entry.windows is not None
        )

    @property
    def dedup_ratio(self) -> float:
        """References per unique slice (1.0 = no cross-session sharing)."""
        if not self._cache:
            return 1.0
        return self.tracked_references / len(self._cache)

    def tracked(self, session_id: str) -> tuple[TrackedSignal, ...]:
        """The session's live candidates, in tracking order."""
        return tuple(self._session(session_id).signals)

    def anomaly_probability(self, session_id: str) -> float:
        """Eq. 5 PA for one session (0 when nothing is tracked)."""
        signals = self._session(session_id).signals
        if not signals:
            return 0.0
        return sum(1 for s in signals if s.anomalous) / len(signals)

    def _session(self, session_id: str) -> _FleetSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise TrackingError(f"unknown fleet session {session_id!r}") from None

    # -- session lifecycle ---------------------------------------------

    def open_session(
        self, session_id: str, matches: Sequence[SearchMatch] | SearchResult
    ) -> None:
        """Adopt a correlation set for ``session_id`` (replacing any).

        Reopening an existing session id is the fleet equivalent of
        :meth:`SignalTracker.load`: the old set's references are
        released and the iteration counter restarts.  The new set is
        acquired *before* the old one is released — a drop-then-re-add
        whose slice ids overlap the old set keeps those entries warm
        instead of evicting and immediately recompiling them.
        """
        entries_in = (
            matches.matches if isinstance(matches, SearchResult) else list(matches)
        )
        signals: list[TrackedSignal] = []
        entries: list[_CacheEntry] = []
        try:
            for match in entries_in:
                signals.append(
                    TrackedSignal(
                        sig_slice=match.sig_slice,
                        omega=match.omega,
                        offset=match.offset,
                    )
                )
                entries.append(self._acquire(match))
        except Exception:
            for entry in entries:
                self._release(entry)
            raise
        if session_id in self._sessions:
            self.close_session(session_id)
        self._sessions[session_id] = _FleetSession(signals=signals, entries=entries)
        self._publish_gauges()

    def close_session(self, session_id: str) -> None:
        """Drop a session and release its compiled-slice references."""
        session = self._session(session_id)
        for entry in session.entries:
            self._release(entry)
        del self._sessions[session_id]
        self._publish_gauges()

    def _acquire(self, match: SearchMatch) -> _CacheEntry:
        sig_slice = match.sig_slice
        key: object = sig_slice.slice_id if sig_slice.slice_id else object()
        entry = self._cache.get(key)
        if entry is None:
            entry = _CacheEntry(
                key=key,
                windows=compile_slice_windows(
                    sig_slice.data,
                    self.config.frame_samples,
                    self.config.offset_stride,
                    self.config.reference_rms,
                ),
            )
            self._cache[key] = entry
            self.cache_misses += 1
            obs.metrics().inc("edge.fleet.cache_misses")
        else:
            self.cache_hits += 1
            obs.metrics().inc("edge.fleet.cache_hits")
        entry.refs += 1
        return entry

    def _release(self, entry: _CacheEntry) -> None:
        if entry.refs <= 0:
            # Already fully released (e.g. a stale handle released
            # twice on a churn path) — decrementing again would
            # underflow and evict an entry a re-registered session
            # still references.
            return
        entry.refs -= 1
        if entry.refs == 0 and self._cache.get(entry.key) is entry:
            # The identity check guards the re-registration race: if a
            # re-add already replaced this key with a fresh entry, the
            # stale handle must not evict the live one.
            del self._cache[entry.key]

    # -- batched stepping ----------------------------------------------

    def check_frame(self, session_id: str, frame: np.ndarray) -> np.ndarray:
        """``frame`` as a float64 vector if ``session_id`` can step on it.

        Raises :class:`TrackingError` for an unknown session or a frame
        :func:`~repro.edge.tracker.checked_frame` rejects (wrong shape,
        non-finite samples).  Touches no state.
        """
        self._session(session_id)
        return checked_frame(frame, self.config.frame_samples, session_id)

    def step(self, frames: Mapping[str, np.ndarray]) -> dict[str, TrackingStep]:
        """Advance every supplied session by one frame, in one call.

        ``frames`` maps session id → that session's next input frame;
        sessions not present simply do not advance this round (their
        amplifier delivered no complete frame yet).
        """
        # Validate every frame before mutating any state.
        queries = {
            session_id: self.check_frame(session_id, frame)
            for session_id, frame in frames.items()
        }
        steps: dict[str, TrackingStep] = {}
        with obs.trace.span("edge.fleet.step", sessions=len(queries)) as span:
            if self.fused:
                steps = self._step_fused(queries)
            else:
                for session_id, data in queries.items():
                    steps[session_id] = self._step_session(session_id, data)
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("edge.fleet.steps")
            registry.observe("edge.fleet.step_s", span.elapsed_s)
            registry.inc(
                "edge.fleet.area_evaluations",
                sum(step.area_evaluations for step in steps.values()),
            )
            self._publish_gauges()
        return steps

    def _step_session(self, session_id: str, data: np.ndarray) -> TrackingStep:
        session = self._sessions[session_id]
        session.iteration += 1
        tracked_before = len(session.signals)
        if self.config.reference_rms is not None:
            query = normalized_query(data, self.config.reference_rms)
            worst = float(np.abs(query).sum())
        else:
            query = np.ascontiguousarray(data)
            worst = float("inf")

        survivors: list[TrackedSignal] = []
        surviving_entries: list[_CacheEntry] = []
        removed: list[TrackedSignal] = []
        to_release: list[_CacheEntry] = []
        evaluations = 0
        for signal, entry in zip(session.signals, session.entries):
            compiled = entry.windows
            if compiled is None:
                # Slice too short for even one comparison window.
                signal.last_area = float("inf")
                removed.append(signal)
                to_release.append(entry)
                continue
            areas = abs_diff_rect_sums(compiled.windows, query[None])[0]
            areas[compiled.flat] = worst
            evaluations += areas.size
            best = int(np.argmin(areas))
            signal.last_area = float(areas[best])
            if signal.last_area > self.config.area_threshold:
                removed.append(signal)
                to_release.append(entry)
            else:
                signal.offset = best * self.config.offset_stride
                survivors.append(signal)
                surviving_entries.append(entry)
        # Commit the survivor set before releasing: the session never
        # holds entries it no longer owns, even if a release faults.
        session.signals = survivors
        session.entries = surviving_entries
        for entry in to_release:
            self._release(entry)
        return TrackingStep(
            iteration=session.iteration,
            tracked_before=tracked_before,
            removed=len(removed),
            area_evaluations=evaluations,
            anomaly_probability=self.anomaly_probability(session_id),
            removed_signals=removed,
        )

    # -- fused slice-major stepping ------------------------------------

    def _prepare_query(self, data: np.ndarray) -> tuple[np.ndarray, float]:
        """Normalise one frame and compute its worst-case (flat) area."""
        if self.config.reference_rms is not None:
            query = normalized_query(data, self.config.reference_rms)
            return query, float(np.abs(query).sum())
        return np.ascontiguousarray(data), float("inf")

    def _step_fused(
        self, queries: Mapping[str, np.ndarray]
    ) -> dict[str, TrackingStep]:
        """Slice-major megabatch step: plan → one kernel call → commit.

        Planning normalises every session's frame once into one
        ``(sessions, m)`` query matrix, then walks sessions in
        submission order and groups every (session, candidate) pair by
        the *identity* of its shared cache entry, so two sessions
        tracking the same MDB slice land in the same group.  Evaluation
        is a single :func:`abs_diff_argmin` call over all groups, which
        returns each pair's best offset and area without materialising
        any area rectangle.  All state mutation is deferred to the
        commit phase, so a slice being evicted as a result of this step
        can never invalidate a tensor the kernel still has to read.
        Commit then replays each session in the exact order (and with
        the exact arithmetic) of :meth:`_step_session`.
        """
        started = time.perf_counter()
        # -- plan ------------------------------------------------------
        prepared = [self._prepare_query(data) for data in queries.values()]
        if prepared:
            matrix = np.stack([query for query, _ in prepared])
        else:
            matrix = np.empty((0, self.config.frame_samples))
        worst = np.array([bound for _, bound in prepared], dtype=np.float64)
        groups: dict[int, _SliceGroup] = {}
        # Per session: one slot per candidate — (group, pair index) for
        # evaluable candidates, None for slices shorter than a frame.
        slots: dict[str, list[tuple[_SliceGroup, int] | None]] = {}
        for row, session_id in enumerate(queries):
            session = self._sessions[session_id]
            rows: list[tuple[_SliceGroup, int] | None] = []
            for entry in session.entries:
                if entry.windows is None:
                    rows.append(None)
                    continue
                group = groups.get(id(entry))
                if group is None:
                    group = _SliceGroup(windows=entry.windows)
                    groups[id(entry)] = group
                group.rows.append(row)
                rows.append((group, len(group.rows) - 1))
            slots[session_id] = rows

        # -- fused evaluate: one kernel call ---------------------------
        plan = list(groups.values())
        counts = [len(group.rows) for group in plan]
        pairs = sum(counts)
        pair_query = np.fromiter(
            (row for group in plan for row in group.rows),
            dtype=np.int64,
            count=pairs,
        )
        threads = kernel_threads() if kernel_backend() == "c" else 1
        best, areas = abs_diff_argmin(
            [group.windows.windows for group in plan],
            [group.windows.flat for group in plan],
            counts,
            matrix,
            worst,
            pair_query,
            threads=threads,
        )
        best_list = best.tolist()
        area_list = areas.tolist()
        start = 0
        for group, count in zip(plan, counts):
            group.best = best_list[start : start + count]
            group.best_areas = area_list[start : start + count]
            start += count

        # -- per-session commit, in submission order -------------------
        steps = {
            session_id: self._commit_session(session_id, slots[session_id])
            for session_id in queries
        }

        self.last_fused_groups = len(plan)
        self.last_fused_pairs = pairs
        self.last_fused_max_group = max(counts, default=0)
        self.last_fused_step_s = time.perf_counter() - started
        registry = obs.metrics()
        if registry.enabled:
            registry.observe("edge.fleet.fused_step_s", self.last_fused_step_s)
            registry.observe("edge.fleet.fused_groups", len(plan))
            for count in counts:
                registry.observe("edge.fleet.fused_queries_per_group", count)
            registry.set_gauge("edge.fleet.fused_kernel_threads", threads)
        return steps

    def _commit_session(
        self,
        session_id: str,
        rows: Sequence[tuple[_SliceGroup, int] | None],
    ) -> TrackingStep:
        """Apply one session's fused results, mirroring `_step_session`."""
        session = self._sessions[session_id]
        session.iteration += 1
        tracked_before = len(session.signals)
        survivors: list[TrackedSignal] = []
        surviving_entries: list[_CacheEntry] = []
        removed: list[TrackedSignal] = []
        to_release: list[_CacheEntry] = []
        evaluations = 0
        for signal, entry, slot in zip(session.signals, session.entries, rows):
            if slot is None:
                # Slice too short for even one comparison window.
                signal.last_area = float("inf")
                removed.append(signal)
                to_release.append(entry)
                continue
            group, index = slot
            assert group.best is not None and group.best_areas is not None
            evaluations += group.windows.n_offsets
            signal.last_area = group.best_areas[index]
            if signal.last_area > self.config.area_threshold:
                removed.append(signal)
                to_release.append(entry)
            else:
                signal.offset = group.best[index] * self.config.offset_stride
                survivors.append(signal)
                surviving_entries.append(entry)
        # Commit the survivor set before releasing: the session never
        # holds entries it no longer owns, even if a release faults.
        session.signals = survivors
        session.entries = surviving_entries
        for entry in to_release:
            self._release(entry)
        # Same Eq. 5 value ``anomaly_probability(session_id)`` returns,
        # computed over the just-committed survivor list directly.
        if survivors:
            probability = sum(1 for s in survivors if s.anomalous) / len(
                survivors
            )
        else:
            probability = 0.0
        return TrackingStep(
            iteration=session.iteration,
            tracked_before=tracked_before,
            removed=len(removed),
            area_evaluations=evaluations,
            anomaly_probability=probability,
            removed_signals=removed,
        )

    def _publish_gauges(self) -> None:
        registry = obs.metrics()
        if not registry.enabled:
            return
        registry.set_gauge("edge.fleet.sessions", len(self._sessions))
        registry.set_gauge("edge.fleet.unique_slices", self.unique_slices)
        registry.set_gauge("edge.fleet.tracked_references", self.tracked_references)
        registry.set_gauge("edge.fleet.compiled_bytes", self.compiled_bytes)
