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
reference-counted and evicted as soon as no session tracks them; each
carries an int64 *serial*, unique over the fleet's lifetime.

Each session keeps its live candidates as parallel arrays — offsets,
last areas, ω, anomalous flags, ``n_offsets`` (0 for a slice shorter
than a frame) and cache-entry serials — beside lists of their slices
and cache entries.  :meth:`FleetTracker.step` advances every session
supplied in one batched call: a few numpy passes around one kernel
call.  It concatenates the stepped sessions' serials, groups the
(session, candidate) pairs by one stable argsort of them (a group is
one deduplicated compiled slice), and runs
the whole step as a single :func:`repro.edge._kernels.abs_diff_argmin`
call, which returns every pair's best offset and area directly
(tiling a group's pairs so each window-row load serves several
queries, one thread team per call; ctypes releases the GIL, so the
step runs truly multi-core).  The commit scatters the results back to
pair order, prunes with one ``area > δ_A`` mask and takes per-session
counts from cumulative sums; only sessions that lost a candidate pay
per-candidate Python work.  Per-session outcomes — areas, offsets,
removals, ``area_evaluations``, PA — stay **bit-identical** to an
independent scalar :class:`~repro.edge.tracker.SignalTracker` stepping
the same frames (``tests/test_edge_fleet_fused.py`` and
``tests/test_edge_fleet_differential.py`` assert it).

:class:`FleetTrackingEngine` is a one-session fleet behind the
:class:`~repro.edge.tracker.TrackingEngine` seam; it is what
``TrackerConfig(engine="plane")`` builds, so a single tracker and a
fleet of thousands run the same compiled step.

Slices with an empty ``slice_id`` cannot be content-addressed and are
compiled privately per candidate (correct, just unshared — each
becomes its own single-pair group under the fused planner).

Every frame is checked (shape, finite samples, known session) by
:meth:`FleetTracker.check_frame` before any state changes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.cloud.results import SearchMatch, SearchResult
from repro.edge._kernels import (
    _numpy_rect_sums,
    abs_diff_argmin,
    kernel_backend,
    kernel_threads,
)
from repro.edge.plane import CompiledSliceWindows, compile_slice_windows
from repro.edge.tracker import (
    EngineStep,
    TrackedSignal,
    TrackerConfig,
    TrackingStep,
    checked_frame,
)
from repro.errors import TrackingError
from repro.signals.metrics import normalized_query
from repro.signals.types import SignalSlice


#: perfbench's traced run wraps this module attribute to count kernel
#: cells; the fleet step never calls it.  A re-export of the numpy
#: rectangle until the benchmark wraps :func:`abs_diff_argmin` instead.
abs_diff_rect_sums = _numpy_rect_sums


@dataclass
class _CacheEntry:
    """One compiled slice plus how many live candidates reference it."""

    key: object
    serial: int
    windows: CompiledSliceWindows | None  # None: slice shorter than a frame
    refs: int = 0


class _FleetSession:
    """One session's live candidates as parallel arrays, in tracking order.

    ``slices`` and ``entries`` are lists parallel to the arrays.  A
    step replaces ``offsets`` and ``last_areas`` wholesale (never in
    place), and a step that removes a candidate compacts every field.
    """

    __slots__ = (
        "slices",
        "entries",
        "offsets",
        "last_areas",
        "omegas",
        "anomalous",
        "n_offsets",
        "serials",
        "iteration",
    )

    def __init__(
        self,
        matches: Sequence[SearchMatch | TrackedSignal],
        entries: list[_CacheEntry],
    ) -> None:
        self.slices: list[SignalSlice] = [match.sig_slice for match in matches]
        self.entries = entries
        self.offsets = np.array(
            [match.offset for match in matches], dtype=np.int64
        )
        self.last_areas = np.full(len(entries), np.inf)
        self.omegas = np.array(
            [match.omega for match in matches], dtype=np.float64
        )
        self.anomalous = np.array(
            [s.label.is_anomalous for s in self.slices], dtype=bool
        )
        self.n_offsets = np.array(
            [0 if e.windows is None else e.windows.n_offsets for e in entries],
            dtype=np.int64,
        )
        self.serials = np.array(
            [entry.serial for entry in entries], dtype=np.int64
        )
        self.iteration = 0

    def signals(self, indices: Sequence[int] | None = None) -> list[TrackedSignal]:
        """Fresh :class:`TrackedSignal` values for candidates ``indices``
        (all of them when ``None``)."""
        if indices is None:
            indices = range(len(self.slices))
        offsets = self.offsets.tolist()
        areas = self.last_areas.tolist()
        omegas = self.omegas.tolist()
        return [
            TrackedSignal(
                sig_slice=self.slices[i],
                omega=omegas[i],
                offset=offsets[i],
                last_area=areas[i],
            )
            for i in indices
        ]


class _SessionResult(NamedTuple):
    """One session's evaluated step, before it is committed.

    ``areas``/``offsets`` hold every candidate's best area and the
    offset it would move to (``inf`` and unused for a short slice);
    ``dropped`` marks the candidates the step removes.  ``removed`` and
    ``anomalous`` count the dropped candidates and the anomalous
    survivors.
    """

    areas: np.ndarray
    offsets: np.ndarray
    dropped: np.ndarray
    evaluations: int
    removed: int
    anomalous: int


def _session_sums(values: np.ndarray, bounds: np.ndarray) -> list[int]:
    """Per-session sums of ``values`` between consecutive ``bounds``.

    Cumulative-sum differences, so an empty session sums to 0 (where
    ``np.add.reduceat`` would return the next element instead).
    """
    totals = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=totals[1:])
    sums: list[int] = (totals[bounds[1:]] - totals[bounds[:-1]]).tolist()
    return sums


class FleetTracker:
    """Steps many concurrent tracking sessions in one batched call.

    All sessions share a single :class:`~repro.edge.tracker.TrackerConfig`
    — the fleet shape assumes one deployment-wide parameterisation, which
    is also what makes compiled slices shareable (windows depend on frame
    size, stride and reference RMS).
    """

    def __init__(self, config: TrackerConfig | None = None) -> None:
        self.config = config or TrackerConfig()
        self._sessions: dict[str, _FleetSession] = {}
        self._cache: dict[object, _CacheEntry] = {}
        self._serials = itertools.count()
        self.cache_hits = 0
        self.cache_misses = 0
        # Introspection for benchmarks / `emap obs`: shape of the last
        # fused plan (0s until a step has run).
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
        """The session's live candidates, in tracking order.

        Built fresh from the session's arrays on every call: mutating a
        returned signal does not touch fleet state.
        """
        return tuple(self._session(session_id).signals())

    def anomaly_probability(self, session_id: str) -> float:
        """Eq. 5 PA for one session (0 when nothing is tracked)."""
        session = self._session(session_id)
        tracked = len(session.slices)
        if not tracked:
            return 0.0
        return int(np.count_nonzero(session.anomalous)) / tracked

    def _session(self, session_id: str) -> _FleetSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise TrackingError(f"unknown fleet session {session_id!r}") from None

    # -- session lifecycle ---------------------------------------------

    def open_session(
        self,
        session_id: str,
        matches: Sequence[SearchMatch | TrackedSignal] | SearchResult,
    ) -> None:
        """Adopt a correlation set for ``session_id`` (replacing any).

        ``matches`` are the cloud's matches, or tracked signals whose
        slices, ω and offsets the session takes over.

        Reopening an existing session id is the fleet equivalent of
        :meth:`SignalTracker.load`: the old set's references are
        released and the iteration counter restarts.  The new set is
        acquired *before* the old one is released — a drop-then-re-add
        whose slice ids overlap the old set keeps those entries warm
        instead of evicting and immediately recompiling them.
        """
        entries_in: Sequence[SearchMatch | TrackedSignal] = (
            matches.matches if isinstance(matches, SearchResult) else list(matches)
        )
        entries: list[_CacheEntry] = []
        try:
            for match in entries_in:
                entries.append(self._acquire(match))
            session = _FleetSession(entries_in, entries)
        except Exception:
            for entry in entries:
                self._release(entry)
            raise
        if session_id in self._sessions:
            self.close_session(session_id)
        self._sessions[session_id] = session
        self._publish_gauges()

    def close_session(self, session_id: str) -> None:
        """Drop a session and release its compiled-slice references."""
        session = self._session(session_id)
        for entry in session.entries:
            self._release(entry)
        del self._sessions[session_id]
        self._publish_gauges()

    def _acquire(self, match: SearchMatch | TrackedSignal) -> _CacheEntry:
        sig_slice = match.sig_slice
        key: object = sig_slice.slice_id if sig_slice.slice_id else object()
        entry = self._cache.get(key)
        if entry is None:
            entry = _CacheEntry(
                key=key,
                serial=next(self._serials),
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
        with obs.trace.span("edge.fleet.step", sessions=len(queries)) as span:
            steps = self._step_fused(queries)
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

    def _prepare_query(self, data: np.ndarray) -> tuple[np.ndarray, float]:
        """Normalise one frame and compute its worst-case (flat) area."""
        if self.config.reference_rms is not None:
            query = normalized_query(data, self.config.reference_rms)
            return query, float(np.abs(query).sum())
        return np.ascontiguousarray(data), float("inf")

    # -- fused slice-major stepping ------------------------------------

    def _step_fused(
        self, queries: Mapping[str, np.ndarray]
    ) -> dict[str, TrackingStep]:
        """Slice-major megabatch step: plan → one kernel call → commit.

        Planning normalises every session's frame once into one
        ``(sessions, m)`` query matrix, concatenates the stepped
        sessions' candidates into one pair axis (session-major, in
        submission order) and groups the evaluable pairs by one stable
        argsort of their cache-entry serials, so two sessions tracking
        the same MDB slice land in the same group.  Evaluation is a
        single :func:`abs_diff_argmin` call over all groups.  All state
        mutation is deferred to the commit phase, so a slice evicted by
        this step can never invalidate a tensor the kernel still has to
        read.  The commit works on whole-step arrays and hands each
        session its share to :meth:`_commit_session`, in submission
        order.
        """
        started = time.perf_counter()
        sessions = [self._sessions[session_id] for session_id in queries]
        # -- plan ------------------------------------------------------
        prepared = [self._prepare_query(data) for data in queries.values()]
        if prepared:
            matrix = np.stack([query for query, _ in prepared])
        else:
            matrix = np.empty((0, self.config.frame_samples))
        worst = np.array([bound for _, bound in prepared], dtype=np.float64)
        bounds = np.zeros(len(sessions) + 1, dtype=np.int64)
        np.cumsum([len(s.entries) for s in sessions], out=bounds[1:])
        edges = bounds.tolist()
        if sessions:
            serials = np.concatenate([s.serials for s in sessions])
            n_offsets = np.concatenate([s.n_offsets for s in sessions])
            anomalous = np.concatenate([s.anomalous for s in sessions])
        else:
            serials = n_offsets = np.zeros(0, dtype=np.int64)
            anomalous = np.zeros(0, dtype=bool)
        pair_row = np.repeat(
            np.arange(len(sessions), dtype=np.int64), np.diff(bounds)
        )
        evaluable = np.flatnonzero(n_offsets)
        # Group-major pair order: pairs of one cache entry are adjacent,
        # and stay in pair order within their group.
        ranked = evaluable[np.argsort(serials[evaluable], kind="stable")]
        grouped = serials[ranked]
        starts = np.flatnonzero(np.diff(grouped, prepend=-1))
        counts = np.diff(starts, append=ranked.size)
        leaders = ranked[starts]
        plan: list[CompiledSliceWindows] = []
        for row, pair in zip(pair_row[leaders].tolist(), leaders.tolist()):
            compiled = sessions[row].entries[pair - edges[row]].windows
            assert compiled is not None  # evaluable pairs are compiled
            plan.append(compiled)

        # -- fused evaluate: one kernel call ---------------------------
        threads = kernel_threads() if kernel_backend() == "c" else 1
        best, best_areas = abs_diff_argmin(
            [compiled.windows for compiled in plan],
            [compiled.flat for compiled in plan],
            counts,
            matrix,
            worst,
            pair_row[ranked],
            threads=threads,
        )

        # -- commit: back to pair order, then per session --------------
        areas = np.full(serials.size, np.inf)
        areas[ranked] = best_areas
        offsets = np.zeros(serials.size, dtype=np.int64)
        offsets[ranked] = best * self.config.offset_stride
        # A step removes short slices and areas above δ_A.
        dropped = (n_offsets == 0) | (areas > self.config.area_threshold)
        evaluations = _session_sums(n_offsets, bounds)
        removed = _session_sums(dropped, bounds)
        kept_anomalous = _session_sums(anomalous & ~dropped, bounds)
        steps = {
            session_id: self._commit_session(
                session_id,
                _SessionResult(
                    areas=areas[edges[row] : edges[row + 1]],
                    offsets=offsets[edges[row] : edges[row + 1]],
                    dropped=dropped[edges[row] : edges[row + 1]],
                    evaluations=evaluations[row],
                    removed=removed[row],
                    anomalous=kept_anomalous[row],
                ),
            )
            for row, session_id in enumerate(queries)
        }

        self.last_fused_groups = len(plan)
        self.last_fused_pairs = int(ranked.size)
        self.last_fused_max_group = int(counts.max()) if counts.size else 0
        self.last_fused_step_s = time.perf_counter() - started
        registry = obs.metrics()
        if registry.enabled:
            registry.observe("edge.fleet.fused_step_s", self.last_fused_step_s)
            registry.observe("edge.fleet.fused_groups", len(plan))
            for count in counts.tolist():
                registry.observe("edge.fleet.fused_queries_per_group", count)
            registry.set_gauge("edge.fleet.fused_kernel_threads", threads)
        return steps

    def _commit_session(
        self, session_id: str, result: _SessionResult
    ) -> TrackingStep:
        """Apply one session's evaluated step.

        A session that keeps every candidate only swaps in its new
        offsets and areas.  One that loses candidates also compacts its
        arrays and lists, and commits the survivors before it releases
        the dropped entries, so it never holds entries it no longer
        owns, even if a release faults.
        """
        session = self._sessions[session_id]
        session.iteration += 1
        tracked_before = len(session.entries)
        removed_signals: list[TrackedSignal] = []
        if result.removed:
            keep = ~result.dropped
            gone = np.flatnonzero(result.dropped).tolist()
            kept = np.flatnonzero(keep).tolist()
            # Removed signals keep their old offset and report the area
            # that removed them.
            session.last_areas = result.areas
            removed_signals = session.signals(gone)
            to_release = [session.entries[i] for i in gone]
            session.slices = [session.slices[i] for i in kept]
            session.entries = [session.entries[i] for i in kept]
            session.offsets = result.offsets[keep]
            session.last_areas = result.areas[keep]
            session.omegas = session.omegas[keep]
            session.anomalous = session.anomalous[keep]
            session.n_offsets = session.n_offsets[keep]
            session.serials = session.serials[keep]
            for entry in to_release:
                self._release(entry)
        else:
            session.offsets = result.offsets
            session.last_areas = result.areas
        tracked = tracked_before - result.removed
        return TrackingStep(
            iteration=session.iteration,
            tracked_before=tracked_before,
            removed=result.removed,
            area_evaluations=result.evaluations,
            anomaly_probability=result.anomalous / tracked if tracked else 0.0,
            removed_signals=removed_signals,
        )

    def _publish_gauges(self) -> None:
        registry = obs.metrics()
        if not registry.enabled:
            return
        registry.set_gauge("edge.fleet.sessions", len(self._sessions))
        registry.set_gauge("edge.fleet.unique_slices", self.unique_slices)
        registry.set_gauge("edge.fleet.tracked_references", self.tracked_references)
        registry.set_gauge("edge.fleet.compiled_bytes", self.compiled_bytes)


#: The one session id a :class:`FleetTrackingEngine` keeps open.
_ENGINE_SESSION = "plane"


class FleetTrackingEngine:
    """``TrackerConfig(engine="plane")``: a one-session :class:`FleetTracker`.

    Implements the :class:`~repro.edge.tracker.TrackingEngine` seam on
    the fleet's compiled step.  :meth:`load` reopens the session, which
    keeps the compiled entries of every slice the new set shares with
    the old one; :meth:`step` reports the session's survivors and
    removals as fresh :class:`TrackedSignal` values.
    """

    def __init__(self, config: TrackerConfig) -> None:
        self.fleet = FleetTracker(config)
        self.fleet.open_session(_ENGINE_SESSION, [])

    def load(self, signals: Sequence[TrackedSignal]) -> None:
        self.fleet.open_session(_ENGINE_SESSION, signals)

    def step(self, data: np.ndarray) -> EngineStep:
        step = self.fleet.step({_ENGINE_SESSION: data})[_ENGINE_SESSION]
        return EngineStep(
            survivors=list(self.fleet.tracked(_ENGINE_SESSION)),
            removed=step.removed_signals,
            area_evaluations=step.area_evaluations,
        )
