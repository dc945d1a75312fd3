"""The three workloads: what load each offers and why it exists.

Each runs in one process on one asyncio loop.  Simulated sessions and
clients are coroutines; the only threads are the program's own (the
edge-step worker and the kernel pool).  An *op* is one paced session
frame in ``monitor``, one session-frame step in ``track`` and one search
request in ``ingest``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Awaitable, Callable

import numpy as np

from repro.cloud.results import SearchResult
from repro.edge.device import CloudCallPolicy
from repro.edge.tracker import TrackingStep
from repro.errors import EMAPError
from repro.signals.types import Signal

from perfbench import inputs
from perfbench.system import BenchmarkError, Calls, require_ok

#: Tenants the simulated sessions and clients are spread over.
TENANTS = 8


@dataclass
class SessionLog:
    """What one session adopted and stepped, in the order it happened."""

    events: list[SearchResult | tuple[np.ndarray, TrackingStep]] = field(
        default_factory=list
    )

    def adopt(self, result: SearchResult) -> None:
        self.events.append(result)

    def step(self, frame: np.ndarray, step: TrackingStep) -> None:
        self.events.append((frame, step))


@dataclass
class RunStats:
    """What one measured run produced (all times in seconds)."""

    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    #: Loop time at which the measured window started.
    started: float = 0.0
    #: When each op completed, in seconds from the start of the window.
    completed: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    refreshes: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    #: Served searches as ``(frame, result)``, for the search oracle.
    searches: list[tuple[np.ndarray, SearchResult]] = field(default_factory=list)
    #: Indices into ``searches`` of the first response served from a
    #: plane holding an inserted recording: the first batch after a refresh.
    fresh: list[int] = field(default_factory=list)
    #: Logs of the sessions the tracking oracle replays.
    logs: dict[str, SessionLog] = field(default_factory=dict)


@dataclass
class Inputs:
    """Everything a workload feeds the system, made from the seed."""

    seed: int
    mdb_records: list[Signal]
    sessions: list[inputs.Session]
    inserts: list[Signal] = field(default_factory=list)

    @property
    def warm_frames(self) -> tuple[np.ndarray, np.ndarray]:
        session = self.sessions[0]
        return session.frame(0), session.frame(1)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int, int], Inputs]
    run: Callable[[Calls, Inputs, float, RunStats, set[int]], Awaitable[None]]
    #: Sessions whose tracking the oracle replays.
    oracle_sessions: int


def _tenant(index: int) -> str:
    return f"tenant-{index % TENANTS}"


async def _open_sessions(
    calls: Calls, data: Inputs, prefix: str, stats: RunStats
) -> list[SearchResult]:
    """Search each session's first frame and adopt the result, untimed."""
    outcomes = await asyncio.gather(
        *(
            calls.submit(_tenant(i), s.frame(0), 0.0, f"{prefix}{i}.0")
            for i, s in enumerate(data.sessions)
        )
    )
    results = [require_ok(outcome) for outcome in outcomes]
    await asyncio.gather(
        *(calls.adopt(f"{prefix}{i}", result) for i, result in enumerate(results))
    )
    stats.searches.extend((s.frame(0), r) for s, r in zip(data.sessions, results))
    return results


def oracle_sample(seed: int, population: int, size: int) -> set[int]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    size = min(size, population)
    return {int(i) for i in rng.choice(population, size=size, replace=False)}


# -- monitor ----------------------------------------------------------

#: Sessions in ``monitor``.  Each frame costs the edge worker about
#: 20 ms on a two-vCPU host, and beyond a handful of sessions the open
#: loop queues, so a host slowdown becomes a several-fold latency swing.
#: Even at six sessions frame p50 ranged 16-58 ms over ten seeds on a
#: shared two-vCPU host, so ``monitor`` runs on request but is not
#: declared in BENCHMARK.json.
MONITOR_SESSIONS = 6
#: Real seconds between a session's frames: the paper's frame period.
FRAME_PERIOD_S = 1.0


def _monitor_inputs(seed: int, seconds: int) -> Inputs:
    return Inputs(
        seed, inputs.mdb_records(seed), inputs.sessions(seed, MONITOR_SESSIONS)
    )


async def _monitor(
    calls: Calls, data: Inputs, seconds: float, stats: RunStats, sampled: set[int]
) -> None:
    """Open loop: every session streams one frame per second.

    Each frame is an edge step, timed from when it was due; a frame
    whose step ends after the session's next frame was due missed its
    real-time budget and counts as failed.  ``CloudCallPolicy()`` (H =
    20, refresh every 5 iterations) triggers a background search whose
    result is adopted as soon as it arrives; a session has at most one
    search in flight and keeps tracking its old set meanwhile.
    """
    loop = asyncio.get_running_loop()
    policy = CloudCallPolicy()
    results = await _open_sessions(calls, data, "m", stats)
    calls.window_started()
    start = stats.started = loop.time() + 0.1
    end = start + seconds
    last_done = start

    async def session(index: int) -> None:
        nonlocal last_done
        sid = f"m{index}"
        tenant = _tenant(index)
        stream = data.sessions[index]
        log = stats.logs.setdefault(sid, SessionLog()) if index in sampled else None
        if log is not None:
            log.adopt(results[index])
        lock = asyncio.Lock()
        since = 0
        searching: asyncio.Task[None] | None = None

        async def refresh(frame: np.ndarray, request: str) -> None:
            nonlocal since
            issued = loop.time()
            outcome = await calls.submit(tenant, frame, issued - start, request)
            if not outcome.ok or outcome.result is None:
                stats.failed += 1
                return
            async with lock:
                await calls.adopt(sid, outcome.result)
                since = 0
                if log is not None:
                    log.adopt(outcome.result)
            stats.refreshes.append(loop.time() - issued)
            stats.searches.append((frame, outcome.result))

        index_in_stream = 1
        due = start + stream.phase_s
        while due < end:
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            stats.late.append(loop.time() - due)
            frame = stream.frame(index_in_stream)
            stats.attempted += 1
            async with lock:
                try:
                    step = await calls.step(sid, frame)
                except EMAPError:
                    stats.failed += 1
                    step = None
                done = loop.time()
                if step is not None and log is not None:
                    log.step(frame, step)
            last_done = max(last_done, done)
            stats.latencies.append(done - due)
            stats.completed.append(done - start)
            if step is not None and done > due + FRAME_PERIOD_S:
                stats.failed += 1
            if searching is not None and searching.done():
                searching.result()  # surface a refresh that raised
                searching = None
            if step is not None:
                since += 1
                if searching is None and policy.should_call(step.tracked_after, since):
                    since = 0
                    searching = loop.create_task(
                        refresh(frame, f"m{index}.{index_in_stream}")
                    )
            index_in_stream += 1
            due += FRAME_PERIOD_S
        if searching is not None:
            await searching

    await asyncio.gather(*(session(i) for i in range(len(data.sessions))))
    stats.elapsed_s = last_done - start


# -- track ------------------------------------------------------------

TRACK_SESSIONS = 200


def _track_inputs(seed: int, seconds: int) -> Inputs:
    return Inputs(
        seed, inputs.mdb_records(seed), inputs.sessions(seed, TRACK_SESSIONS)
    )


async def _track(
    calls: Calls, data: Inputs, seconds: float, stats: RunStats, sampled: set[int]
) -> None:
    """Closed loop on the edge: each session steps its next frame as soon
    as its previous step returns.

    Sessions adopt one search result each before the clock starts.  When
    ``CloudCallPolicy()`` would call the cloud (set below H, or five
    iterations since the last refresh) the session re-adopts that cached
    result instead, so the cloud does no timed work.
    """
    loop = asyncio.get_running_loop()
    policy = CloudCallPolicy()
    results = await _open_sessions(calls, data, "t", stats)
    calls.window_started()
    start = stats.started = loop.time()
    end = start + seconds
    last_done = start

    async def session(index: int) -> None:
        nonlocal last_done
        sid = f"t{index}"
        stream = data.sessions[index]
        log = stats.logs.setdefault(sid, SessionLog()) if index in sampled else None
        if log is not None:
            log.adopt(results[index])
        frame_index = 1
        since = 0
        while loop.time() < end:
            frame = stream.frame(frame_index)
            frame_index += 1
            stats.attempted += 1
            issued = loop.time()
            try:
                step = await calls.step(sid, frame)
            except EMAPError:
                stats.failed += 1
                continue
            done = loop.time()
            last_done = max(last_done, done)
            stats.latencies.append(done - issued)
            stats.completed.append(done - start)
            if log is not None:
                log.step(frame, step)
            since += 1
            if policy.should_call(step.tracked_after, since):
                since = 0
                await calls.adopt(sid, results[index])
                stats.refreshes.append(loop.time() - done)
                if log is not None:
                    log.adopt(results[index])

    await asyncio.gather(*(session(i) for i in range(len(data.sessions))))
    stats.elapsed_s = last_done - start


# -- ingest -----------------------------------------------------------

INGEST_CLIENTS = 4
#: Completed searches between two inserts.
INSERT_EVERY = 20
#: Length of each inserted recording: one 1000-sample slice.
INSERT_DURATION_S = 4.0
#: Query frames the clients draw from.
FRAME_POOL = 64
#: Upper bound on searches per second, sizing the insert payloads.
_MAX_SEARCH_RATE = 200


def _ingest_inputs(seed: int, seconds: int) -> Inputs:
    pool_sessions = inputs.sessions(seed, FRAME_POOL)
    return Inputs(
        seed,
        inputs.mdb_records(seed),
        pool_sessions,
        inputs.insert_records(
            seed, seconds * _MAX_SEARCH_RATE // INSERT_EVERY + 1, INSERT_DURATION_S
        ),
    )


async def _ingest(
    calls: Calls, data: Inputs, seconds: float, stats: RunStats, sampled: set[int]
) -> None:
    """Closed loop of search clients with inserts beside the reads.

    After every :data:`INSERT_EVERY` completed searches one recording is
    ingested through ``MDBBuilder.ingest_record``; the next batch pays
    the plane refresh.  Inserts are keyed to completed requests, not to
    wall time, so every run does the same work per search.  A refresh
    sample is the time from the start of an ``ingest_record`` call to
    the first response served from a plane that holds its slices.
    """
    loop = asyncio.get_running_loop()
    mdb = calls.system.builder.mdb
    pool = [s.frame(1) for s in data.sessions]
    calls.window_started()
    start = stats.started = loop.time()
    end = start + seconds
    last_done = start
    completed = 0
    inserts = iter(data.inserts)
    #: (ingest start, slices a plane must hold to show it).
    unseen: list[tuple[float, int]] = []

    async def client(index: int) -> None:
        nonlocal completed, last_done
        # Each client walks its own seeded order of the whole pool, so
        # every run searches the pool's frames equally often.
        rng = np.random.default_rng(np.random.SeedSequence((data.seed, 4, index)))
        order = rng.permutation(len(pool))
        request = 0
        while loop.time() < end:
            frame = pool[int(order[request % len(pool)])]
            stats.attempted += 1
            issued = loop.time()
            outcome = await calls.submit(
                _tenant(index), frame, issued - start, f"i{index}.{request}"
            )
            request += 1
            done = loop.time()
            last_done = max(last_done, done)
            if not outcome.ok or outcome.result is None:
                stats.failed += 1
                continue
            result = outcome.result
            stats.latencies.append(done - issued)
            stats.completed.append(done - start)
            stats.searches.append((frame, result))
            shown = [e for e in unseen if e[1] <= result.slices_searched]
            if shown:
                stats.fresh.append(len(stats.searches) - 1)
            for entry in shown:
                stats.refreshes.append(done - entry[0])
                unseen.remove(entry)
            completed += 1
            if completed % INSERT_EVERY == 0:
                record = next(inserts, None)
                if record is None:
                    raise BenchmarkError("ingest ran out of insert payloads")
                began = loop.time()
                calls.ingest(record)
                unseen.append((began, len(mdb)))

    await asyncio.gather(*(client(i) for i in range(INGEST_CLIENTS)))
    stats.elapsed_s = last_done - start


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "monitor",
            "the paper's paced loop, one frame per second per session: the only "
            "workload where cloud, gateway and edge all do real work",
            _monitor_inputs,
            _monitor,
            oracle_sessions=4,
        ),
        Workload(
            "track",
            "edge-only closed loop of 200 sessions: fused fleet stepping and "
            "the rectangle kernel do almost all the work; ingest bypasses both",
            _track_inputs,
            _track,
            oracle_sessions=2,
        ),
        Workload(
            "ingest",
            "searches beside MDB inserts: the only workload where delta "
            "compile and cache invalidation run on the serving path",
            _ingest_inputs,
            _ingest,
            oracle_sessions=0,
        ),
    )
}
