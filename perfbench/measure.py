"""One benchmark invocation: inputs, set-up, measured run, oracle, metrics.

End-to-end numbers always come from an untraced run.  A traced run
repeats the workload with spans around every layer call and yields the
per-layer numbers, with the tracing overhead as traced over untraced
``ops_per_s``.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.signals.types import SignalSlice

from perfbench import host
from perfbench.oracle import check_searches, check_sessions
from perfbench.system import (
    CALM_STEAL,
    SETUP_AFTER,
    SETUP_BEFORE,
    BenchmarkError,
    Calls,
    TracedCalls,
    set_up,
    summarise,
)
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, Inputs, RunStats, Workload, oracle_sample

Metrics = dict[str, tuple[float, str]]

#: Length of the slices of a window whose median rate is ``ops_per_s``.
SLICE_S = 2.5
#: Seconds between samples of the host's steal time during a window.
HOST_SAMPLE_S = 0.25


# repr=False: on Python 3.11 asyncio.run can format the finished main
# task, result included, and a generated repr would print every sample.
@dataclass(repr=False)
class Measured:
    stats: RunStats
    setup: dict[str, float]
    slices: tuple[SignalSlice, ...]
    calls: Calls
    window_s: float
    #: ``(loop time, steal ticks, total ticks)`` sampled through the window.
    host_samples: list[tuple[float, int, int]] = field(default_factory=list)

    def _slicing(self) -> tuple[int, float]:
        count = max(1, round(self.window_s / SLICE_S))
        return count, self.window_s / count

    @property
    def mean_ops_per_s(self) -> float:
        """Ops over the whole window, the last one's completion included."""
        if self.stats.elapsed_s <= 0:
            raise BenchmarkError("no op completed inside the measured window")
        return len(self.stats.latencies) / self.stats.elapsed_s

    @property
    def slice_ops_per_s(self) -> list[float]:
        """Ops per second in each :data:`SLICE_S`-long slice of the window.

        Each op counts as one op spread evenly over its latency, so a
        slice holds the share of every op in flight during it.  Counting
        whole ops where they end would step ``track``'s rate in units of
        a fused batch (about 80 ops/s in a 2.5 s slice).
        """
        count, width = self._slicing()
        ends = np.asarray(self.stats.completed)
        spans = np.maximum(np.asarray(self.stats.latencies), 1e-9)
        starts = ends - spans
        edges = np.arange(count + 1) * width
        overlap = np.clip(
            np.minimum(ends, edges[1:, None]) - np.maximum(starts, edges[:-1, None]),
            0.0, None,
        )
        return [float(share) / width for share in (overlap / spans).sum(axis=1)]

    @property
    def slice_steal(self) -> list[float]:
        """Share of CPU time the hypervisor gave other guests in each slice
        (0 where the host does not report it)."""
        count, width = self._slicing()
        if len(self.host_samples) < 2:
            return [0.0] * count
        at, steal, total = np.asarray(self.host_samples, dtype=float).T
        edges = self.stats.started + np.arange(count + 1) * width
        stolen = np.diff(np.interp(edges, at, steal))
        ticks = np.diff(np.interp(edges, at, total))
        shares = np.divide(stolen, ticks, out=np.zeros(count), where=ticks > 0)
        return [float(share) for share in shares]

    @property
    def ops_per_s(self) -> float:
        """The median of :attr:`slice_ops_per_s` over the calm slices.

        A slice is calm when its steal share is at most the median one or
        :data:`CALM_STEAL`.  On a calm host that is every slice, so a
        trend within the window (``ingest``'s MDB grows) does not move
        which slices count.

        Other guests on a shared host can slow the program two- to
        three-fold for seconds to minutes, and that shows as steal time;
        a stall of a few seconds, from the host or a one-off such as a
        collection, moves a few slices and not the result.
        """
        steal = self.slice_steal
        cut = max(statistics.median(steal), CALM_STEAL)
        rate = statistics.median(
            r for r, s in zip(self.slice_ops_per_s, steal) if s <= cut
        )
        if rate <= 0:
            raise BenchmarkError("no op completed inside the measured window")
        return rate


@dataclass
class Outcome:
    attempted: int
    failed: int
    setup: dict[str, float]
    end_to_end: Metrics = field(default_factory=dict)
    layers: Metrics = field(default_factory=dict)
    #: Printed beside the metrics but not part of the result.
    report: Metrics = field(default_factory=dict)
    checked: dict[str, int] = field(default_factory=dict)
    #: Host readings around the untraced window (see :mod:`perfbench.host`).
    host: dict[str, Any] = field(default_factory=dict)


def _ms(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


async def _sample_host(samples: list[tuple[float, int, int]]) -> None:
    loop = asyncio.get_running_loop()
    while True:
        ticks = host.cpu_ticks()
        if ticks is not None:
            samples.append((loop.time(), *ticks))
        await asyncio.sleep(HOST_SAMPLE_S)


async def _measure_async(
    workload: Workload,
    data: Inputs,
    seconds: int,
    sampled: set[int],
    tracer: Tracer | None,
) -> Measured:
    system, splits = await set_up(data.mdb_records, data.warm_frames, SETUP_BEFORE)
    calls = TracedCalls(system, tracer) if tracer is not None else Calls(system)
    stats = RunStats()
    samples: list[tuple[float, int, int]] = []
    sampler = asyncio.create_task(_sample_host(samples))
    try:
        await workload.run(calls, data, float(seconds), stats, sampled)
    finally:
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)
        calls.close()
        await system.aclose()
    again, more = await set_up(data.mdb_records, data.warm_frames, SETUP_AFTER)
    await again.aclose()
    setup = summarise(splits + more)
    return Measured(
        stats, setup, tuple(system.builder.mdb.slices()), calls, float(seconds),
        samples,
    )


def _measure(
    workload: Workload,
    data: Inputs,
    seconds: int,
    sampled: set[int],
    tracer: Tracer | None,
) -> Measured:
    return asyncio.run(_measure_async(workload, data, seconds, sampled, tracer))


def _check(measured: Measured, seed: int, checked: dict[str, int]) -> None:
    """Run the correctness oracle on one measured window, untimed."""
    checked["searches"] = checked.get("searches", 0) + check_searches(
        measured.stats.searches, measured.slices, seed, measured.stats.fresh
    )
    checked["frames"] = checked.get("frames", 0) + check_sessions(
        measured.stats.logs.items()
    )


def _end_to_end(measured: Measured) -> tuple[Metrics, Metrics]:
    """The gated end-to-end metrics, and the ones only reported.

    Latencies are printed and recorded but not part of the result: on a
    shared two-vCPU host whole runs slow down by up to 2x, and over ten
    seeds the spread of every latency percentile exceeded the largest
    allowed bound in at least one set of runs.  ``ops_per_s`` can leave
    out the slices of a run that other guests took (see
    :attr:`Measured.ops_per_s`); a percentile cannot.
    """
    stats = measured.stats
    if not stats.refreshes:
        raise BenchmarkError("the run produced no refresh samples")
    gated: Metrics = {
        "setup_s": (measured.setup["setup_s"], "s"),
        "ops_per_s": (measured.ops_per_s, "1/s"),
    }
    reported: Metrics = {
        "p50_ms": (_ms(stats.latencies, 50), "ms"),
        "refresh_p50_ms": (_ms(stats.refreshes, 50), "ms"),
        "p95_ms": (_ms(stats.latencies, 95), "ms"),
        "refresh_p95_ms": (_ms(stats.refreshes, 95), "ms"),
        "failed_ratio": (_ratio(stats.failed, stats.attempted), "1"),
        "ops": (float(len(stats.latencies)), "count"),
        "refresh_samples": (float(len(stats.refreshes)), "count"),
    }
    return gated, reported


def _layers(traced: Measured, tracer: Tracer, untraced_ops_per_s: float) -> Metrics:
    calls = traced.calls
    assert isinstance(calls, TracedCalls)
    stats = traced.stats
    count = tracer.counters
    wall = stats.elapsed_s
    batches = calls.batches
    batch_s = [duration for duration, _ in batches]
    requests = count["cloud.requests"]
    fused = count["edge.fused_steps"]
    step_s = tracer.durations("edge.fleet.step")
    lookups = count["edge.cache_hits"] + count["edge.cache_misses"]
    metrics: Metrics = {
        "gateway.queue_wait_p50_ms": (_ms(calls.queue_wait_s, 50), "ms"),
        "gateway.queue_wait_p95_ms": (_ms(calls.queue_wait_s, 95), "ms"),
        "gateway.batch_size": (_ratio(requests, len(batches)), "count"),
        "gateway.rejected": (count["gateway.rejected"], "count"),
        "loadgen.late_p50_ms": (_ms(stats.late, 50), "ms"),
        "loadgen.late_p99_ms": (_ms(stats.late, 99), "ms"),
        "cloud.batch_p50_ms": (_ms(batch_s, 50), "ms"),
        "cloud.batch_p95_ms": (_ms(batch_s, 95), "ms"),
        "cloud.request_ms": (
            statistics.median(d / n for d, n in batches) * 1e3 if batches else 0.0,
            "ms",
        ),
        "cloud.correlations_per_request": (
            _ratio(count["cloud.correlations"], requests), "count"
        ),
        "cloud.busy_share": (_ratio(sum(batch_s), wall), "ratio"),
        "cloud.eq4_search_ratio": (
            _ratio(sum(batch_s), count["cloud.eq4_search_s"]), "ratio"
        ),
        "cloud.refresh_p50_ms": (_ms(calls.refreshes_s, 50), "ms"),
        "cloud.shards_compiled": (count["cloud.shards_compiled"], "count"),
        "cloud.shards_reused": (count["cloud.shards_reused"], "count"),
        "mdb.insert_p50_ms": (_ms(tracer.durations("mdb.ingest_record"), 50), "ms"),
        "mdb.slices_inserted": (count["mdb.slices_inserted"], "count"),
        "edge.step_p50_ms": (_ms(step_s, 50), "ms"),
        "edge.step_p95_ms": (_ms(step_s, 95), "ms"),
        "edge.fused_batch": (_ratio(count["edge.fused_sessions"], fused), "count"),
        "edge.groups_per_step": (_ratio(count["edge.groups"], fused), "count"),
        "edge.pairs_per_step": (_ratio(count["edge.pairs"], fused), "count"),
        "edge.cache_hit_ratio": (_ratio(count["edge.cache_hits"], lookups), "ratio"),
        "edge.dedup_ratio": (_ratio(count["edge.dedup"], fused), "ratio"),
        "edge.adopt_p50_ms": (_ms(tracer.durations("edge.open_session"), 50), "ms"),
        "edge.driver_wait_p50_ms": (_ms(calls.driver_wait_s, 50), "ms"),
        "edge.busy_share": (_ratio(sum(step_s), wall), "ratio"),
        "edge.kernel_cells": (count["edge.kernel_cells"], "count"),
        "edge.kernel_bytes": (count["edge.kernel_bytes"], "B"),
        "trace.overhead_ratio": (
            _ratio(traced.ops_per_s, untraced_ops_per_s), "ratio"
        ),
    }
    for phase in ("mdb_build_s", "plane_compile_s", "kernel_load_s", "warmup_s"):
        metrics[f"setup.{phase}"] = (traced.setup[phase], "s")
    return metrics


def _untraced(
    workload: Workload, data: Inputs, seconds: int, sampled: set[int]
) -> tuple[Measured, dict[str, Any]]:
    """Measure the untraced window, with host readings around it."""
    before_ms = host.reading()
    measured = _measure(workload, data, seconds, sampled, None)
    return measured, {
        "before_ms": before_ms,
        "after_ms": host.reading(),
        "mean_ops_per_s": measured.mean_ops_per_s,
        "slice_ops_per_s": measured.slice_ops_per_s,
        "slice_steal": measured.slice_steal,
    }


def run(name: str, seed: int, seconds: int, traced: bool, state: Path) -> Outcome:
    """Run workload ``name`` (and its traced repeat when ``traced``)."""
    workload = WORKLOADS[name]
    data = workload.make_inputs(seed, seconds)
    # The inputs live for the whole run; keep collections from rescanning them.
    gc.freeze()
    sampled = oracle_sample(seed, len(data.sessions), workload.oracle_sessions)
    checked: dict[str, int] = {}
    plain, readings = _untraced(workload, data, seconds, sampled)
    _check(plain, seed, checked)
    gated, reported = _end_to_end(plain)
    if name == "ingest":
        reported["visible_p50_ms"] = reported["refresh_p50_ms"]
    outcome = Outcome(
        attempted=plain.stats.attempted,
        failed=plain.stats.failed,
        setup=plain.setup,
        end_to_end=gated,
        report=reported,
        checked=checked,
        host=readings,
    )
    if traced:
        tracer = Tracer()
        measured = _measure(workload, data, seconds, sampled, tracer)
        _check(measured, seed, checked)
        tracer.dump(state / "traces" / f"{name}-seed{seed}.json")
        outcome.layers = _layers(measured, tracer, plain.ops_per_s)
        # The first set-up of the process is the untraced run's.
        outcome.layers["setup.first_setup_s"] = (plain.setup["first_setup_s"], "s")
        outcome.attempted += measured.stats.attempted
        outcome.failed += measured.stats.failed
    return outcome
