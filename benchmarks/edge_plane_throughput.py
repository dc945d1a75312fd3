"""Shared measurement for the edge tracking-plane throughput bench.

Compares three ways of running Algorithm 2 over the same candidate set
and frame stream:

* **scalar** — the reference ``SignalTracker`` per-candidate Python
  loop, rebuilding every slice's window statistics each frame;
* **plane** — ``SignalTracker`` with ``engine="plane"``: a one-session
  ``FleetTracker`` that compiles each slice's windows once per load and
  runs each step as one ``abs_diff_argmin`` call (load time reported
  separately as ``compile_s``);
* **fleet** — ``FleetTracker`` stepping ``fleet_sessions`` concurrent
  sessions that track the *same* correlation set (the multi-patient
  shape, compiled slices deduplicated) against per-session scalar
  trackers doing the same work independently.

All arms run the identical Algorithm 2 scan and the harness verifies
frame by frame that tracking steps are bit-identical — areas, offsets,
removals, evaluation counts and anomaly probabilities.  The area
threshold is set high enough that no candidate prunes, so every frame
exercises the full ``candidates × offsets`` scan (steady-state
tracking load).  Used by ``test_bench_edge_plane_throughput.py`` and
the ``check_regression.py`` CI gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cloud.results import SearchMatch
from repro.edge._kernels import kernel_backend
from repro.edge.fleet import FleetTracker
from repro.edge.tracker import SignalTracker, TrackerConfig
from repro.signals.generator import EEGGenerator
from repro.signals.types import AnomalyType, SignalSlice

SLICE_SAMPLES = 1000
FRAME_SAMPLES = 256
#: High enough that no candidate ever prunes: every timed frame then
#: runs the full candidates × offsets scan (steady-state load).
NO_PRUNE_THRESHOLD = 1e12


@dataclass
class EdgeThroughputResult:
    """All arms' wall time over the same candidate set and frames."""

    candidates: int
    n_frames: int
    fleet_sessions: int
    scalar_s: float
    plane_s: float
    compile_s: float
    scalar_fleet_s: float
    fleet_s: float
    identical: bool
    kernel: str
    evaluations_per_frame: int

    @property
    def speedup(self) -> float:
        return self.scalar_s / self.plane_s if self.plane_s > 0 else float("inf")

    @property
    def fleet_speedup(self) -> float:
        if self.fleet_s <= 0:
            return float("inf")
        return self.scalar_fleet_s / self.fleet_s

    @property
    def scalar_ms_per_step(self) -> float:
        return self.scalar_s / self.n_frames * 1e3

    @property
    def plane_ms_per_step(self) -> float:
        return self.plane_s / self.n_frames * 1e3

    def report(self) -> str:
        lines = [
            "Edge tracking throughput: scalar loop vs compiled plane vs fleet",
            f"  set: {self.candidates} candidates × {SLICE_SAMPLES}-sample "
            f"slices, {self.n_frames} frames, "
            f"{self.evaluations_per_frame} area evaluations/frame",
            f"  scalar: {self.scalar_s:.3f}s total, "
            f"{self.scalar_ms_per_step:6.2f} ms/step",
            f"  plane:  {self.plane_s:.3f}s total, "
            f"{self.plane_ms_per_step:6.2f} ms/step "
            f"(+ {self.compile_s * 1e3:.1f} ms one-off compile, "
            f"kernel={self.kernel})",
            f"  fleet:  {self.fleet_sessions} sessions sharing the set: "
            f"{self.fleet_s:.3f}s batched vs {self.scalar_fleet_s:.3f}s "
            f"independent scalar ({self.fleet_speedup:.2f}x)",
            f"  speedup: {self.speedup:.2f}x, bit-identical: {self.identical}",
        ]
        return "\n".join(lines)


def _build_matches(candidates: int, seed: int) -> list[SearchMatch]:
    """EEG-like candidate slices cut from one generated recording."""
    total_s = candidates * SLICE_SAMPLES / 256 + 2
    recording = EEGGenerator(seed=seed).record(float(total_s))
    matches = []
    for index in range(candidates):
        start = index * SLICE_SAMPLES
        sig_slice = SignalSlice(
            data=recording.data[start : start + SLICE_SAMPLES],
            label=AnomalyType.SEIZURE if index % 3 == 0 else AnomalyType.NONE,
            slice_id=f"bench-{seed}-{index}",
        )
        matches.append(SearchMatch(sig_slice=sig_slice, omega=0.9, offset=0))
    return matches


def _build_frames(n_frames: int, seed: int) -> list[np.ndarray]:
    recording = EEGGenerator(seed=seed + 1).record(float(n_frames + 1))
    return [
        recording.data[index * FRAME_SAMPLES : (index + 1) * FRAME_SAMPLES]
        for index in range(n_frames)
    ]


def _step_key(step, tracked):
    return (
        step.iteration,
        step.tracked_before,
        step.removed,
        step.area_evaluations,
        step.anomaly_probability,
        tuple((s.sig_slice.slice_id, s.last_area, s.offset) for s in tracked),
    )


def run_tracking_throughput(
    candidates: int = 100,
    n_frames: int = 12,
    seed: int = 7,
    fleet_sessions: int = 8,
) -> EdgeThroughputResult:
    """Track the same set through all arms and time them.

    The plane's compile happens once per cloud refresh in production,
    so it is timed separately (``compile_s``) and the timed region
    measures steady-state per-frame stepping; one untimed warm-up step
    per arm keeps allocator effects out of the measurement.
    """
    config_kwargs = {"area_threshold": NO_PRUNE_THRESHOLD}
    matches = _build_matches(candidates, seed)
    frames = _build_frames(n_frames, seed)
    warmup = _build_frames(1, seed + 100)[0]

    scalar_tracker = SignalTracker(TrackerConfig(engine="scalar", **config_kwargs))
    scalar_tracker.load(matches)
    scalar_tracker.step(warmup)
    scalar_tracker.load(matches)
    started = time.perf_counter()
    scalar_steps = [
        _step_key(scalar_tracker.step(frame), scalar_tracker.tracked)
        for frame in frames
    ]
    scalar_s = time.perf_counter() - started

    plane_tracker = SignalTracker(TrackerConfig(engine="plane", **config_kwargs))
    started = time.perf_counter()
    plane_tracker.load(matches)
    compile_s = time.perf_counter() - started
    plane_tracker.step(warmup)
    plane_tracker.load(matches)
    started = time.perf_counter()
    plane_steps = [
        _step_key(plane_tracker.step(frame), plane_tracker.tracked)
        for frame in frames
    ]
    plane_s = time.perf_counter() - started

    # Fleet arm: N sessions tracking the same set (shared compiled
    # slices) vs N independent scalar trackers doing identical work.
    session_ids = [f"s{i}" for i in range(fleet_sessions)]
    independents = []
    for _ in session_ids:
        tracker = SignalTracker(TrackerConfig(engine="scalar", **config_kwargs))
        tracker.load(matches)
        independents.append(tracker)
    started = time.perf_counter()
    scalar_fleet_steps = [
        [_step_key(t.step(frame), t.tracked) for t in independents]
        for frame in frames
    ]
    scalar_fleet_s = time.perf_counter() - started

    fleet = FleetTracker(TrackerConfig(**config_kwargs))
    for session_id in session_ids:
        fleet.open_session(session_id, matches)
    started = time.perf_counter()
    fleet_steps = []
    for frame in frames:
        batch = fleet.step({sid: frame for sid in session_ids})
        fleet_steps.append(
            [_step_key(batch[sid], fleet.tracked(sid)) for sid in session_ids]
        )
    fleet_s = time.perf_counter() - started

    identical = plane_steps == scalar_steps and fleet_steps == scalar_fleet_steps
    return EdgeThroughputResult(
        candidates=candidates,
        n_frames=n_frames,
        fleet_sessions=fleet_sessions,
        scalar_s=scalar_s,
        plane_s=plane_s,
        compile_s=compile_s,
        scalar_fleet_s=scalar_fleet_s,
        fleet_s=fleet_s,
        identical=identical,
        kernel=kernel_backend(),
        evaluations_per_frame=scalar_steps[0][3] if scalar_steps else 0,
    )


def summarize(result: EdgeThroughputResult, seed: int) -> dict:
    """The JSON-able summary the regression baseline stores."""
    return {
        "config": {"seed": seed},
        "candidates": result.candidates,
        "n_frames": result.n_frames,
        "fleet_sessions": result.fleet_sessions,
        "evaluations_per_frame": result.evaluations_per_frame,
        "scalar_s": result.scalar_s,
        "plane_s": result.plane_s,
        "compile_s": result.compile_s,
        "scalar_fleet_s": result.scalar_fleet_s,
        "fleet_s": result.fleet_s,
        "speedup": result.speedup,
        "fleet_speedup": result.fleet_speedup,
        "kernel": result.kernel,
        "identical": result.identical,
    }
