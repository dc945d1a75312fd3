"""Shared measurement for the fleet-scale fused-stepping bench.

Steps one :class:`~repro.edge.fleet.FleetTracker` hosting ``sessions``
concurrent sessions — each tracking ``candidates_per_session`` slices
sampled from a shared pool of ``unique_slices`` (the multi-patient
shape: heavy cross-session slice sharing) — through the same frames
two ways:

* **sequential** — ``FleetTracker(fused=False)``: the historical
  session-major loop, one single-query ``abs_diff_rect_sums`` dispatch
  per (session, candidate) pair per frame;
* **fused** — ``FleetTracker(fused=True)``: the slice-major megabatch
  planner, one ragged ``abs_diff_argmin`` call per frame covering every
  unique compiled slice, its work units spread over one thread team.

Both arms run the identical Algorithm 2 arithmetic, and the harness
verifies frame by frame that every session's tracking steps are
bit-identical — areas, offsets, removals, evaluation counts and
anomaly probabilities.  The area threshold is set high enough that no
candidate prunes, so every timed frame carries the full
``sessions x candidates x offsets`` load.  Used by
``test_bench_fleet_throughput.py`` and the ``check_regression.py`` CI
gate (the ``--skip-fleet`` / ``--fleet-baseline`` arm).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cloud.results import SearchMatch
from repro.edge._kernels import kernel_backend, kernel_threads
from repro.edge.fleet import FleetTracker
from repro.edge.tracker import TrackerConfig, TrackingStep
from repro.signals.generator import EEGGenerator
from repro.signals.types import AnomalyType, SignalSlice

SLICE_SAMPLES = 400
FRAME_SAMPLES = 256
#: High enough that no candidate ever prunes: every timed frame then
#: runs the full sessions × candidates × offsets scan.
NO_PRUNE_THRESHOLD = 1e12


@dataclass
class FleetThroughputResult:
    """Both arms' wall time over the same fleet and frames."""

    sessions: int
    candidates_per_session: int
    unique_slices: int
    n_frames: int
    sequential_s: float
    fused_s: float
    identical: bool
    kernel: str
    threads: int
    fused_groups: int
    fused_pairs: int
    evaluations_per_frame: int

    @property
    def speedup(self) -> float:
        if self.fused_s <= 0:
            return float("inf")
        return self.sequential_s / self.fused_s

    @property
    def sequential_ms_per_frame(self) -> float:
        return self.sequential_s / self.n_frames * 1e3

    @property
    def fused_ms_per_frame(self) -> float:
        return self.fused_s / self.n_frames * 1e3

    def report(self) -> str:
        lines = [
            "Fleet stepping throughput: fused slice-major vs sequential",
            f"  fleet: {self.sessions} sessions x "
            f"{self.candidates_per_session} candidates "
            f"({self.unique_slices} unique slices, "
            f"{self.evaluations_per_frame} area evaluations/frame)",
            f"  sequential: {self.sequential_s:.3f}s total, "
            f"{self.sequential_ms_per_frame:7.1f} ms/frame",
            f"  fused:      {self.fused_s:.3f}s total, "
            f"{self.fused_ms_per_frame:7.1f} ms/frame "
            f"({self.fused_groups} kernel calls for "
            f"{self.fused_pairs} pairs, kernel={self.kernel}, "
            f"threads={self.threads})",
            f"  speedup: {self.speedup:.2f}x, "
            f"bit-identical: {self.identical}",
        ]
        return "\n".join(lines)


def _build_slice_pool(unique_slices: int, seed: int) -> list[SignalSlice]:
    """EEG-like shared slices cut from one generated recording."""
    total_s = unique_slices * SLICE_SAMPLES / 256 + 2
    recording = EEGGenerator(seed=seed).record(float(total_s))
    pool = []
    for index in range(unique_slices):
        start = index * SLICE_SAMPLES
        pool.append(
            SignalSlice(
                data=recording.data[start : start + SLICE_SAMPLES],
                label=AnomalyType.SEIZURE if index % 3 == 0 else AnomalyType.NONE,
                slice_id=f"fleet-{seed}-{index}",
            )
        )
    return pool


def _build_fleet_matches(
    sessions: int,
    candidates_per_session: int,
    pool: list[SignalSlice],
    seed: int,
) -> list[list[SearchMatch]]:
    """Each session's correlation set, sampled from the shared pool."""
    rng = np.random.default_rng(seed + 1)
    per_session = []
    for _ in range(sessions):
        picks = rng.choice(len(pool), size=candidates_per_session, replace=False)
        per_session.append(
            [
                SearchMatch(sig_slice=pool[int(p)], omega=0.9, offset=0)
                for p in picks
            ]
        )
    return per_session


def _build_frames(n_frames: int, seed: int) -> list[np.ndarray]:
    recording = EEGGenerator(seed=seed + 2).record(float(n_frames + 1))
    return [
        recording.data[index * FRAME_SAMPLES : (index + 1) * FRAME_SAMPLES]
        for index in range(n_frames)
    ]


def _step_key(step: TrackingStep, tracked: tuple) -> tuple:
    return (
        step.iteration,
        step.tracked_before,
        step.removed,
        step.area_evaluations,
        step.anomaly_probability,
        tuple((s.sig_slice.slice_id, s.last_area, s.offset) for s in tracked),
    )


def _run_arm(
    fused: bool,
    per_session: list[list[SearchMatch]],
    frames: list[np.ndarray],
    warmup: np.ndarray,
) -> tuple[float, list, FleetTracker]:
    """Open the fleet, warm it up, and time the stepped frames."""
    config = TrackerConfig(area_threshold=NO_PRUNE_THRESHOLD)
    tracker = FleetTracker(config, fused=fused)
    session_ids = [f"s{i}" for i in range(len(per_session))]
    for session_id, matches in zip(session_ids, per_session):
        tracker.open_session(session_id, matches)
    tracker.step({sid: warmup for sid in session_ids})
    for session_id, matches in zip(session_ids, per_session):
        tracker.open_session(session_id, matches)
    started = time.perf_counter()
    steps = []
    for frame in frames:
        batch = tracker.step({sid: frame for sid in session_ids})
        steps.append(
            [_step_key(batch[sid], tracker.tracked(sid)) for sid in session_ids]
        )
    elapsed = time.perf_counter() - started
    return elapsed, steps, tracker


def run_fleet_throughput(
    sessions: int = 1000,
    candidates_per_session: int = 10,
    unique_slices: int = 20,
    n_frames: int = 3,
    seed: int = 7,
) -> FleetThroughputResult:
    """Step the same fleet through both arms and time them.

    One untimed warm-up step per arm keeps allocator and kernel-load
    effects out of the measurement; the open/warm-up/reopen dance
    mirrors the edge-plane bench.
    """
    pool = _build_slice_pool(unique_slices, seed)
    per_session = _build_fleet_matches(
        sessions, candidates_per_session, pool, seed
    )
    frames = _build_frames(n_frames, seed)
    warmup = _build_frames(1, seed + 100)[0]

    sequential_s, sequential_steps, _ = _run_arm(
        False, per_session, frames, warmup
    )
    fused_s, fused_steps, fused_tracker = _run_arm(
        True, per_session, frames, warmup
    )

    identical = fused_steps == sequential_steps
    evaluations = sum(key[3] for key in sequential_steps[0])
    return FleetThroughputResult(
        sessions=sessions,
        candidates_per_session=candidates_per_session,
        unique_slices=unique_slices,
        n_frames=n_frames,
        sequential_s=sequential_s,
        fused_s=fused_s,
        identical=identical,
        kernel=kernel_backend(),
        threads=kernel_threads() if kernel_backend() == "c" else 1,
        fused_groups=fused_tracker.last_fused_groups,
        fused_pairs=fused_tracker.last_fused_pairs,
        evaluations_per_frame=evaluations,
    )


def summarize(result: FleetThroughputResult, seed: int) -> dict:
    """The JSON-able summary the regression baseline stores."""
    return {
        "config": {"seed": seed},
        "sessions": result.sessions,
        "candidates_per_session": result.candidates_per_session,
        "unique_slices": result.unique_slices,
        "n_frames": result.n_frames,
        "evaluations_per_frame": result.evaluations_per_frame,
        "sequential_s": result.sequential_s,
        "fused_s": result.fused_s,
        "speedup": result.speedup,
        "fused_groups": result.fused_groups,
        "fused_pairs": result.fused_pairs,
        "kernel": result.kernel,
        "threads": result.threads,
        "identical": result.identical,
    }
