"""Churn tests for the fused slice-major fleet step.

The fused planner's contract is that no amount of fleet churn —
sessions opened and closed between steps, shared compiled slices
evicted by pruning mid-step, subsets of sessions stepping, empty
batches — ever produces a ``TrackingStep`` that differs from an
independent per-session :class:`~repro.edge.tracker.SignalTracker`
replaying the same frames.  Every scenario here drives a fused
:class:`~repro.edge.fleet.FleetTracker` and a dict of scalar-engine
mirror trackers in lock step and bit-compares the step keys.

Runs in the CI ``kernel-backends`` matrix under both ``EMAP_KERNEL=c``
and ``EMAP_KERNEL=numpy``: the identity must hold on either backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.results import SearchMatch
from repro.edge import fleet as fleet_module
from repro.edge.fleet import FleetTracker
from repro.edge.tracker import SignalTracker, TrackerConfig
from repro.signals.types import AnomalyType, SignalSlice


def _pool(seed: int, n: int = 8, slice_len: int = 900) -> list[SignalSlice]:
    """A shared slice pool with one short and one flat-stretch slice."""
    rng = np.random.default_rng(seed)
    pool = []
    for index in range(n):
        if index == n - 1:
            data = rng.standard_normal(20) * 7  # too short for a window
        elif index == n - 2:
            data = rng.standard_normal(slice_len) * 7
            data[100:500] = 2.5  # zero-variance stretch -> flat windows
        else:
            data = rng.standard_normal(slice_len) * 7
        label = AnomalyType.SEIZURE if index % 3 == 0 else AnomalyType.NONE
        pool.append(
            SignalSlice(data=data, label=label, slice_id=f"c{seed}-{index}")
        )
    return pool


def _matches(pool: list[SignalSlice], picks: list[int]) -> list[SearchMatch]:
    return [
        SearchMatch(sig_slice=pool[index], omega=0.9, offset=0)
        for index in picks
    ]


def _step_key(step, tracked):
    return (
        step.iteration,
        step.tracked_before,
        step.removed,
        step.area_evaluations,
        step.anomaly_probability,
        tuple(
            (s.sig_slice.slice_id, s.last_area, s.offset, s.omega)
            for s in tracked
        ),
        tuple(
            (s.sig_slice.slice_id, s.last_area, s.offset, s.omega)
            for s in step.removed_signals
        ),
    )


class _MirroredFleet:
    """A fleet plus per-session scalar SignalTracker replays.

    Every step bit-compares each stepped session's ``TrackingStep`` and
    survivor list against its mirror's.
    """

    def __init__(self, **overrides) -> None:
        self.fleet = FleetTracker(TrackerConfig(**overrides))
        self._mirror_config = TrackerConfig(engine="scalar", **overrides)
        self.mirrors: dict[str, SignalTracker] = {}

    def open(self, session_id: str, matches: list[SearchMatch]) -> None:
        self.fleet.open_session(session_id, matches)
        mirror = SignalTracker(self._mirror_config)
        mirror.load(matches)
        self.mirrors[session_id] = mirror

    def close(self, session_id: str) -> None:
        self.fleet.close_session(session_id)
        del self.mirrors[session_id]

    def step(self, session_ids: list[str], frame: np.ndarray) -> None:
        steps = self.fleet.step({sid: frame for sid in session_ids})
        assert set(steps) == set(session_ids)
        for sid in session_ids:
            mirror = self.mirrors[sid]
            expected = _step_key(mirror.step(frame), mirror.tracked)
            produced = _step_key(steps[sid], self.fleet.tracked(sid))
            assert produced == expected, f"session {sid} diverged"


@pytest.mark.parametrize("reference_rms", [7.0, None])
class TestChurnBitIdentity:
    def _overrides(self, reference_rms):
        return {
            "reference_rms": reference_rms,
            "area_threshold": 900.0 if reference_rms is not None else 1800.0,
        }

    def test_open_close_between_steps(self, reference_rms):
        pool = _pool(40)
        rng = np.random.default_rng(41)
        frames = [rng.standard_normal(256) * 7 for _ in range(5)]
        harness = _MirroredFleet(**self._overrides(reference_rms))

        harness.open("s0", _matches(pool, [0, 1, 2, 3, 6, 7]))
        harness.open("s1", _matches(pool, [2, 3, 4, 5, 7]))
        harness.open("s2", _matches(pool, [0, 2, 4, 6]))
        harness.step(["s0", "s1", "s2"], frames[0])

        harness.close("s1")
        harness.open("s3", _matches(pool, [1, 3, 5, 7]))
        harness.step(["s0", "s3"], frames[1])  # s2 idles this round

        harness.open("s2", _matches(pool, [1, 2, 5]))  # reopen, new set
        harness.step(["s0", "s2", "s3"], frames[2])
        harness.step(["s2"], frames[3])
        harness.step(["s0", "s2", "s3"], frames[4])

    def test_mass_prune_evicts_shared_slices_mid_step(self, reference_rms):
        """Every pair prunes in one step: the shared entries are released
        during commit while other sessions' results from the same fused
        evaluation are still being applied — deferred commit means none
        of them can read a freed tensor."""
        overrides = self._overrides(reference_rms)
        overrides["area_threshold"] = 1e-9  # everything prunes immediately
        pool = _pool(42)
        harness = _MirroredFleet(**overrides)
        harness.open("a", _matches(pool, [0, 1, 2, 3]))
        harness.open("b", _matches(pool, [0, 1, 2, 3]))
        harness.open("c", _matches(pool, [2, 3, 4]))
        frame = np.random.default_rng(43).standard_normal(256) * 7
        harness.step(["a", "b", "c"], frame)
        assert harness.fleet.unique_slices == 0  # all entries evicted
        assert harness.fleet.tracked_references == 0
        # Reopening after the eviction recompiles and steps cleanly.
        harness.open("a", _matches(pool, [0, 4, 5]))
        harness.step(["a"], frame)

    def test_empty_step_is_a_no_op(self, reference_rms):
        pool = _pool(44)
        harness = _MirroredFleet(**self._overrides(reference_rms))
        harness.open("s", _matches(pool, [0, 1, 2]))
        assert harness.fleet.step({}) == {}
        # The session did not advance: its next step is iteration 1.
        harness.step(["s"], np.zeros(256))


class TestFusedPlanStats:
    def test_group_accounting_reflects_sharing(self):
        pool = _pool(45)
        shared = _matches(pool, [0, 1, 2, 3, 4])
        fleet = FleetTracker(TrackerConfig(area_threshold=1e9))
        for sid in ("a", "b", "c"):
            fleet.open_session(sid, shared)
        fleet.step({sid: np.zeros(256) for sid in ("a", "b", "c")})
        # 5 shared slices -> 5 groups for 15 (session, candidate)
        # pairs, every group carrying all 3 sessions' queries.
        assert fleet.last_fused_groups == 5
        assert fleet.last_fused_pairs == 15
        assert fleet.last_fused_max_group == 3
        assert fleet.last_fused_step_s > 0.0

    def test_one_kernel_call_per_step(self, monkeypatch):
        pool = _pool(48)
        fleet = FleetTracker(TrackerConfig(area_threshold=1e9))
        fleet.open_session("a", _matches(pool, [0, 1, 2]))
        fleet.open_session("b", _matches(pool, [2, 3, 4, 5]))
        calls: list[int] = []
        real = fleet_module.abs_diff_argmin

        def counting(windows, *args, **kwargs):
            calls.append(len(windows))
            return real(windows, *args, **kwargs)

        monkeypatch.setattr(fleet_module, "abs_diff_argmin", counting)
        for _ in range(3):
            fleet.step({"a": np.zeros(256), "b": np.zeros(256)})
        assert calls == [6, 6, 6]  # one call per step, all groups in it

    def test_short_slices_never_reach_the_planner(self):
        pool = _pool(46)
        fleet = FleetTracker(TrackerConfig(area_threshold=1e9))
        # Last pool entry is the short slice: it is removed at commit
        # without an evaluation slot, so it forms no group.
        fleet.open_session("s", _matches(pool, [0, len(pool) - 1]))
        step = fleet.step({"s": np.zeros(256)})["s"]
        assert step.removed == 1
        assert fleet.last_fused_groups == 1
        assert fleet.last_fused_pairs == 1
