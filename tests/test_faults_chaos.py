"""Chaos suite: every fault class, both loops, no unhandled exception.

Marked ``chaos`` so CI can run it as its own job; it also runs with the
default suite (the marker only *selects*, it never deselects).
"""

import numpy as np
import pytest

from repro.cloud.client import ResilienceConfig
from repro.cloud.server import CloudServer
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.runtime.events import EventKind
from repro.runtime.framework import EMAPFramework, FrameworkConfig
from repro.runtime.streaming import StreamingConfig, StreamingMonitor

pytestmark = pytest.mark.chaos

ALL_KINDS = list(FaultKind)

#: Tight budgets so injected faults actually fail calls: one retry,
#: a breaker that opens fast and cools down quickly (simulated time).
CHAOS_RESILIENCE = ResilienceConfig(
    deadline_s=5.0,
    max_retries=1,
    breaker_failure_threshold=2,
    breaker_cooldown_s=3.0,
    seed=7,
)


def chaos_framework(server) -> EMAPFramework:
    return EMAPFramework(
        server, FrameworkConfig(resilience=CHAOS_RESILIENCE)
    )


def chaos_monitor(server) -> StreamingMonitor:
    return StreamingMonitor(
        server, StreamingConfig(resilience=CHAOS_RESILIENCE)
    )


def run_stream(monitor: StreamingMonitor, recording, chunk: int = 640):
    data = recording.data
    for start in range(0, data.size, chunk):
        monitor.push(data[start : start + chunk])
    return monitor.updates


@pytest.fixture
def plane(mdb_slices):
    # One compiled search plane per test module run; each test wraps it
    # in a fresh CloudServer so injector call counters start at zero.
    return CloudServer(mdb_slices).plane


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
class TestSurvivalPerFaultClass:
    """A mid-session fault burst never escapes either loop."""

    def plan_for(self, kind: FaultKind) -> FaultPlan:
        magnitude = {FaultKind.LATENCY_SPIKE: 50.0}.get(kind, 1.0)
        return FaultPlan.single(
            kind, first_call=1, last_call=4, magnitude=magnitude, seed=13
        )

    def test_framework_survives(self, plane, seizure_recording, kind):
        server = FaultInjector(CloudServer(plane), self.plan_for(kind))
        result = chaos_framework(server).run(seizure_recording)
        assert result.iterations > 0
        assert server.injected > 0
        assert len(result.stale_series) == len(result.pa_series)
        if result.cloud_failures:
            assert result.degraded_iterations > 0
            assert result.events.first_of_kind(EventKind.CLOUD_FAIL) is not None

    def test_streaming_survives(self, plane, seizure_recording, kind):
        server = FaultInjector(CloudServer(plane), self.plan_for(kind))
        monitor = chaos_monitor(server)
        updates = run_stream(monitor, seizure_recording)
        assert len(updates) == 90
        assert server.injected > 0
        if monitor.cloud_failures:
            assert monitor.degraded_frames > 0
            assert any(u.cloud_call_failed for u in updates)
            assert any(u.degraded for u in updates)


class TestHardOutage:
    """A long outage degrades the session, opens the breaker, and the
    loop recovers once the window ends."""

    def outage_server(self, plane) -> FaultInjector:
        return FaultInjector(
            CloudServer(plane),
            FaultPlan.single(FaultKind.OUTAGE, first_call=1, last_call=12),
        )

    def test_framework_degrades_and_recovers(self, plane, seizure_recording):
        server = self.outage_server(plane)
        result = chaos_framework(server).run(seizure_recording)
        assert result.cloud_failures > 0
        assert result.degraded_iterations > 0
        assert any(result.stale_series)
        # The breaker opened during the outage ...
        assert result.events.first_of_kind(EventKind.BREAKER_OPEN) is not None
        # ... and the loop kept running to the end of the recording,
        # recovering fresh (non-stale) iterations after the window.
        assert not result.stale_series[-1]
        assert result.cloud_calls > 1

    def test_streaming_degrades_and_recovers(self, plane, seizure_recording):
        server = self.outage_server(plane)
        monitor = chaos_monitor(server)
        updates = run_stream(monitor, seizure_recording)
        assert monitor.cloud_failures > 0
        assert monitor.degraded_frames > 0
        assert not updates[-1].degraded
        assert monitor.cloud_calls > 1


class TestDeterminism:
    def test_chaos_run_replays_bit_identically(self, plane, seizure_recording):
        plan = FaultPlan.generate(seed=99, horizon_calls=40)
        results = []
        for _ in range(2):
            server = FaultInjector(CloudServer(plane), plan)
            results.append(chaos_framework(server).run(seizure_recording))
        first, second = results
        assert first.pa_series == second.pa_series
        assert first.predictions == second.predictions
        assert first.stale_series == second.stale_series
        assert first.cloud_failures == second.cloud_failures
        assert first.cloud_calls == second.cloud_calls

    def test_no_fault_injector_is_bit_identical_to_bare_server(
        self, plane, seizure_recording
    ):
        """With faults disabled the whole resilient path is a no-op."""
        bare = chaos_framework(CloudServer(plane)).run(seizure_recording)
        wrapped = chaos_framework(
            FaultInjector(CloudServer(plane), FaultPlan())
        ).run(seizure_recording)
        assert wrapped.pa_series == bare.pa_series
        assert wrapped.predictions == bare.predictions
        assert wrapped.tracked_counts == bare.tracked_counts
        assert wrapped.cloud_failures == 0 and bare.cloud_failures == 0
        assert not any(bare.stale_series)

    def test_no_fault_streaming_is_bit_identical(self, plane, seizure_recording):
        bare = chaos_monitor(CloudServer(plane))
        wrapped = chaos_monitor(FaultInjector(CloudServer(plane), FaultPlan()))
        bare_updates = run_stream(bare, seizure_recording)
        wrapped_updates = run_stream(wrapped, seizure_recording)
        assert wrapped_updates == bare_updates
        assert wrapped.cloud_failures == 0


class TestDegradedCounters:
    def test_obs_counters_exported(self, plane, seizure_recording):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            server = FaultInjector(
                CloudServer(plane),
                FaultPlan.single(FaultKind.OUTAGE, first_call=1, last_call=6),
            )
            result = chaos_framework(server).run(seizure_recording)
            registry = obs.metrics()
            assert registry.counter_value("faults.injected") == server.injected
            assert (
                registry.counter_value("runtime.degraded_iterations")
                == result.degraded_iterations
            )
            assert (
                registry.counter_value("runtime.cloud_failures")
                == result.cloud_failures
            )
            assert registry.counter_value("cloud.client.retries") > 0
        finally:
            obs.disable()
            obs.reset()

    def test_normal_recording_survives_random_plan(self, plane, normal_recording):
        plan = FaultPlan.generate(
            seed=5, horizon_calls=30, fault_rate=0.4, kinds=ALL_KINDS
        )
        server = FaultInjector(CloudServer(plane), plan)
        result = chaos_framework(server).run(normal_recording)
        assert result.iterations > 0
        assert np.isfinite(result.pa_series).all()


class TestTwoStageUnderChaos:
    """The coarse screen lives inside the faulted call path unchanged:
    chaos runs with two-stage search survive every fault class."""

    def staged_server(self, plane, mode: str) -> CloudServer:
        from repro.cloud.search import SearchConfig, SlidingWindowSearch

        return CloudServer(
            plane,
            search=SlidingWindowSearch(
                SearchConfig(two_stage=mode), precompute=True
            ),
        )

    @pytest.mark.parametrize("mode", ["fast"])
    def test_framework_survives_random_plan(
        self, plane, seizure_recording, mode
    ):
        plan = FaultPlan.generate(
            seed=17, horizon_calls=40, fault_rate=0.4, kinds=ALL_KINDS
        )
        server = FaultInjector(self.staged_server(plane, mode), plan)
        result = chaos_framework(server).run(seizure_recording)
        assert result.iterations > 0
        assert server.injected > 0
        assert np.isfinite(result.pa_series).all()
