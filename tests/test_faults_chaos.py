"""Chaos suite: every fault class, both entry points, no unhandled exception.

Every session runs through the ``run_direct_session`` fixture: once
through ``EMAPFramework.run`` and once through a ``StreamingMonitor``
fed live chunks, so each resilience check holds for the one closed loop
whichever entry point drives it.  The fleet entry point is left out
here: these tests inspect the ``FaultInjector`` they wrap the server
in, and a gateway builds its own per tenant
(``tests/test_gateway_chaos.py`` and the soak cover faults there).

Marked ``chaos`` so CI can run it as its own job; it also runs with the
default suite (the marker only *selects*, it never deselects).
"""

import numpy as np
import pytest

from repro.cloud.client import ResilienceConfig
from repro.cloud.server import CloudServer
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.runtime.events import EventKind
from repro.runtime.framework import EMAPFramework
from repro.runtime.streaming import FrameworkConfig

pytestmark = pytest.mark.chaos

ALL_KINDS = list(FaultKind)

#: Tight budgets so injected faults actually fail calls: one retry,
#: a breaker that opens fast and cools down quickly (simulated time).
CHAOS_CONFIG = FrameworkConfig(
    resilience=ResilienceConfig(
        deadline_s=5.0,
        max_retries=1,
        breaker_failure_threshold=2,
        breaker_cooldown_s=3.0,
        seed=7,
    )
)


def chaos_framework(server) -> EMAPFramework:
    return EMAPFramework(server, CHAOS_CONFIG)


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

    def test_survives(self, plane, seizure_recording, kind, run_direct_session):
        server = FaultInjector(CloudServer(plane), self.plan_for(kind))
        result = run_direct_session(server, CHAOS_CONFIG, seizure_recording)
        assert len(result.events.of_kind(EventKind.SAMPLE)) == 90
        assert result.iterations > 0
        assert server.injected > 0
        assert len(result.stale_series) == len(result.pa_series)
        if result.cloud_failures:
            assert result.degraded_iterations > 0
            assert result.events.first_of_kind(EventKind.CLOUD_FAIL) is not None


class TestHardOutage:
    """A long outage degrades the session, opens the breaker, and the
    loop recovers once the window ends."""

    def outage_server(self, plane) -> FaultInjector:
        return FaultInjector(
            CloudServer(plane),
            FaultPlan.single(FaultKind.OUTAGE, first_call=1, last_call=12),
        )

    def test_degrades_and_recovers(self, plane, seizure_recording, run_direct_session):
        server = self.outage_server(plane)
        result = run_direct_session(server, CHAOS_CONFIG, seizure_recording)
        assert result.cloud_failures > 0
        assert result.degraded_iterations > 0
        assert any(result.stale_series)
        # The breaker opened during the outage ...
        assert result.events.first_of_kind(EventKind.BREAKER_OPEN) is not None
        # ... and the loop kept running to the end of the recording,
        # recovering fresh (non-stale) iterations after the window.
        assert not result.stale_series[-1]
        assert result.cloud_calls > 1


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

    def test_no_fault_injector_is_bit_identical(
        self, plane, seizure_recording, run_direct_session
    ):
        """With faults disabled the whole resilient path is a no-op."""
        bare = run_direct_session(CloudServer(plane), CHAOS_CONFIG, seizure_recording)
        wrapped = run_direct_session(
            FaultInjector(CloudServer(plane), FaultPlan()),
            CHAOS_CONFIG,
            seizure_recording,
        )
        assert wrapped.pa_series == bare.pa_series
        assert wrapped.predictions == bare.predictions
        assert wrapped.tracked_counts == bare.tracked_counts
        assert wrapped.events.timeline() == bare.events.timeline()
        assert wrapped.cloud_failures == 0 and bare.cloud_failures == 0
        assert not any(bare.stale_series)


class TestDegradedCounters:
    def test_obs_counters_exported(self, plane, seizure_recording, run_direct_session):
        """The loop's counters mean the same whichever entry point runs
        it: ``runtime.degraded_iterations`` counts degraded *tracked*
        iterations, not every frame spent degraded."""
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            server = FaultInjector(
                CloudServer(plane),
                FaultPlan.single(FaultKind.OUTAGE, first_call=1, last_call=6),
            )
            result = run_direct_session(server, CHAOS_CONFIG, seizure_recording)
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
            assert (
                registry.counter_value("runtime.loop.iterations")
                == result.iterations
            )
            assert (
                registry.counter_value("edge.device.cloud_calls")
                == result.cloud_calls
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
