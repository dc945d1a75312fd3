"""Chaos suite for the serving gateway: per-tenant fault isolation.

One tenant's injected outage must open *that tenant's* circuit breaker
only — every other tenant keeps serving successfully through the same
coalesced batch path, with its breaker closed.  Likewise one tenant's
corrupt frames fail only that tenant's requests.  This is the
multi-tenant counterpart of :mod:`tests.test_faults_chaos` and runs in
the same dedicated CI job (``pytest -m chaos``).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cloud.client import BreakerState, ResilienceConfig
from repro.cloud.server import CloudServer
from repro.errors import SearchError
from repro.faults.plan import FaultKind, FaultPlan
from repro.gateway import GatewayConfig, ServingGateway
from repro.signals.types import AnomalyType, SignalSlice

pytestmark = pytest.mark.chaos

GATEWAY_RESILIENCE = ResilienceConfig(
    deadline_s=5.0,
    max_retries=1,
    breaker_failure_threshold=2,
    breaker_cooldown_s=30.0,
    seed=7,
)


def _slices(seed: int, n: int = 10):
    rng = np.random.default_rng(seed)
    return [
        SignalSlice(
            data=rng.standard_normal(int(rng.integers(300, 900))),
            label=AnomalyType.SEIZURE if i % 3 == 0 else AnomalyType.NONE,
            slice_id=f"c{seed}-{i}",
        )
        for i in range(n)
    ]


class TestTenantFaultIsolation:
    def test_outage_opens_only_the_faulted_tenants_breaker(self):
        """tenant-0 is down hard; tenants 1-3 must not notice."""
        plan = FaultPlan.single(FaultKind.OUTAGE, first_call=0, last_call=99)
        server = CloudServer(_slices(0))
        frame = np.random.default_rng(40_000).standard_normal(256)
        tenants = [f"tenant-{i}" for i in range(4)]

        async def scenario(gateway):
            # Three rounds of interleaved traffic from every tenant,
            # enough for tenant-0 to blow its failure threshold.
            per_tenant = {name: [] for name in tenants}
            for round_index in range(3):
                outcomes = await asyncio.gather(
                    *(
                        gateway.submit(name, frame, now_s=float(round_index))
                        for name in tenants
                    )
                )
                for name, outcome in zip(tenants, outcomes):
                    per_tenant[name].append(outcome)
            return per_tenant

        try:
            gateway = ServingGateway(
                server,
                GatewayConfig(max_batch=8, resilience=GATEWAY_RESILIENCE),
                tenant_plans={"tenant-0": plan},
            )

            async def run():
                try:
                    return await scenario(gateway)
                finally:
                    await gateway.aclose()

            per_tenant = asyncio.run(run())
        finally:
            server.close()

        faulted = per_tenant["tenant-0"]
        assert all(not outcome.ok for outcome in faulted)
        assert faulted[0].failure == "unreachable"
        # The later rounds hit the already-open breaker: fast-fail,
        # zero attempts against the endpoint.
        assert any(outcome.failure == "breaker_open" for outcome in faulted)
        assert (
            gateway.tenant_client("tenant-0").breaker_state
            is BreakerState.OPEN
        )

        for name in tenants[1:]:
            outcomes = per_tenant[name]
            assert all(outcome.ok for outcome in outcomes), name
            client = gateway.tenant_client(name)
            assert client.breaker_state is BreakerState.CLOSED
            assert client.successes == len(outcomes)

    def test_faulted_tenant_recovers_after_cooldown(self):
        """Once the outage window ends and the cooldown elapses, the
        half-open probe succeeds and the tenant serves again."""
        plan = FaultPlan.single(FaultKind.OUTAGE, first_call=0, last_call=3)
        server = CloudServer(_slices(1))
        frame = np.random.default_rng(40_001).standard_normal(256)

        async def scenario():
            gateway = ServingGateway(
                server,
                GatewayConfig(max_batch=4, resilience=GATEWAY_RESILIENCE),
                tenant_plans={"shaky": plan},
            )
            try:
                down = [
                    await gateway.submit("shaky", frame, now_s=float(i))
                    for i in range(2)
                ]
                recovered = await gateway.submit(
                    "shaky",
                    frame,
                    now_s=GATEWAY_RESILIENCE.breaker_cooldown_s + 10.0,
                )
                return down, recovered, gateway
            finally:
                await gateway.aclose()

        try:
            down, recovered, gateway = asyncio.run(scenario())
        finally:
            server.close()

        assert all(not outcome.ok for outcome in down)
        assert recovered.ok
        assert BreakerState.HALF_OPEN in recovered.transitions
        assert (
            gateway.tenant_client("shaky").breaker_state
            is BreakerState.CLOSED
        )


class TestCorruptTenantIsolation:
    def test_nan_frames_mid_soak_fail_only_their_tenant(self):
        """tenant-0 sends NaN frames for rounds 4-7 of a 12-round soak
        while every tenant's requests share coalesced batches; the other
        tenants must finish with zero failures."""
        server = CloudServer(_slices(2, n=12))
        rng = np.random.default_rng(40_002)
        frames = [rng.standard_normal(256) for _ in range(4)]
        corrupt = frames[0].copy()
        corrupt[::32] = np.nan
        tenants = [f"tenant-{i}" for i in range(5)]
        bad_rounds = range(4, 8)
        gateway = ServingGateway(
            server, GatewayConfig(max_batch=8, resilience=GATEWAY_RESILIENCE)
        )

        async def session(index, name):
            outcomes = []
            for round_index in range(12):
                bad = index == 0 and round_index in bad_rounds
                frame = (
                    corrupt if bad else frames[(round_index + index) % 4]
                )
                outcome = await gateway.submit(
                    name, frame, now_s=float(round_index)
                )
                outcomes.append((bad, outcome))
            return outcomes

        async def run():
            try:
                return await asyncio.gather(
                    *(session(i, name) for i, name in enumerate(tenants))
                )
            finally:
                await gateway.aclose()

        per_tenant = dict(zip(tenants, asyncio.run(run())))

        # The soak really coalesced tenants into shared batches.
        assert gateway.attempts_served > gateway.batches_served
        assert gateway.dispatcher_crash is None
        for bad, outcome in per_tenant["tenant-0"]:
            if bad:
                assert outcome.failure == "search_error"
                assert isinstance(outcome.error, SearchError)
                assert outcome.attempts == 0
            else:
                assert outcome.ok
        # Bad input is not a cloud fault: the breaker never moved.
        assert (
            gateway.tenant_client("tenant-0").breaker_state
            is BreakerState.CLOSED
        )
        for name in tenants[1:]:
            assert all(outcome.ok for _, outcome in per_tenant[name]), name
            client = gateway.tenant_client(name)
            assert client.failures == 0
            assert client.breaker_state is BreakerState.CLOSED
