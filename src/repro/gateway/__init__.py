"""Async multi-tenant serving gateway with cross-request batching.

The gateway (:class:`ServingGateway`) coalesces concurrent search
requests into single batched plane walks while keeping per-tenant
resilience (deadline, retry, circuit breaker) and admission control.
:func:`run_fleet` drives it with a fleet of monitored sessions
(:func:`run_fleet_session`, the closed loop over the gateway and the fused
:class:`EdgeStepDriver`), and :func:`run_soak` is the chaos-under-load
health gate used by CI.
"""

from repro.gateway.fleet import (
    EdgeStepDriver,
    FleetConfig,
    FleetReport,
    TenantSummary,
    run_fleet,
    run_fleet_session,
)
from repro.gateway.gateway import GatewayConfig, ServingGateway
from repro.gateway.soak import SoakConfig, SoakReport, run_soak

__all__ = [
    "EdgeStepDriver",
    "FleetConfig",
    "FleetReport",
    "GatewayConfig",
    "ServingGateway",
    "SoakConfig",
    "SoakReport",
    "TenantSummary",
    "run_fleet",
    "run_fleet_session",
    "run_soak",
]
