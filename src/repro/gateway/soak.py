"""Soak scenario: sustained mixed traffic with one tenant under chaos.

:func:`run_soak` is the repeatable serving-health gate behind the CI
``soak`` job: it builds a reduced-scale evaluation MDB, points a fleet
of simulated sessions at a fresh gateway, injects a seeded fault plan
into exactly one tenant, and checks hard invariants on the outcome —

* **no dropped session** — admission control may push back, but every
  session must eventually get through its requests;
* **fault isolation** — tenants without a fault plan finish with zero
  failed requests (one tenant's chaos must not leak through the shared
  batch walk), while the faulted tenant's failure ratio stays inside
  the degraded budget;
* **bounded queues** — the queue high-water mark stays under its
  budget and the gateway drains to zero pending at the end;
* **latency budget** — wall-clock p99 end-to-end latency stays under
  the configured ceiling;
* **edge completeness** — when the fleet runs the edge leg
  (``edge_steps_per_request > 0``), every successful search is followed
  by exactly the configured number of fused tracking iterations.

Any breach lands in :attr:`SoakReport.violations`; CI fails on a
non-empty list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GatewayError
from repro.faults.plan import FaultPlan
from repro.gateway.fleet import (
    FleetConfig,
    FleetReport,
    build_frame_pool,
    run_fleet,
)
from repro.gateway.gateway import GatewayConfig


@dataclass(frozen=True)
class SoakConfig:
    """One soak scenario, MDB scale to latency ceiling."""

    mdb_scale: float = 0.12
    fleet: FleetConfig = field(
        default_factory=lambda: FleetConfig(
            n_sessions=200,
            n_tenants=8,
            mean_requests_per_session=4.0,
            think_time_s=8.0,
            arrival_horizon_s=20.0,
        )
    )
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    #: The single tenant running under an injected fault plan.
    faulted_tenant: str = "tenant-0"
    fault_seed: int = 13
    fault_rate: float = 0.35
    #: Failure-ratio budget for the faulted tenant (its degraded mode).
    max_faulted_failure_ratio: float = 0.9
    #: Wall-clock p99 ceiling for end-to-end request latency.  In
    #: as-fast-as-possible mode every session arrives within the same
    #: few event-loop ticks, so tail latency is dominated by honest
    #: queueing behind ~n_sessions/max_batch batch walks; the ceiling
    #: is a tripwire for unbounded growth, not a tight SLO.
    max_p99_latency_s: float = 10.0
    #: Queue high-water budget (unbounded-growth tripwire).
    max_queue_high_water: int = 1024
    n_frames: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.mdb_scale <= 1.0):
            raise GatewayError(
                f"mdb scale must be in (0, 1], got {self.mdb_scale}"
            )
        if not (0.0 <= self.max_faulted_failure_ratio <= 1.0):
            raise GatewayError(
                "faulted failure-ratio budget must be in [0, 1], got "
                f"{self.max_faulted_failure_ratio}"
            )
        if self.max_p99_latency_s <= 0:
            raise GatewayError(
                f"p99 budget must be positive, got {self.max_p99_latency_s}"
            )
        if self.max_queue_high_water < 1:
            raise GatewayError(
                "queue high-water budget must be >= 1, got "
                f"{self.max_queue_high_water}"
            )


@dataclass
class SoakReport:
    """Fleet outcome plus every violated gate (empty = healthy)."""

    fleet: FleetReport
    violations: list[str]

    @property
    def passed(self) -> bool:
        return not self.violations

    def report(self) -> str:
        lines = [self.fleet.report(), ""]
        if self.passed:
            lines.append("soak gates: all passed")
        else:
            lines.append("soak gates VIOLATED:")
            lines.extend(f"  - {violation}" for violation in self.violations)
        return "\n".join(lines)


def _estimate_faulted_calls(config: SoakConfig) -> int:
    """Rough per-tenant call horizon so the plan spans the whole run."""
    fleet = config.fleet
    per_tenant_sessions = -(-fleet.n_sessions // fleet.n_tenants)
    mean_calls = per_tenant_sessions * fleet.mean_requests_per_session
    retries = config.gateway.resilience.max_retries + 1
    return max(10, int(mean_calls * retries * 2))


def run_soak(config: SoakConfig | None = None) -> SoakReport:
    """Run one soak scenario end to end and judge its gates."""
    from repro.cloud.search import SearchConfig, SlidingWindowSearch
    from repro.cloud.server import CloudServer
    from repro.eval.experiments.common import build_fixture

    config = config or SoakConfig()
    fixture = build_fixture(mdb_scale=config.mdb_scale, seed=config.seed)
    server = CloudServer(
        fixture.slices,
        search=SlidingWindowSearch(SearchConfig(), precompute=True),
    )
    frames = build_frame_pool(
        fixture.slices, n_frames=config.n_frames, seed=config.seed
    )
    plan = FaultPlan.generate(
        seed=config.fault_seed,
        horizon_calls=_estimate_faulted_calls(config),
        fault_rate=config.fault_rate,
    )
    fleet = run_fleet(
        server,
        frames,
        config.fleet,
        config.gateway,
        tenant_plans={config.faulted_tenant: plan},
    )

    violations: list[str] = []
    if fleet.sessions_dropped:
        violations.append(
            f"{fleet.sessions_dropped} session(s) dropped after exhausting "
            "admission retries"
        )
    if fleet.sessions_completed != config.fleet.n_sessions:
        violations.append(
            f"only {fleet.sessions_completed} of {config.fleet.n_sessions} "
            "sessions completed"
        )
    for name in sorted(fleet.per_tenant):
        tenant = fleet.per_tenant[name]
        if name == config.faulted_tenant:
            if tenant.failure_ratio > config.max_faulted_failure_ratio:
                violations.append(
                    f"faulted tenant {name} failure ratio "
                    f"{tenant.failure_ratio:.2f} exceeds degraded budget "
                    f"{config.max_faulted_failure_ratio:.2f}"
                )
        elif tenant.failures:
            violations.append(
                f"clean tenant {name} saw {tenant.failures} failed "
                "request(s) — fault isolation breached"
            )
    if fleet.queue_high_water > config.max_queue_high_water:
        violations.append(
            f"queue high-water {fleet.queue_high_water} exceeded budget "
            f"{config.max_queue_high_water}"
        )
    if fleet.pending_at_end:
        violations.append(
            f"{fleet.pending_at_end} request(s) still pending at fleet end"
        )
    if fleet.latency_p99_s > config.max_p99_latency_s:
        violations.append(
            f"p99 latency {fleet.latency_p99_s:.3f}s exceeded budget "
            f"{config.max_p99_latency_s:.3f}s"
        )
    steps_per_request = config.fleet.edge_steps_per_request
    if steps_per_request > 0:
        # Every successful search must have been followed by exactly
        # the configured number of fused tracking iterations — a lost
        # frame here means the edge stepper dropped a rider.
        expected = fleet.successes * steps_per_request
        if fleet.edge_steps != expected:
            violations.append(
                f"edge leg ran {fleet.edge_steps} tracking steps, "
                f"expected {expected} "
                f"({fleet.successes} successes x {steps_per_request})"
            )
    return SoakReport(fleet=fleet, violations=violations)
