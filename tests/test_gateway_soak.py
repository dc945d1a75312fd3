"""Soak suite for the serving gateway (``pytest -m soak``).

A reduced-scale soak always runs, keeping the gate logic exercised in
every suite.  The full CI soak — at least 200 simulated sessions over
a ~60-simulated-second horizon with a fault plan on one tenant — is
opt-in via ``EMAP_SOAK=1`` so local tier-1 runs stay fast; the CI
``soak`` job sets it.

The gates are hard serving invariants: no dropped session, fault
isolation (clean tenants see zero failures), bounded queues that drain
to empty, and a wall-clock p99 latency budget.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import GatewayError
from repro.gateway import FleetConfig, SoakConfig, run_soak

pytestmark = pytest.mark.soak

FULL_SOAK = os.environ.get("EMAP_SOAK") == "1"


class TestSoakConfig:
    def test_rejects_invalid_budgets(self):
        with pytest.raises(GatewayError):
            SoakConfig(mdb_scale=0.0)
        with pytest.raises(GatewayError):
            SoakConfig(max_faulted_failure_ratio=1.5)
        with pytest.raises(GatewayError):
            SoakConfig(max_p99_latency_s=0.0)
        with pytest.raises(GatewayError):
            SoakConfig(max_queue_high_water=0)
        for mode in ("turbo", "lossless"):
            with pytest.raises(GatewayError, match="two-stage"):
                SoakConfig(two_stage=mode)


class TestReducedSoak:
    def test_reduced_scale_soak_passes_every_gate(self):
        report = run_soak(
            SoakConfig(
                mdb_scale=0.08,
                fleet=FleetConfig(
                    n_sessions=48,
                    n_tenants=6,
                    mean_requests_per_session=3.0,
                    think_time_s=8.0,
                    arrival_horizon_s=20.0,
                ),
                max_p99_latency_s=10.0,
            )
        )
        assert report.passed, report.report()
        fleet = report.fleet
        assert fleet.sessions_completed == 48
        assert fleet.sessions_dropped == 0
        assert fleet.pending_at_end == 0
        # The faulted tenant is the only one allowed to fail requests.
        for name, tenant in fleet.per_tenant.items():
            if name != "tenant-0":
                assert tenant.failures == 0, name

    def test_violations_are_reported_not_swallowed(self):
        """An absurdly tight latency budget must trip the p99 gate."""
        report = run_soak(
            SoakConfig(
                mdb_scale=0.08,
                fleet=FleetConfig(
                    n_sessions=24,
                    n_tenants=4,
                    mean_requests_per_session=2.0,
                    think_time_s=8.0,
                    arrival_horizon_s=20.0,
                ),
                max_p99_latency_s=1e-9,
            )
        )
        assert not report.passed
        assert any("p99" in violation for violation in report.violations)
        assert "VIOLATED" in report.report()


@pytest.mark.skipif(not FULL_SOAK, reason="full soak runs with EMAP_SOAK=1")
class TestFullSoak:
    def test_full_soak_200_sessions_under_chaos(self):
        """The CI soak lane: >=200 sessions, ~60 simulated seconds,
        one tenant under a generated fault plan, every gate enforced."""
        report = run_soak(
            SoakConfig(
                mdb_scale=0.12,
                fleet=FleetConfig(
                    n_sessions=200,
                    n_tenants=8,
                    mean_requests_per_session=4.0,
                    think_time_s=10.0,
                    arrival_horizon_s=20.0,
                ),
                max_p99_latency_s=10.0,
            )
        )
        assert report.passed, report.report()
        assert report.fleet.sessions_completed == 200
        assert report.fleet.requests >= 200
        assert report.fleet.mean_batch_size > 1.0


class TestEdgeCompletenessGate:
    """The edge-leg soak gate: every success runs its tracking steps."""

    def _edge_config(self) -> SoakConfig:
        return SoakConfig(
            mdb_scale=0.08,
            fleet=FleetConfig(
                n_sessions=24,
                n_tenants=4,
                mean_requests_per_session=2.0,
                think_time_s=8.0,
                arrival_horizon_s=20.0,
                edge_steps_per_request=2,
            ),
            max_p99_latency_s=10.0,
        )

    def test_edge_enabled_soak_passes_and_counts_every_step(self):
        report = run_soak(self._edge_config())
        assert report.passed, report.report()
        fleet = report.fleet
        assert fleet.edge_steps == fleet.successes * 2
        assert fleet.edge_fused_steps >= 1
        assert fleet.edge_evaluations > 0

    def test_lost_edge_frames_trip_the_gate(self, monkeypatch):
        """A fused step that drops a rider must be a soak violation."""
        import repro.gateway.soak as soak_module

        real_run_fleet = soak_module.run_fleet

        def lossy_run_fleet(*args, **kwargs):
            report = real_run_fleet(*args, **kwargs)
            report.edge_steps -= 1  # simulate one dropped rider
            return report

        monkeypatch.setattr(soak_module, "run_fleet", lossy_run_fleet)
        report = run_soak(self._edge_config())
        assert not report.passed
        assert any("edge leg" in violation for violation in report.violations)
