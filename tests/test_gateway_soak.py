"""Soak suite for the serving gateway (``pytest -m soak``).

A reduced-scale soak always runs, keeping the gate logic exercised in
every suite.  The full CI soak — 200 monitored sessions of 30 s each,
arriving over 20 simulated seconds, with a fault plan on one tenant —
is opt-in via ``EMAP_SOAK=1`` so local tier-1 runs stay fast; the CI
``soak`` job sets it.

The gates are hard serving invariants: every session adopts a set,
fault isolation (clean tenants see zero failures), bounded queues that
drain to empty, a wall-clock p99 latency budget, and edge completeness
(every adopted set is stepped on its landing frame, and every step a
session got back came from a fused fleet step).
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

    def test_faulted_tenant_must_be_in_the_fleet(self):
        fleet = FleetConfig(n_tenants=3)
        SoakConfig(fleet=fleet, faulted_tenant="tenant-2")
        for name in ("tenant-3", "tenant-01", "other"):
            with pytest.raises(GatewayError, match="unknown tenant"):
                SoakConfig(fleet=fleet, faulted_tenant=name)


class TestReducedSoak:
    def test_reduced_scale_soak_passes_every_gate(self):
        report = run_soak(
            SoakConfig(
                mdb_scale=0.08,
                fleet=FleetConfig(
                    n_sessions=48,
                    n_tenants=6,
                    session_s=12.0,
                    arrival_horizon_s=20.0,
                ),
                max_p99_latency_s=10.0,
            )
        )
        assert report.passed, report.report()
        fleet = report.fleet
        assert fleet.sessions == 48
        assert fleet.sessions_without_set == 0
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
                    session_s=6.0,
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
        """The CI soak lane: 200 sessions of 30 s over a 20 s arrival
        horizon, one tenant under a generated fault plan, every gate
        enforced."""
        report = run_soak(
            SoakConfig(
                mdb_scale=0.12,
                fleet=FleetConfig(
                    n_sessions=200,
                    n_tenants=8,
                    session_s=30.0,
                    arrival_horizon_s=20.0,
                ),
                max_p99_latency_s=10.0,
            )
        )
        assert report.passed, report.report()
        assert report.fleet.sessions == 200
        assert report.fleet.requests >= 800
        assert report.fleet.mean_batch_size > 1.0


class TestEdgeCompletenessGate:
    """The edge-leg soak gate: every adopted set is stepped on its
    landing frame, and every step comes back from a fused step."""

    def _edge_config(self) -> SoakConfig:
        return SoakConfig(
            mdb_scale=0.08,
            fleet=FleetConfig(
                n_sessions=24,
                n_tenants=4,
                session_s=8.0,
                arrival_horizon_s=20.0,
            ),
            max_p99_latency_s=10.0,
        )

    def test_edge_enabled_soak_passes_and_counts_every_step(self):
        report = run_soak(self._edge_config())
        assert report.passed, report.report()
        fleet = report.fleet
        assert fleet.edge_steps == fleet.edge_fused_frames > 0
        assert fleet.sets_stepped == fleet.sets_adopted >= fleet.sessions
        assert fleet.edge_fused_steps >= 1
        assert fleet.edge_evaluations > 0

    def _lossy_soak(self, monkeypatch, field: str):
        """The soak with ``field`` of the fleet report one short."""
        import repro.gateway.soak as soak_module

        real_run_fleet = soak_module.run_fleet

        def lossy_run_fleet(*args, **kwargs):
            report = real_run_fleet(*args, **kwargs)
            setattr(report, field, getattr(report, field) - 1)
            return report

        monkeypatch.setattr(soak_module, "run_fleet", lossy_run_fleet)
        return run_soak(self._edge_config())

    def test_lost_edge_frames_trip_the_gate(self, monkeypatch):
        """A fused step that drops a rider must be a soak violation."""
        report = self._lossy_soak(monkeypatch, "edge_steps")
        assert not report.passed
        assert any(
            "edge leg" in violation and "tracking steps" in violation
            for violation in report.violations
        )

    def test_unstepped_fresh_set_trips_the_gate(self, monkeypatch):
        """A landing frame that does not step its fresh set must be a
        soak violation."""
        report = self._lossy_soak(monkeypatch, "sets_stepped")
        assert not report.passed
        assert any(
            "edge leg" in violation and "not stepped" in violation
            for violation in report.violations
        )
