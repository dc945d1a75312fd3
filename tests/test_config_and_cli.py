"""Tests for the pipeline factory and the command-line interface."""

import pytest

from repro import obs
from repro.cli import main
from repro.config import PipelineConfig, build_pipeline
from repro.errors import ConfigurationError, GatewayError
from repro.signals.generator import EEGGenerator


class TestPipelineConfig:
    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError, match="scale"):
            PipelineConfig(mdb_scale=0.0)


class TestBuildPipeline:
    def test_assembles_whole_stack(self):
        pipeline = build_pipeline(
            PipelineConfig(mdb_scale=0.05, with_artifacts=False)
        )
        assert len(pipeline.mdb) > 0
        assert pipeline.cloud.n_slices == len(pipeline.mdb)
        assert pipeline.build_report.slices_inserted == len(pipeline.mdb)

    def test_end_to_end_session(self):
        pipeline = build_pipeline(
            PipelineConfig(mdb_scale=0.05, with_artifacts=False)
        )
        session = pipeline.framework.run(EEGGenerator(seed=5).record(10.0))
        assert session.iterations > 0

    def test_platform_selection(self):
        pipeline = build_pipeline(
            PipelineConfig(mdb_scale=0.05, with_artifacts=False, platform="LTE-A")
        )
        assert pipeline.cloud.timing.link.platform.name == "LTE-A"


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig10" in output
        assert "table1" in output

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_fig2_small(self, capsys):
        assert main(["fig2", "--mdb-scale", "0.1"]) == 0
        assert "PA" in capsys.readouterr().out

    def test_monitor_normal(self, capsys):
        assert (
            main(
                [
                    "monitor",
                    "--kind",
                    "none",
                    "--duration",
                    "8",
                    "--mdb-scale",
                    "0.05",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "anomaly predicted" in output

    def test_obs_reports_fleet_tracking(self, capsys):
        """``emap obs`` end to end: the monitor tracks on the fleet, so
        the report has the ``edge.fleet.*`` series and no
        ``edge.tracker.*`` one."""
        try:
            assert main(["obs", "--duration", "8", "--mdb-scale", "0.05"]) == 0
        finally:
            obs.disable()
            obs.reset()
        output = capsys.readouterr().out
        assert "edge.fleet.step_s" in output
        assert "edge.fleet.area_evaluations" in output
        assert "runtime.loop.iterations" in output
        assert "edge.tracker." not in output

    def test_serve_fleet(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--sessions",
                    "16",
                    "--tenants",
                    "4",
                    "--mdb-scale",
                    "0.05",
                    "--duration",
                    "6",
                    "--obs",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "16 sessions over 4 tenant(s)" in output
        assert "latency p50/p95/p99" in output
        assert "gateway.requests" in output  # --obs appends the metrics

    def test_serve_fleet_with_edge_steps(self, capsys):
        """Every served session tracks at the edge: the report has the
        edge-leg line and ``--obs`` the fused-step metrics."""
        assert (
            main(
                [
                    "serve",
                    "--sessions",
                    "8",
                    "--tenants",
                    "2",
                    "--mdb-scale",
                    "0.05",
                    "--duration",
                    "6",
                    "--obs",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "edge:" in output  # the report grows the edge-leg line
        assert "fused fleet step" in output
        assert "edge.fleet.step_s" in output  # --obs metrics
        assert "runtime.loop.iterations" in output  # the loop's own counters

    def test_serve_soak_exit_codes(self, capsys):
        args = [
            "serve",
            "--soak",
            "--sessions",
            "12",
            "--tenants",
            "4",
            "--mdb-scale",
            "0.05",
            "--duration",
            "6",
        ]
        assert main(args) == 0
        assert "soak gates: all passed" in capsys.readouterr().out
        # An impossible latency budget must fail the gate and the exit.
        assert main(args + ["--p99-budget", "1e-9"]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_serve_soak_faults_the_named_tenant(self, monkeypatch):
        import repro.gateway

        seen = []

        def fake_run_soak(config):
            seen.append(config.faulted_tenant)
            raise SystemExit(0)

        monkeypatch.setattr(repro.gateway, "run_soak", fake_run_soak)
        args = ["serve", "--soak", "--tenants", "4", "--fault-tenant", "tenant-3"]
        with pytest.raises(SystemExit):
            main(args)
        assert seen == ["tenant-3"]

    @pytest.mark.parametrize("soak", [[], ["--soak"]])
    def test_serve_rejects_fault_tenant_outside_fleet(self, soak):
        """A name no session uses would fault nobody, and the soak's
        isolation gate would then pass without testing anything."""
        args = [
            "serve",
            *soak,
            "--sessions",
            "4",
            "--tenants",
            "4",
            "--mdb-scale",
            "0.05",
            "--duration",
            "6",
        ]
        for name in ("tenant-4", "tenant-x"):
            with pytest.raises(GatewayError, match="unknown tenant"):
                main(args + ["--fault-tenant", name])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["fig11", "monitor", "obs", "serve"])
    @pytest.mark.parametrize("mode", ["turbo", "lossless"])
    def test_rejects_unknown_two_stage_mode(self, command, mode):
        """Two-stage search is gone: ``--two-stage`` is a usage error."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--two-stage", mode])
        assert excinfo.value.code == 2  # argparse usage error

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
