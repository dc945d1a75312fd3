"""Command-line interface: run any paper experiment from the shell.

::

    emap list
    emap fig2  [--mdb-scale 0.3] [--seed 0]
    emap fig4
    emap fig7a / fig7b
    emap fig8a / fig8b
    emap fig9
    emap fig10  [--batches 2 --batch-size 5]
    emap fig11  [--inputs 20]
    emap table1 [--batches 2 --batch-size 5]
    emap monitor --kind seizure --duration 60
    emap obs [--json] [--duration 40] [--profile]
    emap serve [--sessions 200] [--tenants 8] [--fault-tenant tenant-0]
    emap serve --soak

Every experiment prints the same rows/series the paper's corresponding
table or figure reports.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable

from repro.version import PAPER, __version__

if TYPE_CHECKING:  # heavy imports stay deferred at runtime
    from repro.eval.experiments.common import ExperimentFixture
    from repro.signals.types import Signal

_EXPERIMENTS: dict[str, str] = {
    "fig2": "PA vs tracking iteration (motivational analysis)",
    "fig4": "transmission times per communication platform",
    "fig7a": "step-size (alpha) sweep",
    "fig7b": "search exploration-time scaling, exhaustive vs Algorithm 1",
    "fig8a": "delta / delta_A threshold equivalence",
    "fig8b": "edge tracking cost, cross-correlation vs area",
    "fig9": "closed-loop timing analysis",
    "fig10": "seizure prediction accuracy per batch and horizon",
    "fig11": "search quality, Algorithm 1 vs exhaustive",
    "table1": "prediction accuracy for all anomalies + baselines",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emap",
        description=f"Reproduction harness for: {PAPER}",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    for name, help_text in _EXPERIMENTS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--mdb-scale", type=float, default=0.3)
        sub.add_argument("--seed", type=int, default=0)
        if name in ("fig10", "table1"):
            sub.add_argument("--batches", type=int, default=2)
            sub.add_argument("--batch-size", type=int, default=5)
            sub.add_argument("--no-baselines", action="store_true")
        if name == "fig11":
            sub.add_argument("--inputs", type=int, default=20)

    monitor = subparsers.add_parser(
        "monitor", help="run one closed-loop monitoring session"
    )
    monitor.add_argument(
        "--kind",
        choices=["none", "seizure", "encephalopathy", "stroke"],
        default="seizure",
    )
    monitor.add_argument("--duration", type=float, default=60.0)
    monitor.add_argument("--mdb-scale", type=float, default=0.3)
    monitor.add_argument("--seed", type=int, default=0)
    monitor.add_argument(
        "--engine",
        choices=["scalar", "plane"],
        default="scalar",
        help="edge tracking engine (plane = compiled set, fused stepping)",
    )

    obs_cmd = subparsers.add_parser(
        "obs",
        help="run an end-to-end streaming session with observability on "
        "and report the collected metrics",
    )
    obs_cmd.add_argument(
        "--json", action="store_true", help="emit the raw metrics document"
    )
    obs_cmd.add_argument(
        "--profile",
        action="store_true",
        help="also capture a cProfile of the streaming run",
    )
    obs_cmd.add_argument(
        "--kind",
        choices=["none", "seizure", "encephalopathy", "stroke"],
        default="seizure",
    )
    obs_cmd.add_argument("--duration", type=float, default=40.0)
    obs_cmd.add_argument("--mdb-scale", type=float, default=0.2)
    obs_cmd.add_argument("--seed", type=int, default=0)
    obs_cmd.add_argument(
        "--engine",
        choices=["scalar", "plane"],
        default="scalar",
        help="edge tracking engine (plane = compiled set, fused stepping)",
    )
    obs_cmd.add_argument(
        "--chunk-samples",
        type=int,
        default=96,
        help="raw samples per streaming push (exercises partial frames)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="drive a simulated session fleet through the multi-tenant "
        "serving gateway (coalesced batch search)",
    )
    serve.add_argument("--sessions", type=int, default=200)
    serve.add_argument("--tenants", type=int, default=8)
    serve.add_argument(
        "--mean-requests",
        type=float,
        default=4.0,
        help="mean requests per session (seeded Poisson, minimum 1)",
    )
    serve.add_argument(
        "--think-time",
        type=float,
        default=1.0,
        help="simulated seconds between a session's requests",
    )
    serve.add_argument(
        "--horizon",
        type=float,
        default=5.0,
        help="sessions arrive uniformly over this many simulated seconds",
    )
    serve.add_argument(
        "--time-scale",
        type=float,
        default=0.0,
        help="wall seconds per simulated second (0 = as fast as possible)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="largest coalesced search batch the gateway dispatches",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="per-tenant queue bound (admission control rejects beyond it)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=2048,
        help="gateway-wide pending bound (global backpressure)",
    )
    serve.add_argument(
        "--edge-steps",
        type=int,
        default=0,
        help="edge tracking iterations per successful search (fused "
        "fleet stepping; 0 = cloud-only simulation)",
    )
    serve.add_argument("--frames", type=int, default=32)
    serve.add_argument("--mdb-scale", type=float, default=0.15)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--fault-tenant",
        default=None,
        help="inject a generated fault plan into this tenant only",
    )
    serve.add_argument("--fault-rate", type=float, default=0.35)
    serve.add_argument("--fault-seed", type=int, default=13)
    serve.add_argument(
        "--p99-budget",
        type=float,
        default=None,
        help="soak gate: wall-clock p99 latency ceiling in seconds "
        "(default: the SoakConfig tripwire)",
    )
    serve.add_argument(
        "--soak",
        action="store_true",
        help="run the soak health gate (chaos on one tenant, hard "
        "invariants on the outcome); exit code 1 on any violation",
    )
    serve.add_argument(
        "--obs",
        action="store_true",
        help="append the collected gateway.* metrics report",
    )
    serve.add_argument(
        "--shard-slices",
        type=int,
        default=None,
        help="slices per compiled plane shard (default: the sharded "
        "plane's built-in width); smaller shards make online inserts "
        "cheaper to adopt, larger ones amortise per-shard overheads",
    )
    return parser


def _fixture(args: argparse.Namespace) -> ExperimentFixture:
    from repro.eval.experiments.common import build_fixture

    return build_fixture(mdb_scale=args.mdb_scale, seed=args.seed)


def _cmd_list(_args: argparse.Namespace) -> str:
    lines = [f"{name:<8} {description}" for name, description in _EXPERIMENTS.items()]
    return "\n".join(lines)


def _cmd_fig2(args: argparse.Namespace) -> str:
    from repro.eval.experiments import fig2_motivation

    return fig2_motivation.run(_fixture(args)).report()


def _cmd_fig4(_args: argparse.Namespace) -> str:
    from repro.eval.experiments import fig4_transmission

    return fig4_transmission.run().report()


def _cmd_fig7a(args: argparse.Namespace) -> str:
    from repro.eval.experiments import fig7_alpha_sweep

    return fig7_alpha_sweep.run_alpha_sweep(_fixture(args)).report()


def _cmd_fig7b(args: argparse.Namespace) -> str:
    from repro.eval.experiments import fig7_alpha_sweep

    return fig7_alpha_sweep.run_scaling(
        _fixture(args), db_sizes=(500, 1000, 2000, 4000)
    ).report()


def _cmd_fig8a(args: argparse.Namespace) -> str:
    from repro.eval.experiments import fig8_threshold

    return fig8_threshold.run_threshold_equivalence(_fixture(args)).report()


def _cmd_fig8b(args: argparse.Namespace) -> str:
    from repro.eval.experiments import fig8_threshold

    return fig8_threshold.run_tracking_cost(_fixture(args)).report()


def _cmd_fig9(args: argparse.Namespace) -> str:
    from repro.eval.experiments import fig9_timeline

    result = fig9_timeline.run(_fixture(args))
    return result.report() + "\n\ntimeline (first events):\n" + "\n".join(
        result.timeline[:25]
    )


def _cmd_fig10(args: argparse.Namespace) -> str:
    from repro.eval.batches import BatchSpec
    from repro.eval.experiments import fig10_seizure_accuracy

    shape = BatchSpec(n_batches=args.batches, batch_size=args.batch_size)
    result = fig10_seizure_accuracy.run(
        _fixture(args),
        batch_spec=shape,
        seed=args.seed,
        with_baseline=not args.no_baselines,
    )
    return result.report()


def _cmd_fig11(args: argparse.Namespace) -> str:
    from repro.eval.experiments import fig11_search_quality

    return fig11_search_quality.run(
        _fixture(args),
        n_inputs_per_class=args.inputs,
        seed=args.seed,
    ).report()


def _cmd_table1(args: argparse.Namespace) -> str:
    from repro.eval.batches import BatchSpec
    from repro.eval.experiments import table1_accuracy

    shape = BatchSpec(n_batches=args.batches, batch_size=args.batch_size)
    result = table1_accuracy.run(
        _fixture(args),
        batch_spec=shape,
        seed=args.seed,
        with_baselines=not args.no_baselines,
    )
    return result.report()


def _cmd_monitor(args: argparse.Namespace) -> str:
    from repro.config import PipelineConfig, build_pipeline
    from repro.edge.tracker import TrackerConfig
    from repro.signals.anomalies import AnomalySpec, make_anomalous_signal
    from repro.signals.generator import EEGGenerator
    from repro.signals.types import AnomalyType

    kind = AnomalyType(args.kind)
    generator = EEGGenerator(seed=args.seed + 1000)
    if kind.is_anomalous:
        if kind is AnomalyType.SEIZURE:
            spec = AnomalySpec(
                kind=kind,
                onset_s=0.8 * args.duration,
                buildup_s=0.7 * args.duration,
            )
        else:
            spec = AnomalySpec(kind=kind)
        recording = make_anomalous_signal(generator, args.duration, spec)
    else:
        recording = generator.record(args.duration)
    pipeline = build_pipeline(
        PipelineConfig(
            mdb_scale=args.mdb_scale,
            seed=args.seed,
            with_artifacts=False,
            tracker=TrackerConfig(engine=args.engine),
        )
    )
    session = pipeline.framework.run(recording)
    lines = [
        f"input: {args.kind}, {args.duration:.0f}s "
        f"(MDB: {len(pipeline.mdb)} signal-sets)",
        f"iterations: {session.iterations}, cloud calls: {session.cloud_calls}",
        f"initial latency: {session.initial_latency_s:.2f}s",
        f"peak anomaly probability: {session.peak_probability:.2f}",
        f"anomaly predicted: {session.final_prediction}",
        "PA series (every 5th): "
        + " ".join(f"{p:.2f}" for p in session.pa_series[::5]),
    ]
    return "\n".join(lines)


def _obs_recording(args: argparse.Namespace) -> Signal:
    """An evaluation recording for the observability session."""
    from repro.signals.anomalies import AnomalySpec, make_anomalous_signal
    from repro.signals.generator import EEGGenerator
    from repro.signals.types import AnomalyType

    kind = AnomalyType(args.kind)
    generator = EEGGenerator(seed=args.seed + 1000)
    if not kind.is_anomalous:
        return generator.record(args.duration)
    if kind is AnomalyType.SEIZURE:
        spec = AnomalySpec(
            kind=kind,
            onset_s=0.8 * args.duration,
            buildup_s=0.7 * args.duration,
        )
    else:
        spec = AnomalySpec(kind=kind)
    return make_anomalous_signal(generator, args.duration, spec)


def _cmd_obs(args: argparse.Namespace) -> str:
    """End-to-end streaming run with the observability layer enabled."""
    from repro import obs
    from repro.config import PipelineConfig, build_pipeline
    from repro.edge.tracker import TrackerConfig
    from repro.obs.profiling import profile_block
    from repro.runtime.streaming import StreamingConfig, StreamingMonitor

    obs.reset()
    obs.enable(profiling=args.profile)
    pipeline = build_pipeline(
        PipelineConfig(
            mdb_scale=args.mdb_scale,
            seed=args.seed,
            with_artifacts=False,
        )
    )
    recording = _obs_recording(args)
    monitor = StreamingMonitor(
        pipeline.cloud,
        StreamingConfig(tracker=TrackerConfig(engine=args.engine)),
    )
    chunk = max(1, args.chunk_samples)
    with profile_block("obs.streaming_run", obs.profiles()):
        for start in range(0, len(recording.data), chunk):
            monitor.push(recording.data[start : start + chunk])
    document = obs.export()
    if args.json:
        import json

        return json.dumps(document, indent=2)
    header = (
        f"streaming session: {args.kind}, {args.duration:.0f}s, "
        f"{len(monitor.updates)} frames, {monitor.cloud_calls} cloud calls "
        f"(MDB: {len(pipeline.mdb)} signal-sets)\n"
    )
    return header + obs.format_report(document)


def _cmd_serve(args: argparse.Namespace) -> str | tuple[str, int]:
    """Fleet (or soak-gate) run through the serving gateway."""
    from repro import obs
    from repro.gateway import FleetConfig, GatewayConfig

    obs.reset()
    obs.enable()
    fleet_config = FleetConfig(
        n_sessions=args.sessions,
        n_tenants=args.tenants,
        mean_requests_per_session=args.mean_requests,
        think_time_s=args.think_time,
        arrival_horizon_s=args.horizon,
        time_scale=args.time_scale,
        edge_steps_per_request=args.edge_steps,
        seed=args.seed,
    )
    gateway_config = GatewayConfig(
        max_batch=args.max_batch,
        max_queue_per_tenant=args.max_queue,
        max_pending=args.max_pending,
    )
    if args.soak:
        from repro.gateway import SoakConfig, run_soak

        overrides = (
            {} if args.p99_budget is None
            else {"max_p99_latency_s": args.p99_budget}
        )
        soak = run_soak(
            SoakConfig(
                mdb_scale=args.mdb_scale,
                fleet=fleet_config,
                gateway=gateway_config,
                fault_seed=args.fault_seed,
                fault_rate=args.fault_rate,
                n_frames=args.frames,
                seed=args.seed,
                **overrides,
            )
        )
        output = soak.report()
        if args.obs:
            output += "\n\n" + obs.format_report(obs.export())
        return output if soak.passed else (output, 1)

    from repro.cloud.search import SearchConfig, SlidingWindowSearch
    from repro.cloud.server import CloudServer
    from repro.eval.experiments.common import build_fixture
    from repro.gateway import build_frame_pool, run_fleet

    from repro.cloud.shards import DEFAULT_SHARD_SLICES

    fixture = build_fixture(mdb_scale=args.mdb_scale, seed=args.seed)
    server = CloudServer(
        fixture.slices,
        search=SlidingWindowSearch(SearchConfig(), precompute=True),
        shard_slices=(
            args.shard_slices
            if args.shard_slices is not None
            else DEFAULT_SHARD_SLICES
        ),
    )
    frames = build_frame_pool(
        fixture.slices, n_frames=args.frames, seed=args.seed
    )
    tenant_plans = None
    if args.fault_tenant is not None:
        from repro.faults.plan import FaultPlan

        per_tenant_calls = (
            args.sessions / max(1, args.tenants) * args.mean_requests
        )
        tenant_plans = {
            args.fault_tenant: FaultPlan.generate(
                seed=args.fault_seed,
                horizon_calls=max(10, int(per_tenant_calls * 4)),
                fault_rate=args.fault_rate,
            )
        }
    report = run_fleet(
        server, frames, fleet_config, gateway_config, tenant_plans
    )
    header = (
        f"fleet: {args.sessions} sessions over {args.tenants} tenant(s) "
        f"(MDB: {len(fixture.mdb)} signal-sets, max batch {args.max_batch})\n"
    )
    output = header + report.report()
    if args.obs:
        output += "\n\n" + obs.format_report(obs.export())
    return output


_COMMANDS: dict[str, Callable] = {
    "list": _cmd_list,
    "fig2": _cmd_fig2,
    "fig4": _cmd_fig4,
    "fig7a": _cmd_fig7a,
    "fig7b": _cmd_fig7b,
    "fig8a": _cmd_fig8a,
    "fig8b": _cmd_fig8b,
    "fig9": _cmd_fig9,
    "fig10": _cmd_fig10,
    "fig11": _cmd_fig11,
    "table1": _cmd_table1,
    "monitor": _cmd_monitor,
    "obs": _cmd_obs,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Commands return either the report text (exit 0) or a
    ``(text, exit_code)`` pair — ``emap serve --soak`` uses the latter
    so CI fails on a violated soak gate.
    """
    args = _build_parser().parse_args(argv)
    output = _COMMANDS[args.command](args)
    if isinstance(output, tuple):
        text, code = output
        print(text)
        return code
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
