"""CI benchmark-regression gates: Fig. 7(b) scaling + plane throughput.

**Fig. 7(b) gate** — runs the exploration-time scaling experiment
(exhaustive vs Algorithm 1) with the ``repro.obs`` layer enabled,
exports the collected metrics document, and compares the run against a
committed baseline (``benchmarks/baselines/fig7b.json``).  It fails
when:

* **correlations evaluated** by either engine at any database size
  drift by more than ``--threshold`` (default 20 %) — the search is
  seeded and deterministic, so any drift is an algorithmic change;
* **search wall-time** regresses by more than the threshold.  Wall
  time is gated through the *speedup ratio* (exhaustive time /
  Algorithm 1 time, the paper's ~6.8× headline): absolute seconds vary
  with host hardware, but the ratio is self-normalising because both
  engines run the identical inner loop on the same machine.  Pass
  ``--strict-time`` to additionally gate absolute Algorithm 1 seconds
  against the baseline (only meaningful when baseline and run share
  hardware).

**Plane-throughput gate** — serves the same request stream through the
legacy per-request path and the compiled
:class:`~repro.cloud.shards.ShardedSearchPlane`
(``benchmarks/baselines/plane_throughput.json``).  It fails when:

* the two arms stop being **bit-identical** (matches or
  ``correlations_evaluated`` diverge) — never acceptable;
* ``correlations_per_query`` drifts from the baseline (deterministic,
  so drift is an algorithmic change);
* the plane speedup falls below the **3x absolute floor** — like the
  Fig. 7(b) speedup ratio this is self-normalising (both arms run on
  the same host), so no baseline hardware match is needed.

**Edge-plane gate** — tracks the same candidate set and frame stream
through the scalar per-candidate loop, ``engine="plane"`` (a
one-session :class:`~repro.edge.fleet.FleetTracker`) and a batched
many-session :class:`~repro.edge.fleet.FleetTracker`
(``benchmarks/baselines/edge_plane_throughput.json``).  It fails when:

* any arm stops being **bit-identical** to the scalar tracker (areas,
  offsets, removals or evaluation counts diverge) — never acceptable;
* ``evaluations_per_frame`` drifts from the baseline (deterministic,
  so drift is an algorithmic change);
* the plane speedup falls below the **3x absolute floor** at 100
  candidates, or the fleet speedup below **2x** — both
  self-normalising ratios (all arms run on the same host).

**Gateway gate** — serves the same concurrent request stream through a
``max_batch=1`` gateway (solo walks) and the production coalescing
gateway (``benchmarks/baselines/gateway_throughput.json``).  It fails
when:

* the two arms stop being **bit-identical** (matches or
  ``correlations_evaluated`` diverge) — never acceptable;
* ``correlations_per_request`` drifts from the baseline
  (deterministic, so drift is an algorithmic change);
* the coalescing speedup falls below the **0.75x floor** — coalescing
  must never *meaningfully* cost throughput.  The coalescing win is
  dispatch amortisation, so the measured ratio sits near 1x (0.9–1.3x
  observed depending on MDB scale and host load); the floor catches a
  regression that makes shared batch walks outright costly, and both
  arms run best-of-rounds on the same host so the ratio is
  self-normalising;
* batches stop forming under concurrent load (mean batch size
  collapses toward 1).

**Shard gate** — adopts the same single-document insert stream by
compiling a fresh plane from the whole MDB and by one plane's delta
refresh (``benchmarks/baselines/shard_throughput.json``).  It fails
when:

* the refreshed results stop being **bit-identical** to the fresh
  plane after any insert — never acceptable;
* ``shards_compiled`` drifts from the baseline — each single-document
  insert must compile exactly its delta shard (content addressing is
  deterministic, so drift means reuse broke);
* the delta-refresh speedup falls below the **5x absolute floor** over
  the fresh full build — self-normalising, both arms share the host.  The
  floor is the sharded plane's reason to exist: an online-growing MDB
  must adopt a single inserted slice without paying the whole store's
  recompile.

Regenerate the baselines after an intentional change with::

    python benchmarks/check_regression.py --update

Exit status: 0 = within budget, 1 = regression, 2 = missing baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if "repro" not in sys.modules:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.eval.experiments import fig7_alpha_sweep  # noqa: E402
from repro.eval.experiments.common import build_fixture  # noqa: E402

DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "fig7b.json"
DEFAULT_PLANE_BASELINE = (
    REPO_ROOT / "benchmarks" / "baselines" / "plane_throughput.json"
)
DEFAULT_EDGE_PLANE_BASELINE = (
    REPO_ROOT / "benchmarks" / "baselines" / "edge_plane_throughput.json"
)
DEFAULT_GATEWAY_BASELINE = (
    REPO_ROOT / "benchmarks" / "baselines" / "gateway_throughput.json"
)
DEFAULT_SHARD_BASELINE = (
    REPO_ROOT / "benchmarks" / "baselines" / "shard_throughput.json"
)
DEFAULT_METRICS_OUT = REPO_ROOT / "benchmark_reports" / "fig7b_obs_metrics.json"
DEFAULT_DB_SIZES = (500, 1000, 2000)
PLANE_SPEEDUP_FLOOR = 3.0
PLANE_N_QUERIES = 12
GATEWAY_SPEEDUP_FLOOR = 0.75
GATEWAY_N_REQUESTS = 96
GATEWAY_CONCURRENCY = 32
GATEWAY_ROUNDS = 3
GATEWAY_MIN_MEAN_BATCH = GATEWAY_CONCURRENCY / 4
EDGE_PLANE_SPEEDUP_FLOOR = 3.0
EDGE_FLEET_SPEEDUP_FLOOR = 2.0
EDGE_PLANE_CANDIDATES = 100
EDGE_PLANE_N_FRAMES = 12
SHARD_DELTA_SPEEDUP_FLOOR = 5.0
SHARD_SLICES_PER_SHARD = 16
SHARD_N_INSERTS = 4


def run_benchmark(mdb_scale: float, seed: int, db_sizes: tuple[int, ...]) -> dict:
    """One instrumented scaling run, summarised for baseline/compare."""
    obs.reset()
    obs.enable()
    fixture = build_fixture(mdb_scale=mdb_scale, seed=seed)
    result = fig7_alpha_sweep.run_scaling(fixture, db_sizes=db_sizes)
    summary = {
        "config": {
            "mdb_scale": mdb_scale,
            "seed": seed,
            "db_sizes": list(db_sizes),
        },
        "db_sizes": result.db_sizes,
        "exhaustive_correlations": result.exhaustive_correlations,
        "algorithm1_correlations": result.algorithm1_correlations,
        "exhaustive_time_s": result.exhaustive_time_s,
        "algorithm1_time_s": result.algorithm1_time_s,
        "mean_speedup": result.mean_speedup,
        "mean_correlation_reduction": result.mean_correlation_reduction,
    }
    return summary


def run_plane_benchmark(mdb_scale: float, seed: int) -> dict:
    """One plane-throughput run, summarised for baseline/compare."""
    import plane_throughput

    fixture = build_fixture(mdb_scale=mdb_scale, seed=seed)
    result = plane_throughput.run_throughput(fixture, n_queries=PLANE_N_QUERIES)
    return plane_throughput.summarize(result, mdb_scale=mdb_scale, seed=seed)


def run_edge_plane_benchmark(seed: int) -> dict:
    """One edge-plane tracking run, summarised for baseline/compare."""
    import edge_plane_throughput

    result = edge_plane_throughput.run_tracking_throughput(
        candidates=EDGE_PLANE_CANDIDATES,
        n_frames=EDGE_PLANE_N_FRAMES,
        seed=seed,
    )
    return edge_plane_throughput.summarize(result, seed=seed)


def run_shard_benchmark(mdb_scale: float, seed: int) -> dict:
    """One sharded-plane adoption run, summarised for baseline/compare."""
    import shard_throughput

    fixture = build_fixture(mdb_scale=mdb_scale, seed=seed)
    result = shard_throughput.run_shard_throughput(
        fixture,
        shard_slices=SHARD_SLICES_PER_SHARD,
        n_inserts=SHARD_N_INSERTS,
    )
    return shard_throughput.summarize(result, mdb_scale=mdb_scale, seed=seed)


def run_gateway_benchmark(mdb_scale: float, seed: int) -> dict:
    """One gateway-throughput run, summarised for baseline/compare."""
    import gateway_throughput

    fixture = build_fixture(mdb_scale=mdb_scale, seed=seed)
    result = gateway_throughput.run_gateway_throughput(
        fixture,
        n_requests=GATEWAY_N_REQUESTS,
        concurrency=GATEWAY_CONCURRENCY,
        rounds=GATEWAY_ROUNDS,
    )
    return gateway_throughput.summarize(result, mdb_scale=mdb_scale, seed=seed)


def relative_drift(current: float, baseline: float) -> float:
    """Signed drift of ``current`` from ``baseline`` (0.2 = +20 %)."""
    if baseline == 0:
        return 0.0 if current == 0 else float("inf")
    return (current - baseline) / baseline


def compare(
    summary: dict,
    baseline: dict,
    threshold: float,
    strict_time: bool,
) -> list[str]:
    """Return the list of gate failures (empty = pass)."""
    failures: list[str] = []
    if summary["db_sizes"] != baseline["db_sizes"]:
        return [
            f"db_sizes mismatch: run {summary['db_sizes']} vs "
            f"baseline {baseline['db_sizes']} — regenerate with --update"
        ]
    for key in ("exhaustive_correlations", "algorithm1_correlations"):
        for size, current, reference in zip(
            summary["db_sizes"], summary[key], baseline[key]
        ):
            drift = relative_drift(current, reference)
            if abs(drift) > threshold:
                failures.append(
                    f"{key}[{size}]: {current} vs baseline {reference} "
                    f"({drift:+.1%} > ±{threshold:.0%})"
                )
    speedup_drift = relative_drift(
        summary["mean_speedup"], baseline["mean_speedup"]
    )
    if speedup_drift < -threshold:
        failures.append(
            f"mean_speedup: {summary['mean_speedup']:.2f}x vs baseline "
            f"{baseline['mean_speedup']:.2f}x ({speedup_drift:+.1%} "
            f"< -{threshold:.0%}) — search wall-time regressed"
        )
    if strict_time:
        for size, current, reference in zip(
            summary["db_sizes"],
            summary["algorithm1_time_s"],
            baseline["algorithm1_time_s"],
        ):
            drift = relative_drift(current, reference)
            if drift > threshold:
                failures.append(
                    f"algorithm1_time_s[{size}]: {current:.3f}s vs baseline "
                    f"{reference:.3f}s ({drift:+.1%} > {threshold:.0%})"
                )
    return failures


def compare_plane(summary: dict, baseline: dict) -> list[str]:
    """Gate failures for the plane-throughput bench (empty = pass)."""
    failures: list[str] = []
    if not summary["identical"]:
        failures.append(
            "plane results diverged from the legacy path — matches or "
            "correlations_evaluated are no longer bit-identical"
        )
    if summary["correlations_per_query"] != baseline["correlations_per_query"]:
        failures.append(
            "correlations_per_query drifted from baseline "
            f"({summary['correlations_per_query']} vs "
            f"{baseline['correlations_per_query']}) — the search is "
            "deterministic, so this is an algorithmic change"
        )
    if summary["speedup"] < PLANE_SPEEDUP_FLOOR:
        failures.append(
            f"plane speedup {summary['speedup']:.2f}x fell below the "
            f"{PLANE_SPEEDUP_FLOOR:.0f}x floor (baseline "
            f"{baseline['speedup']:.2f}x) — serving-path regression"
        )
    return failures


def compare_edge_plane(summary: dict, baseline: dict) -> list[str]:
    """Gate failures for the edge-plane tracking bench (empty = pass)."""
    failures: list[str] = []
    if not summary["identical"]:
        failures.append(
            "edge plane/fleet tracking diverged from the scalar tracker — "
            "areas, offsets, removals or evaluation counts are no longer "
            "bit-identical"
        )
    if summary["evaluations_per_frame"] != baseline["evaluations_per_frame"]:
        failures.append(
            "edge evaluations_per_frame drifted from baseline "
            f"({summary['evaluations_per_frame']} vs "
            f"{baseline['evaluations_per_frame']}) — the scan is "
            "deterministic, so this is an algorithmic change"
        )
    if summary["speedup"] < EDGE_PLANE_SPEEDUP_FLOOR:
        failures.append(
            f"edge plane speedup {summary['speedup']:.2f}x fell below the "
            f"{EDGE_PLANE_SPEEDUP_FLOOR:.0f}x floor at "
            f"{summary['candidates']} candidates (baseline "
            f"{baseline['speedup']:.2f}x, kernel={summary['kernel']}) — "
            "tracking-path regression"
        )
    if summary["fleet_speedup"] < EDGE_FLEET_SPEEDUP_FLOOR:
        failures.append(
            f"edge fleet speedup {summary['fleet_speedup']:.2f}x fell below "
            f"the {EDGE_FLEET_SPEEDUP_FLOOR:.0f}x floor (baseline "
            f"{baseline['fleet_speedup']:.2f}x) — batched-stepping regression"
        )
    return failures


def compare_gateway(summary: dict, baseline: dict) -> list[str]:
    """Gate failures for the gateway-throughput bench (empty = pass)."""
    failures: list[str] = []
    if not summary["identical"]:
        failures.append(
            "gateway coalesced results diverged from solo walks — matches "
            "or correlations_evaluated are no longer bit-identical"
        )
    if (
        summary["correlations_per_request"]
        != baseline["correlations_per_request"]
    ):
        failures.append(
            "gateway correlations_per_request drifted from baseline — the "
            "search is deterministic, so this is an algorithmic change"
        )
    if summary["speedup"] < GATEWAY_SPEEDUP_FLOOR:
        failures.append(
            f"gateway coalescing speedup {summary['speedup']:.2f}x fell "
            f"below the {GATEWAY_SPEEDUP_FLOOR:.2f}x floor (baseline "
            f"{baseline['speedup']:.2f}x) — coalescing now costs throughput"
        )
    if summary["mean_batch_size"] < GATEWAY_MIN_MEAN_BATCH:
        failures.append(
            f"gateway mean batch size {summary['mean_batch_size']:.1f} fell "
            f"below {GATEWAY_MIN_MEAN_BATCH:.0f} at concurrency "
            f"{summary['concurrency']} — requests stopped coalescing"
        )
    return failures


def compare_shards(summary: dict, baseline: dict) -> list[str]:
    """Gate failures for the sharded-plane adoption bench (empty = pass)."""
    failures: list[str] = []
    if not summary["identical"]:
        failures.append(
            "delta-refreshed plane results diverged from a freshly "
            "compiled plane after an insert — matches or "
            "correlations_evaluated are no longer bit-identical"
        )
    if summary["shards_compiled"] != baseline["shards_compiled"]:
        failures.append(
            "shards_compiled drifted from baseline "
            f"({summary['shards_compiled']} vs "
            f"{baseline['shards_compiled']}) — content addressing is "
            "deterministic, so an insert stopped compiling exactly its "
            "delta shard"
        )
    if summary["delta_speedup"] < SHARD_DELTA_SPEEDUP_FLOOR:
        failures.append(
            f"shard delta-refresh speedup {summary['delta_speedup']:.2f}x "
            f"fell below the {SHARD_DELTA_SPEEDUP_FLOOR:.0f}x floor over "
            f"the fresh full build (baseline "
            f"{baseline['delta_speedup']:.2f}x) "
            "— incremental compilation regression"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--plane-baseline", type=Path, default=DEFAULT_PLANE_BASELINE
    )
    parser.add_argument(
        "--skip-plane",
        action="store_true",
        help="skip the serving-plane throughput gate",
    )
    parser.add_argument(
        "--edge-plane-baseline",
        type=Path,
        default=DEFAULT_EDGE_PLANE_BASELINE,
    )
    parser.add_argument(
        "--skip-edge-plane",
        action="store_true",
        help="skip the edge tracking-plane throughput gate",
    )
    parser.add_argument(
        "--gateway-baseline", type=Path, default=DEFAULT_GATEWAY_BASELINE
    )
    parser.add_argument(
        "--skip-gateway",
        action="store_true",
        help="skip the serving-gateway throughput gate",
    )
    parser.add_argument(
        "--shard-baseline", type=Path, default=DEFAULT_SHARD_BASELINE
    )
    parser.add_argument(
        "--skip-shards",
        action="store_true",
        help="skip the sharded-plane incremental-compile gate",
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite the baseline and exit 0"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="allowed relative drift (0.2 = 20%%)",
    )
    parser.add_argument(
        "--strict-time",
        action="store_true",
        help="also gate absolute Algorithm 1 wall-time (same-host baselines only)",
    )
    parser.add_argument("--mdb-scale", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--db-sizes", type=int, nargs="+", default=list(DEFAULT_DB_SIZES)
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=DEFAULT_METRICS_OUT,
        help="where to write the exported repro.obs metrics document",
    )
    args = parser.parse_args(argv)

    summary = run_benchmark(args.mdb_scale, args.seed, tuple(args.db_sizes))
    args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
    args.metrics_out.write_text(
        json.dumps(obs.export()["metrics"], indent=2) + "\n"
    )
    print(f"obs metrics written to {args.metrics_out}")
    print(
        "run: speedup {0:.2f}x, correlation reduction {1:.2f}x".format(
            summary["mean_speedup"], summary["mean_correlation_reduction"]
        )
    )

    plane_summary = None
    if not args.skip_plane:
        plane_summary = run_plane_benchmark(args.mdb_scale, args.seed)
        print(
            "plane: speedup {0:.2f}x ({1} queries, identical={2})".format(
                plane_summary["speedup"],
                plane_summary["n_queries"],
                plane_summary["identical"],
            )
        )

    edge_summary = None
    if not args.skip_edge_plane:
        edge_summary = run_edge_plane_benchmark(args.seed)
        print(
            "edge plane: speedup {0:.2f}x, fleet {1:.2f}x "
            "({2} candidates, kernel={3}, identical={4})".format(
                edge_summary["speedup"],
                edge_summary["fleet_speedup"],
                edge_summary["candidates"],
                edge_summary["kernel"],
                edge_summary["identical"],
            )
        )

    gateway_summary = None
    if not args.skip_gateway:
        gateway_summary = run_gateway_benchmark(args.mdb_scale, args.seed)
        print(
            "gateway: speedup {0:.2f}x (mean batch {1:.1f}, "
            "{2} requests, identical={3})".format(
                gateway_summary["speedup"],
                gateway_summary["mean_batch_size"],
                gateway_summary["n_requests"],
                gateway_summary["identical"],
            )
        )

    shard_summary = None
    if not args.skip_shards:
        shard_summary = run_shard_benchmark(args.mdb_scale, args.seed)
        print(
            "shards: delta refresh {0:.2f}x over full rebuild "
            "({1} inserts, {2} compiled / {3} reused, identical={4})".format(
                shard_summary["delta_speedup"],
                shard_summary["config"]["n_inserts"],
                shard_summary["shards_compiled"],
                shard_summary["shards_reused"],
                shard_summary["identical"],
            )
        )

    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"baseline updated: {args.baseline}")
        if plane_summary is not None:
            args.plane_baseline.parent.mkdir(parents=True, exist_ok=True)
            args.plane_baseline.write_text(
                json.dumps(plane_summary, indent=2) + "\n"
            )
            print(f"baseline updated: {args.plane_baseline}")
        if edge_summary is not None:
            args.edge_plane_baseline.parent.mkdir(parents=True, exist_ok=True)
            args.edge_plane_baseline.write_text(
                json.dumps(edge_summary, indent=2) + "\n"
            )
            print(f"baseline updated: {args.edge_plane_baseline}")
        if gateway_summary is not None:
            args.gateway_baseline.parent.mkdir(parents=True, exist_ok=True)
            args.gateway_baseline.write_text(
                json.dumps(gateway_summary, indent=2) + "\n"
            )
            print(f"baseline updated: {args.gateway_baseline}")
        if shard_summary is not None:
            args.shard_baseline.parent.mkdir(parents=True, exist_ok=True)
            args.shard_baseline.write_text(
                json.dumps(shard_summary, indent=2) + "\n"
            )
            print(f"baseline updated: {args.shard_baseline}")
        return 0

    missing = [
        path
        for path in (
            [args.baseline]
            + ([args.plane_baseline] if plane_summary is not None else [])
            + ([args.edge_plane_baseline] if edge_summary is not None else [])
            + ([args.gateway_baseline] if gateway_summary is not None else [])
            + ([args.shard_baseline] if shard_summary is not None else [])
        )
        if not path.exists()
    ]
    if missing:
        for path in missing:
            print(
                f"no baseline at {path}; run with --update to create one",
                file=sys.stderr,
            )
        return 2

    baseline = json.loads(args.baseline.read_text())
    failures = compare(summary, baseline, args.threshold, args.strict_time)
    if plane_summary is not None:
        plane_baseline = json.loads(args.plane_baseline.read_text())
        failures += compare_plane(plane_summary, plane_baseline)
    if edge_summary is not None:
        edge_baseline = json.loads(args.edge_plane_baseline.read_text())
        failures += compare_edge_plane(edge_summary, edge_baseline)
    if gateway_summary is not None:
        gateway_baseline = json.loads(args.gateway_baseline.read_text())
        failures += compare_gateway(gateway_summary, gateway_baseline)
    if shard_summary is not None:
        shard_baseline = json.loads(args.shard_baseline.read_text())
        failures += compare_shards(shard_summary, shard_baseline)
    if failures:
        print("benchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        f"benchmark regression gate passed "
        f"(±{args.threshold:.0%} vs {args.baseline.name}"
        + (
            f", {PLANE_SPEEDUP_FLOOR:.0f}x floor vs {args.plane_baseline.name}"
            if plane_summary is not None
            else ""
        )
        + (
            f", {EDGE_PLANE_SPEEDUP_FLOOR:.0f}x edge floor vs "
            f"{args.edge_plane_baseline.name}"
            if edge_summary is not None
            else ""
        )
        + (
            f", {GATEWAY_SPEEDUP_FLOOR:.2f}x gateway floor vs "
            f"{args.gateway_baseline.name}"
            if gateway_summary is not None
            else ""
        )
        + (
            f", {SHARD_DELTA_SPEEDUP_FLOOR:.0f}x shard floor vs "
            f"{args.shard_baseline.name}"
            if shard_summary is not None
            else ""
        )
        + ")"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
