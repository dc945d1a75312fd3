"""CI benchmark-regression gate: the Fig. 7(b) search-scaling result.

Runs the exploration-time scaling experiment (exhaustive vs
Algorithm 1) with the ``repro.obs`` layer enabled, exports the
collected metrics document, and compares the run against a committed
baseline (``benchmarks/baselines/fig7b.json``).  It fails when:

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

Regenerate the baseline after an intentional change with::

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
DEFAULT_METRICS_OUT = REPO_ROOT / ".bench_build" / "fig7b_obs_metrics.json"
DEFAULT_DB_SIZES = (500, 1000, 2000)


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
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

    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(
            f"no baseline at {args.baseline}; run with --update to create one",
            file=sys.stderr,
        )
        return 2

    baseline = json.loads(args.baseline.read_text())
    failures = compare(summary, baseline, args.threshold, args.strict_time)
    if failures:
        print("benchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        f"benchmark regression gate passed "
        f"(±{args.threshold:.0%} vs {args.baseline.name})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
