"""Run one workload of the end-to-end benchmark and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload track --seed 1 --seconds 35 --trace 0

The program is imported from ``src/`` of the current directory; the run
exits with code 2 when there is none.  With ``--trace 0`` the workload
runs once untraced and the result carries the gated end-to-end metrics
(set-up time and throughput); latency percentiles, refresh latency and
the failure ratio are printed above it and kept in the run record.  With
``--trace 1`` it runs untraced, then again with spans around every layer
call, and the result carries the per-layer metrics of the traced run
(spans are written to ``.bench_build/traces/``).  Outputs are checked
against the scalar reference engines after every run; a mismatch exits
with code 1 and prints no result.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each invocation also writes a record with the run's provenance, host
readings around the untraced window included (see ``host.py``), to
``.bench_build/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

#: Environment variables that change the program's code paths.
SENSITIVE_ENV = ("EMAP_SANITIZE", "EMAP_KERNEL", "EMAP_KERNEL_THREADS")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _prepare(root: Path) -> Path:
    """Point the program at this checkout; returns the state directory.

    The kernel's compiled-library cache and temporary build directories
    live under ``.bench_build`` so the run writes only inside the
    checkout.
    """
    state = root / ".bench_build"
    (state / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["EMAP_KERNEL_CACHE"] = str(state / "emap-kernels")
    os.environ["TMPDIR"] = str(state / "tmp")
    sys.path[:0] = [str(root / "src"), str(root)]
    return state


def _source_digest(root: Path) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit(root: Path) -> str | None:
    """The checked-out commit, when ``root`` is a git checkout."""
    if not (root / ".git").exists():  # never report an enclosing repository's
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no src/repro here; run from the root of a source checkout",
            file=sys.stderr,
        )
        return 2
    state = _prepare(root)
    started = time.perf_counter()
    import numpy
    import scipy

    import repro
    from repro.edge._kernels import kernel_backend, kernel_threads

    from perfbench import measure
    from perfbench.oracle import OracleError
    from perfbench.system import BenchmarkError

    import_s = time.perf_counter() - started
    if Path(repro.__file__).resolve().parent != (root / "src" / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    if args.workload not in measure.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(measure.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    # Build or load the compiled kernel before any timer: a first-ever
    # compile is a one-off per machine, not set-up work.
    kernel_backend()
    try:
        outcome = measure.run(
            args.workload, args.seed, args.seconds, bool(args.trace), state
        )
    except OracleError as error:
        print(f"perfbench: correctness check failed: {error}", file=sys.stderr)
        return 1
    except BenchmarkError as error:
        print(f"perfbench: run failed: {error}", file=sys.stderr)
        return 1

    if args.trace:
        outcome.layers["setup.import_s"] = (import_s, "s")
        metrics = outcome.layers
    else:
        metrics = outcome.end_to_end
    provenance: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(root),
        "src_digest": _source_digest(root),
        "kernel_backend": kernel_backend(),
        "kernel_threads": kernel_threads(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {name: os.environ.get(name) for name in SENSITIVE_ENV},
        "setup": outcome.setup,
        "import_s": import_s,
        "host": outcome.host,
        "reported": {name: value for name, (value, _) in outcome.report.items()},
        "oracle": outcome.checked,
    }
    for name, (value, unit) in {**outcome.end_to_end, **outcome.report, **metrics}.items():
        print(f"{name:<36} {value:14.4f} {unit}")
    print("provenance " + json.dumps(provenance))
    result = {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    records = state / "records"
    records.mkdir(exist_ok=True)
    record_name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (records / f"{record_name}.json").write_text(
        json.dumps({"provenance": provenance, "result": result}), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
