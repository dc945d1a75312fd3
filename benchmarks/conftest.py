"""Shared benchmark fixtures and report capture.

Every bench regenerates one of the paper's tables or figures, prints
the same rows/series the paper reports, and saves a copy under
``benchmark_reports/`` next to this directory.

The whole benchmark session runs with the ``repro.obs`` observability
layer enabled; the collected metrics document is written to
``.bench_build/obs_metrics.json`` (ignored by git) at session end, so
a run can diff counters such as ``cloud.search.correlations_evaluated``
against another without touching a tracked file.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.eval.experiments.common import build_fixture

REPORT_DIR = Path(__file__).resolve().parent.parent / "benchmark_reports"
METRICS_PATH = REPORT_DIR.parent / ".bench_build" / "obs_metrics.json"


@pytest.fixture(scope="session", autouse=True)
def observability():
    """Collect obs metrics for the session and attach them to the output."""
    obs.reset()
    obs.enable()
    yield
    document = obs.export()
    METRICS_PATH.parent.mkdir(exist_ok=True)
    METRICS_PATH.write_text(json.dumps(document["metrics"], indent=2) + "\n")
    print(f"\nobservability metrics written to {METRICS_PATH}")
    obs.disable()


@pytest.fixture(scope="session")
def fixture():
    """The standard evaluation MDB (~420 signal-sets)."""
    return build_fixture(mdb_scale=0.3, seed=0)


@pytest.fixture(scope="session")
def save_report():
    """Callable writing an experiment report to benchmark_reports/."""

    def _save(name: str, text: str) -> None:
        REPORT_DIR.mkdir(exist_ok=True)
        (REPORT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _save
