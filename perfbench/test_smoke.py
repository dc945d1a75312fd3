"""Smoke tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Shortened runs of every workload must emit every declared metric with
its unit, a corrupted search result or tracking step must make the
oracle fail, and ``ops_per_s`` and ``setup_s`` must be medians over the
parts of a run in which other guests took least of the host.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.cloud.server import CloudServer  # noqa: E402
from repro.edge.fleet import FleetTracker  # noqa: E402
from repro.edge.tracker import TrackerConfig  # noqa: E402
from repro.mdb.builder import MDBBuilder  # noqa: E402

from perfbench import host, inputs, measure, run, system  # noqa: E402
from perfbench.oracle import (  # noqa: E402
    SEARCH_SAMPLES,
    OracleError,
    check_searches,
    check_sessions,
)
from perfbench.workloads import WORKLOADS, RunStats, SessionLog  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Long enough for every workload to produce refresh samples.
SMOKE_SECONDS = "6"


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def test_declared_workloads_are_defined() -> None:
    # ``monitor`` is defined but not declared: see MONITOR_SESSIONS.
    assert [w["name"] for w in DECLARED["workloads"]] == ["track", "ingest"]
    for declared in DECLARED["workloads"]:
        assert declared["why"] == WORKLOADS[declared["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_emits_every_metric(workload: str, trace: int) -> None:
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("ingest", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""


@pytest.fixture(scope="module")
def served() -> Iterator[tuple[CloudServer, inputs.Session]]:
    builder = MDBBuilder()
    for record in inputs.mdb_records(0)[:8]:
        builder.ingest_record(record)
    server = CloudServer(builder.mdb)
    session = inputs.sessions(0, 1)[0]
    yield server, session
    server.close()


def test_oracle_rejects_corrupted_search(
    served: tuple[CloudServer, inputs.Session],
) -> None:
    server, session = served
    frame = session.frame(1)
    result, _ = server.handle_frame(frame)
    slices = server.plane.slices
    assert check_searches([(frame, result)], slices, seed=0) == 1
    corrupted = dataclasses.replace(
        result, correlations_evaluated=result.correlations_evaluated + 1
    )
    with pytest.raises(OracleError):
        check_searches([(frame, corrupted)], slices, seed=0)
    first = result.matches[0]
    moved = dataclasses.replace(first, offset=first.offset + 1)
    with pytest.raises(OracleError):
        check_searches(
            [(frame, dataclasses.replace(result, matches=[moved, *result.matches[1:]]))],
            slices,
            seed=0,
        )


def test_oracle_always_checks_first_search_after_insert(
    served: tuple[CloudServer, inputs.Session],
) -> None:
    server, session = served
    frame = session.frame(1)
    result, _ = server.handle_frame(frame)
    corrupted = dataclasses.replace(
        result, correlations_evaluated=result.correlations_evaluated + 1
    )
    searches = [(frame, result)] * 40
    searches[29] = (frame, corrupted)
    slices = server.plane.slices
    # The uniform picks for this seed miss index 29 ...
    assert check_searches(searches, slices, seed=0) == SEARCH_SAMPLES
    # ... so only marking it as the first search after an insert catches it.
    with pytest.raises(OracleError):
        check_searches(searches, slices, seed=0, fresh=[9, 19, 29, 39])


def test_oracle_rejects_corrupted_step(
    served: tuple[CloudServer, inputs.Session],
) -> None:
    server, session = served
    result, _ = server.handle_frame(session.frame(0))
    tracker = FleetTracker(TrackerConfig())
    tracker.open_session("s", result)
    log = SessionLog()
    log.adopt(result)
    for index in range(1, 4):
        frame = session.frame(index)
        log.step(frame, tracker.step({"s": frame})["s"])
    assert check_sessions([("s", log)]) == 3
    frame, step = log.events[2]
    log.events[2] = (frame, dataclasses.replace(step, anomaly_probability=0.5))
    with pytest.raises(OracleError):
        check_sessions([("s", log)])


def test_run_exits_nonzero_on_corrupted_step(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    """A wrong edge step anywhere in a run fails the whole command."""
    commit = FleetTracker._commit_session

    def corrupted(self: FleetTracker, session_id: str, rows: object) -> object:
        step = commit(self, session_id, rows)
        return dataclasses.replace(step, removed=step.removed + 1)

    monkeypatch.setattr(FleetTracker, "_commit_session", corrupted)
    monkeypatch.chdir(ROOT)
    # main() sets both variables and prepends to sys.path; registering
    # them here makes pytest undo all three afterwards.
    monkeypatch.setenv("EMAP_KERNEL_CACHE", str(ROOT / ".bench_build" / "emap-kernels"))
    monkeypatch.setenv("TMPDIR", str(ROOT / ".bench_build" / "tmp"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    code = run.main(["--workload", "track", "--seed", "5", "--seconds", "3"])
    assert code == 1
    assert "correctness check failed" in capsys.readouterr().err


def test_throughput_is_the_median_slice_rate() -> None:
    """A stall that empties a quarter of the window does not move
    ``ops_per_s``; it only moves the whole-window mean."""
    stats = RunStats()
    # 100 ops per second, each 10 ms long, for 20 s; none in 5-10 s.
    stats.completed = [(t + 1) / 100 for t in range(2000) if not 500 <= t < 1000]
    stats.latencies = [0.01] * len(stats.completed)
    stats.elapsed_s = 20.0
    window = measure.Measured(stats, {}, (), None, 20.0)  # type: ignore[arg-type]
    assert window.slice_ops_per_s == pytest.approx([100.0] * 2 + [0.0] * 2 + [100.0] * 4)
    assert window.ops_per_s == pytest.approx(100.0)
    assert window.mean_ops_per_s == 75.0


def test_an_op_counts_in_every_slice_it_spans() -> None:
    stats = RunStats(completed=[7.5], latencies=[5.0], elapsed_s=7.5)
    window = measure.Measured(stats, {}, (), None, 10.0)  # type: ignore[arg-type]
    assert window.slice_ops_per_s == pytest.approx([0.0, 0.5 / 2.5, 0.5 / 2.5, 0.0])


def test_throughput_skips_the_slices_other_guests_took() -> None:
    """Slices with more steal than the median slice and than
    ``CALM_STEAL`` do not count."""
    stats = RunStats(started=100.0, elapsed_s=10.0)
    # 100 ops per second in slices 0 and 3, 20 in slices 1 and 2.
    for index, rate in enumerate([100, 20, 20, 100]):
        stats.completed += [index * 2.5 + (k + 1) / rate for k in range(int(2.5 * rate))]
    stats.latencies = [0.001] * len(stats.completed)
    # Steal ticks out of total ticks: 30% in slices 1 and 2, none elsewhere.
    samples = [(100.0, 0, 0), (102.5, 0, 500), (107.5, 300, 1500), (110.0, 300, 2000)]
    window = measure.Measured(stats, {}, (), None, 10.0, samples)  # type: ignore[arg-type]
    assert window.slice_steal == pytest.approx([0.0, 0.3, 0.3, 0.0])
    assert window.ops_per_s == pytest.approx(100.0, rel=0.02)
    # Below CALM_STEAL every slice counts, whatever the ranking.
    samples = [(100.0, 0, 0), (102.5, 0, 500), (107.5, 15, 1500), (110.0, 15, 2000)]
    calm = measure.Measured(stats, {}, (), None, 10.0, samples)  # type: ignore[arg-type]
    assert calm.ops_per_s == pytest.approx(60.0, rel=0.02)
    unsampled = measure.Measured(stats, {}, (), None, 10.0)  # type: ignore[arg-type]
    assert unsampled.ops_per_s == pytest.approx(60.0, rel=0.02)


def test_setup_time_skips_the_set_ups_other_guests_took() -> None:
    splits = [
        {"setup_s": s, "steal_share": steal}
        for s, steal in [(0.2, 0.0), (0.9, 0.4), (0.3, 0.0), (0.8, 0.5), (0.25, 0.0)]
    ]
    setup = system.summarise(splits)
    assert setup["setup_s"] == 0.25 and setup["first_setup_s"] == 0.2


def test_host_readings() -> None:
    assert host.reading() > 0
    ticks = host.cpu_ticks()
    assert ticks is None or 0 <= ticks[0] <= ticks[1]
