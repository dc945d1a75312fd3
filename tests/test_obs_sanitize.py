"""Runtime sanitizer harness: each detector trips on its minimal repro
and stays quiet on a clean run."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro import obs
from repro.errors import SanitizerError
from repro.obs.sanitize import (
    SANITIZE_ENV,
    Sanitizer,
    SanitizerReport,
    run_sanitized,
    sanitize_enabled,
)


class TestGate:
    def test_env_gate(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert not sanitize_enabled()
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert sanitize_enabled()
        monkeypatch.setenv(SANITIZE_ENV, "0")
        assert not sanitize_enabled()

    def test_gate_off_is_plain_asyncio_run(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)

        async def main():
            return 41 + 1

        assert run_sanitized(main()) == 42

    def test_thresholds_validated(self):
        with pytest.raises(SanitizerError):
            Sanitizer(stall_threshold_s=0.0)
        with pytest.raises(SanitizerError):
            Sanitizer(poll_interval_s=-1.0)


class TestCleanRun:
    def test_clean_run_returns_result_and_clean_report(self):
        sanitizer = Sanitizer(track_memory=False)

        async def main():
            await asyncio.sleep(0.01)
            helper = asyncio.create_task(asyncio.sleep(0.01))
            await helper
            return "done"

        assert run_sanitized(main(), sanitizer=sanitizer) == "done"
        assert sanitizer.report.ok
        assert sanitizer.report.render() == "sanitizer: clean"

    def test_force_runs_instrumented_without_env(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)

        async def main():
            return asyncio.get_running_loop().get_debug()

        # force=True goes through the sanitized path: debug mode is on.
        assert run_sanitized(main(), force=True) is True


class TestDetectors:
    def test_loop_stall_is_a_violation(self):
        sanitizer = Sanitizer(
            stall_threshold_s=0.05, poll_interval_s=0.01, track_memory=False
        )

        async def main():
            await asyncio.sleep(0.03)  # let the heartbeat start a beat
            time.sleep(0.25)  # the stall under test

        with pytest.raises(SanitizerError, match="stalled"):
            run_sanitized(main(), sanitizer=sanitizer)
        assert sanitizer.report.stalls
        assert max(sanitizer.report.stalls) >= 0.05

    def test_pending_task_at_exit_is_a_violation(self):
        sanitizer = Sanitizer(track_memory=False)

        async def _forgotten():
            await asyncio.sleep(60.0)

        async def main():
            task = asyncio.create_task(  # emaplint: disable=EM008
                _forgotten(), name="orphan"
            )
            del task  # drop the handle: nobody can await or cancel it

        with pytest.raises(SanitizerError, match="orphan"):
            run_sanitized(main(), sanitizer=sanitizer)
        assert any(
            "_forgotten" in leaked
            for leaked in sanitizer.report.leaked_tasks
        )

    def test_completed_task_is_not_a_leak(self):
        sanitizer = Sanitizer(track_memory=False)

        async def main():
            task = asyncio.create_task(asyncio.sleep(0))
            await task

        run_sanitized(main(), sanitizer=sanitizer)
        assert sanitizer.report.leaked_tasks == []

    def test_memory_growth_over_limit_is_a_violation(self):
        sanitizer = Sanitizer(memory_growth_limit_bytes=256 * 1024)
        retained: list[bytearray] = []

        async def main():
            retained.append(bytearray(4 * 1024 * 1024))

        try:
            with pytest.raises(SanitizerError, match="memory grew"):
                run_sanitized(main(), sanitizer=sanitizer)
            assert sanitizer.report.memory_growth_bytes > 256 * 1024
        finally:
            retained.clear()


class TestReporting:
    def test_main_exception_wins_over_verdicts(self):
        sanitizer = Sanitizer(track_memory=False)

        async def main():
            asyncio.create_task(asyncio.sleep(60.0))  # emaplint: disable=EM008
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_sanitized(main(), sanitizer=sanitizer)

    def test_render_lists_every_violation(self):
        report = SanitizerReport(
            violations=["first thing", "second thing"]
        )
        rendered = report.render()
        assert "FAILED" in rendered
        assert "first thing" in rendered and "second thing" in rendered

    def test_metrics_emitted_when_obs_enabled(self):
        obs.enable()
        try:
            sanitizer = Sanitizer(track_memory=False)

            async def main():
                pass

            run_sanitized(main(), sanitizer=sanitizer)
            assert obs.metrics().counter_value("obs.sanitize.runs") == 1
            assert obs.metrics().counter_value("obs.sanitize.stalls") == 0
        finally:
            obs.reset()
            obs.disable()
