"""Unit tests for the repro.obs metrics layer (counters/gauges/histograms)."""

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.cloud.search import SearchConfig, SlidingWindowSearch
from repro.cloud.shards import ShardedSearchPlane
from repro.errors import ObservabilityError
from repro.obs.metrics import (
    HISTOGRAM_MAX_SAMPLES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.signals.types import AnomalyType, SignalSlice


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            Counter("c").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_summary_statistics(self):
        histogram = Histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0, 10.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.total == pytest.approx(20.0)
        assert histogram.min == 1.0
        assert histogram.max == 10.0
        assert histogram.mean == pytest.approx(4.0)

    def test_nearest_rank_percentiles(self):
        histogram = Histogram("h")
        for value in range(1, 11):  # 1..10
            histogram.observe(float(value))
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(50) == 5.0
        assert histogram.percentile(95) == 10.0
        assert histogram.percentile(100) == 10.0

    def test_percentiles_insensitive_to_arrival_order(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(500)
        forward, shuffled = Histogram("a"), Histogram("b")
        for value in values:
            forward.observe(value)
        for value in rng.permutation(values):
            shuffled.observe(value)
        for pct in (50, 95, 99):
            assert forward.percentile(pct) == shuffled.percentile(pct)

    def test_empty_histogram_exports_zeros(self):
        summary = Histogram("h").as_dict()
        assert summary["count"] == 0
        assert summary["min"] == 0.0
        assert summary["max"] == 0.0
        assert summary["p50"] == 0.0

    def test_decimation_bounds_memory_and_keeps_exact_extremes(self):
        histogram = Histogram("h")
        n = HISTOGRAM_MAX_SAMPLES * 2 + 1
        # A stationary stream (shuffled, not trending) — the documented
        # regime where decimated percentiles stay representative.
        rng = np.random.default_rng(42)
        for value in rng.permutation(n):
            histogram.observe(float(value))
        assert histogram.count == n
        assert len(histogram._sorted) <= HISTOGRAM_MAX_SAMPLES
        assert histogram.min == 0.0
        assert histogram.max == float(n - 1)
        # Percentiles stay representative after uniform decimation.
        assert histogram.percentile(50) == pytest.approx(n / 2, rel=0.05)
        assert histogram.percentile(95) == pytest.approx(0.95 * n, rel=0.05)


class TestRegistry:
    def test_lazy_instrument_creation(self, registry):
        registry.inc("a.count", 2)
        registry.set_gauge("a.level", 7.5)
        registry.observe("a.latency_s", 0.25)
        assert registry.counter_value("a.count") == 2
        assert registry.gauge_value("a.level") == 7.5
        assert registry.histogram("a.latency_s").count == 1
        assert registry.names() == ["a.count", "a.latency_s", "a.level"]

    def test_unknown_names_read_as_zero(self, registry):
        assert registry.counter_value("missing") == 0
        assert registry.gauge_value("missing") == 0.0
        assert registry.histogram("missing") is None

    def test_disabled_registry_is_a_no_op(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("a")
        registry.set_gauge("b", 1.0)
        registry.observe("c", 1.0)
        assert registry.names() == []
        assert registry.as_dict() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_json_round_trip(self, registry):
        registry.inc("cloud.search.requests", 3)
        registry.set_gauge("edge.tracker.tracked", 12)
        registry.observe("network.upload_s", 0.5)
        registry.observe("network.upload_s", 1.5)
        assert json.loads(registry.to_json()) == registry.as_dict()

    def test_reset_drops_everything(self, registry):
        registry.inc("a")
        registry.observe("b", 1.0)
        registry.reset()
        assert registry.names() == []

    def test_thread_safety_under_concurrent_writers(self, registry):
        n_threads, n_iterations = 8, 2000

        def writer():
            for i in range(n_iterations):
                registry.inc("threads.count")
                registry.observe("threads.latency_s", float(i))

        threads = [threading.Thread(target=writer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("threads.count") == n_threads * n_iterations
        assert registry.histogram("threads.latency_s").count == n_threads * n_iterations


class TestRegistryUnderSearch:
    def test_concurrent_parallel_searches_record_consistent_totals(self):
        """Two plane searches on separate threads share the registry."""
        rng = np.random.default_rng(11)
        slices = [
            SignalSlice(
                data=rng.standard_normal(600),
                label=AnomalyType.NONE,
                slice_id=f"s{i}",
            )
            for i in range(24)
        ]
        frame = rng.standard_normal(256)
        plane = ShardedSearchPlane(slices, shard_slices=8)
        engine = SlidingWindowSearch(SearchConfig(top_k=5), precompute=True)

        obs.reset()
        obs.enable()
        try:
            results = [None, None]

            def run(index):
                results[index] = engine.search(frame, plane)

            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            registry = obs.metrics()
            expected = sum(r.correlations_evaluated for r in results)
            assert (
                registry.counter_value("cloud.search.correlations_evaluated")
                == expected
            )
            assert registry.counter_value("cloud.search.requests") == 2
            assert registry.counter_value("cloud.search.batches") == 2
            assert registry.histogram("cloud.search.elapsed_s").count == 2
        finally:
            obs.disable()
            obs.reset()
