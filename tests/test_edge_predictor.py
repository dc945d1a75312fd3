"""Unit tests for the anomaly predictor."""

import numpy as np
import pytest

from repro.edge.predictor import (
    AnomalyPredictor,
    PredictorConfig,
    ProbabilityTrace,
    theil_sen_slope,
)
from repro.errors import TrackingError


class TestPredictorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trend_window": 1},
            {"min_level": 1.5},
            {"decisive_level": -0.1},
            {"min_support": 0},
            {"ema_alpha": 0.0},
            {"ema_level": 2.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(TrackingError):
            PredictorConfig(**kwargs)


class TestProbabilityTrace:
    def test_append_and_latest(self):
        trace = ProbabilityTrace()
        trace.append(0.2, support=50)
        trace.append(0.4, support=30)
        assert len(trace) == 2
        assert trace.latest == 0.4
        assert trace.latest_support == 30

    def test_rejects_out_of_range(self):
        with pytest.raises(TrackingError, match="probability"):
            ProbabilityTrace().append(1.5)

    def test_empty_defaults(self):
        trace = ProbabilityTrace()
        assert trace.latest == 0.0
        assert trace.latest_support == -1


class TestTheilSen:
    def test_linear_series(self):
        assert theil_sen_slope([0.0, 0.1, 0.2, 0.3]) == pytest.approx(0.1)

    def test_robust_to_outlier(self):
        slope = theil_sen_slope([0.0, 0.1, 0.9, 0.3, 0.4])
        assert 0.05 < slope < 0.25

    def test_needs_two_points(self):
        with pytest.raises(TrackingError, match="two values"):
            theil_sen_slope([0.5])

    def test_matches_scalar_reference_exactly(self):
        """The vectorised implementation must agree bit-for-bit with
        the original nested-loop pairwise-slope computation."""
        import numpy as np

        def scalar_theil_sen(values):
            series = np.asarray(values, dtype=np.float64)
            slopes = []
            for i in range(series.size - 1):
                for j in range(i + 1, series.size):
                    slopes.append((series[j] - series[i]) / (j - i))
            return float(np.median(np.asarray(slopes)))

        rng = np.random.default_rng(1729)
        for length in (2, 3, 5, 8, 20, 51):
            series = rng.uniform(0.0, 1.0, size=length)
            assert theil_sen_slope(series) == scalar_theil_sen(series)


class TestAnomalyPredictor:
    def test_flat_low_pa_not_flagged(self):
        predictor = AnomalyPredictor()
        for _ in range(10):
            predictor.observe(0.1, support=100)
        assert not predictor.predict()

    def test_rising_pa_flagged(self):
        predictor = AnomalyPredictor()
        for pa in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
            predictor.observe(pa, support=100)
        assert predictor.predict()

    def test_decisive_level_flags_immediately(self):
        predictor = AnomalyPredictor()
        predictor.observe(0.9, support=100)
        assert predictor.predict()

    def test_decisive_level_needs_support(self):
        predictor = AnomalyPredictor(PredictorConfig(min_support=5))
        predictor.observe(1.0, support=1)
        assert not predictor.predict()

    def test_unreported_support_trusted(self):
        predictor = AnomalyPredictor()
        predictor.observe(0.9)
        assert predictor.predict()

    def test_ema_integrates_bursts(self):
        """Alternating 1.0/0.0 PA (burst density ~50%) must still flag."""
        predictor = AnomalyPredictor()
        for i in range(12):
            predictor.observe(1.0 if i % 2 == 0 else 0.0, support=2)
        assert predictor.ema > 0.35
        assert predictor.predict()

    def test_sparse_spikes_not_flagged(self):
        """A single unsupported PA spike in a quiet trace stays silent."""
        predictor = AnomalyPredictor()
        for i in range(20):
            predictor.observe(1.0 if i == 7 else 0.02, support=2 if i == 7 else 80)
        assert not predictor.predict()

    def test_falling_pa_not_flagged(self):
        predictor = AnomalyPredictor()
        for pa in (0.6, 0.5, 0.4, 0.3, 0.2):
            predictor.observe(pa, support=100)
        assert not predictor.predict()

    def test_reset(self):
        predictor = AnomalyPredictor()
        predictor.observe(0.9, support=100)
        assert predictor.predict()
        predictor.reset()
        assert not predictor.predict()
        assert predictor.ema == 0.0

    def test_slope_only_when_the_cheap_conditions_hold(self, monkeypatch):
        """Over a seeded trace every decision equals the full rule, which
        evaluates slope, level and support alike, and the Theil–Sen slope
        is computed only when the level and the support already hold."""
        rng = np.random.default_rng(7)
        predictor = AnomalyPredictor()
        config = predictor.config
        slope = predictor.current_slope
        calls: list[float] = []
        monkeypatch.setattr(
            predictor, "current_slope", lambda: calls.append(0.0) or slope()
        )
        level = 0.2
        slope_decisions = []
        for _ in range(2000):
            level = float(np.clip(level + rng.normal(0.0, 0.08), 0.0, 1.0))
            if rng.random() < 0.05:
                level = 0.0
            support = int(rng.choice([-1, 2, 10]))
            predictor.observe(level, support=None if support < 0 else support)
            latest = predictor.trace.latest
            supported = predictor.trace.latest_support < 0 or (
                predictor.trace.latest_support >= config.min_support
            )
            cheap = latest >= config.min_level and supported
            by_slope = slope() >= config.min_slope and cheap
            expected = (
                (latest >= config.decisive_level and supported)
                or predictor.ema >= config.ema_level
                or (len(predictor.trace) >= 2 and by_slope)
            )
            before = len(calls)
            assert predictor.predict() == expected
            if len(calls) > before:
                assert cheap
                slope_decisions.append(by_slope)
        assert True in slope_decisions and False in slope_decisions

    def test_slope_zero_when_short(self):
        predictor = AnomalyPredictor()
        predictor.observe(0.5, support=10)
        assert predictor.current_slope() == 0.0
