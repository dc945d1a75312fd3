"""Unit + property tests for prefix-sum windowed statistics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import SignalError
from repro.signals.metrics import normalized_cross_correlation
from repro.signals.windows import WindowedStats

series_strategy = arrays(
    np.float64,
    st.integers(min_value=8, max_value=200),
    elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


class TestWindowedStats:
    def test_window_sum_and_mean(self):
        stats = WindowedStats(np.arange(10.0))
        assert stats.window_sum(2, 3) == pytest.approx(2 + 3 + 4)
        assert stats.window_mean(2, 3) == pytest.approx(3.0)

    def test_centered_norm_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(100)
        stats = WindowedStats(data)
        window = data[17 : 17 + 32]
        expected = float(np.linalg.norm(window - window.mean()))
        assert stats.centered_norm(17, 32) == pytest.approx(expected, abs=1e-9)

    def test_is_flat(self):
        stats = WindowedStats(np.concatenate([np.full(20, 3.0), np.arange(10.0)]))
        assert stats.is_flat(0, 20)
        assert not stats.is_flat(20, 10)

    def test_bounds_checked(self):
        stats = WindowedStats(np.ones(10))
        with pytest.raises(SignalError, match="outside"):
            stats.window_sum(8, 5)
        with pytest.raises(SignalError, match="positive"):
            stats.window_sum(0, 0)

    def test_data_view_read_only(self):
        stats = WindowedStats(np.ones(5))
        with pytest.raises(ValueError):
            stats.data[0] = 2.0

    @given(
        series_strategy,
        st.integers(min_value=2, max_value=200),
        st.integers(min_value=0, max_value=200),
    )
    # A quiet window after a loud sample: the prefix-sum variance
    # cancels to the wrong norm (ω 0.577 instead of 1).
    @example(series=np.array([12.0, 1.19e-07] + [0.0] * 6), length=2, offset=1)
    # A constant window whose mean is inexact: flat, not rounding noise.
    @example(series=np.full(18, 512.21698343), length=18, offset=0)
    @settings(max_examples=60, deadline=None)
    def test_correlation_matches_reference(self, series, length, offset):
        stats = WindowedStats(series)
        length = min(length, len(series))
        offset %= len(series) - length + 1
        rng = np.random.default_rng(0)
        query = rng.standard_normal(length)
        centered = query - query.mean()
        norm = float(np.linalg.norm(centered))
        fast = stats.normalized_correlation_with(centered, norm, offset)
        reference = normalized_cross_correlation(
            query, series[offset : offset + length]
        )
        assert fast == pytest.approx(reference, abs=1e-6)

    @given(series_strategy)
    @settings(max_examples=40, deadline=None)
    def test_prefix_sums_consistent(self, series):
        stats = WindowedStats(series)
        total = stats.window_sum(0, len(series))
        assert total == pytest.approx(float(series.sum()), rel=1e-9, abs=1e-6)
