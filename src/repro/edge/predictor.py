"""Anomaly prediction from the tracked probability series.

The paper classifies an input as anomalous when the estimated anomaly
probability "is increasing" (Section VI-B), tuned for sensitivity
("classifies near-threshold anomaly probability increases as
anomalous", at the cost of ~15 % false positives).  The predictor keeps
the per-iteration PA series and decides with two knobs:

* a robust increasing-trend test (Theil–Sen median slope over the
  recent window),
* a minimum final probability level, and
* an exponential moving average of PA — the *density* detector: real
  preictal EEG expresses anomaly as intermittent discharges whose rate
  rises toward the onset, so PA arrives in bursts; the EMA integrates
  burst density where the raw trend would oscillate.

An input is predicted **anomalous** when the PA level alone is decisive
(strongly anomalous correlation set with enough tracked support), when
the EMA clears its level, or when the trend clears the slope threshold
with the latest PA above the minimum level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import TrackingError


@dataclass(frozen=True)
class PredictorConfig:
    """Decision thresholds for the anomaly predictor.

    Defaults are sensitivity-oriented, like the paper's: a modest
    upward trend with a moderate probability level is already flagged.
    """

    trend_window: int = 5
    min_slope: float = 0.02
    min_level: float = 0.40
    decisive_level: float = 0.75
    min_support: int = 5
    ema_alpha: float = 0.25
    ema_level: float = 0.35

    def __post_init__(self) -> None:
        if self.trend_window < 2:
            raise TrackingError(
                f"trend window must be >= 2, got {self.trend_window}"
            )
        if not (0.0 <= self.min_level <= 1.0):
            raise TrackingError(f"min level must be in [0, 1], got {self.min_level}")
        if not (0.0 <= self.decisive_level <= 1.0):
            raise TrackingError(
                f"decisive level must be in [0, 1], got {self.decisive_level}"
            )
        if self.min_support < 1:
            raise TrackingError(
                f"min support must be >= 1, got {self.min_support}"
            )
        if not (0.0 < self.ema_alpha <= 1.0):
            raise TrackingError(
                f"EMA alpha must be in (0, 1], got {self.ema_alpha}"
            )
        if not (0.0 <= self.ema_level <= 1.0):
            raise TrackingError(
                f"EMA level must be in [0, 1], got {self.ema_level}"
            )


@dataclass
class ProbabilityTrace:
    """The PA series across tracking iterations (and cloud refreshes).

    Each observation carries its *support*: the tracked-set size
    ``N(F)`` the probability was estimated from.  A PA of 1.0 computed
    from a single surviving signal is weak evidence; the predictor's
    decisive-level rule requires a minimum support.
    """

    values: list[float] = field(default_factory=list)
    supports: list[int] = field(default_factory=list)

    def append(self, probability: float, support: int | None = None) -> None:
        if not (0.0 <= probability <= 1.0):
            raise TrackingError(
                f"anomaly probability must be in [0, 1], got {probability}"
            )
        if support is not None and support < 0:
            raise TrackingError(f"support must be non-negative, got {support}")
        self.values.append(probability)
        self.supports.append(support if support is not None else -1)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def latest(self) -> float:
        if not self.values:
            return 0.0
        return self.values[-1]

    @property
    def latest_support(self) -> int:
        """Tracked-set size behind the latest PA (-1 when unreported)."""
        if not self.supports:
            return -1
        return self.supports[-1]


def theil_sen_slope(values: list[float] | np.ndarray) -> float:
    """Median of pairwise slopes — robust to single-iteration jumps.

    Vectorised: one gathered difference over the upper-triangle index
    pairs replaces the O(n²) pure-Python pair loop (this runs inside
    every per-frame ``predict()`` call).  ``triu_indices`` enumerates
    pairs in the same (i, j) order as the nested loops did, so the
    slope array — and the median — are bit-identical to the scalar
    implementation.
    """
    series = np.asarray(values, dtype=np.float64)
    if series.ndim != 1 or series.size < 2:
        raise TrackingError("need at least two values for a slope")
    rows, cols = np.triu_indices(series.size, k=1)
    slopes = (series[cols] - series[rows]) / (cols - rows)
    return float(np.median(slopes))


class AnomalyPredictor:
    """Turns the PA trace into an anomalous / normal decision."""

    def __init__(self, config: PredictorConfig | None = None) -> None:
        self.config = config or PredictorConfig()
        self.trace = ProbabilityTrace()
        self._ema = 0.0

    @property
    def ema(self) -> float:
        """Exponential moving average of PA (blended from 0 at start).

        Starting from zero means a single isolated PA spike cannot clear
        the EMA level — sustained burst density is required.
        """
        return self._ema

    def observe(self, probability: float, support: int | None = None) -> None:
        """Record one iteration's anomaly probability (and its N(F))."""
        self.trace.append(probability, support)
        alpha = self.config.ema_alpha
        self._ema = alpha * probability + (1.0 - alpha) * self._ema
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("edge.predictor.observations")
            registry.set_gauge("edge.predictor.pa", probability)
            registry.set_gauge("edge.predictor.ema", self._ema)
            registry.observe("edge.predictor.pa_estimate", probability)

    def current_slope(self) -> float:
        """Robust PA slope over the recent trend window (0 if too short)."""
        window = self.trace.values[-self.config.trend_window :]
        if len(window) < 2:
            return 0.0
        return theil_sen_slope(window)

    def predict(self) -> bool:
        """Current decision: ``True`` = anomaly predicted.

        A decisive PA level alone suffices — but only when the tracked
        set behind it is large enough to be meaningful; otherwise both
        the increasing trend and the minimum level must hold.
        """
        latest = self.trace.latest
        support = self.trace.latest_support
        supported = support < 0 or support >= self.config.min_support
        if latest >= self.config.decisive_level and supported:
            decision = True
        elif self.ema >= self.config.ema_level:
            decision = True
        elif len(self.trace) < 2:
            decision = False
        else:
            # The cheap conditions first: the Theil–Sen slope runs only
            # when they hold.
            decision = (
                latest >= self.config.min_level
                and supported
                and self.current_slope() >= self.config.min_slope
            )
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("edge.predictor.predictions")
            if decision:
                registry.inc("edge.predictor.predictions_anomalous")
        return decision

    def reset(self) -> None:
        """Clear the trace (new monitoring session)."""
        self.trace = ProbabilityTrace()
        self._ema = 0.0
