"""Process-local metrics: counters, gauges, and quantile histograms.

One :class:`MetricsRegistry` holds every instrument the framework
emits.  Instruments are created lazily by name (``registry.inc``,
``registry.set_gauge``, ``registry.observe``), so instrumented code
never needs setup calls, and a *disabled* registry turns every
recording method into a cheap early-return — the zero-overhead no-op
mode the hot paths rely on.

Design constraints, in order:

* **Cheap when disabled.**  Every mutating method checks one boolean
  before doing anything; no locks, no allocation.
* **Thread-safe when enabled.**  A single lock guards the instrument
  maps and every update; the gateway's executor threads and the
  streaming monitor can record concurrently.
* **Machine-readable.**  ``as_dict`` / ``to_json`` export everything
  (histograms with count/sum/min/max/mean/p50/p95/p99) for the CI
  benchmark-regression gate; ``merge_dict`` folds an exported document
  back in.
"""

from __future__ import annotations

import json
import threading
from bisect import insort
from typing import Any, Mapping, TypedDict

from repro.errors import ObservabilityError

#: Histograms decimate (keep every other sample) past this many samples
#: so a long session cannot grow memory without bound; percentiles stay
#: representative for roughly stationary streams because decimation is
#: uniform over the sorted sample (a strongly trending stream biases
#: percentiles toward its recent values — count/sum/min/max stay exact).
HISTOGRAM_MAX_SAMPLES = 8192

#: Percentiles every histogram exports.
HISTOGRAM_PERCENTILES = (50, 95, 99)


class HistogramSummary(TypedDict, total=False):
    """Exported shape of one histogram (see :meth:`Histogram.as_dict`).

    ``total=False`` because the ``p<N>`` keys follow
    :data:`HISTOGRAM_PERCENTILES`; count/sum/min/max/mean are always
    present.
    """

    count: float
    sum: float
    min: float
    max: float
    mean: float
    p50: float
    p95: float
    p99: float


class MetricsDocument(TypedDict):
    """Exported shape of a whole registry (``as_dict``/``to_json``)."""

    counters: dict[str, int]
    gauges: dict[str, float]
    histograms: dict[str, HistogramSummary]


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(pct / 100.0 * (len(sorted_values) - 1))))
    return sorted_values[int(rank)]


class Counter:
    """A monotonically-increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A sampled distribution with nearest-rank percentiles.

    Samples are kept in sorted order (insertion via ``bisect``), so
    export never re-sorts; past :data:`HISTOGRAM_MAX_SAMPLES` the
    sample list is uniformly decimated while count/sum/min/max remain
    exact.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._sorted: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        insort(self._sorted, value)
        if len(self._sorted) > HISTOGRAM_MAX_SAMPLES:
            del self._sorted[::2]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        return _percentile(self._sorted, pct)

    def as_dict(self) -> HistogramSummary:
        summary: HistogramSummary = {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }
        for pct in HISTOGRAM_PERCENTILES:
            summary[f"p{pct}"] = self.percentile(pct)  # type: ignore[literal-required]
        return summary


class MetricsRegistry:
    """Thread-safe, name-keyed home of every instrument.

    ``enabled=False`` (or :meth:`disable`) turns all recording methods
    into no-ops; read/export methods keep working so a disabled
    registry exports an empty-but-valid document.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- switching -----------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- recording (each starts with the cheap enabled check) ----------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` (created on first use)."""
        if not self.enabled:
            return
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            counter.inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (created on first use)."""
        if not self.enabled:
            return
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name)
            gauge.set(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        if not self.enabled:
            return
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name)
            histogram.observe(value)

    # -- reading -------------------------------------------------------

    def counter_value(self, name: str) -> int:
        with self._lock:
            counter = self._counters.get(name)
            return counter.value if counter else 0

    def gauge_value(self, name: str) -> float:
        with self._lock:
            gauge = self._gauges.get(name)
            return gauge.value if gauge else 0.0

    def histogram(self, name: str) -> Histogram | None:
        with self._lock:
            return self._histograms.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(
                set(self._counters) | set(self._gauges) | set(self._histograms)
            )

    # -- export / merge ------------------------------------------------

    def as_dict(self) -> MetricsDocument:
        """JSON-serialisable snapshot of every instrument."""
        with self._lock:
            return {
                "counters": {
                    name: counter.value
                    for name, counter in sorted(self._counters.items())
                },
                "gauges": {
                    name: gauge.value
                    for name, gauge in sorted(self._gauges.items())
                },
                "histograms": {
                    name: histogram.as_dict()
                    for name, histogram in sorted(self._histograms.items())
                },
            }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def merge_dict(self, document: MetricsDocument | Mapping[str, Any]) -> None:
        """Fold an exported metrics document into this registry.

        Counters add, gauges take the incoming value, histogram
        summaries are folded as exact min/max plus ``count - 2``
        interior samples sized so count/sum/min/max/mean all stay
        exact; percentile fidelity is approximate — good enough for
        aggregating short-lived worker processes.
        """
        if not self.enabled:
            return
        for name, value in document.get("counters", {}).items():
            self.inc(name, int(value))
        for name, value in document.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, summary in document.get("histograms", {}).items():
            count = int(summary.get("count", 0))
            if count <= 0:
                continue
            total = summary.get("sum", summary.get("mean", 0.0) * count)
            self.observe(name, summary["min"])
            if count > 1:
                self.observe(name, summary["max"])
            if count > 2:
                interior = (total - summary["min"] - summary["max"]) / (count - 2)
                for _ in range(count - 2):
                    self.observe(name, interior)

    def reset(self) -> None:
        """Drop every instrument (new session)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
