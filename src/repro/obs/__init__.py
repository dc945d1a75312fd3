"""``repro.obs`` — the unified observability layer.

One module-level registry + tracer + profile store serve the whole
process; every tier of the framework (cloud search, edge tracking,
network link, runtime loop) records into them through this facade::

    from repro import obs

    obs.enable()
    ... run a session ...
    document = obs.export()          # JSON-serialisable
    obs.metrics().counter_value("cloud.search.correlations_evaluated")

Observability is **disabled by default**: every instrument call starts
with a single boolean check and returns, so un-instrumented behaviour
(and the Fig. 7(b) wall-clock benches) pay effectively nothing.  The
``emap obs`` CLI, the benchmark harness, and the tests flip it on.

Metric-name convention: dotted ``tier.component.quantity`` with an
``_s`` suffix for seconds (``cloud.search.elapsed_s``) — DESIGN.md maps
each paper figure to the metric names that reproduce it.
"""

from __future__ import annotations

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiling import ProfileStore, profile_block
from repro.obs.report import format_report
from repro.obs.tracing import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProfileStore",
    "Span",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "export",
    "format_report",
    "metrics",
    "profile_block",
    "profiles",
    "reset",
    "trace",
    "tracer",
]

#: The process-wide registry.  Starts disabled (no-op mode).
_registry = MetricsRegistry(enabled=False)

#: The process-wide tracer, feeding span histograms into the registry.
trace = Tracer(registry=_registry, enabled=False)

#: The process-wide cProfile store (its own opt-in switch; see
#: :func:`enable`'s ``profiling`` flag).
_profiles = ProfileStore(enabled=False)


def metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def tracer() -> Tracer:
    """The process-wide tracer (also importable directly as ``trace``)."""
    return trace


def profiles() -> ProfileStore:
    """The process-wide cProfile summary store."""
    return _profiles


def enable(profiling: bool = False) -> None:
    """Turn metrics + tracing on (and optionally cProfile capture)."""
    _registry.enable()
    trace.enable()
    if profiling:
        _profiles.enable()


def disable() -> None:
    """Back to zero-overhead no-op mode (collected data is retained)."""
    _registry.disable()
    trace.disable()
    _profiles.disable()


def enabled() -> bool:
    """Whether the metrics layer is currently recording."""
    return _registry.enabled


def reset() -> None:
    """Drop all collected metrics, spans, and profiles."""
    _registry.reset()
    trace.reset()
    _profiles.reset()


def export() -> dict:
    """One JSON-serialisable document with everything collected."""
    return {
        "enabled": enabled(),
        "metrics": _registry.as_dict(),
        "spans": trace.export(),
        "profiles": _profiles.export(),
    }
