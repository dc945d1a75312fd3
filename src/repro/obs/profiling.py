"""Opt-in profiling hooks for the hot paths.

:func:`profile_block` wraps a block in a full ``cProfile`` capture,
summarised to the top functions by cumulative time.  Heavyweight, so
it is guarded by its own switch on top of the obs enable flag; the
captured summaries are retained for the ``emap obs`` export.  It
degrades to near-zero cost when profiling is off.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from contextlib import contextmanager
from typing import Iterator

#: Profile summaries retained for export (oldest dropped first).
MAX_RETAINED_PROFILES = 32


class ProfileStore:
    """Retains cProfile summaries captured by :func:`profile_block`."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._summaries: list[dict] = []

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def add(self, name: str, elapsed_s: float, top_functions: str) -> None:
        self._summaries.append(
            {"name": name, "elapsed_s": elapsed_s, "top_functions": top_functions}
        )
        if len(self._summaries) > MAX_RETAINED_PROFILES:
            del self._summaries[: len(self._summaries) - MAX_RETAINED_PROFILES]

    def export(self) -> list[dict]:
        return list(self._summaries)

    def reset(self) -> None:
        self._summaries.clear()


@contextmanager
def profile_block(
    name: str,
    store: ProfileStore,
    limit: int = 25,
    sort: str = "cumulative",
) -> Iterator[None]:
    """cProfile the block when the store's profiling switch is on.

    When off, the only cost is one attribute check — the block runs
    uninstrumented.
    """
    if not store.enabled:
        yield
        return
    profiler = cProfile.Profile()
    start_ns = time.perf_counter_ns()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        elapsed_s = (time.perf_counter_ns() - start_ns) * 1e-9
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats(sort).print_stats(limit)
        store.add(name, elapsed_s, buffer.getvalue())
