"""Fault injector: a chaos proxy in front of the cloud server.

:class:`FaultInjector` wraps anything that serves ``handle_frame``
(the real :class:`~repro.cloud.server.CloudServer`, or another
injector) and applies a :class:`~repro.faults.plan.FaultPlan` to each
call, keyed by the call's index in the session.  It quacks like the
server — ``timing``, ``n_slices``, ``refresh``, ``close`` pass through
— so both runtime loops (and the resilient client) can sit in front of
it unchanged.

All randomness comes from one seeded :class:`numpy.random.Generator`
constructed from the plan, and the generator is only consulted inside
``CORRUPT_RESULT`` windows, so a chaos run replays bit-identically for
a given ``(recording, plan)`` pair.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.cloud.results import SearchMatch, SearchResult
from repro.errors import CloudUnavailableError, SearchError
from repro.faults.plan import FaultKind, FaultPlan, FaultWindow

if TYPE_CHECKING:  # avoid circular imports with the server/runtime tiers
    from repro.cloud.client import CloudEndpoint
    from repro.runtime.timing import TimingBreakdown, TimingModel
    from repro.signals.types import Frame


class FaultInjector:
    """Applies a fault plan to every cloud call passing through it."""

    def __init__(self, server: CloudEndpoint, plan: FaultPlan | None = None) -> None:
        self.server = server
        self.plan = plan or FaultPlan()
        self._rng = np.random.default_rng(self.plan.seed)
        self.calls_seen = 0
        self.injected = 0

    # -- server passthroughs ------------------------------------------

    @property
    def timing(self) -> TimingModel:
        return self.server.timing

    @property
    def n_slices(self) -> int:
        n: int = getattr(self.server, "n_slices", 0)
        return n

    def refresh(self) -> bool:
        refresher = getattr(self.server, "refresh", None)
        if refresher is None:
            return False
        refreshed: bool = refresher()
        return refreshed

    def close(self) -> None:
        closer = getattr(self.server, "close", None)
        if closer is not None:
            closer()

    # -- the chaos proxy ----------------------------------------------

    def handle_frame(
        self, frame: Frame | np.ndarray
    ) -> tuple[SearchResult, TimingBreakdown]:
        """One cloud call, with this call-index's faults applied."""
        call_index = self.calls_seen
        self.calls_seen += 1
        active = self.plan.active(call_index)

        # Unreachability faults fire before the search ever runs.
        for window in active:
            if window.kind is FaultKind.OUTAGE:
                self._count(window)
                raise CloudUnavailableError(
                    f"injected outage (calls {window.first_call}"
                    f"-{window.last_call}) at call {call_index}"
                )
            if window.kind is FaultKind.TRANSIENT_ERROR:
                self._count(window)
                raise SearchError(
                    f"injected transient search failure at call {call_index}"
                )

        result, breakdown = self.server.handle_frame(frame)

        for window in active:
            if window.kind is FaultKind.DROP_RESULT:
                self._count(window)
                result = self._drop_payload(result)
            elif window.kind is FaultKind.CORRUPT_RESULT:
                self._count(window)
                result = self._corrupt_payload(result, window)
            elif window.kind is FaultKind.LATENCY_SPIKE:
                self._count(window)
                breakdown = self._spike_latency(breakdown, window)
        return result, breakdown

    def _count(self, window: FaultWindow) -> None:
        self.injected += 1
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("faults.injected")
            registry.inc(f"faults.injected.{window.kind.value}")

    @staticmethod
    def _drop_payload(result: SearchResult) -> SearchResult:
        """The payload is lost in transit; search statistics survive."""
        return replace(result, matches=[])

    def _corrupt_payload(
        self, result: SearchResult, window: FaultWindow
    ) -> SearchResult:
        """Scramble a seeded fraction of match offsets out of bounds."""
        if not result.matches:
            return result
        n = len(result.matches)
        n_corrupt = max(1, int(round(window.magnitude * n)))
        victims = set(
            self._rng.choice(n, size=min(n_corrupt, n), replace=False).tolist()
        )
        corrupted: list[SearchMatch] = []
        for position, match in enumerate(result.matches):
            if position in victims:
                # An offset past the slice end is unreachable by any
                # valid sliding window — the client's bounds check
                # catches it, exactly like a checksum would.
                bad_offset = len(match.sig_slice) + int(self._rng.integers(1, 1024))
                match = SearchMatch(
                    sig_slice=match.sig_slice, omega=match.omega, offset=bad_offset
                )
            corrupted.append(match)
        return replace(result, matches=corrupted)

    @staticmethod
    def _spike_latency(
        breakdown: TimingBreakdown, window: FaultWindow
    ) -> TimingBreakdown:
        """Scale every Eq. 4 phase by the window's magnitude."""
        scaled = type(breakdown)(
            upload_s=breakdown.upload_s * window.magnitude,
            search_s=breakdown.search_s * window.magnitude,
            download_s=breakdown.download_s * window.magnitude,
        )
        return scaled
