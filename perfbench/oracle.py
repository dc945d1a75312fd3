"""Correctness oracle: served results against the scalar reference engines.

Runs untimed, after each measured run.  Any mismatch raises
:class:`OracleError` and the benchmark exits non-zero without a result.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.cloud.results import SearchResult
from repro.cloud.search import SearchConfig, SlidingWindowSearch
from repro.edge.tracker import SignalTracker, TrackerConfig, TrackingStep
from repro.signals.types import SignalSlice

from perfbench.workloads import SessionLog

#: Served searches replayed through the scalar search per run, drawn
#: uniformly from all served searches ...
SEARCH_SAMPLES = 4
#: ... and from the first responses after an insert became visible.
FRESH_SAMPLES = 4


class OracleError(Exception):
    """A served output differs from the reference engine's."""


def _match_key(result: SearchResult) -> list[tuple[str, float, int]]:
    return [(m.sig_slice.slice_id, m.omega, m.offset) for m in result.matches]


def check_searches(
    searches: Sequence[tuple[np.ndarray, SearchResult]],
    slices: Sequence[SignalSlice],
    seed: int,
    fresh: Sequence[int] = (),
) -> int:
    """Replay a seeded sample of served searches; returns how many.

    ``fresh`` indexes the first searches served after each insert, where
    a stale cache would show; the sample always includes some of them.
    The MDB only grows by appending, so the plane a search was served
    from held exactly the first ``slices_searched`` slices of the final
    MDB.
    """
    if not searches:
        raise OracleError("no served searches to check")
    reference = SlidingWindowSearch(SearchConfig(), precompute=False)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 5)))
    uniform = rng.choice(len(searches), min(SEARCH_SAMPLES, len(searches)), replace=False)
    picks = {int(i) for i in uniform}
    if fresh:
        firsts = rng.choice(fresh, min(FRESH_SAMPLES, len(fresh)), replace=False)
        picks.update(int(i) for i in firsts)
    for pick in sorted(picks):
        frame, served = searches[pick]
        expected = reference.search(frame, list(slices[: served.slices_searched]))
        if _match_key(served) != _match_key(expected):
            raise OracleError(f"search #{pick}: matches differ from the reference")
        if served.correlations_evaluated != expected.correlations_evaluated:
            raise OracleError(
                f"search #{pick}: {served.correlations_evaluated} correlations "
                f"evaluated, reference {expected.correlations_evaluated}"
            )
    return len(picks)


def _same_step(served: TrackingStep, expected: TrackingStep) -> bool:
    return (
        served.tracked_after == expected.tracked_after
        and served.anomaly_probability == expected.anomaly_probability
        and served.area_evaluations == expected.area_evaluations
    )


def check_sessions(logs: Iterable[tuple[str, SessionLog]]) -> int:
    """Replay sessions through the scalar tracker; returns frames checked.

    Each session adopts and steps in the order the run actually took, so
    tracked counts and PA must agree at every frame.
    """
    frames = 0
    for session, log in logs:
        tracker = SignalTracker(TrackerConfig(engine="scalar"))
        for event in log.events:
            if isinstance(event, SearchResult):
                tracker.load(event)
                continue
            frame, served = event
            expected = tracker.step(frame)
            frames += 1
            if not _same_step(served, expected):
                raise OracleError(
                    f"session {session} frame {frames}: tracked "
                    f"{served.tracked_after}, PA {served.anomaly_probability}; "
                    f"reference tracked {expected.tracked_after}, "
                    f"PA {expected.anomaly_probability}"
                )
    return frames
