"""Differential churn test: random fleet schedules against scalar replays.

Hypothesis draws schedules of open, re-open, close and step-a-subset
actions over one small slice pool (with a short slice and a slice
with a flat stretch), so re-opened sessions overlap their old sets and
each other.  Every schedule runs on a
:class:`~repro.edge.fleet.FleetTracker` beside per-session
scalar reference ``SignalTracker`` mirrors, and every step must be bit
for bit what the mirrors report.  Signals returned by ``tracked()``
are values: mutating them must leave fleet state alone.

Runs in the CI ``kernel-backends`` matrix under both ``EMAP_KERNEL=c``
and ``EMAP_KERNEL=numpy``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from .test_edge_fleet_fused import _matches, _MirroredFleet, _pool

POOL = _pool(60)
SESSIONS = ("s0", "s1", "s2", "s3")


def _frames() -> list[np.ndarray]:
    """Frames cut from pool slices (plus noise), pure noise, a constant
    frame from the flat stretch, and all zeros — so a step prunes some
    candidates and keeps others."""
    rng = np.random.default_rng(61)
    frames = []
    for index, start in ((0, 40), (1, 300), (2, 0), (3, 600), (5, 128)):
        cut = POOL[index].data[start : start + 256]
        frames.append(cut + rng.standard_normal(256) * 0.5)
    frames.append(rng.standard_normal(256) * 7)
    frames.append(POOL[6].data[150:406].copy())  # inside the flat stretch
    frames.append(np.zeros(256))
    return frames


FRAMES = _frames()

_open = st.tuples(
    st.just("open"),
    st.sampled_from(SESSIONS),
    st.lists(st.integers(0, len(POOL) - 1), max_size=8),
)
_close = st.tuples(st.just("close"), st.sampled_from(SESSIONS))
_step = st.tuples(
    st.just("step"),
    st.lists(st.sampled_from(SESSIONS), unique=True),
    st.integers(0, len(FRAMES) - 1),
)


def _key(signals):
    return tuple((s.sig_slice.slice_id, s.last_area, s.offset, s.omega) for s in signals)


def _run(harness: _MirroredFleet, schedule) -> None:
    fleet = harness.fleet
    for action in schedule:
        kind = action[0]
        if kind == "open":
            harness.open(action[1], _matches(POOL, action[2]))
        elif kind == "close":
            if action[1] in harness.mirrors:
                harness.close(action[1])
        else:
            stepped = [sid for sid in action[1] if sid in harness.mirrors]
            harness.step(stepped, FRAMES[action[2]])
            for sid in stepped:
                before = _key(fleet.tracked(sid))
                for signal in fleet.tracked(sid):
                    signal.offset += 1
                    signal.last_area = -1.0
                    signal.omega = 2.0
                assert _key(fleet.tracked(sid)) == before
        assert set(fleet.session_ids) == set(harness.mirrors)
        assert fleet.tracked_references == sum(
            len(fleet.tracked(sid)) for sid in fleet.session_ids
        )
        for sid, mirror in harness.mirrors.items():
            assert fleet.anomaly_probability(sid) == mirror.anomaly_probability()


@given(
    schedule=st.lists(st.one_of(_open, _open, _close, _step, _step), max_size=14),
    reference_rms=st.sampled_from([7.0, None]),
    area_threshold=st.sampled_from([900.0, 1400.0, 2100.0, 1e9]),
)
@settings(max_examples=40, deadline=None)
def test_random_churn_matches_scalar_mirrors(
    schedule, reference_rms, area_threshold
):
    harness = _MirroredFleet(
        reference_rms=reference_rms, area_threshold=area_threshold
    )
    _run(harness, schedule)
