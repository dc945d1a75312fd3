"""Differential suite: the sharded plane against the scalar reference.

The scalar engines — :class:`SlidingWindowSearch` and
:class:`ExhaustiveSearch` with ``precompute=False``, walking a plain
slice list one offset at a time — are the reference for every compiled
search path.  Random slice sets (some with planted near-copies of the
query frames, so real matches exist) are compiled at shard widths 1, 3
and one shard for everything, both before and after MDB appends;
``search()`` and ``search_batch()`` over every plane must reproduce the
reference's matches, ω values, offsets and search statistics exactly.

Fast two-stage mode has no scalar reference; it is held to shard-width
invariance and batch-equals-single in ``tests/test_cloud_shards.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.search import ExhaustiveSearch, SearchConfig, SlidingWindowSearch
from repro.cloud.shards import ShardedSearchPlane
from repro.mdb.mdb import MegaDatabase
from repro.mdb.schema import slice_to_document
from repro.signals.types import AnomalyType, SignalSlice

N_SLICES = 12


def _smooth(rng: np.random.Generator, size: int) -> np.ndarray:
    """Low-passed noise: broad correlation peaks the skip walk can find."""
    noise = rng.standard_normal(size + 15)
    return np.convolve(noise, np.ones(16) / 4.0, mode="valid")


def _frames(seed: int, n: int, samples: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed + 30_000)
    return [_smooth(rng, samples) for _ in range(n)]


def _slices(seed: int, frames: list[np.ndarray]) -> list[SignalSlice]:
    """Random slices; every other one carries a noisy copy of a frame."""
    rng = np.random.default_rng(seed)
    samples = frames[0].size
    slices = []
    for index in range(N_SLICES):
        length = int(rng.integers(samples // 2, 4 * samples))
        data = _smooth(rng, length)
        if index % 2 and length >= samples:
            start = int(rng.integers(0, length - samples + 1))
            noise = float(rng.uniform(0.05, 1.0))
            data[start : start + samples] = frames[index % len(frames)] + (
                noise * rng.standard_normal(samples)
            )
        slices.append(
            SignalSlice(
                data=data,
                label=AnomalyType.SEIZURE if index % 3 == 0 else AnomalyType.NONE,
                slice_id=f"d{seed}-{index}",
            )
        )
    return slices


def _insert(mdb: MegaDatabase, slices: list[SignalSlice]) -> None:
    for sig_slice in slices:
        mdb.insert_document(
            slice_to_document(sig_slice, dataset="test", channel="Fp1")
        )


def _assert_same(got, want) -> None:
    assert [
        (m.sig_slice.slice_id, m.omega, m.offset) for m in got.matches
    ] == [(m.sig_slice.slice_id, m.omega, m.offset) for m in want.matches]
    assert got.correlations_evaluated == want.correlations_evaluated
    assert got.candidates_above_threshold == want.candidates_above_threshold
    assert got.slices_searched == want.slices_searched


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    split=st.integers(min_value=1, max_value=N_SLICES),
    exhaustive=st.booleans(),
    samples=st.sampled_from([128, 256]),
    dedupe=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_sharded_search_equals_scalar_reference(
    seed, split, exhaustive, samples, dedupe
):
    config = SearchConfig(
        frame_samples=samples, delta=0.5, top_k=8, dedupe_per_slice=dedupe
    )
    engine_type = ExhaustiveSearch if exhaustive else SlidingWindowSearch
    reference = engine_type(config)
    compiled = engine_type(config, precompute=True)
    frames = _frames(seed, 3, samples)
    slices = _slices(seed, frames)
    mdb = MegaDatabase()
    _insert(mdb, slices[:split])
    planes = [
        ShardedSearchPlane(mdb, shard_slices=width)
        for width in (1, 3, N_SLICES)
    ]

    def check(n_slices: int) -> None:
        expected = [reference.search(frame, slices[:n_slices]) for frame in frames]
        for plane in planes:
            assert plane.n_slices == n_slices
            for frame, want in zip(frames, expected):
                _assert_same(compiled.search(frame, plane), want)
            for got, want in zip(compiled.search_batch(frames, plane), expected):
                _assert_same(got, want)

    check(split)
    if split < N_SLICES:
        _insert(mdb, slices[split:])
        assert all(plane.refresh() for plane in planes)
        check(N_SLICES)
