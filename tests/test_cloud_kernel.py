"""Tests for the cloud walk kernel behind the compiled search plane.

:meth:`PlaneCore.walk` runs Algorithm 1 over one shard core, computing
a correlation only at the offsets it visits, on either backend
``repro.kernels`` selects.  On both backends:

* each visited dot product equals ``np.multiply(c, w).sum()`` bit for
  bit, across every pairwise-summation regime of the query length;
* the walk equals :func:`replay_skip_walk` over the scalar evaluator,
  slice by slice — same hits in the same order, same counts — for the
  exponential and fixed skips, with dedupe on and off, over flat
  windows, slices shorter than the frame and a zero-norm query.

The scalar reference's pairwise dot is also checked to stay within
1e-12 of the BLAS ``np.dot`` it replaced.
"""

from __future__ import annotations

import contextlib
import shutil
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.cloud.plane import PlaneCore, SkipRule
from repro.cloud.search import (
    ExponentialSkipPolicy,
    FixedSkipPolicy,
    ScalarWindowEvaluator,
    replay_skip_walk,
)
from repro.errors import SearchError
from repro.signals.windows import WindowedStats

HAS_COMPILER = any(shutil.which(name) for name in ("cc", "gcc", "clang"))

BACKENDS = [
    pytest.param(
        "c",
        marks=pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler"),
    ),
    "numpy",
]


@contextlib.contextmanager
def _backend(name: str) -> Iterator[None]:
    """Force one kernel backend, restoring the process-wide selection."""
    saved = (kernels._backend, kernels._c_kernels)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("EMAP_KERNEL", name)
        kernels._reset_backend_selection()
        try:
            assert kernels.kernel_backend() == name
            yield
        finally:
            kernels._backend, kernels._c_kernels = saved


def _core(slices: list[np.ndarray]) -> PlaneCore:
    offsets = np.zeros(len(slices) + 1, dtype=np.int64)
    np.cumsum([data.size for data in slices], out=offsets[1:])
    return PlaneCore(np.concatenate(slices), offsets)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("m", [1, 7, 8, 127, 128, 129, 256, 1000])
def test_dot_is_numpy_pairwise_sum(backend, m):
    """One window, fixed step: ω = dot / (4·reference dot) is exactly
    0.25 only when the kernel's dot has the reference's every bit."""
    rng = np.random.default_rng(m)
    for _ in range(5):
        window = rng.standard_normal(m) * 1e5
        centered = rng.standard_normal(m) * 1e3
        expected = float(np.multiply(centered, window).sum())
        if expected < 0:
            centered = -centered  # exact: flips only sign bits
            expected = -expected
        core = _core([window])
        core.ensure_norms(m)
        # Plant the norm so the denominator is exactly 4 · expected.
        core._norm_caches[m].norms[0] = 4.0 * expected
        with _backend(backend):
            walk = core.walk(centered, 1.0, SkipRule(0.0, 1.0, 1, 1), -1.0, False)
        assert walk.evaluated == 1
        assert walk.omegas.tolist() == [0.25]


def _smooth(rng: np.random.Generator, size: int) -> np.ndarray:
    noise = rng.standard_normal(size + 15)
    return np.convolve(noise, np.ones(16) / 4.0, mode="valid")


def _walk_case(seed: int, samples: int, zero_query: bool):
    """Slices with planted near-copies, flat runs and short slices.

    Slice 1 always holds a copy the fixed-skip walk (step 3) visits: it
    is at least a frame long, its copy starts on the skip grid, and no
    flat run covers it (flat runs go only into slices 0, 3 and 6).
    """
    rng = np.random.default_rng(seed)
    query = np.zeros(samples) if zero_query else _smooth(rng, samples)
    slices = []
    for index in range(7):
        shortest = samples if index == 1 else samples // 2
        data = _smooth(rng, int(rng.integers(shortest, 4 * samples)))
        if index % 2 and data.size >= samples:
            start = int(rng.integers(0, data.size - samples + 1))
            if index == 1:
                start -= start % 3
            data[start : start + samples] = query + 0.3 * rng.standard_normal(samples)
        if index % 3 == 0 and data.size >= samples:
            start = int(rng.integers(0, data.size - samples + 1))
            data[start : start + samples + 5] = 2.5  # flat windows
        slices.append(data)
    return query, slices


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    seed=st.integers(0, 2**31 - 1),
    samples=st.sampled_from([64, 256]),
    exponential=st.booleans(),
    dedupe=st.booleans(),
    zero_query=st.sampled_from([False, False, False, True]),
)
@settings(max_examples=25, deadline=None)
def test_walk_equals_scalar_replay(
    backend, seed, samples, exponential, dedupe, zero_query
):
    query, slices = _walk_case(seed, samples, zero_query)
    centered = query - query.mean()
    norm = float(np.linalg.norm(centered))
    policy = ExponentialSkipPolicy() if exponential else FixedSkipPolicy(3)
    delta = 0.4
    expected_hits: list[tuple[int, float, int]] = []
    expected_evaluated = expected_above = 0
    for index, data in enumerate(slices):
        if data.size < samples:
            continue
        hits, evaluated, above = replay_skip_walk(
            ScalarWindowEvaluator(data, centered, norm),
            data.size - samples,
            policy,
            delta,
            dedupe,
        )
        expected_hits.extend((index, omega, offset) for omega, offset in hits)
        expected_evaluated += evaluated
        expected_above += above
    with _backend(backend):
        walk = _core(slices).walk(centered, norm, policy.rule, delta, dedupe)
    got = list(zip(walk.slices.tolist(), walk.omegas.tolist(), walk.offsets.tolist()))
    assert got == expected_hits
    assert walk.evaluated == expected_evaluated
    assert walk.above_threshold == expected_above
    if not zero_query and not exponential:
        assert expected_above  # the planted copies are found


def test_walk_rejects_a_rule_that_cannot_advance():
    core = _core([np.arange(40.0)])
    centered = np.arange(8.0) - 3.5
    for rule in (SkipRule(0.0, 1.0, 0, 0), SkipRule(0.5, 0.05, 3, 2)):
        with pytest.raises(SearchError, match="skip rule"):
            core.walk(centered, 1.0, rule, 0.5, True)


def test_policy_rules_replay_scalar_skip():
    omegas = np.concatenate(([0.0, 0.05, 1.0, 0.0108, 0.0216], np.linspace(0, 1, 997)))
    for policy in (ExponentialSkipPolicy(), ExponentialSkipPolicy(max_skip=7), FixedSkipPolicy(4)):
        assert policy.rule.table(omegas).tolist() == [
            policy.skip(float(omega)) for omega in omegas
        ]


def test_pairwise_reference_stays_within_1e12_of_blas_dot():
    rng = np.random.default_rng(5)
    data = _smooth(rng, 4000) * 40.0 + 3.0
    stats = WindowedStats(data)
    query = _smooth(rng, 256)
    centered = query - query.mean()
    norm = float(np.linalg.norm(centered))
    for offset in range(0, data.size - 256, 7):
        segment = data[offset : offset + 256]
        denominator = norm * stats.centered_norm(offset, 256)
        blas = min(1.0, max(-1.0, float(np.dot(centered, segment)) / denominator))
        pairwise = stats.normalized_correlation_with(centered, norm, offset)
        assert abs(pairwise - blas) <= 1e-12
