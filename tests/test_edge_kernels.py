"""Tests for the fused area-reduction kernel behind the edge engine.

Covers the area contract (every area equal to
``np.abs(rows - q).sum(axis=1)`` on every backend and at every thread
count, for the compiled kernel's work units and lone pairs and for the
numpy fallback's rectangle), the ragged argmin entry point's contract
(every pair's offset and area equal to ``np.argmin`` over those areas
after the flat override — ties, ±inf and NaN included), groups whose
rows the kernel builds from overlapping strided samples, the compiled
kernel's float32 block-sum lower bound (near-ties, rows on the slack,
bounds equal to the best, non-finite values across block boundaries,
rows too long for the proven slack, and the exact rows it reports,
replayed rule for rule), input validation, the
numpy fallback's per-shape scratch reuse, the
``EMAP_KERNEL`` /
``EMAP_KERNEL_THREADS`` overrides (including the
forced-``c``-must-not-degrade error path), and the cross-process
``.so`` cache keyed by source, compiler flags and CPU identity.

Backend selection is process-global state; every test here runs under
a fixture that snapshots and restores it, so forcing backends or
pointing the cache at a tmpdir cannot leak into other tests.
"""

from __future__ import annotations

import ctypes
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels as _kernels
from repro.edge._kernels import (
    TILE,
    _numpy_rect_sums,
    _reset_backend_selection,
    _scratch,
    abs_diff_argmin,
    kernel_backend,
    kernel_threads,
)
from repro.edge.plane import CompiledSliceWindows
from repro.errors import KernelError
from repro.kernels import (
    BLOCK,
    _BASE_FLAGS,
    _compile_flags,
    _cpu_identity,
    _library_path,
)

HAS_COMPILER = any(shutil.which(name) for name in ("cc", "gcc", "clang"))


@pytest.fixture(autouse=True)
def restore_backend_selection():
    """Snapshot the lazily-selected backend and restore it afterwards."""
    saved = (_kernels._backend, _kernels._c_kernels)
    yield
    _kernels._backend, _kernels._c_kernels = saved


def _rect_reference(rows: np.ndarray, queries: np.ndarray) -> np.ndarray:
    return np.stack([np.abs(rows - q).sum(axis=1) for q in queries])


def _rect_via_argmin(
    rows: np.ndarray, queries: np.ndarray, threads: int | None = None
) -> np.ndarray:
    """The area rectangle read off :func:`abs_diff_argmin`.

    Each window row is its own one-row group evaluated by every query,
    so each pair's area is one cell; the query count sets the tiling
    (full tiles, a short tile, a lone pair).
    """
    n_rows, m = rows.shape
    n_queries = queries.shape[0]
    groups = _groups(
        [rows[r : r + 1] for r in range(n_rows)],
        [np.zeros(1, dtype=bool)] * n_rows,
    )
    _, area, _ = abs_diff_argmin(
        groups,
        [n_queries] * n_rows,
        queries,
        np.zeros(n_queries),
        np.tile(np.arange(n_queries, dtype=np.int64), n_rows),
        threads=threads,
    )
    return np.ascontiguousarray(area.reshape(n_rows, n_queries).T)


def _groups(windows, flats) -> list[CompiledSliceWindows]:
    return [
        CompiledSliceWindows.from_rows(
            np.ascontiguousarray(rows), np.ascontiguousarray(flat)
        )
        for rows, flat in zip(windows, flats)
    ]


def _argmin_reference(windows, flats, counts, queries, worst, pair_query):
    """Pair by pair: the numpy areas, the flat override, ``np.argmin``."""
    best: list[int] = []
    area: list[float] = []
    start = 0
    for rows, flat, count in zip(windows, flats, counts):
        for pair in range(start, start + count):
            owner = pair_query[pair]
            areas = np.abs(rows - queries[owner]).sum(axis=1)
            areas[flat] = worst[owner]
            picked = int(np.argmin(areas))
            best.append(picked)
            area.append(areas[picked])
        start += count
    return np.array(best, dtype=np.int64), np.array(area, dtype=np.float64)


class TestRectKernel:
    """Every area the kernel computes, and the numpy fallback's rectangle."""

    @pytest.mark.parametrize("m", [1, 7, 64, 131, 256, 1000])
    @pytest.mark.parametrize("threads", [1, 2, 3, 7])
    def test_bitwise_equals_numpy_at_every_thread_count(self, m, threads):
        rng = np.random.default_rng(m * 31 + threads)
        rows = np.ascontiguousarray(rng.standard_normal((11, m)) * 1e3)
        queries = np.ascontiguousarray(rng.standard_normal((5, m)) * 1e2)
        expected = _rect_reference(rows, queries)
        # 5 queries: one full tile and a lone pair; 2: a short tile.
        for count in (5, 2, 1):
            np.testing.assert_array_equal(
                _rect_via_argmin(rows, queries[:count], threads=threads),
                expected[:count],
            )

    def test_cells_match_single_query_kernel(self):
        """Each rectangle row is exactly numpy's single-query reduction."""
        rng = np.random.default_rng(9)
        rows = np.ascontiguousarray(rng.standard_normal((13, 300)))
        queries = np.ascontiguousarray(rng.standard_normal((4, 300)))
        rect = _numpy_rect_sums(rows, queries)
        for index in range(queries.shape[0]):
            np.testing.assert_array_equal(
                rect[index], np.abs(rows - queries[index]).sum(axis=1)
            )
            np.testing.assert_array_equal(
                rect[index], _numpy_rect_sums(rows, queries[index : index + 1])[0]
            )

    def test_more_threads_than_cells_is_safe(self):
        rng = np.random.default_rng(10)
        rows = np.ascontiguousarray(rng.standard_normal((2, 40)))
        queries = np.ascontiguousarray(rng.standard_normal((1, 40)))
        produced = _rect_via_argmin(rows, queries, threads=64)
        np.testing.assert_array_equal(produced, _rect_reference(rows, queries))

    def test_numpy_fallback_bitwise_equals_numpy(self):
        rng = np.random.default_rng(11)
        rows = np.ascontiguousarray(rng.standard_normal((700, 131)))
        queries = np.ascontiguousarray(rng.standard_normal((3, 131)))
        out = np.empty((3, 700))
        _numpy_rect_sums(rows, queries, out)
        np.testing.assert_array_equal(out, _rect_reference(rows, queries))

    def test_writes_into_out(self):
        rng = np.random.default_rng(12)
        rows = np.ascontiguousarray(rng.standard_normal((4, 32)))
        queries = np.ascontiguousarray(rng.standard_normal((2, 32)))
        out = np.empty((2, 4))
        assert _numpy_rect_sums(rows, queries, out) is out

    def test_empty_rows_and_queries_ok(self):
        assert _numpy_rect_sums(np.empty((0, 16)), np.zeros((2, 16))).shape == (
            2,
            0,
        )
        assert _numpy_rect_sums(np.zeros((3, 16)), np.empty((0, 16))).shape == (
            0,
            3,
        )


_SPECIALS = (np.inf, -np.inf, np.nan)


@st.composite
def _ragged_steps(draw):
    """A random fused step: ragged groups, flat rows, ties, ±inf, NaN."""
    m = draw(st.sampled_from([1, 7, 8, 127, 128, 129, 256, 1000]))
    sessions = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    queries = rng.standard_normal((sessions, m)) * 10.0 ** draw(st.integers(0, 6))
    worst = np.abs(queries).sum(axis=1)
    if draw(st.booleans()):
        worst[0] = np.inf  # raw mode: flat rows carry an infinite worst
    windows, flats, counts = [], [], []
    for _ in range(draw(st.integers(0, 5))):
        n_rows = draw(st.integers(1, 12))
        rows = rng.standard_normal((n_rows, m)) * 1e3
        if n_rows > 1 and draw(st.booleans()):
            rows[-1] = rows[0]  # an exact tie the first index must win
        for _ in range(draw(st.integers(0, 2))):
            rows[rng.integers(n_rows), rng.integers(m)] = draw(
                st.sampled_from(_SPECIALS)
            )
        windows.append(np.ascontiguousarray(rows))
        flats.append(rng.random(n_rows) < draw(st.sampled_from([0.0, 0.3, 1.0])))
        # Pair counts that are and are not multiples of the tile.
        counts.append(draw(st.integers(0, 2 * TILE + 1)))
    if draw(st.booleans()):
        queries[rng.integers(sessions), rng.integers(m)] = draw(
            st.sampled_from(_SPECIALS)
        )
    pair_query = rng.integers(0, sessions, size=sum(counts)).astype(np.int64)
    threads = draw(st.sampled_from([1, 2, 3, 7]))
    return windows, flats, counts, np.ascontiguousarray(queries), worst, pair_query, threads


def _query_blocks(query: np.ndarray) -> np.ndarray:
    """A query's block sums in the C kernel's order (in order from 0.0),
    rounded to float32."""
    sums = []
    for start in range(0, query.size, BLOCK):
        total = 0.0
        for value in query[start : start + BLOCK].tolist():
            total += value
        sums.append(total)
    with np.errstate(over="ignore"):
        return np.array(sums).astype(np.float32)


def _row_blocks(group: CompiledSliceWindows) -> np.ndarray:
    """A group's float32 block sums, one row each (its panels undone)."""
    nb = group.blocks.shape[1]
    return group.blocks.transpose(0, 2, 1).reshape(-1, nb)[: group.n_offsets]


def _bounds(row_blocks: np.ndarray, query_blocks: np.ndarray) -> np.ndarray:
    """Every row's bound as the C kernel sums it: ``|Q_b − W_b|`` in
    float32, blocks in order."""
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = np.abs(row_blocks[:, 0] - query_blocks[0])
        for block in range(1, query_blocks.size):
            bounds += np.abs(row_blocks[:, block] - query_blocks[block])
    return bounds


def _slack(m: int) -> float:
    """The limit's relative slack: ``(nb + 5) 2^-24``, NaN past 4096 blocks."""
    nb = -(-m // BLOCK)
    return (nb + 5) * 2.0**-24 if nb <= 4096 else float("nan")


_FLT_MIN = float(np.finfo(np.float32).tiny)
_FLT_MAX = float(np.finfo(np.float32).max)


def _exact_rows_reference(groups, counts, queries, worst, pair_query) -> int:
    """The rows the compiled kernel evaluates exactly, rule for rule.

    Replays ``argmin_run`` in ``repro/kernels.py`` with the same IEEE
    operations in the same order: float32 bounds, then Python floats.
    The seed is the non-flat row with the least finite bound, first on
    ties; its area ``a`` fixes ``L = a + (slack (Σ|q| + a) + FLT_MIN)``.
    Every other non-flat row is evaluated unless its bound is finite and
    above ``L``; with no seed no row is skipped.
    """
    slack = _slack(queries.shape[1])
    exact = 0
    start = 0
    for group, count in zip(groups, counts):
        rows = np.flatnonzero(~group.flat).tolist()
        row_blocks = _row_blocks(group)
        for owner in pair_query[start : start + count].tolist():
            q = queries[owner]
            norm = 0.0
            for value in np.abs(q).tolist():
                norm += value
            bounds = _bounds(row_blocks, _query_blocks(q)).tolist()
            finite = [r for r in rows if bounds[r] <= _FLT_MAX]
            if not finite:
                exact += len(rows)
                continue
            seed = min(finite, key=bounds.__getitem__)  # first on ties
            a = float(np.abs(group.rows()[seed] - q).sum())
            limit = a + (slack * (norm + a) + _FLT_MIN)
            exact += 1 + sum(
                1
                for r in rows
                if r != seed and not limit < bounds[r] <= _FLT_MAX
            )
        start += count
    return exact


def _check_step(groups, counts, queries, worst, pair_query, threads=None):
    """``abs_diff_argmin`` against the numpy reference, and its exact
    rows against the kernel's rule (every non-flat row on numpy)."""
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN cell here
        best, area, exact = abs_diff_argmin(
            groups, counts, queries, worst, pair_query, threads=threads
        )
        expected_best, expected_area = _argmin_reference(
            [group.rows() for group in groups],
            [group.flat for group in groups],
            counts, queries, worst, pair_query,
        )
        if kernel_backend() == "c":
            expected_exact = _exact_rows_reference(
                groups, counts, queries, worst, pair_query
            )
        else:
            expected_exact = sum(
                count * int(np.count_nonzero(~group.flat))
                for group, count in zip(groups, counts)
            )
    np.testing.assert_array_equal(best, expected_best)
    np.testing.assert_array_equal(area, expected_area)  # NaN == NaN here
    assert best.dtype == np.int64 and area.dtype == np.float64
    assert exact == expected_exact
    return best, area, exact


def _one_sign_per_block(rng: np.random.Generator, m: int, scale: float) -> np.ndarray:
    """Differences with one sign per block, so a row's bound is its area
    (up to rounding)."""
    n_blocks = -(-m // BLOCK)
    signs = np.repeat(rng.choice([-1.0, 1.0], n_blocks), BLOCK)[:m]
    return np.abs(rng.standard_normal(m)) * scale * signs


def _shuffled_within_blocks(rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
    shuffled = values.copy()
    for start in range(0, values.size, BLOCK):
        shuffled[start : start + BLOCK] = rng.permutation(values[start : start + BLOCK])
    return shuffled


#: Relative moves of a row's differences around the best one: ulps, the
#: slack's order ((nb + 5) 2^-24), and clearly outside it.
_NEAR = ("ulp", "half_slack", "slack", "two_slack", "far")


@st.composite
def _near_tie_steps(draw):
    """One group of rows whose areas sit within a few slacks of each
    other, for up to three nearly equal queries."""
    m = draw(st.sampled_from([5, 131, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 5))
    query = rng.standard_normal(m) * scale
    diff = _one_sign_per_block(rng, m, scale)
    slack = _slack(m)
    moves = {
        "ulp": 2.0**-52,
        "half_slack": slack / 2,
        "slack": slack,
        "two_slack": 2 * slack,
        "far": 0.5,
    }
    rows = []
    for _ in range(draw(st.integers(2, 10))):
        kind = draw(st.sampled_from(("same", "shuffled", *_NEAR)))
        if kind == "same":
            rows.append(query + diff)
        elif kind == "shuffled":
            rows.append(query + _shuffled_within_blocks(rng, diff))
        else:
            sign = draw(st.sampled_from([-1.0, 1.0]))
            rows.append(query + diff * (1.0 + sign * moves[kind]))
    rows = np.array(rows)
    flat = rng.random(rows.shape[0]) < draw(st.sampled_from([0.0, 0.2]))
    sessions = draw(st.integers(1, 3))
    queries = np.array(
        [query] + [query + diff * 2.0**-50 * k for k in range(1, sessions)]
    )
    worst = np.abs(queries).sum(axis=1)
    count = draw(st.integers(1, 2 * TILE + 1))
    pair_query = rng.integers(0, sessions, size=count).astype(np.int64)
    threads = draw(st.sampled_from([1, 2, 3]))
    return _groups([rows], [flat]), [count], queries, worst, pair_query, threads


class TestArgminKernel:
    @settings(max_examples=150, deadline=None)
    @given(step=_ragged_steps())
    def test_matches_numpy_argmin_over_the_areas(self, step):
        windows, flats, counts, queries, worst, pair_query, threads = step
        _check_step(
            _groups(windows, flats), counts, queries, worst, pair_query, threads
        )

    def test_empty_step(self):
        queries = np.zeros((0, 16))
        best, area, exact = abs_diff_argmin(
            [], [], queries, np.zeros(0), np.zeros(0, dtype=np.int64)
        )
        assert best.shape == area.shape == (0,) and exact == 0
        # Groups with no pairs evaluate nothing.
        group = CompiledSliceWindows.from_rows(np.ones((3, 16)), np.zeros(3, dtype=bool))
        best, area, exact = abs_diff_argmin(
            [group], [0], np.zeros((2, 16)), np.zeros(2),
            np.zeros(0, dtype=np.int64),
        )
        assert best.shape == area.shape == (0,) and exact == 0

    def test_rejects_bad_inputs(self):
        flat = np.zeros(3, dtype=bool)
        group = CompiledSliceWindows.from_rows(np.zeros((3, 8)), flat)
        queries = np.zeros((2, 8))
        worst = np.zeros(2)
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match="window groups"):
            abs_diff_argmin([group], [], queries, worst, one)
        with pytest.raises(ValueError, match="worst"):
            abs_diff_argmin([group], [1], queries, np.zeros(3), one)
        with pytest.raises(ValueError, match="pair_query"):
            abs_diff_argmin([group], [2], queries, worst, one)
        with pytest.raises(ValueError, match="pair_query"):
            abs_diff_argmin([group], [1], queries, worst, one.astype(np.int32))
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            abs_diff_argmin([group], [1], queries, worst, one + 2)
        with pytest.raises(ValueError, match="non-negative"):
            abs_diff_argmin([group], [-1], queries, worst, one[:0])
        short = CompiledSliceWindows.from_rows(np.zeros((3, 4)), flat)
        with pytest.raises(ValueError, match="row length"):
            abs_diff_argmin([short], [1], queries, worst, one)
        with pytest.raises(ValueError, match="contiguous"):
            abs_diff_argmin([group], [1], np.zeros((2, 16))[:, ::2], worst, one)
        with pytest.raises(ValueError, match="float64"):
            abs_diff_argmin([group], [1], queries.astype(np.float32), worst, one)
        # A compiled slice checks its arrays once, when it is built.
        with pytest.raises(ValueError, match="at least one row"):
            CompiledSliceWindows.from_rows(np.zeros((0, 8)), flat[:0])
        with pytest.raises(ValueError, match="flat mask"):
            CompiledSliceWindows.from_rows(np.zeros((3, 8)), flat.astype(np.uint8))
        with pytest.raises(ValueError, match="contiguous"):
            CompiledSliceWindows.from_rows(np.zeros((3, 16))[:, ::2], flat)
        with pytest.raises(ValueError, match="float64"):
            CompiledSliceWindows.from_rows(np.zeros((3, 8), dtype=np.float32), flat)


class TestStridedGroups:
    """Groups whose rows the kernel builds from overlapping strided
    samples, a mean and a scale, as a compiled slice's are."""

    @staticmethod
    def _group(rng, m, stride, n_rows):
        samples = rng.standard_normal((n_rows - 1) * stride + m + 2) * 1e3
        means = rng.standard_normal(n_rows) * 10.0
        scales = rng.random(n_rows) * 3.0 + 0.1
        flat = rng.random(n_rows) < 0.2
        group = CompiledSliceWindows(samples, means, scales, flat, m, stride)
        expected = np.array(
            [(samples[r * stride : r * stride + m] - means[r]) * scales[r] for r in range(n_rows)]
        )
        np.testing.assert_array_equal(group.rows(), expected)
        return group

    @pytest.mark.parametrize("m", [5, 131, 256])
    @pytest.mark.parametrize("stride", [1, 3, 4])
    def test_overlapping_rows_match_numpy(self, m, stride):
        rng = np.random.default_rng(m * 10 + stride)
        groups = [self._group(rng, m, stride, n_rows) for n_rows in (1, 9, 23)]
        queries = np.ascontiguousarray(rng.standard_normal((3, m)) * 1e3)
        queries[1] = groups[1].rows()[4] + rng.standard_normal(m)  # a near row
        worst = np.abs(queries).sum(axis=1)
        counts = [2, 5, 7]
        pair_query = rng.integers(0, 3, size=sum(counts)).astype(np.int64)
        for threads in (1, 3):
            _check_step(groups, counts, queries, worst, pair_query, threads)

    def test_rejects_rows_outside_the_samples(self):
        flat = np.zeros(3, dtype=bool)
        means, scales = np.zeros(3), np.ones(3)
        # 3 rows of 5 at stride 3 read 2 * 3 + 5 = 11 samples.
        group = CompiledSliceWindows(np.arange(11.0), means, scales, flat, 5, 3)
        assert group.samples.size == 11 and group.rows()[2].tolist() == [6, 7, 8, 9, 10]
        with pytest.raises(ValueError, match="read 11 samples"):
            CompiledSliceWindows(np.arange(10.0), means, scales, flat, 5, 3)
        with pytest.raises(ValueError, match="read 21 samples"):
            CompiledSliceWindows(np.arange(20.0), means, scales, flat, 5, 8)
        with pytest.raises(ValueError, match="at least 1"):
            CompiledSliceWindows(np.arange(11.0), means, scales, flat, 5, 0)
        with pytest.raises(ValueError, match="at least 1"):
            CompiledSliceWindows(np.arange(11.0), means, scales, flat, 0, 3)
        with pytest.raises(ValueError, match="scales"):
            CompiledSliceWindows(np.arange(11.0), means, scales[:2], flat, 5, 3)
        with pytest.raises(ValueError, match="float64"):
            CompiledSliceWindows(np.arange(11), means, scales, flat, 5, 3)


class TestLowerBound:
    """The compiled kernel skips only rows its bound proves lose, and
    reports exactly the rows it evaluated."""

    @settings(max_examples=150, deadline=None)
    @given(step=_near_tie_steps())
    def test_near_ties_keep_every_bit(self, step):
        groups, counts, queries, worst, pair_query, threads = step
        _check_step(groups, counts, queries, worst, pair_query, threads)

    @pytest.mark.parametrize("m", [5, 131, 256])
    def test_bound_equal_to_the_best_is_evaluated(self, m):
        """Integer samples keep every sum exact.  The query is constant
        per block and row 1's differences have one sign per block, so
        its bound equals its area and, first on the least bound, it is
        the seed; row 2 shuffles row 1 within blocks, so its bound and
        its area both equal the seed's area exactly: it must be
        evaluated, and the tie keeps the first index."""
        rng = np.random.default_rng(m)
        n_blocks = -(-m // BLOCK)
        query = np.repeat(rng.integers(-50, 50, n_blocks), BLOCK)[:m].astype(float)
        signs = np.repeat(rng.choice([-1.0, 1.0], n_blocks), BLOCK)[:m]
        diff = rng.integers(0, 20, m) * signs
        rows = np.array([
            query + 100.0,
            query + diff,
            query + _shuffled_within_blocks(rng, diff),
            query - 100.0,
        ])
        group = _groups([rows], [np.zeros(4, dtype=bool)])[0]
        area = float(np.abs(diff).sum())
        bounds = _bounds(_row_blocks(group), _query_blocks(query))
        assert bounds[1] == bounds[2] == area
        best, got, exact = _check_step(
            [group], [2], query[None, :].copy(), np.array([np.inf]),
            np.zeros(2, dtype=np.int64),
        )
        assert best.tolist() == [1, 1] and got.tolist() == [area, area]
        if kernel_backend() == "c":
            assert exact == 2 * 2  # the seed and row 2; rows 0 and 3 are skipped

    def test_rows_on_the_slack(self):
        """At m = 5 (two blocks) the query is ``e_4``, so ``Σ|q| = 1``,
        and each row is the query plus ``x`` at sample 0: its bound and
        its area are both ``x`` for a float32 ``x``.  Row 2 equals the
        query, so it is the seed with area 0 and the limit is exactly
        the slack, ``7·2^-24``: the rows one float32 step below it and on
        it are evaluated, the rows past it are skipped, and a later row
        equal to the seed loses the tie.  A slack one ulp smaller would
        skip the rows on it."""
        slack = _slack(5)
        assert slack == 7 * 2.0**-24
        step = 2.0**-45  # the float32 spacing at the slack
        query = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        rows = np.tile(query, (7, 1))
        rows[:, 0] = [slack - step, slack, 0.0, slack + step, slack, 3.0, 0.0]
        group = _groups([rows], [np.zeros(7, dtype=bool)])[0]
        assert _bounds(_row_blocks(group), _query_blocks(query)).tolist() == rows[
            :, 0
        ].tolist()
        best, area, exact = _check_step(
            [group], [1], query[None, :].copy(), np.zeros(1),
            np.zeros(1, dtype=np.int64),
        )
        assert best.tolist() == [2] and area.tolist() == [0.0]
        if kernel_backend() == "c":
            assert exact == 5  # the seed and rows 0, 1, 4 and 6

    @pytest.mark.parametrize("m, skipped", [(4 * 4096, 2), (4 * 4096 + 1, 0)])
    def test_no_row_is_skipped_past_4096_blocks(self, m, skipped):
        """The slack is proven for at most 4096 blocks; a longer row has
        a NaN limit, so even far rows are evaluated."""
        rng = np.random.default_rng(m)
        query = rng.standard_normal(m)
        rows = np.array([query, query + 1e3, query - 1e3])
        _, _, exact = _check_step(
            _groups([rows], [np.zeros(3, dtype=bool)]), [1], query[None, :].copy(),
            np.zeros(1), np.zeros(1, dtype=np.int64),
        )
        if kernel_backend() == "c":
            assert exact == 3 - skipped

    @pytest.mark.parametrize("m", [5, 131, 256])
    def test_an_earlier_row_equal_to_the_seed_wins(self, m):
        """Integer samples keep every sum exact.  Row 1's differences
        have one sign per block, so its bound is its area; row 2 has the
        same magnitudes with alternating signs, so its bound is lower and
        it is the seed, with exactly row 1's area.  Row 1 is evaluated
        and wins the tie by its index."""
        rng = np.random.default_rng(m)
        n_blocks = -(-m // BLOCK)
        query = rng.integers(-50, 50, m).astype(float)
        magnitude = rng.integers(1, 20, m).astype(float)
        signs = np.repeat(rng.choice([-1.0, 1.0], n_blocks), BLOCK)[:m]
        rows = np.array([
            query + 100.0,
            query + magnitude * signs,
            query + magnitude * (-1.0) ** np.arange(m),
            query - 100.0,
        ])
        group = _groups([rows], [np.zeros(4, dtype=bool)])[0]
        area = float(magnitude.sum())
        assert _bounds(_row_blocks(group), _query_blocks(query))[2] < area
        best, got, exact = _check_step(
            [group], [3], query[None, :].copy(), np.array([np.inf]),
            np.zeros(3, dtype=np.int64),
        )
        assert best.tolist() == [1] * 3 and got.tolist() == [area] * 3
        if kernel_backend() == "c":
            assert exact == 3 * 2  # the seed and row 1

    @pytest.mark.parametrize("m", [5, 131, 256])
    @pytest.mark.parametrize("n_rows", [7, 8, 9])
    def test_a_far_nan_is_evaluated_and_wins(self, m, n_rows):
        """The last row is far from the query but its last sample is NaN,
        so its bound is NaN: it must be evaluated, and np.argmin's
        NaN-first rule picks it.  With 7, 8 and 9 rows it sits before
        any full panel, at a panel's last lane and in a partial panel."""
        rng = np.random.default_rng(m * 10 + n_rows)
        query = rng.standard_normal(m)
        rows = query + rng.standard_normal((n_rows, m)) * 1e3
        rows[0] = query + rng.standard_normal(m) * 1e-3
        rows[-1, -1] = np.nan
        group = _groups([rows], [np.zeros(n_rows, dtype=bool)])[0]
        best, area, exact = _check_step(
            [group], [2], np.array([query, query]), np.abs(query).sum() * np.ones(2),
            np.array([0, 1], dtype=np.int64),
        )
        assert best.tolist() == [n_rows - 1] * 2 and np.isnan(area).all()
        if kernel_backend() == "c":
            assert exact == 2 * 2  # the seed (row 0) and the NaN row

    @pytest.mark.parametrize("m", [5, 131, 256])
    def test_no_finite_bound_means_no_seed(self, m):
        """Every non-flat row holds an infinity, so no bound is finite:
        there is no seed, no row is skipped, and the flat row's finite
        worst area wins."""
        rng = np.random.default_rng(m)
        query = rng.standard_normal(m)
        rows = query + rng.standard_normal((9, m))
        rows[np.arange(9), np.arange(9) % m] = np.inf
        rows[4, -1] = -np.inf
        flat = np.arange(9) == 6
        worst = np.array([np.abs(query).sum()])
        best, area, exact = _check_step(
            _groups([rows], [flat]), [2], query[None, :].copy(), worst,
            np.zeros(2, dtype=np.int64),
        )
        assert best.tolist() == [6, 6] and area.tolist() == [worst[0]] * 2
        if kernel_backend() == "c":
            assert exact == 2 * 8

    @pytest.mark.parametrize("m", [5, 131])
    @pytest.mark.parametrize(
        "row_specials, query_specials",
        [
            ({3: np.inf}, {4: np.inf}),  # two blocks, both infinite: area inf
            ({3: np.inf}, {3: np.inf}),  # one sample: area NaN
            ({3: np.inf, 4: -np.inf}, {}),  # opposite signs across the boundary
            ({2: np.inf, 3: -np.inf}, {}),  # opposite signs in one block: NaN sum
            ({4: np.nan}, {}),
            ({}, {3: np.nan}),
            ({4: -np.inf}, {3: -np.inf}),
        ],
    )
    def test_non_finite_values_across_block_boundaries(
        self, m, row_specials, query_specials
    ):
        rng = np.random.default_rng(m)
        query = rng.standard_normal(m)
        rows = query + rng.standard_normal((5, m)) * np.array(
            [[1.0], [1e-3], [1e3], [1e-3], [1.0]]
        )
        for row in (2, 3):
            for index, value in row_specials.items():
                rows[row, index] = value
        queries = np.array([query, query.copy()])
        for index, value in query_specials.items():
            queries[1, index] = value
        flat = np.array([False, False, False, False, True])
        worst = np.array([np.abs(query).sum(), np.inf])
        groups = _groups([rows, rows[::-1]], [flat, flat[::-1]])
        _check_step(
            groups, [3, 2], queries, worst, np.array([0, 1, 1, 0, 1], dtype=np.int64)
        )


class TestFallbackScratchReuse:
    def test_same_shape_reuses_the_buffer(self):
        first = _scratch((37, 129))
        second = _scratch((37, 129))
        assert first is second  # no per-call allocation (the old leak)
        assert _scratch((37, 130)) is not first

    def test_scratch_is_thread_local(self):
        import threading

        main_buffer = _scratch((5, 5))
        seen: list[np.ndarray] = []
        worker = threading.Thread(target=lambda: seen.append(_scratch((5, 5))))
        worker.start()
        worker.join()
        assert seen[0] is not main_buffer


class TestBackendOverride:
    def test_backend_is_known(self):
        assert kernel_backend() in ("c", "numpy")

    def test_forced_numpy_wins_even_with_a_compiler(self, monkeypatch):
        monkeypatch.setenv("EMAP_KERNEL", "numpy")
        _reset_backend_selection()
        assert kernel_backend() == "numpy"
        rng = np.random.default_rng(13)
        rows = np.ascontiguousarray(rng.standard_normal((6, 200)))
        queries = np.ascontiguousarray(rng.standard_normal((2, 200)))
        np.testing.assert_array_equal(
            _rect_via_argmin(rows, queries), _rect_reference(rows, queries)
        )

    def test_invalid_override_rejected(self, monkeypatch):
        monkeypatch.setenv("EMAP_KERNEL", "cuda")
        _reset_backend_selection()
        with pytest.raises(KernelError, match="EMAP_KERNEL must be"):
            kernel_backend()

    def test_forced_c_raises_when_kernel_unavailable(self, monkeypatch):
        """A forced backend must never silently degrade to the fallback."""
        monkeypatch.setenv("EMAP_KERNEL", "c")
        monkeypatch.setattr(_kernels, "_load_c_kernels", lambda: None)
        _reset_backend_selection()
        with pytest.raises(KernelError, match="EMAP_KERNEL=c"):
            kernel_backend()

    def test_self_check_failure_falls_back_when_not_forced(self, monkeypatch):
        monkeypatch.delenv("EMAP_KERNEL", raising=False)
        monkeypatch.setattr(_kernels, "_passes_self_check", lambda kernels: False)
        _reset_backend_selection()
        assert kernel_backend() == "numpy"


class TestKernelThreads:
    def test_pinned_by_env(self, monkeypatch):
        monkeypatch.setenv("EMAP_KERNEL_THREADS", "3")
        assert kernel_threads() == 3

    def test_clamped_to_bounds(self, monkeypatch):
        monkeypatch.setenv("EMAP_KERNEL_THREADS", "0")
        assert kernel_threads() == 1
        monkeypatch.setenv("EMAP_KERNEL_THREADS", "4096")
        assert kernel_threads() == 64

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("EMAP_KERNEL_THREADS", raising=False)
        expected = max(1, min(os.cpu_count() or 1, 64))
        assert kernel_threads() == expected

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("EMAP_KERNEL_THREADS", "many")
        with pytest.raises(KernelError, match="EMAP_KERNEL_THREADS"):
            kernel_threads()


@pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler on this host")
class TestSharedLibraryCache:
    def test_build_publishes_keyed_so_and_leaves_no_workdir(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("EMAP_KERNEL", raising=False)
        monkeypatch.setenv("EMAP_KERNEL_CACHE", str(tmp_path / "cache"))
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setenv("TMPDIR", str(tmp))
        import tempfile

        tempfile.tempdir = None  # re-read TMPDIR
        try:
            _reset_backend_selection()
            assert kernel_backend() == "c"
        finally:
            tempfile.tempdir = None
        cached = tmp_path / "cache" / os.path.basename(
            _library_path(_compile_flags(_cpu_identity()), _cpu_identity())
        )
        assert cached.exists()
        # The mkdtemp build directory is removed (the historical leak).
        assert not any(
            entry.name.startswith("repro-kernels-")
            for entry in tmp.iterdir()
        )

    def test_cache_hit_skips_the_compiler_entirely(self, tmp_path, monkeypatch):
        monkeypatch.delenv("EMAP_KERNEL", raising=False)
        monkeypatch.setenv("EMAP_KERNEL_CACHE", str(tmp_path))
        _reset_backend_selection()
        assert kernel_backend() == "c"  # first selection populates the cache

        def boom(workdir: str, flags: tuple[str, ...]) -> str | None:
            raise AssertionError("cache hit must not invoke the compiler")

        monkeypatch.setattr(_kernels, "_compile_library", boom)
        _reset_backend_selection()
        assert kernel_backend() == "c"  # loaded from the cached .so
        rng = np.random.default_rng(14)
        rows = np.ascontiguousarray(rng.standard_normal((5, 300)))
        queries = np.ascontiguousarray(rng.standard_normal((3, 300)))
        np.testing.assert_array_equal(
            _rect_via_argmin(rows, queries, threads=2),
            _rect_reference(rows, queries),
        )

    def test_corrupt_cache_entry_triggers_rebuild(self, tmp_path, monkeypatch):
        monkeypatch.delenv("EMAP_KERNEL", raising=False)
        monkeypatch.setenv("EMAP_KERNEL_CACHE", str(tmp_path))
        cached = _library_path(_compile_flags(_cpu_identity()), _cpu_identity())
        with open(cached, "wb") as handle:
            handle.write(b"not a shared library")
        _reset_backend_selection()
        assert kernel_backend() == "c"  # rebuilt past the corrupt entry

    def test_library_under_another_key_is_never_loaded(self, tmp_path, monkeypatch):
        """A cache entry built for another CPU is never dlopen'd here."""
        monkeypatch.delenv("EMAP_KERNEL", raising=False)
        monkeypatch.setenv("EMAP_KERNEL_CACHE", str(tmp_path))
        _reset_backend_selection()
        assert kernel_backend() == "c"  # populates the cache for this CPU
        here = _library_path(_compile_flags(_cpu_identity()), _cpu_identity())
        assert os.path.exists(here)

        monkeypatch.setattr(_kernels, "_cpu_identity", lambda: "another-host")
        loaded: list[str] = []
        real_cdll = ctypes.CDLL

        def recording_cdll(path, *args, **kwargs):
            loaded.append(path)
            return real_cdll(path, *args, **kwargs)

        monkeypatch.setattr(_kernels.ctypes, "CDLL", recording_cdll)
        _reset_backend_selection()
        assert kernel_backend() == "c"
        assert here not in loaded
        assert loaded == [
            _library_path(_compile_flags("another-host"), "another-host")
        ]


class TestCacheKey:
    def test_flag_list_changes_the_cache_path(self):
        cpu = "cpu-a"
        assert _library_path(("-O3",), cpu) != _library_path(("-O2",), cpu)
        assert _library_path(_BASE_FLAGS, cpu) != _library_path(
            _compile_flags(cpu), cpu
        )

    def test_cpu_identity_changes_the_cache_path(self):
        flags = _compile_flags("cpu-a")
        assert _library_path(flags, "cpu-a") != _library_path(flags, "cpu-b")

    def test_native_build_only_with_a_known_cpu(self):
        assert "-march=native" not in _compile_flags(None)
        assert "-march=native" in _compile_flags("cpu-a")
        for flags in (_compile_flags(None), _compile_flags("cpu-a")):
            assert "-ffp-contract=off" in flags and "-O3" in flags

    def test_cpu_identity_is_memoised(self):
        assert _cpu_identity() == _cpu_identity()
        assert _cpu_identity.cache_info().hits >= 1
