"""Tests for the fused area-reduction kernel behind the edge engine.

Covers the area contract (every area equal to
``np.abs(rows - q).sum(axis=1)`` on every backend and at every thread
count, for the compiled kernel's tiles and lone pairs and for the
numpy fallback's rectangle), the ragged argmin entry point's contract
(every pair's offset and area equal to ``np.argmin`` over those areas
after the flat override — ties, ±inf and NaN included), input
validation, the numpy fallback's per-shape scratch reuse, the
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
from repro.errors import KernelError
from repro.kernels import (
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
    groups = [np.ascontiguousarray(rows[r : r + 1]) for r in range(n_rows)]
    _, area = abs_diff_argmin(
        groups,
        [np.zeros(1, dtype=bool)] * n_rows,
        [n_queries] * n_rows,
        queries,
        np.zeros(n_queries),
        np.tile(np.arange(n_queries, dtype=np.int64), n_rows),
        threads=threads,
    )
    return np.ascontiguousarray(area.reshape(n_rows, n_queries).T)


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


class TestArgminKernel:
    @settings(max_examples=150, deadline=None)
    @given(step=_ragged_steps())
    def test_matches_numpy_argmin_over_the_areas(self, step):
        windows, flats, counts, queries, worst, pair_query, threads = step
        with np.errstate(invalid="ignore"):  # inf - inf is a NaN cell here
            best, area = abs_diff_argmin(
                windows, flats, counts, queries, worst, pair_query, threads=threads
            )
            expected_best, expected_area = _argmin_reference(
                windows, flats, counts, queries, worst, pair_query
            )
        np.testing.assert_array_equal(best, expected_best)
        np.testing.assert_array_equal(area, expected_area)  # NaN == NaN here
        assert best.dtype == np.int64 and area.dtype == np.float64

    def test_empty_step(self):
        queries = np.zeros((0, 16))
        best, area = abs_diff_argmin([], [], [], queries, np.zeros(0),
                                     np.zeros(0, dtype=np.int64))
        assert best.shape == area.shape == (0,)
        # Groups with no pairs evaluate nothing.
        rows = np.ones((3, 16))
        best, area = abs_diff_argmin(
            [rows], [np.zeros(3, dtype=bool)], [0], np.zeros((2, 16)),
            np.zeros(2), np.zeros(0, dtype=np.int64),
        )
        assert best.shape == area.shape == (0,)

    def test_rejects_bad_inputs(self):
        rows = np.zeros((3, 8))
        flat = np.zeros(3, dtype=bool)
        queries = np.zeros((2, 8))
        worst = np.zeros(2)
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match="window groups"):
            abs_diff_argmin([rows], [], [1], queries, worst, one)
        with pytest.raises(ValueError, match="worst"):
            abs_diff_argmin([rows], [flat], [1], queries, np.zeros(3), one)
        with pytest.raises(ValueError, match="pair_query"):
            abs_diff_argmin([rows], [flat], [2], queries, worst, one)
        with pytest.raises(ValueError, match="pair_query"):
            abs_diff_argmin([rows], [flat], [1], queries, worst, one.astype(np.int32))
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            abs_diff_argmin([rows], [flat], [1], queries, worst, one + 2)
        with pytest.raises(ValueError, match="non-negative"):
            abs_diff_argmin([rows], [flat], [-1], queries, worst, one[:0])
        with pytest.raises(ValueError, match="row length"):
            abs_diff_argmin([np.zeros((3, 4))], [flat], [1], queries, worst, one)
        with pytest.raises(ValueError, match="row length"):
            abs_diff_argmin([np.zeros((0, 8))], [flat[:0]], [1], queries, worst, one)
        with pytest.raises(ValueError, match="flat mask"):
            abs_diff_argmin([rows], [flat.astype(np.uint8)], [1], queries, worst, one)
        with pytest.raises(ValueError, match="contiguous"):
            abs_diff_argmin([np.zeros((3, 16))[:, ::2]], [flat], [1], queries, worst, one)
        with pytest.raises(ValueError, match="float64"):
            abs_diff_argmin([rows.astype(np.float32)], [flat], [1], queries, worst, one)


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
