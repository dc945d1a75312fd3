"""Fused area-reduction kernels behind the edge tracking plane & fleet.

The plane's per-step cost is one reduction: for every compiled window
row ``w`` compute ``Σ|w − query|`` (Eq. 3 over normalised windows).
Expressed as separate numpy ufunc calls that is three full passes over
the compiled tensor — subtract, abs, sum — and the tensor (~38 MB at
100 candidates) is far bigger than cache, so the step is bound by
memory traffic numpy cannot fuse away.  The fleet adds a second axis:
many sessions track the *same* deduplicated compiled slice, so one
slice's window rows are evaluated against a whole stack of queries.

This module provides two entry points over two interchangeable
backends:

* :func:`abs_diff_rect_sums` — the multi-query *rectangle*
  ``out[q, r] = Σ|rows[r] − queries[q]|``.  The single-session
  :class:`~repro.edge.plane.TrackingPlane` and the fleet's sequential
  path call it with one query.
* :func:`abs_diff_argmin` — a whole fused fleet step in one call.  It
  takes a ragged list of groups (one per deduplicated compiled slice),
  one ``(sessions, m)`` query matrix and each (group, query) pair's
  query row, and returns each pair's ``np.argmin`` offset and area
  after flat rows are set to that pair's worst-case area.  No area
  rectangle is ever written: the running minimum lives in registers.

Every cell is **bit-identical** to ``np.abs(rows - q).sum(axis=1)[r]``
on every backend and at every thread count, and every argmin equals
what ``np.argmin`` picks over those cells (first index on ties, the
first NaN before anything else), with the area it reads.

Backends:

* ``"c"`` — a small C kernel compiled once with
  ``-O3 -march=native -ffp-contract=off`` and cached **across
  processes** under a per-user cache directory, loaded via
  :mod:`ctypes`.  Its summation replicates numpy's *pairwise*
  algorithm: 8 partial accumulators per block of ≤ 128 elements,
  combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the
  remainder in order, with recursive halving above 128.  The 8
  accumulators are the 8 lanes of one GCC/clang ``vector_size`` vector,
  so every lane performs the same additions in the same order as
  numpy's scalar accumulators and the vector build stays bit-exact
  without ``-ffast-math``; ``-ffp-contract=off`` forbids fused
  multiply-adds.  ``abs_diff_argmin`` additionally tiles up to
  :data:`TILE` pairs of one group together, so each window-row load is
  shared by the tile's queries, and runs one pthread team per call
  whose threads take (group, tile) work units from an atomic counter.
  Each pair's result depends only on its own cells, so the schedule
  never changes a bit.  The cached library is keyed by the C source,
  the full flag list and the host's CPU feature flags (a hash of the
  ``flags`` line of ``/proc/cpuinfo``); where that identity cannot be
  read the kernel is built without ``-march=native``.  A shared cache
  directory therefore never serves a library built for wider vectors
  than the host has.  The backend is selected only after a bitwise
  self-check against numpy on this exact interpreter/numpy build (the
  self-check runs per process even when the ``.so`` came from the
  cache).
* ``"numpy"`` — a cache-blocked fallback that runs the three ufunc
  passes through an L2-sized scratch block, reused per shape and per
  thread; ``abs_diff_argmin`` evaluates each group's rectangle that
  way, then applies the flat override and ``np.argmin``.  Same
  pairwise sum per row, so it is bit-identical by construction; used
  when no compiler is available or the self-check fails.

Selection is lazy, happens once per process, and is exposed via
:func:`kernel_backend` so benchmarks can report what they measured.
``EMAP_KERNEL=c|numpy`` forces a backend (``c`` raises
:class:`~repro.errors.KernelError` when the compiled kernel cannot be
used — a forced backend must never silently degrade), and
``EMAP_KERNEL_THREADS`` pins the kernels' thread count.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.errors import KernelError

#: Fallback scratch-block size: large enough to amortise per-call numpy
#: overhead, small enough to stay resident in L2 while the three ufunc
#: passes run over it.
_BLOCK_BYTES = 1 << 18

#: Hard ceiling on kernel threads (also the C-side worker array bound —
#: keep in sync with ``MAX_THREADS`` in the source).
_MAX_THREADS = 64

#: Pairs of one group evaluated together by ``abs_diff_argmin`` (keep in
#: sync with ``TILE`` in the source).
TILE = 4

#: The fused kernels.  Both replay numpy's pairwise_sum exactly: the 8
#: unrolled accumulators of a ≤128 block are the 8 lanes of one
#: ``v8d``, reduced in numpy's order, then the remainder added in
#: sequence; recursive halving above 128.
_C_SOURCE = """
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <pthread.h>

#define MAX_THREADS 64
#define TILE 4

typedef double v8d __attribute__((vector_size(64)));
typedef int64_t v8i __attribute__((vector_size(64)));

static const v8i ABS_MASK = {
    INT64_MAX, INT64_MAX, INT64_MAX, INT64_MAX,
    INT64_MAX, INT64_MAX, INT64_MAX, INT64_MAX
};

static inline v8d load8(const double *p) {
    v8d v;
    memcpy(&v, p, sizeof v);
    return v;
}

/* |w - q| lane-wise; clearing the sign bit is exactly fabs. */
static inline v8d abs_diff8(v8d w, const double *q) {
    return (v8d)((v8i)(w - load8(q)) & ABS_MASK);
}

static inline double lane_sum(v8d r) {
    return ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
}

/* One pairwise block (n <= 128) of one row against one query. */
static double block1(const double *w, const double *q, ptrdiff_t n) {
    ptrdiff_t i;
    double res;
    v8d r;
    if (n < 8) {
        res = 0.0;
        for (i = 0; i < n; i++) res += fabs(w[i] - q[i]);
        return res;
    }
    r = abs_diff8(load8(w), q);
    for (i = 8; i + 8 <= n; i += 8) r += abs_diff8(load8(w + i), q + i);
    res = lane_sum(r);
    for (; i < n; i++) res += fabs(w[i] - q[i]);
    return res;
}

static double pairwise1(const double *w, const double *q, ptrdiff_t n) {
    ptrdiff_t n2;
    if (n <= 128) return block1(w, q, n);
    n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise1(w, q, n2) + pairwise1(w + n2, q + n2, n - n2);
}

/* The same block for TILE queries sharing every load of the row. */
static void block_tile(const double *w, const double *const *q, ptrdiff_t n,
                       double *out) {
    ptrdiff_t i, k;
    v8d x, r0, r1, r2, r3;
    if (n < 8) {
        for (k = 0; k < TILE; k++) out[k] = block1(w, q[k], n);
        return;
    }
    x = load8(w);
    r0 = abs_diff8(x, q[0]);
    r1 = abs_diff8(x, q[1]);
    r2 = abs_diff8(x, q[2]);
    r3 = abs_diff8(x, q[3]);
    for (i = 8; i + 8 <= n; i += 8) {
        x = load8(w + i);
        r0 += abs_diff8(x, q[0] + i);
        r1 += abs_diff8(x, q[1] + i);
        r2 += abs_diff8(x, q[2] + i);
        r3 += abs_diff8(x, q[3] + i);
    }
    out[0] = lane_sum(r0);
    out[1] = lane_sum(r1);
    out[2] = lane_sum(r2);
    out[3] = lane_sum(r3);
    for (k = 0; k < TILE; k++) {
        ptrdiff_t j;
        for (j = i; j < n; j++) out[k] += fabs(w[j] - q[k][j]);
    }
}

static void pairwise_tile(const double *w, const double *const *q,
                          ptrdiff_t n, double *out) {
    const double *q2[TILE];
    double tail[TILE];
    ptrdiff_t n2, k;
    if (n <= 128) {
        block_tile(w, q, n, out);
        return;
    }
    n2 = n / 2;
    n2 -= n2 % 8;
    pairwise_tile(w, q, n2, out);
    for (k = 0; k < TILE; k++) q2[k] = q[k] + n2;
    pairwise_tile(w + n2, q2, n - n2, tail);
    for (k = 0; k < TILE; k++) out[k] += tail[k];
}

/* -- rectangle: out[q, r], cells split contiguously over threads -- */

typedef struct {
    const double *rows;
    const double *queries;
    ptrdiff_t n_rows;
    ptrdiff_t m;
    double *out;
    ptrdiff_t begin;   /* flat cell range over out, query-major */
    ptrdiff_t end;
} rect_span;

static void rect_run(const rect_span *s) {
    ptrdiff_t i;
    for (i = s->begin; i < s->end; i++) {
        ptrdiff_t q = i / s->n_rows;
        ptrdiff_t r = i - q * s->n_rows;
        s->out[i] = pairwise1(s->rows + r * s->m, s->queries + q * s->m, s->m);
    }
}

static void *rect_entry(void *arg) {
    rect_run((const rect_span *)arg);
    return NULL;
}

void abs_diff_rect_sums(const double *rows, const double *queries,
                        ptrdiff_t n_rows, ptrdiff_t n_queries, ptrdiff_t m,
                        double *out, ptrdiff_t n_threads) {
    pthread_t workers[MAX_THREADS];
    rect_span spans[MAX_THREADS];
    ptrdiff_t total = n_rows * n_queries;
    ptrdiff_t started = 0, t, chunk;
    if (total <= 0) return;
    if (n_threads > total) n_threads = total;
    if (n_threads > MAX_THREADS) n_threads = MAX_THREADS;
    if (n_threads < 2) {
        rect_span all = {rows, queries, n_rows, m, out, 0, total};
        rect_run(&all);
        return;
    }
    chunk = (total + n_threads - 1) / n_threads;
    for (t = 0; t < n_threads; t++) {
        spans[t].rows = rows;
        spans[t].queries = queries;
        spans[t].n_rows = n_rows;
        spans[t].m = m;
        spans[t].out = out;
        spans[t].begin = t * chunk;
        spans[t].end = (t + 1) * chunk < total ? (t + 1) * chunk : total;
    }
    for (t = 1; t < n_threads; t++) {
        if (pthread_create(&workers[t], NULL, rect_entry, &spans[t]) != 0)
            break;
        started = t;
    }
    rect_run(&spans[0]);
    /* Spans whose worker failed to start run inline: every cell is
       computed exactly once regardless of thread availability. */
    for (t = started + 1; t < n_threads; t++)
        rect_run(&spans[t]);
    for (t = 1; t <= started; t++)
        pthread_join(workers[t], NULL);
}

/* -- ragged argmin: one fused fleet step per call ------------------ */

typedef struct {
    ptrdiff_t group;
    ptrdiff_t first;   /* first pair of the tile, group-major */
    ptrdiff_t count;   /* 1..TILE pairs */
} argmin_unit;

typedef struct {
    const double *const *windows;
    const unsigned char *const *flat;
    const ptrdiff_t *n_rows;
    const double *queries;
    ptrdiff_t m;
    const double *worst;
    const int64_t *pair_query;
    int64_t *best;
    double *area;
    const argmin_unit *units;
    ptrdiff_t n_units;
    ptrdiff_t next;    /* atomic work counter */
} argmin_job;

static void argmin_run(const argmin_job *job, const argmin_unit *u) {
    const double *w = job->windows[u->group];
    const unsigned char *flat = job->flat[u->group];
    ptrdiff_t n_rows = job->n_rows[u->group], m = job->m, r, k;
    const double *q[TILE];
    double worst[TILE], a[TILE], low[TILE];
    int64_t best[TILE];
    for (k = 0; k < TILE; k++) {
        /* A short tile repeats its last pair; the padding lanes are
           computed but never written back. */
        int64_t row = job->pair_query[u->first + (k < u->count ? k : u->count - 1)];
        q[k] = job->queries + row * m;
        worst[k] = job->worst[row];
        best[k] = 0;
    }
    for (r = 0; r < n_rows; r++) {
        if (flat[r]) {
            for (k = 0; k < TILE; k++) a[k] = worst[k];
        } else {
            pairwise_tile(w + r * m, q, m, a);
        }
        for (k = 0; k < TILE; k++) {
            /* np.argmin: a later row wins only if strictly lower or the
               first NaN; once a NaN is held nothing replaces it. */
            if (r == 0 || (!(a[k] >= low[k]) && low[k] == low[k])) {
                low[k] = a[k];
                best[k] = r;
            }
        }
    }
    for (k = 0; k < u->count; k++) {
        job->best[u->first + k] = best[k];
        job->area[u->first + k] = low[k];
    }
}

static void *argmin_entry(void *arg) {
    argmin_job *job = (argmin_job *)arg;
    for (;;) {
        ptrdiff_t u = __atomic_fetch_add(&job->next, 1, __ATOMIC_RELAXED);
        if (u >= job->n_units) return NULL;
        argmin_run(job, &job->units[u]);
    }
}

int abs_diff_argmin(const double *const *windows,
                    const unsigned char *const *flat,
                    const ptrdiff_t *n_rows, const ptrdiff_t *pair_counts,
                    ptrdiff_t n_groups, const double *queries, ptrdiff_t m,
                    const double *worst, const int64_t *pair_query,
                    int64_t *best, double *area, ptrdiff_t n_threads) {
    pthread_t workers[MAX_THREADS];
    argmin_job job;
    argmin_unit *units;
    ptrdiff_t g, p, first = 0, n_units = 0, started = 0, t;
    for (g = 0; g < n_groups; g++)
        n_units += (pair_counts[g] + TILE - 1) / TILE;
    if (n_units == 0) return 0;
    units = (argmin_unit *)malloc((size_t)n_units * sizeof *units);
    if (units == NULL) return -1;
    n_units = 0;
    for (g = 0; g < n_groups; g++) {
        ptrdiff_t end = first + pair_counts[g];
        for (p = first; p < end; p += TILE) {
            units[n_units].group = g;
            units[n_units].first = p;
            units[n_units].count = end - p < TILE ? end - p : TILE;
            n_units++;
        }
        first = end;
    }
    job.windows = windows;
    job.flat = flat;
    job.n_rows = n_rows;
    job.queries = queries;
    job.m = m;
    job.worst = worst;
    job.pair_query = pair_query;
    job.best = best;
    job.area = area;
    job.units = units;
    job.n_units = n_units;
    job.next = 0;
    if (n_threads > n_units) n_threads = n_units;
    if (n_threads > MAX_THREADS) n_threads = MAX_THREADS;
    for (t = 1; t < n_threads; t++) {
        if (pthread_create(&workers[t], NULL, argmin_entry, &job) != 0)
            break;
        started = t;
    }
    /* The caller's thread drains the counter too, so every unit runs
       exactly once however many workers started. */
    argmin_entry(&job);
    for (t = 1; t <= started; t++)
        pthread_join(workers[t], NULL);
    free(units);
    return 0;
}
"""

#: Flags every build uses; ``-march=native`` is added when the host's
#: CPU identity is readable (it is part of the cache key).
_BASE_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")

_RectSums = Callable[[np.ndarray, np.ndarray, np.ndarray, int], None]
_Argmin = Callable[
    [
        Sequence[np.ndarray],
        Sequence[np.ndarray],
        np.ndarray,
        np.ndarray,
        np.ndarray,
        np.ndarray,
        np.ndarray,
        np.ndarray,
        int,
    ],
    None,
]


class _CKernels(NamedTuple):
    rect: _RectSums
    argmin: _Argmin


_backend: str | None = None
_c_kernels: _CKernels | None = None

#: Per-thread scratch blocks for the numpy fallback, keyed by shape.
#: Thread-local because the fleet planner may run fallback evaluations
#: from a worker thread while the main thread steps a single-session
#: plane — a shared buffer would race.
_scratch_local = threading.local()


@functools.lru_cache(maxsize=None)
def _cpu_identity() -> str | None:
    """A hash of this host's CPU feature flags; None when unreadable.

    Read from the first ``flags`` (x86) or ``Features`` (Arm) line of
    ``/proc/cpuinfo`` — a file read, no subprocess — once per process.
    """
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key.strip() in ("flags", "Features"):
                    return hashlib.blake2b(
                        value.strip().encode("utf-8"), digest_size=8
                    ).hexdigest()
    except OSError:
        pass
    return None


def _compile_flags(cpu: str | None) -> tuple[str, ...]:
    """The compiler flags for a host with CPU identity ``cpu``."""
    if cpu is None:
        return _BASE_FLAGS
    return (_BASE_FLAGS[0], "-march=native", *_BASE_FLAGS[1:])


def _library_path(flags: Sequence[str], cpu: str | None) -> str:
    """Cache path of the library built from this source, flags and CPU."""
    key = "\0".join([_C_SOURCE, *flags, cpu or ""])
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=16).hexdigest()
    return os.path.join(_cache_dir(), f"area-kernel-{digest}.so")


def _cache_dir() -> str:
    """Per-user directory the compiled kernel ``.so`` persists under.

    ``EMAP_KERNEL_CACHE`` overrides; otherwise the XDG cache home (or
    ``~/.cache``).  Entries are keyed by :func:`_library_path`, so a
    change of source, flags or CPU compiles a fresh library and stale
    entries are simply never loaded.
    """
    override = os.environ.get("EMAP_KERNEL_CACHE")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "emap-kernels")


def _compile_library(workdir: str, flags: Sequence[str]) -> str | None:
    """Compile the C source inside ``workdir``; the ``.so`` path or None."""
    compilers = [
        path
        for name in ("cc", "gcc", "clang")
        if (path := shutil.which(name)) is not None
    ]
    if not compilers:
        return None
    source = os.path.join(workdir, "area_kernel.c")
    library = os.path.join(workdir, "area_kernel.so")
    with open(source, "w", encoding="utf-8") as handle:
        handle.write(_C_SOURCE)
    for compiler in compilers:
        result = subprocess.run(
            [compiler, *flags, "-o", library, source],
            capture_output=True,
            timeout=60,
            check=False,
        )
        if result.returncode == 0 and os.path.exists(library):
            return library
    return None


def _publish_to_cache(library: str, cached: str) -> str:
    """Move a freshly built ``.so`` into the cross-process cache.

    Copies into the cache directory under a temporary name and
    ``os.replace``s it into place, so a racing process only ever sees
    a complete library.  On any cache failure (read-only home, quota)
    the build-dir path is returned and the library is simply loaded
    per-process, exactly as before.
    """
    try:
        cache_dir = os.path.dirname(cached)
        os.makedirs(cache_dir, exist_ok=True)
        fd, partial = tempfile.mkstemp(dir=cache_dir, suffix=".so.partial")
        os.close(fd)
        shutil.copy2(library, partial)
        os.replace(partial, cached)
        return cached
    except OSError:
        return library


def _bind_kernels(handle: ctypes.CDLL) -> _CKernels:
    pointer = ctypes.c_void_p
    size = ctypes.c_ssize_t
    raw_rect = handle.abs_diff_rect_sums
    raw_rect.argtypes = [pointer, pointer, size, size, size, pointer, size]
    raw_rect.restype = None
    raw_argmin = handle.abs_diff_argmin
    raw_argmin.argtypes = [
        pointer,  # windows: group -> row-major (n_rows, m) float64
        pointer,  # flat: group -> (n_rows,) bool
        pointer,  # n_rows per group
        pointer,  # pairs per group
        size,  # groups
        pointer,  # queries (sessions, m)
        size,  # m
        pointer,  # worst per session
        pointer,  # query row per pair
        pointer,  # out: best offset per pair
        pointer,  # out: area per pair
        size,  # threads
    ]
    raw_argmin.restype = ctypes.c_int

    def rect_call(
        rows: np.ndarray, queries: np.ndarray, out: np.ndarray, threads: int
    ) -> None:
        raw_rect(
            rows.ctypes.data,
            queries.ctypes.data,
            rows.shape[0],
            queries.shape[0],
            rows.shape[1],
            out.ctypes.data,
            threads,
        )

    def argmin_call(
        windows: Sequence[np.ndarray],
        flats: Sequence[np.ndarray],
        counts: np.ndarray,
        queries: np.ndarray,
        worst: np.ndarray,
        pair_query: np.ndarray,
        best: np.ndarray,
        area: np.ndarray,
        threads: int,
    ) -> None:
        window_ptrs = np.array([w.ctypes.data for w in windows], dtype=np.uintp)
        flat_ptrs = np.array([f.ctypes.data for f in flats], dtype=np.uintp)
        n_rows = np.array([w.shape[0] for w in windows], dtype=np.intp)
        status = raw_argmin(
            window_ptrs.ctypes.data,
            flat_ptrs.ctypes.data,
            n_rows.ctypes.data,
            counts.ctypes.data,
            len(windows),
            queries.ctypes.data,
            queries.shape[1],
            worst.ctypes.data,
            pair_query.ctypes.data,
            best.ctypes.data,
            area.ctypes.data,
            threads,
        )
        if status != 0:
            raise MemoryError("abs_diff_argmin could not allocate its work units")

    return _CKernels(rect=rect_call, argmin=argmin_call)


def _load_c_kernels() -> _CKernels | None:
    """Load (cache) or build + bind the C kernels; None on any failure.

    The cached library is keyed by source, flags and CPU identity, so a
    hit skips the compiler entirely and runs no subprocess; a miss
    builds in a temporary directory that is always removed afterwards,
    publishing the result to the cache for the next process.
    """
    cpu = _cpu_identity()
    flags = _compile_flags(cpu)
    cached = _library_path(flags, cpu)
    if os.path.exists(cached):
        try:
            return _bind_kernels(ctypes.CDLL(cached))
        except (OSError, AttributeError):
            # Corrupt or stale cache entry: fall through and rebuild.
            pass
    workdir = tempfile.mkdtemp(prefix="repro-area-kernel-")
    try:
        try:
            library = _compile_library(workdir, flags)
        except (OSError, subprocess.SubprocessError):
            return None
        if library is None:
            return None
        path = _publish_to_cache(library, cached)
        try:
            # Loading from the build dir is safe even though the dir is
            # removed below: the pages stay mapped once dlopen'd.
            return _bind_kernels(ctypes.CDLL(path))
        except (OSError, AttributeError):
            return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _argmin_self_check_case(
    rng: np.random.Generator, m: int
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A small ragged step with flat rows, ties, ±inf and NaN."""
    sessions = 5
    queries = np.ascontiguousarray(rng.standard_normal((sessions, m)) * 1e5)
    worst = np.abs(queries).sum(axis=1)
    worst[1] = np.inf
    windows: list[np.ndarray] = []
    flats: list[np.ndarray] = []
    counts: list[int] = []
    for n_rows, n_pairs in ((1, 2), (6, 5), (9, 0), (4, 7)):
        rows = rng.standard_normal((n_rows, m))
        if n_rows > 3:
            rows[2] = rows[0]  # a tie the first index must win
        windows.append(np.ascontiguousarray(rows))
        flats.append(rng.random(n_rows) < 0.3)
        counts.append(n_pairs)
    windows[1][3, 0] = np.inf
    windows[3][1, -1] = np.nan
    pair_query = rng.integers(0, sessions, size=sum(counts)).astype(np.int64)
    return windows, flats, np.array(counts, dtype=np.intp), queries, worst, pair_query


def _passes_self_check(kernels: _CKernels) -> bool:
    """Bitwise-compare both C kernels against numpy on this exact build.

    Window lengths cover every summation regime between them: the
    short sequential path (< 8, argmin at ``m=5``), the 8-lane block
    with and without a remainder (≤ 128), and the recursive halving
    above 128 — with large-magnitude queries, where any
    accumulation-order difference would surface in the last bits.  Both
    kernels are checked at 1 and 3 threads: cells are independent, so
    any thread count must reproduce the same bits.  The argmin cases
    add flat rows, ties, ±inf and NaN.
    """
    rng = np.random.default_rng(0xE3A7)
    rect_cases = [(6, 130, 3), (4, 256, 5), (2, 1000, 7)]
    for n_rows, m, n_queries in rect_cases:
        rows = np.ascontiguousarray(rng.standard_normal((n_rows, m)))
        queries = np.ascontiguousarray(
            rng.standard_normal((n_queries, m)) * 1e5
        )
        expected = np.stack(
            [np.abs(rows - q).sum(axis=1) for q in queries]
        )
        for threads in (1, 3):
            produced = np.empty((n_queries, n_rows))
            kernels.rect(rows, queries, produced, threads)
            if not np.array_equal(expected, produced):
                return False
    for m in (5, 131):
        windows, flats, counts, queries, worst, pair_query = (
            _argmin_self_check_case(rng, m)
        )
        expected_best = np.empty(pair_query.size, dtype=np.int64)
        expected_area = np.empty(pair_query.size)
        _numpy_argmin(
            windows, flats, counts, queries, worst, pair_query,
            expected_best, expected_area,
        )
        for threads in (1, 3):
            best = np.empty_like(expected_best)
            area = np.empty_like(expected_area)
            kernels.argmin(
                windows, flats, counts, queries, worst, pair_query,
                best, area, threads,
            )
            if not (
                np.array_equal(best, expected_best)
                and np.array_equal(area, expected_area, equal_nan=True)
            ):
                return False
    return True


def _scratch(shape: tuple[int, int]) -> np.ndarray:
    """A reusable per-thread scratch block for the numpy fallback."""
    buffers = getattr(_scratch_local, "buffers", None)
    if buffers is None:
        buffers = {}
        _scratch_local.buffers = buffers
    block = buffers.get(shape)
    if block is None:
        block = np.empty(shape)
        buffers[shape] = block
    return block


def _numpy_rect_sums(
    rows: np.ndarray, queries: np.ndarray, out: np.ndarray
) -> None:
    """Cache-blocked fallback: three ufunc passes per L2-sized block."""
    n_rows, m = rows.shape
    block = max(1, _BLOCK_BYTES // max(1, m * rows.itemsize))
    scratch = _scratch((min(block, n_rows), m))
    for index in range(queries.shape[0]):
        query = queries[index]
        for start in range(0, n_rows, block):
            chunk = rows[start : start + block]
            buffer = scratch[: chunk.shape[0]]
            np.subtract(chunk, query, out=buffer)
            np.abs(buffer, out=buffer)
            np.sum(buffer, axis=1, out=out[index, start : start + chunk.shape[0]])


def _numpy_argmin(
    windows: Sequence[np.ndarray],
    flats: Sequence[np.ndarray],
    counts: np.ndarray,
    queries: np.ndarray,
    worst: np.ndarray,
    pair_query: np.ndarray,
    best: np.ndarray,
    area: np.ndarray,
) -> None:
    """Fallback: each group's rectangle, flat override, then argmin."""
    start = 0
    for rows, flat, count in zip(windows, flats, counts.tolist()):
        if count == 0:
            continue
        stop = start + count
        owners = pair_query[start:stop]
        areas = np.empty((count, rows.shape[0]))
        _numpy_rect_sums(rows, queries[owners], areas)
        if flat.any():
            areas[:, flat] = worst[owners][:, None]
        picked = np.argmin(areas, axis=1)
        best[start:stop] = picked
        area[start:stop] = areas[np.arange(count), picked]
        start = stop


def _forced_backend() -> str | None:
    """The ``EMAP_KERNEL`` override, validated; None when unset."""
    value = os.environ.get("EMAP_KERNEL", "").strip().lower()
    if not value:
        return None
    if value not in ("c", "numpy"):
        raise KernelError(
            f"EMAP_KERNEL must be 'c' or 'numpy', got {value!r}"
        )
    return value


def kernel_backend() -> str:
    """The selected backend: ``"c"`` (fused) or ``"numpy"`` (blocked).

    Selection is lazy and cached for the life of the process: the C
    kernel is used only when a compiled library was available (from
    the cross-process cache or a fresh build) *and* it reproduced
    numpy's results bit for bit in :func:`_passes_self_check`.
    ``EMAP_KERNEL`` forces the choice; forcing ``c`` on a host where
    the compiled kernel cannot pass raises instead of degrading.
    """
    global _backend, _c_kernels
    if _backend is None:
        forced = _forced_backend()
        if forced == "numpy":
            _backend = "numpy"
            return _backend
        kernels = _load_c_kernels()
        if kernels is not None and _passes_self_check(kernels):
            _c_kernels = kernels
            _backend = "c"
        elif forced == "c":
            raise KernelError(
                "EMAP_KERNEL=c but the compiled kernel is unavailable "
                "(no working compiler, or the bitwise self-check failed)"
            )
        else:
            _backend = "numpy"
    return _backend


def kernel_threads() -> int:
    """Threads the C kernels spread their work over.

    ``EMAP_KERNEL_THREADS`` pins the count; the default is the host's
    CPU count.  Clamped to [1, 64].  Thread count never changes
    results — every cell is an independent pairwise sum — only wall
    time, so this is a performance dial, not a correctness one.
    """
    value = os.environ.get("EMAP_KERNEL_THREADS", "").strip()
    if value:
        try:
            threads = int(value)
        except ValueError:
            raise KernelError(
                f"EMAP_KERNEL_THREADS must be an integer, got {value!r}"
            ) from None
    else:
        threads = os.cpu_count() or 1
    return max(1, min(threads, _MAX_THREADS))


def _reset_backend_selection() -> None:
    """Forget the cached selection (tests flip ``EMAP_KERNEL`` mid-run)."""
    global _backend, _c_kernels
    _backend = None
    _c_kernels = None


def _check_inputs(*arrays: np.ndarray) -> None:
    if not all(array.flags.c_contiguous for array in arrays):
        raise ValueError("kernel inputs must be C-contiguous")
    if not all(array.dtype == np.float64 for array in arrays):
        raise ValueError("kernel inputs must be float64")


def abs_diff_rect_sums(
    rows: np.ndarray,
    queries: np.ndarray,
    out: np.ndarray | None = None,
    threads: int | None = None,
) -> np.ndarray:
    """``out[q, r] = Σ|rows[r] − queries[q]|``: the multi-query rectangle.

    Every cell is bit-identical to
    ``np.abs(rows - queries[q]).sum(axis=1)[r]`` on every backend and
    at every thread count (cells are independent).  ``rows`` must be a
    C-contiguous float64 ``(n_rows, m)`` matrix, ``queries`` a
    C-contiguous float64 ``(n_queries, m)`` matrix, and ``out``, when
    given, a C-contiguous float64 ``(n_queries, n_rows)`` matrix.
    ``threads`` defaults to :func:`kernel_threads`; the numpy fallback
    ignores it (the ufunc passes are single-threaded).
    """
    if rows.ndim != 2:
        raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
    if queries.ndim != 2:
        raise ValueError(f"queries must be 2-D, got shape {queries.shape}")
    n_rows, m = rows.shape
    n_queries = queries.shape[0]
    if queries.shape[1] != m:
        raise ValueError(
            f"queries of shape {queries.shape} do not match row length {m}"
        )
    if out is None:
        out = np.empty((n_queries, n_rows))
    elif out.shape != (n_queries, n_rows):
        raise ValueError(
            f"out of shape {out.shape} does not match "
            f"({n_queries}, {n_rows})"
        )
    if n_rows == 0 or n_queries == 0:
        return out
    _check_inputs(rows, queries, out)
    if kernel_backend() == "c":
        assert _c_kernels is not None
        _c_kernels.rect(
            rows, queries, out, kernel_threads() if threads is None else threads
        )
    else:
        _numpy_rect_sums(rows, queries, out)
    return out


def abs_diff_argmin(
    windows: Sequence[np.ndarray],
    flats: Sequence[np.ndarray],
    pair_counts: Sequence[int],
    queries: np.ndarray,
    worst: np.ndarray,
    pair_query: np.ndarray,
    threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's best offset and area over a ragged set of groups.

    Group ``g`` is one compiled slice: ``windows[g]`` its C-contiguous
    float64 ``(n_rows, m)`` window matrix (``n_rows >= 1``) and
    ``flats[g]`` its ``(n_rows,)`` bool mask of flat windows.  It is
    evaluated for ``pair_counts[g]`` pairs; pairs are numbered
    group-major, and pair ``p`` compares against query row
    ``pair_query[p]`` (int64) of the float64 ``(sessions, m)`` matrix
    ``queries``, whose worst-case area is ``worst[pair_query[p]]``.

    Returns ``(best, area)``: for every pair, the int64 index and the
    float64 value that ``np.argmin`` picks and reads over
    ``np.abs(windows[g] - q).sum(axis=1)`` once the flat rows are set to
    the pair's worst area — ties to the first index, NaN first.  Bit for
    bit the same on every backend and at every thread count.
    ``threads`` defaults to :func:`kernel_threads`; the numpy fallback
    ignores it.
    """
    n_groups = len(windows)
    if len(flats) != n_groups or len(pair_counts) != n_groups:
        raise ValueError(
            f"{n_groups} window groups but {len(flats)} flat masks and "
            f"{len(pair_counts)} pair counts"
        )
    if queries.ndim != 2:
        raise ValueError(f"queries must be 2-D, got shape {queries.shape}")
    sessions, m = queries.shape
    if worst.shape != (sessions,):
        raise ValueError(
            f"worst of shape {worst.shape} does not match {sessions} queries"
        )
    counts = np.asarray(pair_counts, dtype=np.intp).reshape(n_groups)
    n_pairs = int(counts.sum())
    if n_groups and int(counts.min()) < 0:
        raise ValueError("pair counts must be non-negative")
    if pair_query.shape != (n_pairs,) or pair_query.dtype != np.int64:
        raise ValueError(
            f"pair_query must be int64 of shape ({n_pairs},), got "
            f"{pair_query.dtype} {pair_query.shape}"
        )
    if n_pairs and (
        int(pair_query.min()) < 0 or int(pair_query.max()) >= sessions
    ):
        raise ValueError(f"pair_query rows must lie in [0, {sessions})")
    for rows, flat in zip(windows, flats):
        if rows.ndim != 2 or rows.shape[1] != m or rows.shape[0] == 0:
            raise ValueError(
                f"windows of shape {rows.shape} do not match row length {m}"
            )
        if flat.shape != (rows.shape[0],) or flat.dtype != np.bool_:
            raise ValueError(
                f"flat mask must be bool of shape ({rows.shape[0]},)"
            )
        _check_inputs(rows)
        if not flat.flags.c_contiguous:
            raise ValueError("kernel inputs must be C-contiguous")
    best = np.empty(n_pairs, dtype=np.int64)
    area = np.empty(n_pairs)
    if n_pairs == 0:
        return best, area
    _check_inputs(queries, worst)
    if not pair_query.flags.c_contiguous:
        raise ValueError("kernel inputs must be C-contiguous")
    if kernel_backend() == "c":
        assert _c_kernels is not None
        _c_kernels.argmin(
            windows, flats, counts, queries, worst, pair_query, best, area,
            kernel_threads() if threads is None else threads,
        )
    else:
        _numpy_argmin(
            windows, flats, counts, queries, worst, pair_query, best, area
        )
    return best, area
