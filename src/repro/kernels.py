"""The compiled kernel library both tiers load.

One C source holds every compiled kernel of the system:

* the edge's ``abs_diff_argmin``: a whole fused fleet step, each
  (slice, query) pair's minimum of ``Σ|window − query|`` over the
  slice's windows, wrapped with its numpy fallback by
  :mod:`repro.edge._kernels`;
* the cloud's ``cloud_walk``: Algorithm 1's skip walk of one query over
  one shard core, computing a correlation only at the offsets it
  visits, wrapped with its numpy fallback by
  :meth:`repro.cloud.plane.PlaneCore.walk`.

Every sum replays numpy's *pairwise* summation: 8 partial accumulators
per block of ≤ 128 elements, combined as
``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the remainder in order,
with recursive halving above 128.  The 8 accumulators are the 8 lanes
of one GCC/clang ``vector_size`` vector, so every lane performs the
same additions in the same order as numpy's scalar accumulators and
the vector build stays bit-exact without ``-ffast-math``;
``-ffp-contract=off`` forbids fused multiply-adds.  An edge area is
therefore bit-identical to ``np.abs(rows - q).sum(axis=1)`` and a cloud
dot product to ``np.multiply(c, w).sum()``.

The library is compiled once with ``-O3 -march=native
-ffp-contract=off`` and cached **across processes** under a per-user
cache directory, loaded via :mod:`ctypes`.  The cache key is the C
source, the full flag list and the host's CPU feature flags (a hash of
the ``flags`` line of ``/proc/cpuinfo``); where that identity cannot be
read the library is built without ``-march=native``, so a shared cache
directory never serves a library built for wider vectors than the host
has.  The ``"c"`` backend is selected only after a bitwise self-check
of every entry point against numpy on this exact interpreter/numpy
build (run per process even when the ``.so`` came from the cache);
otherwise both tiers use their ``"numpy"`` fallbacks.

Selection is lazy, happens once per process, and is exposed via
:func:`kernel_backend` so benchmarks can report what they measured.
``EMAP_KERNEL=c|numpy`` forces a backend (``c`` raises
:class:`~repro.errors.KernelError` when the compiled library cannot be
used — a forced backend must never silently degrade), and
``EMAP_KERNEL_THREADS`` pins the edge kernel's thread count.  The cloud
walk starts no threads.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.errors import KernelError

#: Hard ceiling on kernel threads (also the C-side worker array bound —
#: keep in sync with ``MAX_THREADS`` in the source).
_MAX_THREADS = 64

#: Pairs of one group evaluated together by ``abs_diff_argmin`` (keep in
#: sync with ``TILE`` in the source).
TILE = 4

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
    /* A lone pair computes one lane; pairwise1 sums in the same order. */
    ptrdiff_t lanes = u->count == 1 ? 1 : TILE;
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
            for (k = 0; k < lanes; k++) a[k] = worst[k];
        } else if (lanes == 1) {
            a[0] = pairwise1(w + r * m, q[0], m);
        } else {
            pairwise_tile(w + r * m, q, m, a);
        }
        for (k = 0; k < lanes; k++) {
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

/* -- cloud: Algorithm 1's skip walk over one shard core ------------ */

/* One pairwise block (n <= 128) of the dot product of w and c. */
static double dot_block(const double *w, const double *c, ptrdiff_t n) {
    ptrdiff_t i;
    double res;
    v8d r;
    if (n < 8) {
        res = 0.0;
        for (i = 0; i < n; i++) res += w[i] * c[i];
        return res;
    }
    r = load8(w) * load8(c);
    for (i = 8; i + 8 <= n; i += 8) r += load8(w + i) * load8(c + i);
    res = lane_sum(r);
    for (; i < n; i++) res += w[i] * c[i];
    return res;
}

static double dot_pairwise(const double *w, const double *c, ptrdiff_t n) {
    ptrdiff_t n2;
    if (n <= 128) return dot_block(w, c, n);
    n2 = n / 2;
    n2 -= n2 % 8;
    return dot_pairwise(w, c, n2) + dot_pairwise(w + n2, c + n2, n - n2);
}

/* Slice s owns samples[starts[s]:] and the window norms
   norms[norm_starts[s]:norm_starts[s + 1]], one per offset.  At each
   visited offset, and only there, omega = clamp(dot / (query_norm *
   norm), 0, 1), or 0 for a flat window (no dot); it is counted,
   thresholded against delta and deduped per slice when asked, and the
   walk hops by clip(rint(scale / max(omega, omega_floor)), low, high).
   Hits are written in scan order; counts gets (hits, evaluated, above). */
void cloud_walk(const double *samples, const int64_t *starts,
                const double *norms, const int64_t *norm_starts,
                ptrdiff_t n_slices, const double *query, ptrdiff_t m,
                double query_norm, double delta, double scale,
                double omega_floor, double low, double high, int dedupe,
                int64_t *hit_slice, int64_t *hit_offset, double *hit_omega,
                int64_t *counts) {
    ptrdiff_t s, n_hits = 0;
    int64_t evaluated = 0, above = 0;
    for (s = 0; s < n_slices; s++) {
        const double *data = samples + starts[s];
        const double *norm = norms + norm_starts[s];
        int64_t n_offsets = norm_starts[s + 1] - norm_starts[s];
        int64_t offset = 0, best_offset = -1;
        double best = 0.0;
        while (offset < n_offsets) {
            double denominator = query_norm * norm[offset];
            double omega = 0.0, beta;
            if (denominator >= 1e-12) {
                omega = dot_pairwise(data + offset, query, m) / denominator;
                if (!(omega > 0.0)) omega = 0.0;
                else if (omega > 1.0) omega = 1.0;
            }
            evaluated++;
            if (omega > delta) {
                above++;
                if (!dedupe) {
                    hit_slice[n_hits] = s;
                    hit_offset[n_hits] = offset;
                    hit_omega[n_hits] = omega;
                    n_hits++;
                } else if (best_offset < 0 || omega > best) {
                    best = omega;
                    best_offset = offset;
                }
            }
            beta = nearbyint(scale / (omega > omega_floor ? omega : omega_floor));
            if (beta < low) beta = low;
            if (beta > high) beta = high;
            offset += (int64_t)beta;
        }
        if (best_offset >= 0) {
            hit_slice[n_hits] = s;
            hit_offset[n_hits] = best_offset;
            hit_omega[n_hits] = best;
            n_hits++;
        }
    }
    counts[0] = n_hits;
    counts[1] = evaluated;
    counts[2] = above;
}
"""

#: Flags every build uses; ``-march=native`` is added when the host's
#: CPU identity is readable (it is part of the cache key).
_BASE_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")

Argmin = Callable[
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
#: ``walk(samples, starts, norms, norm_starts, query, query_norm, delta,
#: (scale, omega_floor, low, high), dedupe, hit_slice, hit_offset,
#: hit_omega) -> (hits, evaluated, above)``.
Walk = Callable[
    [
        np.ndarray,
        np.ndarray,
        np.ndarray,
        np.ndarray,
        np.ndarray,
        float,
        float,
        tuple[float, float, int, int],
        bool,
        np.ndarray,
        np.ndarray,
        np.ndarray,
    ],
    tuple[int, int, int],
]


class CKernels(NamedTuple):
    """The bound entry points of one loaded library."""

    argmin: Argmin
    walk: Walk


_backend: str | None = None
_c_kernels: CKernels | None = None


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
    return os.path.join(_cache_dir(), f"emap-kernels-{digest}.so")


def _cache_dir() -> str:
    """Per-user directory the compiled ``.so`` persists under.

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
    source = os.path.join(workdir, "emap_kernels.c")
    library = os.path.join(workdir, "emap_kernels.so")
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
    per-process.
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


def _bind_kernels(handle: ctypes.CDLL) -> CKernels:
    pointer = ctypes.c_void_p
    size = ctypes.c_ssize_t
    real = ctypes.c_double
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
    raw_walk = handle.cloud_walk
    raw_walk.argtypes = [
        pointer,  # samples
        pointer,  # int64 sample start per slice (n_slices + 1)
        pointer,  # window norms, concatenated per slice
        pointer,  # int64 norm start per slice (n_slices + 1)
        size,  # slices
        pointer,  # centred query (m,)
        size,  # m
        real,  # query norm
        real,  # delta
        real,  # skip scale
        real,  # omega floor
        real,  # lowest hop
        real,  # highest hop
        ctypes.c_int,  # dedupe per slice
        pointer,  # out: hit slice
        pointer,  # out: hit offset
        pointer,  # out: hit omega
        pointer,  # out: (hits, evaluated, above)
    ]
    raw_walk.restype = None

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

    def walk_call(
        samples: np.ndarray,
        starts: np.ndarray,
        norms: np.ndarray,
        norm_starts: np.ndarray,
        query: np.ndarray,
        query_norm: float,
        delta: float,
        rule: tuple[float, float, int, int],
        dedupe: bool,
        hit_slice: np.ndarray,
        hit_offset: np.ndarray,
        hit_omega: np.ndarray,
    ) -> tuple[int, int, int]:
        counts = np.zeros(3, dtype=np.int64)
        scale, omega_floor, low, high = rule
        raw_walk(
            samples.ctypes.data,
            starts.ctypes.data,
            norms.ctypes.data,
            norm_starts.ctypes.data,
            starts.size - 1,
            query.ctypes.data,
            query.size,
            query_norm,
            delta,
            scale,
            omega_floor,
            low,
            high,
            int(dedupe),
            hit_slice.ctypes.data,
            hit_offset.ctypes.data,
            hit_omega.ctypes.data,
            counts.ctypes.data,
        )
        hits, evaluated, above = counts.tolist()
        return hits, evaluated, above

    return CKernels(argmin=argmin_call, walk=walk_call)


def _load_c_kernels() -> CKernels | None:
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
    workdir = tempfile.mkdtemp(prefix="repro-kernels-")
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


# -- the bitwise self-check ---------------------------------------------


def _argmin_case(
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


def _edge_passes(kernels: CKernels, rng: np.random.Generator) -> bool:
    """The edge argmin against numpy, at 1 and 3 threads.

    Window lengths cover every summation regime: the short sequential
    path (< 8), the 8-lane block with and without a remainder (≤ 128),
    and the recursive halving above 128 — with large-magnitude queries,
    where any accumulation-order difference would surface in the last
    bits.  Group pair counts cover full tiles, a short tile and a lone
    pair (7 = 4 + 3, 5 = 4 + 1, 2).  Pairs are independent, so any
    thread count must reproduce the same bits.  The cases add flat
    rows, ties, ±inf and NaN.
    """
    for m in (5, 131, 1000):
        windows, flats, counts, queries, worst, pair_query = _argmin_case(rng, m)
        expected_best: list[int] = []
        expected_area: list[float] = []
        first = 0
        for rows, flat, count in zip(windows, flats, counts.tolist()):
            for row in pair_query[first : first + count].tolist():
                areas = np.abs(rows - queries[row]).sum(axis=1)
                areas[flat] = worst[row]
                expected_best.append(int(np.argmin(areas)))
                expected_area.append(float(areas[expected_best[-1]]))
            first += count
        for threads in (1, 3):
            best = np.empty(pair_query.size, dtype=np.int64)
            area = np.empty(pair_query.size)
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


def _walk_passes(kernels: CKernels, rng: np.random.Generator) -> bool:
    """The cloud walk against numpy over every visited offset.

    With ``delta = -1`` every visited offset is a hit, so the returned
    ω values and offsets expose both the dot products (bit for bit
    against ``(windows * query).sum(axis=1)``, short and long queries,
    large magnitudes, a flat window) and the hop arithmetic (fixed
    step 1 visits every offset; the exponential rule's trajectory is
    replayed from numpy's ``rint``/``clip``).
    """
    exponential = (0.54, 0.05, 1, 250)
    for m in (5, 131):
        lengths = [m - 1, m + 40, 2 * m + 17]
        starts = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        samples = rng.standard_normal(int(starts[-1])) * 1e3
        samples[starts[1] + 3 : starts[1] + 3 + m] = 7.0
        query = rng.standard_normal(m)
        query -= query.mean()
        query_norm = float(np.linalg.norm(query))
        norms: list[np.ndarray] = []
        omegas: list[list[float]] = []
        for start, length in zip(starts[:-1].tolist(), lengths):
            if length < m:  # a slice shorter than the query: no offsets
                norms.append(np.zeros(0))
                omegas.append([])
                continue
            windows = np.lib.stride_tricks.sliding_window_view(
                samples[start : start + length], m
            )
            centered = windows - windows.mean(axis=1, keepdims=True)
            norm = np.sqrt((centered * centered).sum(axis=1))
            denominator = query_norm * norm
            flat = denominator < 1e-12
            denominator[flat] = 1.0
            omega = np.clip((windows * query).sum(axis=1) / denominator, 0.0, 1.0)
            omega[flat] = 0.0
            norms.append(norm)
            omegas.append(omega.tolist())
        norm_starts = np.concatenate(
            ([0], np.cumsum([norm.size for norm in norms]))
        ).astype(np.int64)
        capacity = int(norm_starts[-1])
        for scale, omega_floor, low, high in ((0.0, 1.0, 1, 1), exponential):
            expected: list[tuple[int, int, float]] = []
            for index, values in enumerate(omegas):
                offset = 0
                while offset < len(values):
                    expected.append((index, offset, values[offset]))
                    # round() is numpy's rint: half to even.
                    beta = round(scale / max(values[offset], omega_floor))
                    offset += min(max(beta, low), high)
            hit_slice = np.empty(capacity, dtype=np.int64)
            hit_offset = np.empty(capacity, dtype=np.int64)
            hit_omega = np.empty(capacity)
            hits, evaluated, above = kernels.walk(
                samples, starts, np.concatenate(norms), norm_starts, query,
                query_norm, -1.0, (scale, omega_floor, low, high), False,
                hit_slice, hit_offset, hit_omega,
            )
            produced = list(
                zip(
                    hit_slice[:hits].tolist(),
                    hit_offset[:hits].tolist(),
                    hit_omega[:hits].tolist(),
                )
            )
            if produced != expected or not hits == above == evaluated:
                return False
    return True


def _passes_self_check(kernels: CKernels) -> bool:
    """Bitwise-compare every C entry point against numpy on this build."""
    rng = np.random.default_rng(0xE3A7)
    return _edge_passes(kernels, rng) and _walk_passes(kernels, rng)


# -- backend selection --------------------------------------------------


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
    """The selected backend: ``"c"`` (compiled) or ``"numpy"`` (fallback).

    Selection is lazy and cached for the life of the process: the C
    library is used only when it was available (from the cross-process
    cache or a fresh build) *and* reproduced numpy's results bit for
    bit in :func:`_passes_self_check`.  ``EMAP_KERNEL`` forces the
    choice; forcing ``c`` on a host where the compiled library cannot
    pass raises instead of degrading.
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


def compiled_kernels() -> CKernels | None:
    """The bound C entry points when the ``"c"`` backend is selected."""
    return _c_kernels if kernel_backend() == "c" else None


def kernel_threads() -> int:
    """Threads the edge kernels spread their work over.

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
