"""The compiled kernel library both tiers load.

One C source holds every compiled kernel of the system:

* the edge's ``abs_diff_argmin``: a whole fused fleet step, each
  (slice, query) pair's minimum of ``Σ|window − query|`` over the
  slice's windows, computing the exact area only of rows that an
  exact block-sum lower bound cannot rule out, wrapped with its numpy
  fallback by :mod:`repro.edge._kernels`;
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

#: Pairs of one group in one ``abs_diff_argmin`` work unit (keep in sync
#: with ``TILE`` in the source).
TILE = 4

#: Samples per block of the edge argmin's lower bound (keep in sync with
#: ``BLOCK`` in the source).
BLOCK = 4

_C_SOURCE = """
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <pthread.h>

#define MAX_THREADS 64
#define TILE 4
#define BLOCK 4

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

/* |x| lane-wise; clearing the sign bit is exactly fabs. */
static inline v8d abs8(v8d x) {
    return (v8d)((v8i)x & ABS_MASK);
}

static inline v8d abs_diff8(v8d w, const double *q) {
    return abs8(w - load8(q));
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

/* -- ragged argmin: one fused fleet step per call ------------------ */

/* Lower bound.  Split a row into blocks of BLOCK samples (the last
   block may be shorter) and let W_b, Q_b be the block sums of a window
   row w and a query q.  By the triangle inequality
       A = sum_i |q_i - w_i|  >=  B = sum_b |Q_b - W_b|,
   so a row whose bound exceeds another row's area cannot win.  A row's
   block sums are compiled once per slice, a query's once per call.

   Slack.  Let u = 2^-53, g_k = k u / (1 - k u), nb the number of
   blocks, computed values marked ^ and exact ones bare.  Summing n
   terms in any order (numpy's pairwise tree included) is off by at
   most g_(n-1) times the sum of their magnitudes, so
       A^ >= (1 - g_m) A,
       |W^_b - W_b| <= g_3 |w_b|_1   and the same for Q^_b,
       B^ <= (1 + g_nb) (B + g_3 (|q|_1 + |w|_1)).
   Let a >= 0 be the computed area of some row and suppose A^ <= a.
   Then A <= a / (1 - g_m), B <= A and, as w = q - (q - w),
   |w|_1 <= |q|_1 + A, so to first order in u
       B^ - a <= (m + nb + 3) u a + 6 u |q|_1.
   The limit a + (m + 4) 2^-52 (|q|^_1 + a) exceeds that by at least
   (m - nb + 4) u (|q|_1 + a) even after its own four roundings, since
   nb <= m; adding DBL_MIN covers the absolute error of an underflowing
   product (sums never lose bits to underflow).  So a finite B^ above
   the limit proves A^ > a.  The slack needs no norm of w.

   Two passes.  Pass 1 bounds every row of a unit for each of its
   pairs.  The seed s is the non-flat row with the least finite bound,
   lowest index on ties; its exact area a_s sets one limit L, the one
   above with a = a_s.  Pass 2 skips a non-flat row r != s iff its
   bound is finite and above L, gives every other non-flat row its
   exact area and every flat row the pair's worst area.  By the slack
   argument a skipped row has A^_r > a_s, and a_s is one of the areas
   np.argmin sees, so the skipped row is neither a NaN nor a first
   minimum: np.argmin's rule run in index order over the rows kept
   picks the row and reads the area it picks over all rows, and
   skipping leaves every best and area bit for bit unchanged.  With no
   seed L is NaN and no row is skipped.

   Non-finite values.  A row is skipped only when its bound is finite
   and above the limit.  Any overflow while bounding makes the bound
   +inf or NaN, and an infinite norm or a_s makes the limit +inf, so
   none of them skips a row.  A row's area is NaN only if some w_i or
   q_i is NaN or both are infinite with one sign; then a block sum of
   each is NaN or infinite and the bound is NaN.  Every comparison
   with a NaN is false, so such rows are never the seed, are always
   evaluated, and np.argmin's NaN-first rule sees every NaN area; a
   NaN a_s makes L NaN and skips nothing. */

typedef struct {
    const double *windows;        /* (n_rows, m) */
    const unsigned char *flat;    /* (n_rows,) */
    const double *blocks;         /* (n_rows, nb) block sums */
    ptrdiff_t n_rows;
} argmin_group;

/* sum_b |Q_b - W_b| over nb block sums. */
static double block_bound(const double *wb, const double *qb, ptrdiff_t nb) {
    ptrdiff_t i = 0;
    double res = 0.0;
    if (nb >= 8) {
        v8d r = abs_diff8(load8(wb), qb);
        for (i = 8; i + 8 <= nb; i += 8) r += abs_diff8(load8(wb + i), qb + i);
        res = lane_sum(r);
    }
    for (; i < nb; i++) res += fabs(wb[i] - qb[i]);
    return res;
}

/* Lane j: the sum of the even/odd lane pair j of a:b, so lane j of
   pair_sums(a, b) is a[2j] + a[2j+1] for j < 4, b[2j-8] + b[2j-7] else. */
static inline v8d pair_sums(v8d a, v8d b) {
#ifdef __clang__
    return __builtin_shufflevector(a, b, 0, 2, 4, 6, 8, 10, 12, 14)
         + __builtin_shufflevector(a, b, 1, 3, 5, 7, 9, 11, 13, 15);
#else
    static const v8i even = {0, 2, 4, 6, 8, 10, 12, 14};
    static const v8i odd = {1, 3, 5, 7, 9, 11, 13, 15};
    return __builtin_shuffle(a, b, even) + __builtin_shuffle(a, b, odd);
#endif
}

/* block_bound of 8 consecutive rows (row-major block sums wb) at once,
   into out[0..7].  One accumulator per row; three levels of pair_sums
   leave lane j = ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) of row j's
   accumulator, lane_sum's order, and the tail blocks follow in order,
   so every bound is bit for bit block_bound's. */
static void bound_panel(const double *wb, const double *qb, ptrdiff_t nb,
                        double *out) {
    v8d res = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    ptrdiff_t i = 0, j;
    if (nb >= 8) {
        v8d acc[8];
        for (j = 0; j < 8; j++) acc[j] = abs_diff8(load8(wb + j * nb), qb);
        for (i = 8; i + 8 <= nb; i += 8) {
            v8d q = load8(qb + i);
            for (j = 0; j < 8; j++)
                acc[j] += abs8(load8(wb + j * nb + i) - q);
        }
        res = pair_sums(pair_sums(pair_sums(acc[0], acc[1]),
                                  pair_sums(acc[2], acc[3])),
                        pair_sums(pair_sums(acc[4], acc[5]),
                                  pair_sums(acc[6], acc[7])));
    }
    for (; i < nb; i++) {
        v8d w = {wb[i], wb[nb + i], wb[2 * nb + i], wb[3 * nb + i],
                 wb[4 * nb + i], wb[5 * nb + i], wb[6 * nb + i], wb[7 * nb + i]};
        res += abs8(w - qb[i]);
    }
    memcpy(out, &res, sizeof res);
}

typedef struct {
    ptrdiff_t group;
    ptrdiff_t first;   /* first pair of the unit, group-major */
    ptrdiff_t count;   /* 1..TILE pairs */
} argmin_unit;

typedef struct {
    const argmin_group *groups;
    const double *queries;
    const double *qblocks;   /* (sessions, nb) query block sums */
    const double *qnorm;     /* (sessions,) query L1 norms */
    ptrdiff_t m, nb;
    double slack;            /* (m + 4) 2^-52 */
    const double *worst;
    const int64_t *pair_query;
    int64_t *best;
    double *area;
    const argmin_unit *units;
    ptrdiff_t n_units;
    ptrdiff_t next;          /* atomic work counter */
    int64_t exact;           /* atomic count of exactly evaluated rows */
} argmin_job;

/* One worker's view of the job: its own (TILE, largest group) bounds. */
typedef struct {
    argmin_job *job;
    double *bounds;
} argmin_worker;

/* The least of n >= 0 bounds, +inf when none is finite: 8 lane-wise
   minima, then the lanes and the tail in order.  A NaN never passes a
   comparison, so it is never the least. */
static double least_bound(const double *bound, ptrdiff_t n) {
    v8d low = {INFINITY, INFINITY, INFINITY, INFINITY,
               INFINITY, INFINITY, INFINITY, INFINITY};
    double least = INFINITY;
    ptrdiff_t r, j;
    for (r = 0; r + 8 <= n; r += 8) {
        v8d x = load8(bound + r);
        v8i lower = x < low;
        low = (v8d)(((v8i)x & lower) | ((v8i)low & ~lower));
    }
    for (j = 0; j < 8; j++)
        if (low[j] < least) least = low[j];
    for (; r < n; r++)
        if (bound[r] < least) least = bound[r];
    return least;
}

/* One unit in two passes.  Pass 1 bounds every row for every pair,
   rows outside and pairs inside so a panel's block sums stay in L1,
   and sets flat rows' bounds to +inf so they never seed.  Pass 2 seeds
   each pair's limit and evaluates only the rows it cannot rule out. */
static void argmin_run(argmin_job *job, const argmin_unit *u,
                       double *bounds) {
    const argmin_group *g = &job->groups[u->group];
    ptrdiff_t m = job->m, nb = job->nb, n = g->n_rows, r, k;
    const double *qb[TILE];
    int64_t exact = 0;
    for (k = 0; k < u->count; k++)
        qb[k] = job->qblocks + job->pair_query[u->first + k] * nb;
    for (r = 0; r + 8 <= n; r += 8)
        for (k = 0; k < u->count; k++)
            bound_panel(g->blocks + r * nb, qb[k], nb, bounds + k * n + r);
    for (; r < n; r++)
        for (k = 0; k < u->count; k++)
            bounds[k * n + r] = block_bound(g->blocks + r * nb, qb[k], nb);
    for (r = 0; r < n; r++)
        if (g->flat[r])
            for (k = 0; k < u->count; k++) bounds[k * n + r] = INFINITY;
    for (k = 0; k < u->count; k++) {
        int64_t row = job->pair_query[u->first + k];
        const double *q = job->queries + row * m;
        const double *bound = bounds + k * n;
        double worst = job->worst[row], norm = job->qnorm[row];
        double least = least_bound(bound, n), seed_area = 0.0, limit = NAN;
        double low = 0.0, a;
        ptrdiff_t seed = -1;
        int64_t best = -1;
        if (least <= DBL_MAX) {
            for (seed = 0; bound[seed] != least; seed++) {}
            seed_area = pairwise1(g->windows + seed * m, q, m);
            exact++;
            limit = seed_area + (job->slack * (norm + seed_area) + DBL_MIN);
        }
        for (r = 0; r < n; r++) {
            if (g->flat[r]) {
                a = worst;
            } else if (r == seed) {
                a = seed_area;
            } else {
                if (bound[r] > limit && bound[r] <= DBL_MAX) continue;
                a = pairwise1(g->windows + r * m, q, m);
                exact++;
            }
            /* np.argmin: a later row wins only if strictly lower or the
               first NaN; once a NaN is held nothing replaces it. */
            if (best < 0 || (!(a >= low) && low == low)) {
                low = a;
                best = r;
            }
        }
        job->best[u->first + k] = best;
        job->area[u->first + k] = low;
    }
    __atomic_fetch_add(&job->exact, exact, __ATOMIC_RELAXED);
}

static void *argmin_entry(void *arg) {
    argmin_worker *worker = (argmin_worker *)arg;
    argmin_job *job = worker->job;
    for (;;) {
        ptrdiff_t u = __atomic_fetch_add(&job->next, 1, __ATOMIC_RELAXED);
        if (u >= job->n_units) return NULL;
        argmin_run(job, &job->units[u], worker->bounds);
    }
}

/* Returns the number of exactly evaluated rows, or -1 when out of
   memory. */
int64_t abs_diff_argmin(const argmin_group *groups, const ptrdiff_t *pair_counts,
                        ptrdiff_t n_groups, const double *queries,
                        ptrdiff_t sessions, ptrdiff_t m, const double *worst,
                        const int64_t *pair_query, int64_t *best, double *area,
                        ptrdiff_t n_threads) {
    pthread_t workers[MAX_THREADS];
    argmin_worker team[MAX_THREADS];
    argmin_job job;
    argmin_unit *units;
    double *qblocks, *qnorm, *bounds;
    ptrdiff_t g, p, s, i, first = 0, n_units = 0, started = 0, t, rows = 0;
    ptrdiff_t nb = (m + BLOCK - 1) / BLOCK;
    for (g = 0; g < n_groups; g++) {
        n_units += (pair_counts[g] + TILE - 1) / TILE;
        if (pair_counts[g] > 0 && groups[g].n_rows > rows) rows = groups[g].n_rows;
    }
    if (n_units == 0) return 0;
    if (n_threads > n_units) n_threads = n_units;
    if (n_threads > MAX_THREADS) n_threads = MAX_THREADS;
    if (n_threads < 1) n_threads = 1;
    units = (argmin_unit *)malloc((size_t)n_units * sizeof *units);
    qblocks = (double *)malloc(
        (size_t)(sessions * nb + sessions + n_threads * TILE * rows) * sizeof *qblocks);
    if (units == NULL || qblocks == NULL) {
        free(units);
        free(qblocks);
        return -1;
    }
    qnorm = qblocks + sessions * nb;
    bounds = qnorm + sessions;
    for (s = 0; s < sessions; s++) {
        const double *q = queries + s * m;
        double norm = 0.0;
        for (i = 0; i < nb; i++) {
            ptrdiff_t j, end = (i + 1) * BLOCK < m ? (i + 1) * BLOCK : m;
            double sum = 0.0;
            for (j = i * BLOCK; j < end; j++) {
                sum += q[j];
                norm += fabs(q[j]);
            }
            qblocks[s * nb + i] = sum;
        }
        qnorm[s] = norm;
    }
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
    job.groups = groups;
    job.queries = queries;
    job.qblocks = qblocks;
    job.qnorm = qnorm;
    job.m = m;
    job.nb = nb;
    job.slack = (double)(m + 4) * 0x1p-52;
    job.worst = worst;
    job.pair_query = pair_query;
    job.best = best;
    job.area = area;
    job.units = units;
    job.n_units = n_units;
    job.next = 0;
    job.exact = 0;
    for (t = 0; t < n_threads; t++) {
        team[t].job = &job;
        team[t].bounds = bounds + t * TILE * rows;
    }
    for (t = 1; t < n_threads; t++) {
        if (pthread_create(&workers[t], NULL, argmin_entry, &team[t]) != 0)
            break;
        started = t;
    }
    /* The caller's thread drains the counter too, so every unit runs
       exactly once however many workers started. */
    argmin_entry(&team[0]);
    for (t = 1; t <= started; t++)
        pthread_join(workers[t], NULL);
    free(units);
    free(qblocks);
    return job.exact;
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

#: ``argmin(records, counts, queries, worst, pair_query, best, area,
#: threads) -> exact rows``; ``records`` are joined :func:`group_record`s.
Argmin = Callable[
    [bytes, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int],
    int,
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


class _ArgminGroup(ctypes.Structure):
    """The source's ``argmin_group``: one compiled slice as the kernel reads it."""

    _fields_ = [
        ("windows", ctypes.c_void_p),
        ("flat", ctypes.c_void_p),
        ("blocks", ctypes.c_void_p),
        ("n_rows", ctypes.c_ssize_t),
    ]


#: Bytes of one packed :func:`group_record`.
_GROUP_RECORD_BYTES = ctypes.sizeof(_ArgminGroup)


def block_sums(rows: np.ndarray) -> np.ndarray:
    """Each row's sums over consecutive blocks of :data:`BLOCK` samples.

    ``(n_rows, ceil(m / BLOCK))``; the last block is shorter when
    ``BLOCK`` does not divide ``m``.  One reshape and ``BLOCK - 1``
    strided adds (numpy's reduction over a 4-long axis is ~5x slower).
    """
    n_rows, m = rows.shape
    pad = -m % BLOCK
    if pad:
        rows = np.concatenate((rows, np.zeros((n_rows, pad))), axis=1)
    blocks = rows.reshape(n_rows, -1, BLOCK)
    # A non-finite block sum only switches the bound off for its row.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = blocks[..., 0] + blocks[..., 1]
        for k in range(2, BLOCK):
            sums += blocks[..., k]
    return sums


def group_record(windows: np.ndarray, flat: np.ndarray, blocks: np.ndarray) -> bytes:
    """One group packed as the kernel's ``argmin_group``.

    ``windows`` is a C-contiguous float64 ``(n_rows, m)`` matrix,
    ``flat`` its ``(n_rows,)`` bool mask and ``blocks`` its
    C-contiguous :func:`block_sums`; the row length is the queries'.
    The record holds raw pointers: the arrays must outlive it, unchanged.
    """
    return bytes(
        _ArgminGroup(
            windows.ctypes.data, flat.ctypes.data, blocks.ctypes.data, windows.shape[0]
        )
    )


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
        pointer,  # groups: packed argmin_group records
        pointer,  # pairs per group
        size,  # groups
        pointer,  # queries (sessions, m)
        size,  # sessions
        size,  # m
        pointer,  # worst per session
        pointer,  # query row per pair
        pointer,  # out: best offset per pair
        pointer,  # out: area per pair
        size,  # threads
    ]
    raw_argmin.restype = ctypes.c_int64
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
        records: bytes,
        counts: np.ndarray,
        queries: np.ndarray,
        worst: np.ndarray,
        pair_query: np.ndarray,
        best: np.ndarray,
        area: np.ndarray,
        threads: int,
    ) -> int:
        sessions, m = queries.shape
        exact = raw_argmin(
            records,
            counts.ctypes.data,
            len(records) // _GROUP_RECORD_BYTES,
            queries.ctypes.data,
            sessions,
            m,
            worst.ctypes.data,
            pair_query.ctypes.data,
            best.ctypes.data,
            area.ctypes.data,
            threads,
        )
        if exact < 0:
            raise MemoryError("abs_diff_argmin could not allocate its work units")
        return int(exact)

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
    rng: np.random.Generator, m: int, pruned: bool
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A small ragged step with flat rows, ties, ±inf and NaN.

    Random groups of 1, 6, 9 and 4 rows come first.  With ``pruned``
    four more groups are built around one query each, and with 8, 4, 9
    and 7 rows they cover a full panel of 8 rows, a partial last panel
    and no full panel at all:

    * near session 0: row 0 close, row 3 row 0 reversed within blocks
      (the same block sums up to rounding, so the bound cannot skip it)
      and the other rows far enough for the bound to skip them;
    * integer session 4: row 1 has one sign per block, so its bound is
      its area, and row 2 the same differences with alternating signs,
      so it is the seed with the same area: the earlier row must win;
    * the near group and a far row whose only NaN is its last sample:
      the far row must be evaluated and win;
    * every non-flat row holds an infinity, so no bound is finite and
      there is no seed.
    """
    sessions = 5
    queries = rng.standard_normal((sessions, m)) * 1e5
    queries[4] = np.rint(queries[4])
    queries = np.ascontiguousarray(queries)
    worst = np.abs(queries).sum(axis=1)
    worst[1] = np.inf
    windows: list[np.ndarray] = []
    flats: list[np.ndarray] = []
    counts: list[int] = []
    for n_rows, n_pairs in ((1, 2), (6, 5), (9, 3), (4, 7)):
        rows = rng.standard_normal((n_rows, m))
        if n_rows > 3:
            rows[2] = rows[0]  # a tie the first index must win
        windows.append(rows)
        flats.append(rng.random(n_rows) < 0.3)
        counts.append(n_pairs)
    windows[1][3, 0] = np.inf
    windows[3][1, -1] = np.nan
    pair_query = rng.integers(0, sessions, size=sum(counts)).astype(np.int64)
    if not pruned:
        return windows, flats, np.array(counts, dtype=np.intp), queries, worst, pair_query
    full = m - m % BLOCK
    near = queries[0] + rng.standard_normal((8, m)) * 1e4
    near[0] = queries[0] + near[1] * 1e-7
    near[3] = near[0]
    near[3, :full] = near[0, :full].reshape(-1, BLOCK)[:, ::-1].ravel()
    diff = rng.integers(1, 1000, m) * np.repeat(
        rng.choice([-1.0, 1.0], -(-m // BLOCK)), BLOCK
    )[:m]
    tie = queries[4] + np.array(
        [np.full(m, 1e4), diff, np.abs(diff) * (-1.0) ** np.arange(m), np.full(m, -1e4)]
    )
    nan = np.concatenate((near, 2 * near[-1:] - queries[0]))
    nan[-1, -1] = np.nan
    unbounded = near[:7].copy()
    unbounded[np.arange(7), np.arange(7) % m] = np.inf
    unbounded[3, -1] = -np.inf
    for rows, flat, owners in (
        (near, np.zeros(8, dtype=bool), [0, 2, 0]),
        (tie, np.zeros(4, dtype=bool), [4, 4]),
        (nan, np.zeros(9, dtype=bool), [0]),
        (unbounded, np.arange(7) == 1, [0, 1]),
    ):
        windows.append(rows)
        flats.append(flat)
        counts.append(len(owners))
        pair_query = np.concatenate((pair_query, owners))
    return windows, flats, np.array(counts, dtype=np.intp), queries, worst, pair_query


def _edge_passes(kernels: CKernels, rng: np.random.Generator) -> bool:
    """The edge argmin against numpy, at 1 and 3 threads.

    Window lengths cover every summation regime: the short sequential
    path (< 8), the 8-lane block with and without a remainder (≤ 128),
    and the recursive halving above 128 — with large-magnitude queries,
    where any accumulation-order difference would surface in the last
    bits — and every bound shape: fewer than 8 blocks (5), tail blocks
    after the lanes (131, 1000) and a last block shorter than
    :data:`BLOCK`.  Group pair counts cover full units, a short unit and
    a lone pair (7 = 4 + 3, 5 = 4 + 1, 2).  Pairs are independent, so
    any thread count must reproduce the same bits.  The cases add flat
    rows, ties, ±inf and NaN, and at ``m = 131`` rows the bound must
    skip, a seed an earlier row ties, a NaN the bound cannot skip and a
    group with no seed.
    """
    for m in (5, 131, 1000):
        pruned = m == 131
        windows, flats, counts, queries, worst, pair_query = _argmin_case(
            rng, m, pruned
        )
        blocks = [block_sums(rows) for rows in windows]
        records = b"".join(
            group_record(rows, flat, block)
            for rows, flat, block in zip(windows, flats, blocks)
        )
        expected_best: list[int] = []
        expected_area: list[float] = []
        evaluable = 0
        first = 0
        for rows, flat, count in zip(windows, flats, counts.tolist()):
            # Every session's areas over the group at once: each is the
            # same contiguous pairwise sum as a single row's.
            areas = np.abs(rows - queries[:, None, :]).sum(axis=2)
            areas[:, flat] = worst[:, None]
            for row in pair_query[first : first + count].tolist():
                expected_best.append(int(np.argmin(areas[row])))
                expected_area.append(float(areas[row, expected_best[-1]]))
            evaluable += count * int(np.count_nonzero(~flat))
            first += count
        for threads in (1, 3):
            best = np.empty(pair_query.size, dtype=np.int64)
            area = np.empty(pair_query.size)
            exact = kernels.argmin(
                records, counts, queries, worst, pair_query, best, area, threads
            )
            if not (
                np.array_equal(best, expected_best)
                and np.array_equal(area, expected_area, equal_nan=True)
                and (exact < evaluable or not pruned)
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
