"""Shared measurement for the serving-gateway throughput bench.

Drives the same concurrent request stream through two gateways over
identical MDBs:

* **solo** — ``max_batch=1``: every request dispatches as its own
  plane walk (the coalescing machinery runs but never shares a batch);
* **coalesced** — the production configuration: concurrent requests
  ride shared :meth:`~repro.cloud.server.CloudServer.handle_batch`
  calls (one plane refresh and one pinned epoch per batch, each query
  walked in turn).

Requests are submitted in waves of ``concurrency`` so the coalesced
arm has real batches to form.  Each arm is timed ``rounds`` times and
the best (minimum) wall time is kept — the standard guard against a
scheduler hiccup or a co-tenant burst landing in exactly one arm and
flipping the speedup ratio.  The harness verifies request-by-request
that matches and ``correlations_evaluated`` are bit-identical across
the arms *in every round* — coalescing may only change *how many
walks* run, never any answer.  Used by
``test_bench_gateway_throughput.py`` and the ``check_regression.py``
CI gate.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.cloud.server import CloudServer
from repro.eval.experiments.common import ExperimentFixture
from repro.gateway import GatewayConfig, ServingGateway, build_frame_pool

N_TENANTS = 4


@dataclass
class GatewayThroughputResult:
    """Best per-arm wall time over the same concurrent request stream."""

    n_slices: int
    n_requests: int
    concurrency: int
    solo_s: float
    coalesced_s: float
    warmup_s: float
    identical: bool
    mean_batch_size: float
    correlations_per_request: list[int] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        if self.coalesced_s <= 0:
            return float("inf")
        return self.solo_s / self.coalesced_s

    @property
    def solo_rps(self) -> float:
        return self.n_requests / self.solo_s if self.solo_s > 0 else 0.0

    @property
    def coalesced_rps(self) -> float:
        if self.coalesced_s > 0:
            return self.n_requests / self.coalesced_s
        return 0.0

    def report(self) -> str:
        lines = [
            "Gateway throughput: solo walks vs coalesced batch walks",
            f"  MDB: {self.n_slices} signal-sets, {self.n_requests} requests "
            f"in waves of {self.concurrency}",
            f"  solo:      {self.solo_s:.3f}s total, "
            f"{self.solo_rps:6.1f} req/s",
            f"  coalesced: {self.coalesced_s:.3f}s total, "
            f"{self.coalesced_rps:6.1f} req/s "
            f"(mean batch {self.mean_batch_size:.1f}, "
            f"+ {self.warmup_s:.3f}s one-off warm-up)",
            f"  speedup: {self.speedup:.2f}x, bit-identical: {self.identical}",
        ]
        return "\n".join(lines)


def _outcome_key(outcome) -> tuple:
    result = outcome.result
    return (
        tuple(
            (m.sig_slice.slice_id, m.offset, m.omega) for m in result.matches
        ),
        result.correlations_evaluated,
        result.candidates_above_threshold,
    )


async def _drive(gateway, requests, concurrency):
    """Submit ``requests`` in concurrent waves; outcomes in order."""
    outcomes = []
    for start in range(0, len(requests), concurrency):
        wave = requests[start : start + concurrency]
        outcomes.extend(
            await asyncio.gather(
                *(
                    gateway.submit(tenant, frame, now_s=float(start))
                    for tenant, frame in wave
                )
            )
        )
    return outcomes


def _run_arm(fixture, requests, concurrency, max_batch):
    """One gateway arm over a fresh server; returns (outcomes, elapsed,
    warmup, mean_batch_size)."""
    server = CloudServer(fixture.slices)
    try:
        gateway = ServingGateway(server, GatewayConfig(max_batch=max_batch))

        async def scenario():
            try:
                # One untimed request compiles the plane and warms the
                # norm cache — one-off costs a persistent server pays
                # once.
                started = time.perf_counter()
                await gateway.submit("warmup", requests[0][1], now_s=0.0)
                warmup = time.perf_counter() - started
                started = time.perf_counter()
                outcomes = await _drive(gateway, requests, concurrency)
                elapsed = time.perf_counter() - started
            finally:
                await gateway.aclose()
            batches = gateway.batches_served
            attempts = gateway.attempts_served
            mean = attempts / batches if batches else 0.0
            return outcomes, elapsed, warmup, mean

        return asyncio.run(scenario())
    finally:
        server.close()


def run_gateway_throughput(
    fixture: ExperimentFixture,
    n_requests: int = 96,
    concurrency: int = 32,
    max_batch: int = 16,
    seed: int = 7,
    rounds: int = 2,
) -> GatewayThroughputResult:
    """Serve the same request stream through both arms and time them.

    Both arms run ``rounds`` times; the best wall time per arm is
    reported so one noisy round cannot fail the speedup floor.
    """
    frames = build_frame_pool(fixture.slices, n_frames=16, seed=seed)
    requests = [
        (f"tenant-{index % N_TENANTS}", frames[index % len(frames)])
        for index in range(n_requests)
    ]
    def _round_keys(outcomes: list) -> list[tuple]:
        # A failed request has no result; an empty key list can never
        # match a healthy round, so it fails the identity check.
        if not all(o.ok for o in outcomes):
            return []
        return [_outcome_key(o) for o in outcomes]

    solo_keys: list[list[tuple]] = []
    solo_s = float("inf")
    for _ in range(max(1, rounds)):
        outcomes, elapsed, _, _ = _run_arm(
            fixture, requests, concurrency, max_batch=1
        )
        solo_keys.append(_round_keys(outcomes))
        solo_s = min(solo_s, elapsed)
    coalesced_s = float("inf")
    warmup_s = 0.0
    mean_batch = 0.0
    coalesced_keys: list[list[tuple]] = []
    coalesced_outcomes = []
    for _ in range(max(1, rounds)):
        outcomes, elapsed, warmup, mean = _run_arm(
            fixture, requests, concurrency, max_batch=max_batch
        )
        coalesced_keys.append(_round_keys(outcomes))
        if elapsed < coalesced_s:
            coalesced_s, warmup_s, mean_batch = elapsed, warmup, mean
            coalesced_outcomes = outcomes
    # Every round of every arm must agree request-by-request.
    identical = bool(solo_keys[0]) and all(
        keys == solo_keys[0] for keys in solo_keys + coalesced_keys
    )
    return GatewayThroughputResult(
        n_slices=fixture.n_slices,
        n_requests=n_requests,
        concurrency=concurrency,
        solo_s=solo_s,
        coalesced_s=coalesced_s,
        warmup_s=warmup_s,
        identical=identical,
        mean_batch_size=mean_batch,
        correlations_per_request=[
            o.result.correlations_evaluated for o in coalesced_outcomes
        ],
    )


def summarize(
    result: GatewayThroughputResult, mdb_scale: float, seed: int
) -> dict:
    """The JSON-able summary the regression baseline stores."""
    return {
        "config": {"mdb_scale": mdb_scale, "seed": seed},
        "n_slices": result.n_slices,
        "n_requests": result.n_requests,
        "concurrency": result.concurrency,
        "correlations_per_request": result.correlations_per_request,
        "solo_s": result.solo_s,
        "coalesced_s": result.coalesced_s,
        "mean_batch_size": result.mean_batch_size,
        "speedup": result.speedup,
        "identical": result.identical,
    }
