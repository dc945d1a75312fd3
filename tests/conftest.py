"""Shared fixtures: one small MDB and canonical patient recordings.

Session-scoped so the corpus build (the slowest setup step) happens
once for the whole suite.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cloud.client import ResilientCloudClient
from repro.datasets.registry import scaled_registry
from repro.edge.tracker import SignalTracker
from repro.gateway import EdgeStepDriver, GatewayConfig, ServingGateway, run_fleet_session
from repro.mdb.builder import MDBBuilder
from repro.runtime.framework import EMAPFramework, MonitoringResult
from repro.runtime.streaming import ClosedLoop, SignalAcquisition, StreamingMonitor
from repro.signals.anomalies import AnomalySpec, make_anomalous_signal
from repro.signals.generator import EEGGenerator
from repro.signals.types import AnomalyType, Frame


@pytest.fixture(autouse=True)
def _sanitized_event_loops(monkeypatch, request):
    """``EMAP_SANITIZE=1``: route every ``asyncio.run`` in the suite
    through the runtime sanitizer (loop stalls, task leaks and memory
    growth become hard failures).  The CI ``sanitize`` lane sets the
    gate; tier-1 runs see a no-op fixture.
    """
    from repro.obs import sanitize

    if not sanitize.sanitize_enabled():
        yield
        return
    if request.node.fspath.basename == "test_obs_sanitize.py":
        # The sanitizer's own tests manage instrumentation explicitly.
        yield
        return

    def _sanitized_run(main, *, debug=None):
        return sanitize.run_sanitized(main)

    monkeypatch.setattr(asyncio, "run", _sanitized_run)
    yield


@pytest.fixture(scope="session")
def small_mdb():
    """A ~200-slice MDB built from all five corpora."""
    builder = MDBBuilder()
    builder.build(scaled_registry(scale=0.15, seed=11, with_artifacts=False))
    return builder.mdb


@pytest.fixture(scope="session")
def mdb_slices(small_mdb):
    """The small MDB's slices as a plain list (search-engine input)."""
    return list(small_mdb.slices())


@pytest.fixture(scope="session")
def seizure_recording():
    """A 90 s seizure recording with onset at 80 s."""
    spec = AnomalySpec(kind=AnomalyType.SEIZURE, onset_s=80.0, buildup_s=70.0)
    return make_anomalous_signal(
        EEGGenerator(seed=1234), 90.0, spec, source="test/seizure"
    )


@pytest.fixture(scope="session")
def normal_recording():
    """A 40 s normal recording."""
    return EEGGenerator(seed=4321).record(40.0, source="test/normal")


#: Live-delivery chunk for monitor-driven sessions: 2.5 frames, so frame
#: boundaries fall inside chunks.
STREAM_CHUNK = 640


def _run_reference(cloud, config, recording) -> MonitoringResult:
    """The closed loop on the scalar reference tracker.

    ``StreamingMonitor``'s per-frame body with a ``SignalTracker`` in
    place of its one-session ``FleetTracker``: every production entry
    point must equal this driver bit for bit.
    """
    size = config.tracker.frame_samples
    loop = ClosedLoop(config, cloud.timing)
    tracker = SignalTracker(config.tracker)
    client = ResilientCloudClient(cloud, config.resilience)
    result = MonitoringResult()
    for data in SignalAcquisition(size).push(recording.data):
        frame = Frame(data, loop.frame_index, filtered=True, expected_samples=size)
        now_s = (frame.index + 1) * loop.frame_s
        landed = loop.land(now_s)
        if landed is not None:
            tracker.load(landed)
        step = tracker.step(frame) if loop.tracks(landed) else None
        update, call = loop.advance(now_s, landed, step)
        if call:
            update = loop.record_call(update, client.call(frame, now_s=now_s))
        result.record(update)
    return result


@pytest.fixture
def run_reference():
    """Run ``(cloud, config, recording)`` through the closed loop on the
    scalar reference tracker (see ``_run_reference``)."""
    return _run_reference


def _run_framework(cloud, config, recording) -> MonitoringResult:
    return EMAPFramework(cloud, config).run(recording)


def _run_monitor(cloud, config, recording) -> MonitoringResult:
    monitor = StreamingMonitor(cloud, config)
    result = MonitoringResult()
    for start in range(0, recording.data.size, STREAM_CHUNK):
        for update in monitor.push(recording.data[start : start + STREAM_CHUNK]):
            result.record(update)
    return result


def _run_fleet(cloud, config, recording) -> MonitoringResult:
    frames = SignalAcquisition(config.tracker.frame_samples).push(recording.data)

    async def session():
        gateway = ServingGateway(cloud, GatewayConfig(resilience=config.resilience))
        edge = EdgeStepDriver(config.tracker)
        try:
            return await run_fleet_session(
                gateway, edge, "tenant", "session", frames, config
            )
        finally:
            await gateway.aclose()
            await edge.aclose()

    result = MonitoringResult()
    for update in asyncio.run(session()):
        result.record(update)
    return result


@pytest.fixture(
    params=[_run_framework, _run_monitor, _run_fleet],
    ids=["framework", "monitor", "fleet"],
)
def run_session(request):
    """Run ``(cloud, config, recording)`` through one entry point of the
    closed loop: ``EMAPFramework.run``, a ``StreamingMonitor`` fed the
    raw samples in ``STREAM_CHUNK``-sample chunks, or a one-session
    fleet (``run_fleet_session`` over a ``ServingGateway`` and an
    ``EdgeStepDriver``) on the simulated clock.  The fleet case needs a
    ``CloudServer`` endpoint."""
    return request.param


@pytest.fixture(params=[_run_framework, _run_monitor], ids=["framework", "monitor"])
def run_direct_session(request):
    """``run_session`` without the fleet case, for tests whose endpoint
    (a ``FaultInjector`` they inspect) cannot sit behind a gateway."""
    return request.param
