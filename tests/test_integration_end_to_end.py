"""End-to-end integration tests across the whole stack.

These exercise the exact dataflow of the paper's Fig. 3 on top of the
session fixtures: corpora → MDB → cloud search → edge tracking →
prediction, plus persistence of the built MDB.
"""

import numpy as np
import pytest

from repro.cloud.search import SearchConfig, SlidingWindowSearch
from repro.cloud.server import CloudServer
from repro.cloud.shards import ShardedSearchPlane
from repro.edge.tracker import SignalTracker
from repro.eval.experiments.common import filtered_frame
from repro.mdb.mdb import MegaDatabase
from repro.runtime.framework import EMAPFramework
from repro.signals.anomalies import AnomalySpec, make_anomalous_signal
from repro.signals.generator import EEGGenerator
from repro.signals.types import AnomalyType


@pytest.fixture(scope="module")
def mdb_plane(mdb_slices):
    return ShardedSearchPlane(mdb_slices)


class TestSearchThenTrack:
    """Manual walk through the Fig. 3 pipeline, stage by stage."""

    def test_ictal_frame_matches_are_anomalous(self, mdb_plane, seizure_recording):
        frame = filtered_frame(seizure_recording, 84)  # past the 80 s onset
        search = SlidingWindowSearch(SearchConfig())
        result = search.search(frame, mdb_plane)
        assert result.matches
        assert result.anomaly_probability > 0.8

    def test_normal_frame_matches_are_normal(self, mdb_plane, normal_recording):
        frame = filtered_frame(normal_recording, 10)
        search = SlidingWindowSearch(SearchConfig())
        result = search.search(frame, mdb_plane)
        assert result.matches
        assert result.anomaly_probability < 0.3

    def test_tracking_sustains_matched_ictal_set(self, mdb_plane, seizure_recording):
        search = SlidingWindowSearch(SearchConfig())
        first = filtered_frame(seizure_recording, 84)
        tracker = SignalTracker()
        tracker.load(search.search(first, mdb_plane))
        initial = tracker.tracked_count
        step = tracker.step(filtered_frame(seizure_recording, 85))
        assert step.tracked_after > 0.3 * initial
        assert tracker.anomaly_probability() > 0.8


class TestClosedLoopScenarios:
    def test_whole_record_anomalies_detected(self, mdb_slices):
        framework = EMAPFramework(CloudServer(mdb_slices))
        for kind, seed in (
            (AnomalyType.ENCEPHALOPATHY, 300),
            (AnomalyType.STROKE, 301),
        ):
            patient = make_anomalous_signal(
                EEGGenerator(seed=seed), 30.0, AnomalySpec(kind=kind)
            )
            session = framework.run(patient)
            assert session.final_prediction, kind
            assert session.peak_probability > 0.7

    def test_seizure_predicted_before_onset(self, mdb_slices):
        framework = EMAPFramework(CloudServer(mdb_slices))
        spec = AnomalySpec(kind=AnomalyType.SEIZURE, onset_s=70.0, buildup_s=60.0)
        patient = make_anomalous_signal(EEGGenerator(seed=302), 80.0, spec)
        session = framework.run(patient)
        first_flag = next(
            (i for i, flag in enumerate(session.predictions) if flag), None
        )
        assert first_flag is not None
        # Tracking iteration i happens roughly (i + 2) seconds in.
        assert first_flag + 2 < 70.0

    def test_sessions_independent(self, mdb_slices):
        """A framework instance can be reused across sessions."""
        framework = EMAPFramework(CloudServer(mdb_slices))
        normal = EEGGenerator(seed=303).record(12.0)
        first = framework.run(normal)
        second = framework.run(normal)
        assert first.pa_series == second.pa_series
        assert first.cloud_calls == second.cloud_calls


class TestMDBPersistenceIntegration:
    def test_search_identical_after_reload(self, small_mdb, tmp_path, seizure_recording):
        small_mdb.save(tmp_path / "mdb")
        reloaded = MegaDatabase.load(tmp_path / "mdb")
        frame = filtered_frame(seizure_recording, 84)
        search = SlidingWindowSearch(SearchConfig())
        original = search.search(frame, ShardedSearchPlane(small_mdb))
        restored = search.search(frame, ShardedSearchPlane(reloaded))
        assert len(original.matches) == len(restored.matches)
        for a, b in zip(original.matches, restored.matches):
            assert a.sig_slice.slice_id == b.sig_slice.slice_id
            assert a.omega == pytest.approx(b.omega, abs=1e-12)

    def test_reloaded_mdb_drives_framework(self, small_mdb, tmp_path):
        small_mdb.save(tmp_path / "mdb2")
        reloaded = MegaDatabase.load(tmp_path / "mdb2")
        framework = EMAPFramework(CloudServer(reloaded))
        session = framework.run(EEGGenerator(seed=304).record(8.0))
        assert session.iterations > 0


class TestDeterminism:
    def test_full_pipeline_reproducible(self, mdb_slices):
        """Same seeds, same MDB, same session trace — bit for bit."""
        spec = AnomalySpec(kind=AnomalyType.SEIZURE, onset_s=25.0, buildup_s=20.0)
        a = make_anomalous_signal(EEGGenerator(seed=305), 30.0, spec)
        b = make_anomalous_signal(EEGGenerator(seed=305), 30.0, spec)
        assert np.array_equal(a.data, b.data)
        framework = EMAPFramework(CloudServer(mdb_slices))
        assert framework.run(a).pa_series == framework.run(b).pa_series
