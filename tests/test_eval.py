"""Unit tests for the evaluation harness: batches and reporting."""

import pytest

from repro.errors import EMAPError
from repro.eval.batches import BatchSpec, make_anomaly_batches, make_normal_batch
from repro.eval.reporting import format_series, format_table
from repro.signals.types import AnomalyType


class TestBatches:
    def test_seizure_batches_annotated(self):
        shape = BatchSpec(n_batches=2, batch_size=3, onset_s=50.0, buildup_s=40.0, duration_s=60.0)
        batches = make_anomaly_batches(AnomalyType.SEIZURE, spec=shape, seed=1)
        assert [batch.name for batch in batches] == ["B1", "B2"]
        assert all(len(batch) == 3 for batch in batches)
        for batch in batches:
            for sig in batch.signals:
                assert sig.label is AnomalyType.SEIZURE
                assert sig.onset_sample == 50 * 256
                assert sig.duration_s == pytest.approx(60.0)

    def test_whole_record_batches(self):
        shape = BatchSpec(n_batches=1, batch_size=2, whole_record_duration_s=20.0)
        batches = make_anomaly_batches(AnomalyType.STROKE, spec=shape, seed=2)
        sig = batches[0].signals[0]
        assert sig.onset_sample == 0
        assert sig.duration_s == pytest.approx(20.0)

    def test_batches_deterministic(self):
        shape = BatchSpec(n_batches=1, batch_size=2, whole_record_duration_s=10.0)
        a = make_anomaly_batches(AnomalyType.STROKE, spec=shape, seed=3)
        b = make_anomaly_batches(AnomalyType.STROKE, spec=shape, seed=3)
        import numpy as np

        assert np.array_equal(a[0].signals[0].data, b[0].signals[0].data)

    def test_inputs_distinct_within_batch(self):
        import numpy as np

        shape = BatchSpec(n_batches=1, batch_size=3, whole_record_duration_s=10.0)
        batch = make_anomaly_batches(AnomalyType.STROKE, spec=shape, seed=4)[0]
        assert not np.array_equal(batch.signals[0].data, batch.signals[1].data)

    def test_normal_batch(self):
        batch = make_normal_batch(n_inputs=4, duration_s=15.0, seed=5)
        assert len(batch) == 4
        assert all(sig.label is AnomalyType.NONE for sig in batch.signals)

    def test_rejects_normal_kind(self):
        with pytest.raises(EMAPError, match="anomalous kind"):
            make_anomaly_batches(AnomalyType.NONE)

    def test_spec_validation(self):
        with pytest.raises(EMAPError, match="inside"):
            BatchSpec(onset_s=200.0, duration_s=100.0)


class TestReporting:
    def test_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]], precision=2)
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.50" in lines[2]

    def test_table_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.startswith("My Table")

    def test_table_row_length_checked(self):
        with pytest.raises(EMAPError, match="headers"):
            format_table(["a", "b"], [[1]])

    def test_series(self):
        text = format_series("x", [1, 2], {"y": [0.1, 0.2], "z": [3, 4]})
        assert "0.100" in text
        assert text.splitlines()[0].startswith("x")

    def test_series_length_checked(self):
        with pytest.raises(EMAPError, match="points"):
            format_series("x", [1, 2], {"y": [0.1]})

    def test_boolean_cells(self):
        text = format_table(["ok"], [[True], [False]])
        assert "yes" in text and "no" in text
