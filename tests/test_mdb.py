"""Unit tests for the mega-database schema, builder and facade."""

import numpy as np
import pytest

from repro.datasets.registry import scaled_registry
from repro.errors import MDBError
from repro.mdb.builder import BuildReport, MDBBuilder
from repro.mdb.mdb import MegaDatabase
from repro.mdb.schema import (
    SLICE_COLLECTION,
    slice_from_document,
    slice_to_document,
)
from repro.signals.generator import EEGGenerator
from repro.signals.types import BASE_SAMPLE_RATE_HZ, AnomalyType, SignalSlice


class TestSchema:
    def test_round_trip(self):
        original = SignalSlice(
            data=np.arange(1000, dtype=float),
            label=AnomalyType.ENCEPHALOPATHY,
            source="tuh-eeg/rec0001",
            start_sample=2000,
            slice_id="tuh-eeg/rec0001/Fp1/2",
        )
        document = slice_to_document(original, dataset="tuh-eeg", channel="Fp1")
        assert document["anomalous"] == 1
        restored = slice_from_document(document)
        assert restored.label is AnomalyType.ENCEPHALOPATHY
        assert restored.start_sample == 2000
        assert np.array_equal(restored.data, original.data)

    def test_malformed_document_rejected(self):
        with pytest.raises(MDBError, match="malformed"):
            slice_from_document({"label": "not-a-label", "samples": [1.0]})


class TestBuilder:
    def test_build_report_consistent(self, small_mdb):
        # small_mdb fixture built with the default builder.
        assert len(small_mdb) > 50
        counts = small_mdb.label_counts()
        assert sum(counts.values()) == len(small_mdb)
        assert counts.get("none", 0) > 0

    def test_ingest_resamples_and_slices(self):
        builder = MDBBuilder()
        record = EEGGenerator(seed=0).record(10.0)
        # 10 s at 256 Hz -> 2560 samples -> 2 slices of 1000.
        inserted = builder.ingest_record(record)
        assert inserted == 2

    def test_ingest_foreign_rate(self):
        from repro.signals.generator import BackgroundSpec

        builder = MDBBuilder()
        generator = EEGGenerator(BackgroundSpec(sample_rate_hz=512.0), seed=1)
        record = generator.record(10.0)
        inserted = builder.ingest_record(record)
        assert inserted == 2  # downsampled to 2560 samples

    def test_report_accumulates(self):
        builder = MDBBuilder()
        report = BuildReport()
        record = EEGGenerator(seed=2).record(20.0)
        builder.ingest_record(record, report)
        assert report.records_ingested == 1
        assert report.slices_inserted == 5
        assert report.normal_slices == 5
        assert "records" in report.summary()

    def test_empty_build_rejected(self):
        builder = MDBBuilder(slice_samples=10_000_000)
        with pytest.raises(MDBError, match="no signal-sets"):
            builder.build(scaled_registry(scale=0.01, with_artifacts=False))

    def test_rejects_bad_slice_size(self):
        with pytest.raises(MDBError, match="slice size"):
            MDBBuilder(slice_samples=0)


class TestMegaDatabase:
    def test_label_filtered_iteration(self, small_mdb):
        seizures = list(small_mdb.slices(label=AnomalyType.SEIZURE))
        assert seizures
        assert all(s.label is AnomalyType.SEIZURE for s in seizures)

    def test_dataset_filtered_iteration(self, small_mdb):
        tuh = list(small_mdb.slices(dataset="tuh-eeg"))
        assert tuh
        assert all("tuh-eeg" in s.source for s in tuh)

    def test_limit(self, small_mdb):
        assert len(list(small_mdb.slices(limit=5))) == 5

    def test_counts(self, small_mdb):
        total = small_mdb.count()
        seizure = small_mdb.count(AnomalyType.SEIZURE)
        assert 0 < seizure < total

    def test_anomalous_fraction(self, small_mdb):
        fraction = small_mdb.anomalous_fraction()
        assert 0.0 < fraction < 1.0

    def test_datasets_lists_all_five(self, small_mdb):
        assert len(small_mdb.datasets()) == 5

    def test_subset_deterministic(self, small_mdb):
        a = small_mdb.subset(10, seed=3)
        b = small_mdb.subset(10, seed=3)
        assert [s.slice_id for s in a] == [s.slice_id for s in b]

    def test_subset_with_replacement_when_large(self, small_mdb):
        big = small_mdb.subset(len(small_mdb) + 50, seed=0)
        assert len(big) == len(small_mdb) + 50

    def test_subset_rejects_zero(self, small_mdb):
        with pytest.raises(MDBError, match="positive"):
            small_mdb.subset(0)

    def test_empty_mdb_fraction_rejected(self):
        with pytest.raises(MDBError, match="empty"):
            MegaDatabase().anomalous_fraction()

    def test_insert_requires_samples(self):
        with pytest.raises(MDBError, match="samples"):
            MegaDatabase().insert_document({"label": "none"})

    def test_save_load_round_trip(self, small_mdb, tmp_path):
        small_mdb.save(tmp_path / "mdb")
        loaded = MegaDatabase.load(tmp_path / "mdb")
        assert len(loaded) == len(small_mdb)
        assert loaded.label_counts() == small_mdb.label_counts()
        one = next(loaded.slices())
        assert len(one) == 1000

    def test_decoded_slices_reused_across_inserts(self):
        """Inserts through the facade keep earlier decodes valid, so a
        refresh after one insert decodes only the new document."""
        rng = np.random.default_rng(3)
        mdb = MegaDatabase()

        def insert(slice_id):
            mdb.insert_document(
                slice_to_document(
                    SignalSlice(
                        data=rng.standard_normal(300),
                        label=AnomalyType.NONE,
                        slice_id=slice_id,
                    ),
                    dataset="test",
                    channel="Fp1",
                )
            )

        insert("a")
        first = list(mdb.slices())
        insert("b")
        second = list(mdb.slices())
        assert second[0] is first[0]
        assert [s.slice_id for s in second] == ["a", "b"]

    def test_out_of_band_write_drops_decoded_slices(self):
        def document(label):
            return slice_to_document(
                SignalSlice(data=np.arange(300.0), label=label, slice_id="a"),
                dataset="test",
                channel="Fp1",
            )

        mdb = MegaDatabase()
        mdb.insert_document(document(AnomalyType.NONE))
        before = next(mdb.slices())
        # Writes that bypass the facade move the generation.
        collection = mdb.store.collection(SLICE_COLLECTION)
        assert collection.delete_many({"slice_id": "a"}) == 1
        collection.insert_one(document(AnomalyType.SEIZURE))
        after = next(mdb.slices())
        assert after is not before
        assert after.label is AnomalyType.SEIZURE

    def test_slices_are_base_rate_length(self, small_mdb):
        for sig_slice in small_mdb.slices(limit=20):
            assert len(sig_slice) == 1000
        # 1000 samples at 256 Hz ≈ 3.9 s, as in the paper.
        assert 1000 / BASE_SAMPLE_RATE_HZ == pytest.approx(3.906, abs=1e-3)
