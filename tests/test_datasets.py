"""Unit tests for the synthetic corpora and registry."""

import numpy as np
import pytest

from repro.datasets.base import CorpusSpec, SyntheticCorpus
from repro.datasets.physionet_like import physionet_like_spec
from repro.datasets.registry import (
    SPEC_FACTORIES,
    CorpusRegistry,
    default_registry,
    scaled_registry,
)
from repro.datasets.tuh_like import tuh_like_spec
from repro.datasets.uci_like import uci_like_spec
from repro.errors import DatasetError
from repro.signals.types import AnomalyType


class TestCorpusSpec:
    def test_rejects_overfull_mix(self):
        with pytest.raises(DatasetError, match="sums to"):
            CorpusSpec(
                name="x",
                sample_rate_hz=256.0,
                n_records=4,
                record_duration_s=10.0,
                anomaly_mix={AnomalyType.SEIZURE: 0.7, AnomalyType.STROKE: 0.5},
            )

    def test_rejects_normal_in_mix(self):
        with pytest.raises(DatasetError, match="non-anomalous"):
            CorpusSpec(
                name="x",
                sample_rate_hz=256.0,
                n_records=4,
                record_duration_s=10.0,
                anomaly_mix={AnomalyType.NONE: 0.5},
            )

    def test_rejects_bad_onset_range(self):
        with pytest.raises(DatasetError, match="onset range"):
            CorpusSpec(
                name="x",
                sample_rate_hz=256.0,
                n_records=1,
                record_duration_s=10.0,
                onset_range_s=(0.9, 0.5),
            )


class TestSyntheticCorpus:
    def test_mix_proportions_exact(self):
        spec = CorpusSpec(
            name="mix",
            sample_rate_hz=256.0,
            n_records=20,
            record_duration_s=8.0,
            anomaly_mix={AnomalyType.SEIZURE: 0.5},
            with_artifacts=False,
        )
        corpus = SyntheticCorpus(spec, seed=0)
        labels = [record.label for record in corpus.records()]
        assert labels.count(AnomalyType.SEIZURE) == 10
        assert labels.count(AnomalyType.NONE) == 10

    def test_deterministic(self):
        spec = physionet_like_spec(n_records=3, record_duration_s=8.0)
        a = SyntheticCorpus(spec, seed=5).record(1)
        b = SyntheticCorpus(spec, seed=5).record(1)
        assert np.array_equal(a.data, b.data)
        assert a.label is b.label

    def test_native_rate_respected(self):
        spec = uci_like_spec(n_records=1)
        record = SyntheticCorpus(spec, seed=0).record(0)
        assert record.sample_rate_hz == pytest.approx(173.61)

    def test_annotated_corpus_has_onsets(self):
        spec = physionet_like_spec(n_records=8, record_duration_s=20.0)
        corpus = SyntheticCorpus(spec, seed=1)
        seizures = [r for r in corpus.records() if r.label.is_anomalous]
        assert seizures
        assert all(r.onset_sample is not None and r.onset_sample > 0 for r in seizures)
        assert all(r.anomalous_spans for r in seizures)

    def test_unannotated_corpus_whole_record(self):
        spec = tuh_like_spec(n_records=10, record_duration_s=10.0)
        corpus = SyntheticCorpus(spec, seed=2)
        anomalous = [r for r in corpus.records() if r.label.is_anomalous]
        assert anomalous
        assert all(r.onset_sample == 0 for r in anomalous)

    def test_index_bounds(self):
        corpus = SyntheticCorpus(physionet_like_spec(n_records=2, record_duration_s=5.0), seed=0)
        with pytest.raises(DatasetError, match="outside"):
            corpus.record(2)

    def test_sources_unique(self):
        corpus = SyntheticCorpus(physionet_like_spec(n_records=4, record_duration_s=5.0), seed=0)
        sources = [record.source for record in corpus.records()]
        assert len(set(sources)) == 4


class TestRegistry:
    def test_default_has_five_corpora(self):
        registry = default_registry()
        assert len(registry) == 5
        assert set(registry.names) == set(SPEC_FACTORIES)

    def test_duplicate_rejected(self):
        registry = CorpusRegistry()
        registry.register(physionet_like_spec(n_records=1))
        with pytest.raises(DatasetError, match="already registered"):
            registry.register(physionet_like_spec(n_records=1))

    def test_unknown_lookup(self):
        with pytest.raises(DatasetError, match="unknown corpus"):
            CorpusRegistry().get("nope")

    def test_scaled_counts(self):
        full = default_registry()
        half = scaled_registry(scale=0.5)
        assert 0 < half.total_records() < full.total_records()

    def test_scaled_minimum_one_record(self):
        tiny = scaled_registry(scale=0.001)
        assert all(len(corpus) >= 1 for corpus in tiny)

    def test_artifact_override(self):
        registry = scaled_registry(scale=0.05, with_artifacts=False)
        assert all(not corpus.spec.with_artifacts for corpus in registry)

    def test_rejects_bad_scale(self):
        with pytest.raises(DatasetError, match="scale"):
            scaled_registry(scale=0.0)
