"""Table I — prediction accuracy for three anomalies + SoA baselines.

EMAP columns: per-batch (B1–B5) prediction accuracy for seizure,
encephalopathy and stroke inputs (sensitivity over each batch of 20).
SoA columns: window-level classification accuracy of the five cited
methods on seizure data; they are seizure-specific, so encephalopathy
and stroke rows read N.A., exactly as in the paper.  The framework's
false-positive rate on normal inputs (paper: ~15 %) is reported
alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines import (
    CrossCorrelationClassifier,
    DeepLearningClassifier,
    HyperdimensionalClassifier,
    IoTSeizurePredictor,
    SelfLearningClassifier,
)
from repro.baselines.base import (
    WindowClassifier,
    balanced_subsample,
    windows_from_signals,
)
from repro.cloud.search import SearchConfig, SlidingWindowSearch
from repro.cloud.server import CloudServer
from repro.datasets.base import SyntheticCorpus
from repro.datasets.physionet_like import physionet_like_spec
from repro.errors import EMAPError
from repro.eval.batches import BatchSpec, make_anomaly_batches, make_normal_batch
from repro.eval.experiments.common import (
    ExperimentFixture,
    build_fixture,
    sustained_prediction_iteration,
)
from repro.eval.reporting import format_table
from repro.runtime.framework import EMAPFramework, FrameworkConfig
from repro.signals.filters import BandpassFilter
from repro.signals.types import ANOMALY_TYPES, AnomalyType

#: Table I column order and paper-reported seizure accuracies.
BASELINE_SPECS: tuple[tuple[str, type[WindowClassifier], float], ...] = (
    ("[11] Hosseini DL", DeepLearningClassifier, 0.94),
    ("[13] Samie IoT", IoTSeizurePredictor, 0.93),
    ("[7] Burrello HD", HyperdimensionalClassifier, 0.86),
    ("[8] Pascual self-learn", SelfLearningClassifier, 0.93),
    ("[18] Zhang xcorr", CrossCorrelationClassifier, 0.99),
)


@dataclass
class Table1Result:
    """Per-anomaly, per-batch EMAP accuracy plus baseline columns."""

    batch_names: list[str] = field(default_factory=list)
    emap_accuracy: dict[str, dict[str, float]] = field(default_factory=dict)
    baseline_accuracy: dict[str, float] = field(default_factory=dict)
    false_positive_rate: float | None = None

    def mean_accuracy(self, anomaly: str) -> float:
        """Average over batches (paper: 0.94 / 0.73 / 0.79)."""
        per_batch = self.emap_accuracy.get(anomaly)
        if not per_batch:
            raise EMAPError(f"no accuracy recorded for {anomaly!r}")
        return float(np.mean(list(per_batch.values())))

    def report(self) -> str:
        headers = [
            "anomaly",
            *self.batch_names,
            "mean",
            *[name for name, _, _ in BASELINE_SPECS],
        ]
        rows = []
        for anomaly in self.emap_accuracy:
            per_batch = self.emap_accuracy[anomaly]
            baseline_cells = [
                (
                    f"{self.baseline_accuracy.get(name, float('nan')):.2f}"
                    if anomaly == AnomalyType.SEIZURE.value
                    else "N.A."
                )
                for name, _, _ in BASELINE_SPECS
            ]
            rows.append(
                [
                    anomaly,
                    *[per_batch[batch] for batch in self.batch_names],
                    self.mean_accuracy(anomaly),
                    *baseline_cells,
                ]
            )
        table = format_table(
            headers, rows, precision=2, title="Table I — prediction accuracy"
        )
        footer = ""
        if self.false_positive_rate is not None:
            footer = (
                f"\nfalse-positive rate on normal inputs: "
                f"{self.false_positive_rate:.2f} (paper: ~0.15)"
            )
        return table + footer


def _session_predicts_anomaly(predictions: list[bool], run_length: int = 3) -> bool:
    return sustained_prediction_iteration(predictions, run_length) is not None


def run(
    fixture: ExperimentFixture | None = None,
    batch_spec: BatchSpec | None = None,
    seed: int = 0,
    anomalies: tuple[AnomalyType, ...] = ANOMALY_TYPES,
    with_baselines: bool = True,
    with_false_positive_rate: bool = True,
    n_normal_inputs: int = 20,
    baseline_train_per_class: int = 120,
    baseline_test_per_class: int = 80,
) -> Table1Result:
    """Evaluate EMAP on every anomaly batch, plus the baseline columns."""
    fix = fixture or build_fixture()
    shape = batch_spec or BatchSpec()
    cloud = CloudServer(fix.slices, search=SlidingWindowSearch(SearchConfig()))
    framework = EMAPFramework(cloud, FrameworkConfig())

    result = Table1Result()
    for kind in anomalies:
        batches = make_anomaly_batches(kind, spec=shape, seed=seed)
        if not result.batch_names:
            result.batch_names = [batch.name for batch in batches]
        per_batch: dict[str, float] = {}
        for batch in batches:
            flags = []
            for patient in batch.signals:
                session = framework.run(patient)
                flags.append(_session_predicts_anomaly(session.predictions))
            per_batch[batch.name] = float(np.mean(flags))
        result.emap_accuracy[kind.value] = per_batch

    if with_false_positive_rate:
        normal_batch = make_normal_batch(n_inputs=n_normal_inputs, seed=seed)
        false_positives = []
        for recording in normal_batch.signals:
            session = framework.run(recording)
            false_positives.append(
                _session_predicts_anomaly(session.predictions)
            )
        result.false_positive_rate = float(np.mean(false_positives))

    if with_baselines:
        result.baseline_accuracy = run_baselines(
            seed=seed,
            train_per_class=baseline_train_per_class,
            test_per_class=baseline_test_per_class,
        )
    return result


def run_baselines(
    seed: int = 0,
    n_records: int = 16,
    train_per_class: int = 120,
    test_per_class: int = 80,
) -> dict[str, float]:
    """Window accuracy of the five SoA methods on seizure data."""
    corpus = SyntheticCorpus(physionet_like_spec(n_records=n_records), seed=seed)
    bandpass = BandpassFilter()
    signals = [bandpass.apply_signal(record) for record in corpus.records()]
    dataset = windows_from_signals(signals)
    train = balanced_subsample(dataset, per_class=train_per_class, seed=seed)
    test = balanced_subsample(dataset, per_class=test_per_class, seed=seed + 10_000)
    scores: dict[str, float] = {}
    for name, factory, _paper_value in BASELINE_SPECS:
        classifier = factory()
        classifier.fit(train)
        scores[name] = classifier.accuracy(test)
    return scores
