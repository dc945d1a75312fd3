"""Shared interface and data plumbing for the baseline classifiers."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import EMAPError
from repro.signals.types import FRAME_SAMPLES, AnomalyType, Signal


@dataclass
class TrainingSet:
    """Labelled one-second windows for baseline training.

    ``windows`` is (n × frame_samples); ``labels`` is binary
    (1 = anomalous).
    """

    windows: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.windows = np.asarray(self.windows, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.windows.ndim != 2:
            raise EMAPError(
                f"windows must be a 2-D stack, got shape {self.windows.shape}"
            )
        if self.labels.shape != (self.windows.shape[0],):
            raise EMAPError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.windows.shape[0]} windows"
            )
        if not np.isin(self.labels, (0, 1)).all():
            raise EMAPError("labels must be binary (0 or 1)")

    def __len__(self) -> int:
        return self.windows.shape[0]

    @property
    def positive_fraction(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(self.labels.mean())


def windows_from_signals(
    signals: Iterable[Signal],
    frame_samples: int = FRAME_SAMPLES,
    min_span_overlap: float = 0.5,
) -> TrainingSet:
    """Cut labelled windows out of annotated recordings.

    Windows are non-overlapping; a window is labelled anomalous when at
    least ``min_span_overlap`` of it lies inside the recording's
    anomalous spans (or past the label start when spans are absent).
    """
    windows: list[np.ndarray] = []
    labels: list[int] = []
    for sig in signals:
        spans = sig.anomalous_spans
        label_start = sig.effective_label_start
        for start in range(0, len(sig.data) - frame_samples + 1, frame_samples):
            stop = start + frame_samples
            anomalous = 0
            if sig.label.is_anomalous:
                if spans is not None:
                    overlap = sum(
                        max(0, min(stop, s1) - max(start, s0)) for s0, s1 in spans
                    )
                    anomalous = int(overlap >= min_span_overlap * frame_samples)
                elif label_start is not None:
                    overlap = max(0, stop - max(start, label_start))
                    anomalous = int(overlap >= min_span_overlap * frame_samples)
                else:
                    anomalous = 1
            windows.append(sig.data[start:stop])
            labels.append(anomalous)
    if not windows:
        raise EMAPError("no windows could be extracted from the given signals")
    return TrainingSet(windows=np.vstack(windows), labels=np.array(labels))


class WindowClassifier(ABC):
    """Binary anomalous/normal classifier over one-second windows."""

    #: Anomaly types the method applies to; Table I shows N.A. elsewhere.
    supported_anomalies: tuple[AnomalyType, ...] = (AnomalyType.SEIZURE,)

    @abstractmethod
    def fit(self, training: TrainingSet) -> "WindowClassifier":
        """Train on labelled windows; returns self."""

    @abstractmethod
    def predict_window(self, window: np.ndarray) -> bool:
        """Whether one window is anomalous."""

    def predict_windows(self, windows: np.ndarray) -> np.ndarray:
        """Vectorised window predictions (override for speed)."""
        stacked = np.asarray(windows, dtype=np.float64)
        if stacked.ndim != 2:
            raise EMAPError(f"expected a 2-D stack, got shape {stacked.shape}")
        return np.array([self.predict_window(row) for row in stacked], dtype=bool)

    def accuracy(self, testing: TrainingSet) -> float:
        """Window-level classification accuracy on a labelled set."""
        predictions = self.predict_windows(testing.windows).astype(np.int64)
        return float((predictions == testing.labels).mean())


def balanced_subsample(
    training: TrainingSet, per_class: int, seed: int = 0
) -> TrainingSet:
    """Deterministic balanced subsample (with replacement if scarce)."""
    if per_class <= 0:
        raise EMAPError(f"per-class count must be positive, got {per_class}")
    rng = np.random.default_rng(seed)
    picks: list[int] = []
    for value in (0, 1):
        pool = np.flatnonzero(training.labels == value)
        if pool.size == 0:
            raise EMAPError(f"training set has no windows with label {value}")
        replace = pool.size < per_class
        picks.extend(rng.choice(pool, size=per_class, replace=replace))
    order: Sequence[int] = rng.permutation(len(picks))
    chosen = [picks[i] for i in order]
    return TrainingSet(
        windows=training.windows[chosen], labels=training.labels[chosen]
    )
