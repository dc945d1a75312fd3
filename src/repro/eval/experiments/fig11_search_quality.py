"""Fig. 11 — search quality: Algorithm 1 vs exhaustive cross-correlation.

For 100 normal and 100 anomalous inputs, compare the average
cross-correlation of the top-100 signals returned by Algorithm 1
against the exhaustive search.  The paper finds the means nearly
indistinguishable, with occasional low-correlation sets from
Algorithm 1's sliding window ("worst set of signals").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.search import ExhaustiveSearch, SearchConfig, SlidingWindowSearch
from repro.cloud.shards import ShardedSearchPlane
from repro.errors import EMAPError
from repro.eval.experiments.common import (
    ExperimentFixture,
    build_fixture,
    filtered_frame,
)
from repro.eval.reporting import format_table
from repro.signals.anomalies import AnomalySpec, make_anomalous_signal
from repro.signals.generator import EEGGenerator
from repro.signals.types import AnomalyType


@dataclass
class SearchQualityResult:
    """Per-input mean top-100 ω for both engines, split by input class."""

    normal_exhaustive: list[float] = field(default_factory=list)
    normal_algorithm1: list[float] = field(default_factory=list)
    anomalous_exhaustive: list[float] = field(default_factory=list)
    anomalous_algorithm1: list[float] = field(default_factory=list)

    @staticmethod
    def _mean(values: list[float]) -> float:
        if not values:
            raise EMAPError("no search-quality samples recorded")
        return float(np.mean(values))

    @property
    def mean_gap(self) -> float:
        """Average exhaustive-minus-Algorithm-1 quality gap (paper: ≈0)."""
        gaps = [
            e - a
            for e, a in zip(
                self.normal_exhaustive + self.anomalous_exhaustive,
                self.normal_algorithm1 + self.anomalous_algorithm1,
            )
        ]
        return float(np.mean(gaps))

    def report(self) -> str:
        rows = [
            (
                "normal",
                self._mean(self.normal_exhaustive),
                self._mean(self.normal_algorithm1),
                min(self.normal_algorithm1),
            ),
            (
                "anomalous",
                self._mean(self.anomalous_exhaustive),
                self._mean(self.anomalous_algorithm1),
                min(self.anomalous_algorithm1),
            ),
        ]
        table = format_table(
            ["inputs", "exhaustive_mean", "algorithm1_mean", "algorithm1_worst"],
            rows,
            title="Fig. 11 — avg top-100 cross-correlation per search engine",
        )
        return table + f"\nmean quality gap: {self.mean_gap:.4f} (paper: ~0)"


def run(
    fixture: ExperimentFixture | None = None,
    n_inputs_per_class: int = 100,
    seed: int = 0,
) -> SearchQualityResult:
    """Search with both engines for every input; collect top-set quality.

    Both engines walk one compiled plane of the fixture's slices.
    """
    if n_inputs_per_class < 1:
        raise EMAPError(
            f"need at least one input per class, got {n_inputs_per_class}"
        )
    fix = fixture or build_fixture()
    exhaustive = ExhaustiveSearch(SearchConfig(), precompute=True)
    algorithm1 = SlidingWindowSearch(SearchConfig(), precompute=True)
    store = ShardedSearchPlane(fix.slices)
    result = SearchQualityResult()

    for index in range(n_inputs_per_class):
        normal = EEGGenerator(seed=seed * 7919 + index).record(2.0)
        frame = filtered_frame(normal, 1)
        result.normal_exhaustive.append(
            exhaustive.search(frame, store).mean_omega
        )
        result.normal_algorithm1.append(
            algorithm1.search(frame, store).mean_omega
        )

    spec = AnomalySpec(kind=AnomalyType.SEIZURE, onset_s=3.0, buildup_s=2.0)
    for index in range(n_inputs_per_class):
        patient = make_anomalous_signal(
            EEGGenerator(seed=seed * 104729 + index), 8.0, spec
        )
        frame = filtered_frame(patient, 5)  # ictal window
        result.anomalous_exhaustive.append(
            exhaustive.search(frame, store).mean_omega
        )
        result.anomalous_algorithm1.append(
            algorithm1.search(frame, store).mean_omega
        )
    return result
