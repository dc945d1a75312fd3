"""Extension experiment: detection vs anomaly expression strength.

The paper evaluates fully-expressed anomalies only; a deployment
question it leaves open is how *weak* an anomaly can be and still be
caught.  This experiment sweeps the transient peak amplitude of
whole-record anomalies (effectively the anomaly-to-background SNR) and
measures the framework's detection rate and the peak anomaly
probability — yielding the sensitivity curve and the knee where the
cross-correlation pipeline loses the class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.search import SearchConfig, SlidingWindowSearch
from repro.cloud.server import CloudServer
from repro.errors import EMAPError
from repro.eval.experiments.common import (
    ExperimentFixture,
    build_fixture,
    sustained_prediction_iteration,
)
from repro.eval.reporting import format_series
from repro.runtime.framework import EMAPFramework, FrameworkConfig
from repro.signals.anomalies import AnomalySpec, make_anomalous_signal
from repro.signals.generator import BackgroundSpec, EEGGenerator
from repro.signals.types import AnomalyType

#: Transient peak amplitudes swept, in µV (background RMS is ~30 µV).
DEFAULT_AMPLITUDES_UV = (40.0, 80.0, 120.0, 210.0)


@dataclass
class SensitivityResult:
    """Detection statistics per anomaly expression level."""

    amplitudes_uv: list[float] = field(default_factory=list)
    detection_rate: list[float] = field(default_factory=list)
    mean_peak_probability: list[float] = field(default_factory=list)

    def knee_uv(self, level: float = 0.5) -> float | None:
        """Smallest swept amplitude with detection rate ≥ ``level``."""
        for amplitude, rate in zip(self.amplitudes_uv, self.detection_rate):
            if rate >= level:
                return amplitude
        return None

    def report(self) -> str:
        body = format_series(
            "amplitude_uv",
            self.amplitudes_uv,
            {
                "detection_rate": self.detection_rate,
                "mean_peak_PA": self.mean_peak_probability,
            },
            precision=2,
            title="Sensitivity — detection vs anomaly expression strength",
        )
        knee = self.knee_uv()
        suffix = (
            f"\n50% detection knee: {knee:.0f} µV (background RMS ~30 µV)"
            if knee is not None
            else "\n50% detection knee: not reached in sweep"
        )
        return body + suffix


def run(
    fixture: ExperimentFixture | None = None,
    amplitudes_uv: tuple[float, ...] = DEFAULT_AMPLITUDES_UV,
    kind: AnomalyType = AnomalyType.ENCEPHALOPATHY,
    n_inputs: int = 4,
    duration_s: float = 40.0,
    seed: int = 0,
) -> SensitivityResult:
    """Sweep anomaly amplitude; monitor ``n_inputs`` patients per level."""
    if not amplitudes_uv:
        raise EMAPError("need at least one amplitude")
    if not kind.is_anomalous:
        raise EMAPError("sensitivity sweep needs an anomalous kind")
    if n_inputs < 1:
        raise EMAPError(f"need at least one input, got {n_inputs}")
    fix = fixture or build_fixture()
    cloud = CloudServer(fix.slices, search=SlidingWindowSearch(SearchConfig()))
    framework = EMAPFramework(cloud, FrameworkConfig())

    result = SensitivityResult()
    for amplitude in amplitudes_uv:
        detections: list[bool] = []
        peaks: list[float] = []
        for index in range(n_inputs):
            generator = EEGGenerator(
                BackgroundSpec(), seed=seed * 1009 + index * 31 + int(amplitude)
            )
            patient = make_anomalous_signal(
                generator,
                duration_s,
                AnomalySpec(kind=kind, peak_amplitude_uv=amplitude),
            )
            session = framework.run(patient)
            detections.append(
                sustained_prediction_iteration(session.predictions) is not None
            )
            peaks.append(session.peak_probability)
        result.amplitudes_uv.append(amplitude)
        result.detection_rate.append(float(np.mean(detections)))
        result.mean_peak_probability.append(float(np.mean(peaks)))
    return result
