"""Signal substrate: containers, synthesis, filtering, and similarity.

This subpackage implements everything EMAP assumes about EEG signals:

* :mod:`repro.signals.types` — typed containers (:class:`Signal`,
  :class:`SignalSlice`, :class:`Frame`) and the anomaly taxonomy.
* :mod:`repro.signals.generator` — synthetic EEG background synthesis.
* :mod:`repro.signals.anomalies` — seizure / encephalopathy / stroke
  morphology injectors.
* :mod:`repro.signals.artifacts` — blink / EMG / powerline artifacts.
* :mod:`repro.signals.filters` — the paper's 100-tap 11–40 Hz FIR
  bandpass (Eq. 1) as both a one-shot and a streaming filter.
* :mod:`repro.signals.resample` — up-/down-sampling to the 256 Hz base
  rate.
* :mod:`repro.signals.slicing` — slicing records into 1000-sample
  signal-sets.
* :mod:`repro.signals.metrics` — cross-correlation (Eq. 2) and
  area-between-curves (Eq. 3) similarity metrics.
* :mod:`repro.signals.windows` — prefix-sum windowed statistics used to
  normalise sliding windows in O(1).
"""

from repro.signals.anomalies import AnomalySpec, inject_anomaly
from repro.signals.filters import BandpassFilter, FilterSpec, StreamingFIRFilter
from repro.signals.generator import BackgroundSpec, EEGGenerator
from repro.signals.metrics import (
    area_between_curves,
    cross_correlation,
    normalized_cross_correlation,
)
from repro.signals.resample import resample_to
from repro.signals.slicing import slice_signal
from repro.signals.types import (
    ANOMALY_TYPES,
    BASE_SAMPLE_RATE_HZ,
    FRAME_SAMPLES,
    SLICE_SAMPLES,
    AnomalyType,
    Frame,
    Signal,
    SignalSlice,
)

__all__ = [
    "ANOMALY_TYPES",
    "BASE_SAMPLE_RATE_HZ",
    "FRAME_SAMPLES",
    "SLICE_SAMPLES",
    "AnomalyType",
    "AnomalySpec",
    "BackgroundSpec",
    "BandpassFilter",
    "EEGGenerator",
    "FilterSpec",
    "Frame",
    "Signal",
    "SignalSlice",
    "StreamingFIRFilter",
    "area_between_curves",
    "cross_correlation",
    "inject_anomaly",
    "normalized_cross_correlation",
    "resample_to",
    "slice_signal",
]
