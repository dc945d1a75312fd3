"""Edge stages: real-time tracking (§V-C), prediction and the call policy.

Signal acquisition (§V-A: streaming bandpass filtering and framing) runs
in the closed loop itself, :class:`repro.runtime.StreamingMonitor`.

* :mod:`repro.edge.tracker` — Algorithm 2: area-between-curves signal
  tracking over the downloaded correlation set (the scalar reference
  tracker and the shared config and step types).
* :mod:`repro.edge.plane` — a slice's frame-invariant comparison
  windows, compiled once.
* :mod:`repro.edge.fleet` — the one production tracker: many
  concurrent sessions (or the streaming monitor's one) stepped in one
  kernel call, compiled slices deduplicated across sessions by slice
  id (bit-identical to the scalar reference).
* :mod:`repro.edge.predictor` — anomaly-probability trend analysis and
  the anomaly / normal decision.
* :mod:`repro.edge.device` — the cloud-call policy (when the edge
  re-transmits a frame).
"""

from repro.edge.device import CloudCallPolicy
from repro.edge.fleet import FleetTracker
from repro.edge.plane import compile_slice_windows
from repro.edge.predictor import AnomalyPredictor, PredictorConfig, ProbabilityTrace
from repro.edge.tracker import (
    SignalTracker,
    TrackedSignal,
    TrackerConfig,
    TrackingStep,
)

__all__ = [
    "AnomalyPredictor",
    "CloudCallPolicy",
    "FleetTracker",
    "PredictorConfig",
    "ProbabilityTrace",
    "SignalTracker",
    "TrackedSignal",
    "TrackerConfig",
    "TrackingStep",
    "compile_slice_windows",
]
