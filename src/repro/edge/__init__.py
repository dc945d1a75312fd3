"""Edge stages: signal acquisition (§V-A) and real-time tracking (§V-C).

* :mod:`repro.edge.acquisition` — sampling, streaming bandpass
  filtering and framing of the patient's EEG.
* :mod:`repro.edge.tracker` — Algorithm 2: area-between-curves signal
  tracking over the downloaded correlation set (scalar reference
  engine plus the engine seam).
* :mod:`repro.edge.plane` — a slice's frame-invariant comparison
  windows, compiled once.
* :mod:`repro.edge.fleet` — the compiled engine: many concurrent
  sessions stepped in one kernel call, compiled slices deduplicated
  across sessions by slice id; a one-session fleet backs
  ``TrackerConfig(engine="plane")`` (bit-identical to the scalar
  engine).
* :mod:`repro.edge.predictor` — anomaly-probability trend analysis and
  the anomaly / normal decision.
* :mod:`repro.edge.device` — the edge device facade combining all three
  with the cloud-call policy.
"""

from repro.edge.acquisition import SignalAcquisition
from repro.edge.device import CloudCallPolicy, EdgeDevice
from repro.edge.energy import EdgeEnergyModel, EnergySpec, SessionEnergy
from repro.edge.fleet import FleetTracker, FleetTrackingEngine
from repro.edge.plane import compile_slice_windows
from repro.edge.predictor import AnomalyPredictor, PredictorConfig, ProbabilityTrace
from repro.edge.tracker import (
    ScalarTrackingEngine,
    SignalTracker,
    TrackedSignal,
    TrackerConfig,
    TrackingEngine,
    TrackingStep,
)

__all__ = [
    "AnomalyPredictor",
    "CloudCallPolicy",
    "EdgeDevice",
    "EdgeEnergyModel",
    "EnergySpec",
    "FleetTracker",
    "FleetTrackingEngine",
    "PredictorConfig",
    "ProbabilityTrace",
    "ScalarTrackingEngine",
    "SessionEnergy",
    "SignalAcquisition",
    "SignalTracker",
    "TrackedSignal",
    "TrackerConfig",
    "TrackingEngine",
    "TrackingStep",
    "compile_slice_windows",
]
