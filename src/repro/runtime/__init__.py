"""Runtime: the closed loop, its event log and the Eq. 4 timing model.

* :mod:`repro.runtime.events` — the event log behind the Fig. 9
  timeline.
* :mod:`repro.runtime.timing` — Eq. 4's Δinitial decomposition and the
  calibrated device cost model.
* :mod:`repro.runtime.streaming` — :class:`StreamingMonitor`, the one
  closed loop: acquisition → cloud search → edge tracking → prediction,
  one frame at a time, with a cloud result landing at its Eq. 4 instant.
* :mod:`repro.runtime.framework` — :class:`EMAPFramework`, which drives
  that loop over a whole recording and builds the session result and
  the Fig. 9 event log.
"""

from repro.runtime.events import Event, EventKind, EventLog
from repro.runtime.framework import EMAPFramework, MonitoringResult
from repro.runtime.streaming import FrameworkConfig, MonitorUpdate, StreamingMonitor
from repro.runtime.timing import DeviceCostModel, TimingBreakdown, TimingModel

__all__ = [
    "DeviceCostModel",
    "EMAPFramework",
    "Event",
    "EventKind",
    "EventLog",
    "FrameworkConfig",
    "MonitorUpdate",
    "MonitoringResult",
    "StreamingMonitor",
    "TimingBreakdown",
    "TimingModel",
]
