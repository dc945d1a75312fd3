"""Live streaming: EMAP as a push-based monitor.

Feeds a patient's EEG to the :class:`StreamingMonitor` in quarter-second
chunks (the way an amplifier driver would deliver it), prints alerts as
they fire, and closes with the session's frame and cloud-call counts.

Run with::

    python examples/live_streaming.py
"""

from repro.cloud.server import CloudServer
from repro.eval.experiments.common import build_fixture
from repro.runtime.streaming import StreamingMonitor
from repro.signals.anomalies import AnomalySpec, make_anomalous_signal
from repro.signals.generator import EEGGenerator
from repro.signals.types import AnomalyType

CHUNK = 64  # 0.25 s of samples per push


def main() -> None:
    fixture = build_fixture(mdb_scale=0.25, seed=1)
    monitor = StreamingMonitor(CloudServer(fixture.slices))

    patient = make_anomalous_signal(
        EEGGenerator(seed=31),
        70.0,
        AnomalySpec(kind=AnomalyType.SEIZURE, onset_s=60.0, buildup_s=50.0),
    )
    print(f"streaming {patient.duration_s:.0f}s of EEG in {CHUNK}-sample chunks\n")

    alerted_at = None
    for start in range(0, len(patient.data), CHUNK):
        for update in monitor.push(patient.data[start : start + CHUNK]):
            if update.frame_index % 10 == 0:
                print(
                    f"  t={update.time_s:5.1f}s  PA={update.anomaly_probability:.2f}  "
                    f"tracked={update.tracked_count:3d}"
                    + ("  [cloud call]" if update.cloud_call_issued else "")
                )
            if update.anomaly_predicted and alerted_at is None:
                alerted_at = update.time_s
                print(f"  >>> ANOMALY ALERT at t={alerted_at:.1f}s "
                      f"(onset at {patient.onset_time_s:.0f}s)")

    print(f"\n{len(monitor.updates)} frames, {monitor.cloud_calls} cloud calls")


if __name__ == "__main__":
    main()
