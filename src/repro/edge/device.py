"""The edge device's cloud-call policy.

Decides *when* the edge transmits a frame to the cloud: whenever the
tracked set thins below the signal tracking threshold ``H``
(Algorithm 2 lines 11–13), and as a safety net every
``refresh_interval`` iterations (the paper transmits "every five
iterations", Section V-C / Fig. 9).  The closed loop
(:class:`~repro.runtime.streaming.StreamingMonitor`) asks it once per
tracked frame.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TrackingError


@dataclass(frozen=True)
class CloudCallPolicy:
    """When the edge re-transmits to the cloud.

    ``tracking_threshold`` is the paper's ``H``; ``refresh_interval``
    the five-iteration refresh of Fig. 9.  Either trigger requests a
    background cloud call (tracking continues on the old set while the
    search is in flight).
    """

    tracking_threshold: int = 20
    refresh_interval: int = 5

    def __post_init__(self) -> None:
        if self.tracking_threshold < 0:
            raise TrackingError(
                f"tracking threshold must be non-negative, got {self.tracking_threshold}"
            )
        if self.refresh_interval < 1:
            raise TrackingError(
                f"refresh interval must be >= 1, got {self.refresh_interval}"
            )

    def should_call(self, tracked_count: int, iterations_since_refresh: int) -> bool:
        """Whether to transmit the current frame to the cloud."""
        if tracked_count < self.tracking_threshold:
            return True
        return iterations_since_refresh >= self.refresh_interval
