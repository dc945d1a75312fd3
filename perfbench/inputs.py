"""Seeded input synthesis: everything the system under test receives.

Every input is made here from the workload seed, before any timer
starts, so the program only ever sees generated recordings and frames
and two runs with one seed do identical work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.registry import scaled_registry
from repro.signals.filters import BandpassFilter
from repro.signals.generator import EEGGenerator
from repro.signals.types import FRAME_SAMPLES, Signal

#: Corpus scale of the MDB every workload serves (about 400 slices).
MDB_SCALE = 0.3
#: Length of each session's recording; longer runs wrap around.
SESSION_SECONDS = 64.0


@dataclass
class Session:
    """One simulated patient: consecutive filtered one-second frames."""

    frames: list[np.ndarray]
    phase_s: float

    def frame(self, index: int) -> np.ndarray:
        """The ``index``-th frame, wrapping around the recording."""
        return self.frames[index % len(self.frames)]


def mdb_records(seed: int) -> list[Signal]:
    """Raw records of the five corpora the MDB is built from."""
    registry = scaled_registry(scale=MDB_SCALE, seed=seed, with_artifacts=False)
    return [record for corpus in registry for record in corpus.records()]


def _filtered_frames(record: Signal) -> list[np.ndarray]:
    """The recording as the edge acquisition stage emits it."""
    filtered = BandpassFilter().apply(record.data)
    n_frames = filtered.size // FRAME_SAMPLES
    return [
        np.ascontiguousarray(filtered[i * FRAME_SAMPLES : (i + 1) * FRAME_SAMPLES])
        for i in range(n_frames)
    ]


def sessions(seed: int, count: int, duration_s: float = SESSION_SECONDS) -> list[Session]:
    """``count`` patients, each streaming its own seeded background EEG.

    Start phases sit on a jittered grid over one frame period, so every
    seed spreads the same number of frames over each second.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    return [
        Session(
            frames=_filtered_frames(
                EEGGenerator(seed=int(rng.integers(2**32))).record(duration_s)
            ),
            phase_s=(index + float(rng.uniform())) / count,
        )
        for index in range(count)
    ]


def insert_records(seed: int, count: int, duration_s: float) -> list[Signal]:
    """Raw recordings the ``ingest`` workload adds to the MDB."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    generator = EEGGenerator(seed=int(rng.integers(2**32)))
    return [
        generator.record(duration_s, source=f"ingest/rec{index:05d}")
        for index in range(count)
    ]
