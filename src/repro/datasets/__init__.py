"""Dataset substrate: synthetic stand-ins for the paper's five corpora.

The paper's mega-database combines five open-access EEG corpora
(PhysioNet [21], TUH EEG [22], UCI/Bonn [23], BNCI Horizon [24],
Zwoliński [25]).  Those cannot ship offline, so each is replaced by a
parameterised synthetic corpus with the source's distinguishing
characteristics — native sampling rate, record length, channel montage
and anomaly mix — driving the ingest path
(record → resample → bandpass → slice → label → MDB).
"""

from repro.datasets.base import CorpusSpec, SyntheticCorpus
from repro.datasets.registry import (
    CorpusRegistry,
    default_registry,
    scaled_registry,
)

__all__ = [
    "CorpusRegistry",
    "CorpusSpec",
    "SyntheticCorpus",
    "default_registry",
    "scaled_registry",
]
