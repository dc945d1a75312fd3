"""The MegaDatabase facade over the embedded document store.

Provides typed access to signal-set documents: label-filtered queries,
random subsets for the scaling experiments (Fig. 7b), statistics, and
save/load via the store's JSON-lines persistence.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from repro.errors import MDBError
from repro.mdb.schema import SLICE_COLLECTION, slice_from_document
from repro.signals.types import AnomalyType, SignalSlice
from repro.storage.documents import ID_FIELD
from repro.storage.persistence import load_store, save_store
from repro.storage.store import Collection, DocumentStore


class MegaDatabase:
    """Labelled signal-sets, backed by a :class:`DocumentStore`."""

    def __init__(self, store: DocumentStore | None = None) -> None:
        self.store = store or DocumentStore("emap")
        collection = self.store.collection(SLICE_COLLECTION)
        for fieldname in ("label", "dataset", "anomalous"):
            if fieldname not in collection.indexed_fields:
                collection.create_index(fieldname)
        # Decoded signal-sets by document id, valid while the collection
        # is at ``_decoded_version``: inserts through this facade keep
        # it valid (documents are immutable once inserted), any other
        # write moves the version and drops it.
        self._decoded: dict[Any, SignalSlice] = {}
        self._decoded_version = collection.data_version

    @property
    def _slices(self) -> Collection:
        return self.store.collection(SLICE_COLLECTION)

    def __len__(self) -> int:
        return len(self._slices)

    @property
    def generation(self) -> int:
        """Monotonic data version of the signal-set collection.

        Bumped by every insert/update/delete/clear; the cloud tier's
        compiled search plane (and ``CloudServer.refresh``) compare it
        to decide when their materialised snapshot is stale.
        """
        return self._slices.data_version

    # -- writes ------------------------------------------------------

    def insert_document(self, document: Mapping[str, Any]) -> None:
        """Insert a prepared slice document (see :mod:`repro.mdb.schema`)."""
        samples = document.get("samples")
        if samples is None or np.asarray(samples).ndim != 1:
            raise MDBError("slice document must carry a 1-D 'samples' array")
        in_sync = self._decoded_version == self._slices.data_version
        self._slices.insert_one(document)
        if in_sync:
            self._decoded_version = self._slices.data_version

    def clear(self) -> None:
        """Remove every signal-set."""
        self._slices.clear()

    # -- reads -------------------------------------------------------

    def slices(
        self,
        label: AnomalyType | None = None,
        dataset: str | None = None,
        limit: int | None = None,
    ) -> Iterator[SignalSlice]:
        """Iterate signal-sets, optionally filtered by label or dataset.

        Each document is decoded once and the slice reused by later
        calls, so a compiled plane refreshing after an insert pays only
        for the new documents.
        """
        query: dict[str, Any] = {}
        if label is not None:
            query["label"] = label.value
        if dataset is not None:
            query["dataset"] = dataset
        collection = self._slices
        if self._decoded_version != collection.data_version:
            self._decoded.clear()
            self._decoded_version = collection.data_version
        for document in collection.find(query, limit=limit):
            key = document[ID_FIELD]
            sig_slice = self._decoded.get(key)
            if sig_slice is None:
                sig_slice = self._decoded[key] = slice_from_document(document)
            yield sig_slice

    def subset(self, n_slices: int, seed: int = 0) -> list[SignalSlice]:
        """A deterministic random subset of ``n_slices`` signal-sets.

        Used by the Fig. 7(b) scaling experiment to search databases of
        controlled size.  Sampling is without replacement when the MDB
        is large enough, otherwise the full set is cycled.
        """
        if n_slices <= 0:
            raise MDBError(f"subset size must be positive, got {n_slices}")
        all_slices = list(self.slices())
        if not all_slices:
            raise MDBError("cannot subset an empty mega-database")
        rng = np.random.default_rng(seed)
        if n_slices <= len(all_slices):
            picks = rng.choice(len(all_slices), size=n_slices, replace=False)
        else:
            picks = rng.choice(len(all_slices), size=n_slices, replace=True)
        return [all_slices[i] for i in picks]

    def count(self, label: AnomalyType | None = None) -> int:
        """Number of signal-sets, optionally for one label."""
        if label is None:
            return len(self._slices)
        return self._slices.count({"label": label.value})

    def anomalous_fraction(self) -> float:
        """Fraction of signal-sets with ``A(S) = 1``."""
        total = len(self._slices)
        if total == 0:
            raise MDBError("mega-database is empty")
        return self._slices.count({"anomalous": 1}) / total

    def label_counts(self) -> dict[str, int]:
        """Signal-set count per anomaly label value."""
        return {
            str(value): self._slices.count({"label": value})
            for value in self._slices.distinct("label")
        }

    def datasets(self) -> list[str]:
        """Names of the source datasets present."""
        return sorted(str(value) for value in self._slices.distinct("dataset"))

    # -- persistence ---------------------------------------------------

    def save(self, directory: str | Path) -> Path:
        """Persist to a directory of JSON-lines files."""
        return save_store(self.store, directory)

    @classmethod
    def load(cls, directory: str | Path) -> "MegaDatabase":
        """Load an MDB previously written by :meth:`save`."""
        return cls(store=load_store(directory))
