"""Equality indexes for the embedded document store.

A :class:`FieldIndex` maps each distinct value of one top-level field to
the ids of the documents holding it, in insertion order, accelerating
the exact-equality queries the MDB layer issues constantly
(``{"label": "seizure"}``, ``{"dataset": ...}``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Hashable, Mapping

from repro.errors import StorageError
from repro.storage.documents import ObjectId

#: Sentinel for documents that lack the indexed field.
_MISSING = object()


def _index_key(value: Any) -> Hashable:
    """Reduce a field value to a hashable index key (or raise)."""
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    if isinstance(value, ObjectId):
        return value.value
    raise StorageError(
        f"cannot index unhashable value of type {type(value).__name__}"
    )


class FieldIndex:
    """Equality index over one top-level field."""

    def __init__(self, field: str) -> None:
        if not field or not isinstance(field, str):
            raise StorageError(f"index field must be a non-empty string, got {field!r}")
        self.field = field
        # Each bucket is an insertion-ordered id set (dict keys), so a
        # lookup yields ids in the order their documents were inserted.
        self._by_value: dict[Hashable, dict[ObjectId, None]] = defaultdict(dict)
        self._by_id: dict[ObjectId, Hashable] = {}

    def __len__(self) -> int:
        return len(self._by_id)

    def add(self, doc_id: ObjectId, document: Mapping[str, Any]) -> None:
        """Index one document (no-op key for missing fields)."""
        key = _index_key(document[self.field]) if self.field in document else _MISSING
        self._by_value[key][doc_id] = None
        self._by_id[doc_id] = key

    def remove(self, doc_id: ObjectId) -> None:
        """Drop one document from the index, if present."""
        key = self._by_id.pop(doc_id, None)
        if key is None and doc_id not in self._by_value.get(None, ()):
            return
        bucket = self._by_value.get(key)
        if bucket is not None:
            bucket.pop(doc_id, None)
            if not bucket:
                del self._by_value[key]

    def lookup(self, value: Any) -> list[ObjectId]:
        """Ids of documents whose field equals ``value``, in insertion
        order (copy)."""
        return list(self._by_value.get(_index_key(value), ()))

    def distinct_values(self) -> list[Hashable]:
        """All distinct indexed values (excluding the missing sentinel)."""
        return [key for key in self._by_value if key is not _MISSING]

    def clear(self) -> None:
        self._by_value.clear()
        self._by_id.clear()
