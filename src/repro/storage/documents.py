"""Document identity and validation for the embedded store."""

from __future__ import annotations

import itertools
import threading
from typing import Any, Mapping

from repro.errors import StorageError

#: Field under which every stored document carries its id.
ID_FIELD = "_id"

_counter = itertools.count(1)
_counter_lock = threading.Lock()


class ObjectId:
    """A unique, orderable, hashable document id.

    Ids combine a process-wide monotonic counter with an optional
    namespace, giving deterministic, human-readable ids such as
    ``mdb:42`` — sufficient for an in-process store (no distributed
    clock bits needed, unlike BSON ObjectIds).
    """

    __slots__ = ("_value",)

    def __init__(self, value: str | None = None, namespace: str = "doc") -> None:
        if value is not None:
            if not isinstance(value, str) or not value:
                raise StorageError(f"ObjectId value must be a non-empty string, got {value!r}")
            self._value = value
        else:
            with _counter_lock:
                serial = next(_counter)
            self._value = f"{namespace}:{serial}"

    @property
    def value(self) -> str:
        return self._value

    def __str__(self) -> str:
        return self._value

    def __repr__(self) -> str:
        return f"ObjectId({self._value!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ObjectId):
            return self._value == other._value
        if isinstance(other, str):
            return self._value == other
        return NotImplemented

    def __lt__(self, other: "ObjectId") -> bool:
        if not isinstance(other, ObjectId):
            return NotImplemented
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(self._value)


def validate_document(document: Mapping[str, Any]) -> dict[str, Any]:
    """Validate and shallow-copy a document before insertion.

    Documents must be string-keyed mappings.  Values are stored as-is
    (the MDB layer stores numpy arrays as lists for persistence).
    """
    if not isinstance(document, Mapping):
        raise StorageError(
            f"document must be a mapping, got {type(document).__name__}"
        )
    for key in document:
        if not isinstance(key, str):
            raise StorageError(f"document keys must be strings, got {key!r}")
        if key.startswith("$"):
            raise StorageError(f"document keys must not start with '$': {key!r}")
    return dict(document)
