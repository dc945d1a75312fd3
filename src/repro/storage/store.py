"""The embedded document store: named collections with a pymongo-like API.

Usage mirrors pymongo closely enough that the MDB layer reads like the
paper's description::

    store = DocumentStore("emap")
    slices = store.collection("signal_sets")
    slices.create_index("label")
    doc_id = slices.insert_one({"label": "seizure", "samples": [...]})
    for doc in slices.find({"label": "seizure"}):
        ...

A query is ``{}`` (every document) or top-level field equalities
(``{"label": "seizure", "dataset": "tuh"}``), which is all the MDB
issues; operators, dotted paths and mapping-valued conditions are
rejected with :class:`QueryError`.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.errors import DuplicateKeyError, QueryError, StorageError
from repro.storage.documents import ID_FIELD, ObjectId, validate_document
from repro.storage.index import FieldIndex


def _check_query(query: Mapping[str, Any]) -> None:
    """Reject anything but top-level field equalities."""
    if not isinstance(query, Mapping):
        raise QueryError(f"query must be a mapping, got {type(query).__name__}")
    for field, value in query.items():
        if not isinstance(field, str) or field.startswith("$"):
            raise QueryError(f"unsupported query operator: {field!r}")
        if isinstance(value, Mapping):
            raise QueryError(
                f"query on {field!r}: only plain equality is supported, got {value!r}"
            )


def _matches(document: Mapping[str, Any], query: Mapping[str, Any]) -> bool:
    """Whether every queried field is present and equal (a missing field never matches)."""
    return all(
        field in document and document[field] == value
        for field, value in query.items()
    )


class Collection:
    """A named set of documents with insert/find/count/delete."""

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise StorageError(f"collection name must be a non-empty string, got {name!r}")
        self.name = name
        self._documents: dict[ObjectId, dict[str, Any]] = {}
        self._indexes: dict[str, FieldIndex] = {}
        self._data_version = 0

    def __len__(self) -> int:
        return len(self._documents)

    @property
    def data_version(self) -> int:
        """Monotonic counter bumped by every mutating operation.

        Readers that materialise the collection (the cloud search
        plane, caches) compare this to decide whether their snapshot
        is stale; equal versions guarantee identical contents.
        """
        return self._data_version

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(list(self._documents.values()))

    # -- indexing ----------------------------------------------------

    def create_index(self, field: str) -> None:
        """Create (or rebuild) an equality index on a top-level field."""
        index = FieldIndex(field)
        for doc_id, document in self._documents.items():
            index.add(doc_id, document)
        self._indexes[field] = index

    @property
    def indexed_fields(self) -> tuple[str, ...]:
        return tuple(self._indexes)

    # -- writes ------------------------------------------------------

    def insert_one(self, document: Mapping[str, Any]) -> ObjectId:
        """Insert a document, assigning an id unless one is provided."""
        stored = validate_document(document)
        raw_id = stored.get(ID_FIELD)
        if raw_id is None:
            doc_id = ObjectId(namespace=self.name)
        elif isinstance(raw_id, ObjectId):
            doc_id = raw_id
        elif isinstance(raw_id, str):
            doc_id = ObjectId(raw_id)
        else:
            raise StorageError(f"{ID_FIELD} must be a string or ObjectId, got {raw_id!r}")
        if doc_id in self._documents:
            raise DuplicateKeyError(f"duplicate {ID_FIELD}: {doc_id}")
        stored[ID_FIELD] = doc_id
        self._documents[doc_id] = stored
        for index in self._indexes.values():
            index.add(doc_id, stored)
        self._data_version += 1
        return doc_id

    def delete_many(self, query: Mapping[str, Any]) -> int:
        """Delete all documents matching ``query``; returns the count."""
        doomed = [doc[ID_FIELD] for doc in self.find(query)]
        for doc_id in doomed:
            del self._documents[doc_id]
            for index in self._indexes.values():
                index.remove(doc_id)
        if doomed:
            self._data_version += 1
        return len(doomed)

    def clear(self) -> None:
        """Remove every document (indexes stay defined but empty)."""
        if self._documents:
            self._data_version += 1
        self._documents.clear()
        for index in self._indexes.values():
            index.clear()

    # -- reads -------------------------------------------------------

    def find(
        self,
        query: Mapping[str, Any] | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """All documents matching ``query``, in insertion order."""
        matches = list(self._iter_matches(query or {}))
        if limit is not None:
            if limit < 0:
                raise StorageError(f"limit must be non-negative, got {limit}")
            matches = matches[:limit]
        return matches

    def count(self, query: Mapping[str, Any] | None = None) -> int:
        """Number of documents matching ``query``."""
        if not query:
            return len(self._documents)
        return sum(1 for _ in self._iter_matches(query))

    def distinct(self, field: str) -> list[Any]:
        """Distinct values of ``field`` across the collection."""
        index = self._indexes.get(field)
        if index is not None:
            return index.distinct_values()
        seen: list[Any] = []
        for document in self._documents.values():
            if field in document and document[field] not in seen:
                seen.append(document[field])
        return seen

    def _iter_matches(self, query: Mapping[str, Any]) -> Iterator[dict[str, Any]]:
        """Yield matching documents, using an index when one applies.

        An empty query yields every document without filtering any.
        """
        _check_query(query)
        if not query:
            yield from list(self._documents.values())
            return
        candidates: Iterator[dict[str, Any]]
        indexed = next((field for field in query if field in self._indexes), None)
        if indexed is not None:
            # The index keeps each value's ids in insertion order, so
            # only the ids it returns are visited.
            candidates = (
                self._documents[doc_id]
                for doc_id in self._indexes[indexed].lookup(query[indexed])
            )
        else:
            candidates = iter(list(self._documents.values()))
        for document in candidates:
            if _matches(document, query):
                yield document


class DocumentStore:
    """A named group of collections (the Mongo "database")."""

    def __init__(self, name: str = "emap") -> None:
        if not name or not isinstance(name, str):
            raise StorageError(f"store name must be a non-empty string, got {name!r}")
        self.name = name
        self._collections: dict[str, Collection] = {}

    def collection(self, name: str) -> Collection:
        """Get (creating on first use) the named collection."""
        if name not in self._collections:
            self._collections[name] = Collection(name)
        return self._collections[name]

    @property
    def collection_names(self) -> tuple[str, ...]:
        return tuple(self._collections)

    def __contains__(self, name: str) -> bool:
        return name in self._collections
