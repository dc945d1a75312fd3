"""The embedded document store: named collections with Mongo-style API.

Usage mirrors pymongo closely enough that the MDB layer reads like the
paper's description::

    store = DocumentStore("emap")
    slices = store.collection("signal_sets")
    slices.create_index("label")
    doc_id = slices.insert_one({"label": "seizure", "samples": [...]})
    for doc in slices.find({"label": "seizure"}):
        ...
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping

from repro.errors import DuplicateKeyError, QueryError, StorageError
from repro.storage.documents import ID_FIELD, ObjectId, validate_document
from repro.storage.index import FieldIndex
from repro.storage.matching import matches_filter


def _single_equality_field(query: Mapping[str, Any]) -> tuple[str, Any] | None:
    """If ``query`` contains a plain-equality clause, return (field, value).

    Used to route queries through a field index; any remaining clauses
    are verified per candidate document.
    """
    for field, condition in query.items():
        if field.startswith("$"):
            continue
        if isinstance(condition, Mapping):
            continue
        return field, condition
    return None


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
        """Create (or rebuild) an equality index on a dotted field."""
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

    def insert_many(self, documents: list[Mapping[str, Any]]) -> list[ObjectId]:
        """Insert several documents, returning their ids in order."""
        return [self.insert_one(document) for document in documents]

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

    def update_many(
        self,
        query: Mapping[str, Any],
        update: Mapping[str, Any],
    ) -> int:
        """Apply a ``$set`` / ``$unset`` / ``$inc`` update to all matches.

        Returns the number of documents updated.  The ``_id`` field is
        immutable.  Indexes covering touched fields are maintained.
        """
        operations = dict(update)
        unknown = set(operations) - {"$set", "$unset", "$inc"}
        if unknown:
            raise StorageError(f"unsupported update operators: {sorted(unknown)}")
        if not operations:
            raise StorageError("update document must not be empty")
        touched = 0
        for document in self.find(query):
            doc_id = document[ID_FIELD]
            for field, value in operations.get("$set", {}).items():
                if field == ID_FIELD:
                    raise StorageError(f"{ID_FIELD} is immutable")
                document[field] = value
            for field in operations.get("$unset", {}):
                if field == ID_FIELD:
                    raise StorageError(f"{ID_FIELD} is immutable")
                document.pop(field, None)
            for field, amount in operations.get("$inc", {}).items():
                if field == ID_FIELD:
                    raise StorageError(f"{ID_FIELD} is immutable")
                current = document.get(field, 0)
                if not isinstance(current, (int, float)) or not isinstance(
                    amount, (int, float)
                ):
                    raise StorageError(f"$inc needs numeric values for {field!r}")
                document[field] = current + amount
            for index in self._indexes.values():
                index.remove(doc_id)
                index.add(doc_id, document)
            touched += 1
        if touched:
            self._data_version += 1
        return touched

    def clear(self) -> None:
        """Remove every document (indexes stay defined but empty)."""
        if self._documents:
            self._data_version += 1
        self._documents.clear()
        for index in self._indexes.values():
            index.clear()

    # -- reads -------------------------------------------------------

    def find_by_id(self, doc_id: ObjectId | str) -> dict[str, Any] | None:
        """Fetch one document by id, or ``None``."""
        key = doc_id if isinstance(doc_id, ObjectId) else ObjectId(doc_id)
        return self._documents.get(key)

    def find(
        self,
        query: Mapping[str, Any] | None = None,
        limit: int | None = None,
        sort_key: Callable[[Mapping[str, Any]], Any] | None = None,
        reverse: bool = False,
    ) -> list[dict[str, Any]]:
        """All documents matching ``query`` (insertion order by default)."""
        matches = list(self._iter_matches(query or {}))
        if sort_key is not None:
            matches.sort(key=sort_key, reverse=reverse)
        if limit is not None:
            if limit < 0:
                raise StorageError(f"limit must be non-negative, got {limit}")
            matches = matches[:limit]
        return matches

    def find_one(self, query: Mapping[str, Any] | None = None) -> dict[str, Any] | None:
        """The first matching document, or ``None``."""
        for document in self._iter_matches(query or {}):
            return document
        return None

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
            found, value = _get(document, field)
            if found and value not in seen:
                seen.append(value)
        return seen

    def _iter_matches(self, query: Mapping[str, Any]) -> Iterator[dict[str, Any]]:
        """Yield matching documents, using an index when one applies.

        An empty query yields every document without filtering any.
        """
        if not isinstance(query, Mapping):
            raise QueryError(f"query must be a mapping, got {type(query).__name__}")
        if not query:
            yield from list(self._documents.values())
            return
        candidates: Iterator[dict[str, Any]]
        routed = _single_equality_field(query)
        if routed is not None and routed[0] in self._indexes:
            field, value = routed
            ids = self._indexes[field].lookup(value)
            candidates = (
                self._documents[doc_id]
                for doc_id in self._documents
                if doc_id in ids
            )
        else:
            candidates = iter(list(self._documents.values()))
        for document in candidates:
            if matches_filter(document, query):
                yield document


def _get(document: Mapping[str, Any], field: str) -> tuple[bool, Any]:
    from repro.storage.documents import get_path

    return get_path(document, field)


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

    def drop_collection(self, name: str) -> bool:
        """Delete a collection entirely; returns whether it existed."""
        return self._collections.pop(name, None) is not None

    @property
    def collection_names(self) -> tuple[str, ...]:
        return tuple(self._collections)

    def __contains__(self, name: str) -> bool:
        return name in self._collections
