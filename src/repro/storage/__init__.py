"""Embedded document store substrate (MongoDB/pymongo stand-in).

The paper stores the mega-database in MongoDB via pymongo.  This
subpackage provides the same interaction surface as an in-process
library: named collections of JSON-like documents with auto-assigned
ids, top-level equality queries, optional field indexes, and JSON-lines
persistence.

Public API:

* :class:`~repro.storage.store.DocumentStore` — a named set of
  collections.
* :class:`~repro.storage.store.Collection` — insert / find / count /
  delete by top-level field equality.
* :class:`~repro.storage.documents.ObjectId` — deterministic unique ids.
"""

from repro.storage.documents import ObjectId
from repro.storage.store import Collection, DocumentStore

__all__ = ["Collection", "DocumentStore", "ObjectId"]
