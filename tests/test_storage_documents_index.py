"""Unit tests for document identity and field indexes."""

import pytest

from repro.errors import StorageError
from repro.storage.documents import ObjectId, validate_document
from repro.storage.index import FieldIndex


class TestObjectId:
    def test_auto_ids_unique(self):
        ids = {ObjectId(namespace="t").value for _ in range(100)}
        assert len(ids) == 100

    def test_namespace_prefix(self):
        assert ObjectId(namespace="mdb").value.startswith("mdb:")

    def test_equality_with_string(self):
        oid = ObjectId("fixed")
        assert oid == "fixed"
        assert oid == ObjectId("fixed")
        assert oid != ObjectId("other")

    def test_hashable(self):
        assert len({ObjectId("a"), ObjectId("a"), ObjectId("b")}) == 2

    def test_orderable(self):
        assert ObjectId("a") < ObjectId("b")

    def test_rejects_empty_value(self):
        with pytest.raises(StorageError, match="non-empty"):
            ObjectId("")


class TestValidateDocument:
    def test_shallow_copy(self):
        original = {"a": 1}
        copy = validate_document(original)
        copy["a"] = 2
        assert original["a"] == 1

    def test_rejects_non_string_keys(self):
        with pytest.raises(StorageError, match="strings"):
            validate_document({1: "x"})


class TestFieldIndex:
    def test_lookup(self):
        index = FieldIndex("label")
        ids = [ObjectId(f"id{i}") for i in range(4)]
        labels = ["x", "y", "x", "z"]
        for doc_id, label in zip(ids, labels):
            index.add(doc_id, {"label": label})
        assert index.lookup("x") == [ids[0], ids[2]]
        assert index.lookup("missing") == []

    def test_remove(self):
        index = FieldIndex("label")
        oid = ObjectId("one")
        index.add(oid, {"label": "x"})
        index.remove(oid)
        assert index.lookup("x") == []
        index.remove(oid)  # idempotent

    def test_missing_field_documents_not_in_distinct(self):
        index = FieldIndex("label")
        index.add(ObjectId("a"), {"label": "x"})
        index.add(ObjectId("b"), {"other": 1})
        assert index.distinct_values() == ["x"]

    def test_rejects_unhashable_value(self):
        index = FieldIndex("v")
        with pytest.raises(StorageError, match="unhashable"):
            index.add(ObjectId("a"), {"v": [1, 2]})

    def test_rejects_empty_field(self):
        with pytest.raises(StorageError, match="field"):
            FieldIndex("")
