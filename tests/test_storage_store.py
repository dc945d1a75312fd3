"""Unit tests for the embedded document store."""

import pytest

from repro.errors import DuplicateKeyError, QueryError, StorageError
from repro.storage import store as store_module
from repro.storage.documents import ObjectId
from repro.storage.store import Collection, DocumentStore


@pytest.fixture
def people() -> Collection:
    collection = Collection("people")
    collection.insert_many(
        [
            {"name": "ada", "age": 36, "role": "engineer"},
            {"name": "grace", "age": 45, "role": "admiral"},
            {"name": "alan", "age": 41, "role": "engineer"},
        ]
    )
    return collection


class TestCollectionBasics:
    def test_insert_assigns_ids(self, people):
        assert len(people) == 3
        for document in people:
            assert isinstance(document["_id"], ObjectId)

    def test_insert_with_explicit_id(self):
        collection = Collection("c")
        doc_id = collection.insert_one({"_id": "fixed", "x": 1})
        assert doc_id == "fixed"
        assert collection.find_by_id("fixed")["x"] == 1

    def test_duplicate_id_rejected(self):
        collection = Collection("c")
        collection.insert_one({"_id": "dup"})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"_id": "dup"})

    def test_rejects_dollar_keys(self):
        with pytest.raises(StorageError, match=r"\$"):
            Collection("c").insert_one({"$bad": 1})

    def test_rejects_non_mapping(self):
        with pytest.raises(StorageError, match="mapping"):
            Collection("c").insert_one([1, 2])  # type: ignore[arg-type]

    def test_rejects_empty_name(self):
        with pytest.raises(StorageError, match="name"):
            Collection("")


class TestQueries:
    def test_find_all(self, people):
        assert len(people.find()) == 3

    def test_equality_filter(self, people):
        engineers = people.find({"role": "engineer"})
        assert {d["name"] for d in engineers} == {"ada", "alan"}

    def test_operator_filter(self, people):
        over_40 = people.find({"age": {"$gte": 41}})
        assert {d["name"] for d in over_40} == {"grace", "alan"}

    def test_find_one(self, people):
        assert people.find_one({"name": "ada"})["age"] == 36
        assert people.find_one({"name": "nobody"}) is None

    def test_count(self, people):
        assert people.count() == 3
        assert people.count({"role": "engineer"}) == 2

    def test_empty_query_filters_no_document(self, people, monkeypatch):
        def forbidden(document, query):
            raise AssertionError("an empty query must not filter documents")

        monkeypatch.setattr(store_module, "matches_filter", forbidden)
        assert [d["name"] for d in people.find({})] == ["ada", "grace", "alan"]
        assert people.find_one()["name"] == "ada"

    def test_non_mapping_query_rejected(self, people):
        with pytest.raises(QueryError, match="mapping"):
            people.find([("role", "engineer")])  # type: ignore[arg-type]
        with pytest.raises(QueryError, match="mapping"):
            Collection("empty").find_one("role")  # type: ignore[arg-type]

    def test_limit_and_sort(self, people):
        youngest = people.find(sort_key=lambda d: d["age"], limit=1)
        assert youngest[0]["name"] == "ada"
        oldest_first = people.find(sort_key=lambda d: d["age"], reverse=True)
        assert oldest_first[0]["name"] == "grace"

    def test_negative_limit_rejected(self, people):
        with pytest.raises(StorageError, match="limit"):
            people.find(limit=-1)

    def test_distinct(self, people):
        assert set(people.distinct("role")) == {"engineer", "admiral"}


class TestIndexedQueries:
    def test_index_returns_same_results(self, people):
        unindexed = {d["name"] for d in people.find({"role": "engineer"})}
        people.create_index("role")
        indexed = {d["name"] for d in people.find({"role": "engineer"})}
        assert indexed == unindexed

    def test_index_tracks_inserts_and_deletes(self, people):
        people.create_index("role")
        people.insert_one({"name": "edsger", "role": "engineer"})
        assert people.count({"role": "engineer"}) == 3
        people.delete_many({"name": "ada"})
        assert people.count({"role": "engineer"}) == 2

    def test_indexed_fields_listed(self, people):
        people.create_index("role")
        assert people.indexed_fields == ("role",)

    def test_compound_query_with_index(self, people):
        people.create_index("role")
        result = people.find({"role": "engineer", "age": {"$gt": 40}})
        assert [d["name"] for d in result] == ["alan"]


class TestDeleteAndClear:
    def test_delete_many(self, people):
        deleted = people.delete_many({"role": "engineer"})
        assert deleted == 2
        assert len(people) == 1

    def test_clear(self, people):
        people.create_index("role")
        people.clear()
        assert len(people) == 0
        assert people.indexed_fields == ("role",)
        assert people.find({"role": "engineer"}) == []


class TestDocumentStore:
    def test_collections_created_on_demand(self):
        store = DocumentStore("db")
        collection = store.collection("one")
        assert store.collection("one") is collection
        assert "one" in store
        assert store.collection_names == ("one",)

    def test_drop_collection(self):
        store = DocumentStore("db")
        store.collection("gone")
        assert store.drop_collection("gone")
        assert not store.drop_collection("gone")

    def test_rejects_empty_name(self):
        with pytest.raises(StorageError, match="name"):
            DocumentStore("")
