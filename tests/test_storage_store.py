"""Unit tests for the embedded document store."""

import time

import pytest

from repro.errors import DuplicateKeyError, QueryError, StorageError
from repro.storage import store as store_module
from repro.storage.documents import ObjectId
from repro.storage.persistence import load_store, save_store
from repro.storage.store import Collection, DocumentStore

@pytest.fixture
def people() -> Collection:
    collection = Collection("people")
    for document in (
        {"name": "ada", "age": 36, "role": "engineer"},
        {"name": "grace", "age": 45, "role": "admiral"},
        {"name": "alan", "age": 41, "role": "engineer"},
    ):
        collection.insert_one(document)
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
        assert collection.find({"_id": "fixed"})[0]["x"] == 1

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
        with pytest.raises(QueryError, match="plain equality"):
            people.find({"age": {"$gte": 41}})
        with pytest.raises(QueryError, match="operator"):
            people.count({"$or": [{"role": "engineer"}]})

    def test_count(self, people):
        assert people.count() == 3
        assert people.count({"role": "engineer"}) == 2

    def test_empty_query_filters_no_document(self, people, monkeypatch):
        def forbidden(document, query):
            raise AssertionError("an empty query must not filter documents")

        monkeypatch.setattr(store_module, "_matches", forbidden)
        assert [d["name"] for d in people.find({})] == ["ada", "grace", "alan"]
        assert [d["name"] for d in people.find()] == ["ada", "grace", "alan"]

    def test_non_mapping_query_rejected(self, people):
        with pytest.raises(QueryError, match="mapping"):
            people.find([("role", "engineer")])  # type: ignore[arg-type]
        with pytest.raises(QueryError, match="mapping"):
            Collection("empty").count("role")  # type: ignore[arg-type]

    def test_limit(self, people):
        assert [d["name"] for d in people.find(limit=2)] == ["ada", "grace"]
        assert people.find({"role": "engineer"}, limit=0) == []

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
        result = people.find({"role": "engineer", "age": 41})
        assert [d["name"] for d in result] == ["alan"]
        assert people.find({"age": 41, "role": "admiral"}) == []

    def test_indexed_find_keeps_insertion_order(self, tmp_path):
        """An indexed query returns what a full scan returns, in the same
        order, after deletes, a re-insert and a save and load."""
        store = DocumentStore("ordered")
        collection = store.collection("order")
        collection.create_index("label")
        for i in range(40):
            collection.insert_one({"_id": f"d{i:02d}", "label": "ab"[i % 3 == 0]})
        collection.delete_many({"_id": "d03"})
        collection.delete_many({"_id": "d10"})
        collection.insert_one({"_id": "d03", "label": "b"})

        def scan(source: Collection) -> list[str]:
            return [d["_id"].value for d in source.find() if d["label"] == "b"]

        expected = scan(collection)
        assert expected[-1] == "d03" and "d10" not in expected
        assert [d["_id"].value for d in collection.find({"label": "b"})] == expected
        save_store(store, tmp_path)
        loaded = load_store(tmp_path).collection("order")
        assert [d["_id"].value for d in loaded.find({"label": "b"})] == expected
        assert scan(loaded) == expected

    def test_indexed_count_visits_only_the_matches(self):
        """Counting a rare label costs less than listing the collection:
        the query walks the index's ids, not every document."""
        collection = Collection("large")
        collection.create_index("label")
        for i in range(20_000):
            collection.insert_one({"label": "rare" if i % 2000 == 0 else "common"})

        def fastest(call) -> float:
            best = float("inf")
            for _ in range(5):
                started = time.perf_counter()
                call()
                best = min(best, time.perf_counter() - started)
            return best

        assert collection.count({"label": "rare"}) == 10
        assert fastest(lambda: collection.count({"label": "rare"})) < fastest(
            lambda: collection.find({})
        )


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

    def test_rejects_empty_name(self):
        with pytest.raises(StorageError, match="name"):
            DocumentStore("")
