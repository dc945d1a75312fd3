"""Unit tests for the document store's query language: top-level equality."""

import pytest

from repro.errors import QueryError
from repro.storage.store import Collection

DOC = {
    "name": "slice-1",
    "label": "seizure",
    "anomalous": 1,
    "meta": {"dataset": "tuh-eeg", "channel": "Fp1"},
    "start": 2000,
}


def matches(query, indexed=()):
    collection = Collection("one")
    for field in indexed:
        collection.create_index(field)
    collection.insert_one(DOC)
    return collection.count(query) == 1


class TestLiteralEquality:
    def test_match(self):
        assert matches({"label": "seizure"})
        assert matches({"label": "seizure", "anomalous": 1}, indexed=("anomalous",))

    def test_mismatch(self):
        assert not matches({"label": "stroke"})
        assert not matches({"label": "stroke"}, indexed=("label",))
        assert not matches({"label": "seizure", "anomalous": 0})

    def test_missing_field_never_matches(self):
        assert not matches({"nope": 1})
        assert not matches({"nope": None}, indexed=("nope",))

    def test_empty_query_matches_all(self):
        assert matches({})

    def test_dotted_path_not_resolved(self):
        assert not matches({"meta.dataset": "tuh-eeg"})


class TestErrors:
    def test_unknown_operator(self):
        with pytest.raises(QueryError, match="plain equality"):
            matches({"label": {"$regex": ".*"}})
        with pytest.raises(QueryError, match="plain equality"):
            matches({"start": {"$gt": 1999}}, indexed=("start",))

    def test_unknown_top_level(self):
        with pytest.raises(QueryError, match="operator"):
            matches({"$or": [{"label": "seizure"}]})

    def test_non_mapping_query(self):
        with pytest.raises(QueryError, match="mapping"):
            matches(["label"])
