"""Unit tests for JSON-lines store persistence."""

import json

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.documents import ObjectId
from repro.storage.persistence import load_store, save_store
from repro.storage.store import DocumentStore


def build_store() -> DocumentStore:
    store = DocumentStore("unit")
    signals = store.collection("signals")
    signals.create_index("label")
    signals.insert_one(
        {
            "label": "seizure",
            "samples": np.array([1.5, -2.25, 3.0]),
            "meta": {"dataset": "tuh", "nested": [1, 2]},
        }
    )
    signals.insert_one({"label": "none", "samples": np.zeros(4)})
    store.collection("other").insert_one({"k": "v"})
    return store


class TestRoundTrip:
    def test_documents_survive(self, tmp_path):
        store = build_store()
        save_store(store, tmp_path / "db")
        loaded = load_store(tmp_path / "db")
        assert set(loaded.collection_names) == {"signals", "other"}
        signals = loaded.collection("signals")
        assert len(signals) == 2
        (doc,) = signals.find({"label": "seizure"})
        assert isinstance(doc["samples"], np.ndarray)
        assert np.allclose(doc["samples"], [1.5, -2.25, 3.0])
        assert doc["meta"]["nested"] == [1, 2]

    def test_ids_preserved(self, tmp_path):
        store = build_store()
        original_id = store.collection("other").find()[0]["_id"]
        save_store(store, tmp_path / "db")
        loaded = load_store(tmp_path / "db")
        reloaded = loaded.collection("other").find()[0]
        assert isinstance(reloaded["_id"], ObjectId)
        assert reloaded["_id"] == original_id

    def test_indexes_rebuilt(self, tmp_path):
        save_store(build_store(), tmp_path / "db")
        loaded = load_store(tmp_path / "db")
        assert "label" in loaded.collection("signals").indexed_fields
        assert loaded.collection("signals").count({"label": "none"}) == 1

    def test_store_name_preserved(self, tmp_path):
        save_store(build_store(), tmp_path / "db")
        assert load_store(tmp_path / "db").name == "unit"


class TestFailureModes:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError, match="manifest"):
            load_store(tmp_path)

    def test_corrupt_json_line(self, tmp_path):
        save_store(build_store(), tmp_path / "db")
        path = tmp_path / "db" / "other.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(StorageError, match="invalid JSON"):
            load_store(tmp_path / "db")

    def test_count_mismatch_detected(self, tmp_path):
        save_store(build_store(), tmp_path / "db")
        path = tmp_path / "db" / "other.jsonl"
        path.write_text("")  # drop the document but keep manifest count
        with pytest.raises(StorageError, match="manifest says"):
            load_store(tmp_path / "db")

    def test_missing_collection_file(self, tmp_path):
        save_store(build_store(), tmp_path / "db")
        (tmp_path / "db" / "other.jsonl").unlink()
        with pytest.raises(StorageError, match="missing"):
            load_store(tmp_path / "db")

    def test_non_object_line_rejected(self, tmp_path):
        save_store(build_store(), tmp_path / "db")
        path = tmp_path / "db" / "other.jsonl"
        path.write_text(json.dumps([1, 2]) + "\n")
        with pytest.raises(StorageError, match="expected an object"):
            load_store(tmp_path / "db")
