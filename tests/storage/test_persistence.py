"""Tests for database dump/restore."""

from __future__ import annotations

import json
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.database import Database
from repro.storage.persistence import (
    DumpWriter,
    dump_database,
    load_database,
)
from repro.storage.schema import BINGO_SCHEMA


def populated_database() -> Database:
    database = Database()
    database["topics"].insert({"topic": "db", "parent": None, "depth": 0})
    database["documents"].insert({
        "doc_id": 1, "url": "http://a/", "host": "a", "mime": "text/html",
        "size": 100, "title": "t", "topic": "db", "confidence": 0.5,
        "crawl_depth": 0, "fetched_at": 1.0, "page_id": 7,
    })
    database["terms"].insert({"doc_id": 1, "term": "databas", "tf": 3})
    return database


class TestRoundTrip:
    def test_dump_and_load(self, tmp_path) -> None:
        database = populated_database()
        rows = dump_database(database, tmp_path)
        assert rows == 3
        restored = load_database(tmp_path)
        assert restored.total_rows == 3
        assert restored["documents"].get(1)["url"] == "http://a/"
        assert restored["terms"].lookup(("term",), "databas")

    def test_indexes_rebuilt_after_load(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        restored = load_database(tmp_path)
        hits = restored["documents"].lookup(("topic",), "db")
        assert len(hits) == 1

    def test_empty_database_round_trips(self, tmp_path) -> None:
        dump_database(Database(), tmp_path)
        restored = load_database(tmp_path)
        assert restored.total_rows == 0


class TestFailureModes:
    def test_missing_manifest(self, tmp_path) -> None:
        with pytest.raises(StorageError):
            load_database(tmp_path)

    def test_wrong_format_version(self, tmp_path) -> None:
        dump_database(Database(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["format_version"] = 99
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError):
            load_database(tmp_path)

    def test_schema_mismatch_detected(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["relations"]["documents"]["columns"] = ["doc_id", "zzz"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError):
            load_database(tmp_path)

    def test_row_count_mismatch_detected(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        (tmp_path / "terms.jsonl").write_text("")  # truncate
        with pytest.raises(StorageError):
            load_database(tmp_path)


class TestFormat:
    def test_v1_dump_rejected(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["format_version"] = 1
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="unsupported dump format"):
            load_database(tmp_path)

    def test_torn_tail_ignored(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        with (tmp_path / "terms.jsonl").open("a") as handle:
            handle.write('{"doc_id": 2, "te')  # an append that never committed
        assert load_database(tmp_path)["terms"].scan() == [
            {"doc_id": 1, "term": "databas", "tf": 3}
        ]

    def test_checksum_mismatch_detected(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        path = tmp_path / "terms.jsonl"
        path.write_text(path.read_text().replace("3", "4"))
        with pytest.raises(StorageError, match="checksum"):
            load_database(tmp_path)


# -- the incremental writer ---------------------------------------------------

#: the relations the property test mutates, with the column it updates
_UPDATED = {"terms": "tf", "term_statistics": "df"}
_TERMS = ["a", "b", "c", 'd"é']


def _row(relation: str, key: int, value: int) -> dict:
    term = _TERMS[key % len(_TERMS)]
    if relation == "terms":
        return {"doc_id": key // len(_TERMS), "term": term, "tf": value}
    return {"term": term, "df": value, "idf": value / 4.0}


def _key(relation: str, key: int) -> tuple:
    row = _row(relation, key, 0)
    return tuple(row[c] for c in BINGO_SCHEMA[relation].primary_key)


def _apply(database: Database, op) -> None:
    kind, name, key, value = op
    relation = database[name]
    pk = _key(name, key)
    if kind == "insert" and pk not in relation:
        relation.insert(_row(name, key, value))
    elif kind == "bulk_insert":
        fresh = {
            _key(name, k): _row(name, k, value)
            for k in range(key, key + 3)
            if _key(name, k) not in relation
        }
        relation.bulk_insert(fresh.values())
    elif kind == "upsert":
        relation.upsert(_row(name, key, value))
    elif kind == "delete":
        columns = BINGO_SCHEMA[name].primary_key
        relation.delete(**dict(zip(columns, pk)))
    elif kind == "update" and pk in relation:
        relation.update(pk, **{_UPDATED[name]: value + 100})


def _relation_bytes(directory, manifest: dict) -> dict[str, bytes]:
    out = {}
    for name, info in manifest["relations"].items():
        with (directory / info["file"]).open("rb") as handle:
            out[name] = handle.read(info["bytes"])
    return out


def _manifest(directory) -> dict:
    return json.loads((directory / "manifest.json").read_text())


_OPS = st.tuples(
    st.sampled_from(
        ["insert", "bulk_insert", "upsert", "delete", "update", "save"]
    ),
    st.sampled_from(sorted(_UPDATED)),
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=0, max_value=9),
)


class TestDumpWriter:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_OPS, max_size=40))
    def test_saves_equal_live_state_and_one_shot_dump(self, ops) -> None:
        with tempfile.TemporaryDirectory() as scratch:
            directory = pathlib.Path(scratch) / "dump"
            database = Database()
            writer = DumpWriter(directory)
            for number, op in enumerate([*ops, ("save", "", 0, 0)]):
                if op[0] != "save":
                    _apply(database, op)
                    continue
                writer.commit(writer.stage(database))
                loaded = load_database(directory)
                for name, relation in database.relations.items():
                    assert loaded[name].scan() == relation.scan(), name
                one_shot = pathlib.Path(scratch) / f"one-shot-{number}"
                dump_database(database, one_shot)
                manifest = _manifest(directory)
                saved = _relation_bytes(directory, manifest)
                assert saved == _relation_bytes(one_shot, _manifest(one_shot))
                # the row format is json.dumps(row, sort_keys=True)
                for name, relation in database.relations.items():
                    assert saved[name] == "".join(
                        json.dumps(row, sort_keys=True) + "\n"
                        for row in relation.scan()
                    ).encode(), name
                named = {
                    info["file"] for info in manifest["relations"].values()
                }
                assert {p.name for p in directory.iterdir()} == (
                    named | {"manifest.json"}
                )

    def test_appends_only_new_rows(self, tmp_path) -> None:
        database = populated_database()
        writer = DumpWriter(tmp_path)
        first = writer.stage(database)
        writer.commit(first)
        assert first.rows_written == 3
        database["terms"].insert({"doc_id": 1, "term": "web", "tf": 1})
        second = writer.stage(database)
        assert second.rows_written == 1
        assert second.bytes_written == len(
            '{"doc_id": 1, "term": "web", "tf": 1}\n'
        )
        writer.commit(second)
        database["topics"].upsert({"topic": "db", "parent": None, "depth": 1})
        third = writer.stage(database)
        assert third.rows_written == 1  # topics rewritten whole
        writer.commit(third)
        assert third.manifest["relations"]["topics"]["file"] == (
            "topics.1.jsonl"
        )
        assert not (tmp_path / "topics.jsonl").exists()

    def test_foreign_dump_is_rewritten_not_appended(self, tmp_path) -> None:
        # files a dump cannot have written are not a writer's to delete
        unrelated = {"notes.jsonl": b'{"note": 1}\n', "spans-1.jsonl": b"",
                     "terms.jsonl.tmp": b"x", "unknown_relation.jsonl": b""}
        for name, data in unrelated.items():
            (tmp_path / name).write_bytes(data)
        other = populated_database()
        other["terms"].insert({"doc_id": 1, "term": "web", "tf": 2})
        dump_database(other, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        mine = Database()
        mine["terms"].insert({"doc_id": 5, "term": "x", "tf": 1})
        writer = DumpWriter(tmp_path)
        staged = writer.stage(mine)
        # staging touches nothing the other database's manifest names
        for name, data in before.items():
            assert (tmp_path / name).read_bytes() == data
        assert staged.rows_written == 1
        assert all(
            info["file"] not in before
            for info in staged.manifest["relations"].values()
        )
        writer.commit(staged)
        loaded = load_database(tmp_path)
        assert loaded.total_rows == 1
        assert loaded["terms"].scan() == mine["terms"].scan()
        named = {
            info["file"] for info in staged.manifest["relations"].values()
        }
        assert {p.name for p in tmp_path.iterdir()} == (
            named | {"manifest.json"} | set(unrelated)
        )
        for name, data in unrelated.items():
            assert (tmp_path / name).read_bytes() == data

    def test_uncommitted_save_is_invisible(self, tmp_path) -> None:
        database = populated_database()
        writer = DumpWriter(tmp_path)
        writer.commit(writer.stage(database))
        committed = _manifest(tmp_path)
        database["terms"].insert({"doc_id": 1, "term": "web", "tf": 1})
        database["topics"].delete(topic="db")
        writer.stage(database)  # "crashes" before its commit point
        assert _manifest(tmp_path) == committed
        assert load_database(tmp_path).total_rows == 3
        # the next save writes over the uncommitted tail and deletes the
        # orphaned file
        database["terms"].insert({"doc_id": 1, "term": "xml", "tf": 1})
        writer.commit(writer.stage(database))
        loaded = load_database(tmp_path)
        for name, relation in database.relations.items():
            assert loaded[name].scan() == relation.scan()
        manifest = _manifest(tmp_path)
        assert _relation_bytes(tmp_path, manifest)["terms"] == (
            (tmp_path / manifest["relations"]["terms"]["file"]).read_bytes()
        )
        named = {info["file"] for info in manifest["relations"].values()}
        assert {p.name for p in tmp_path.iterdir()} == (
            named | {"manifest.json"}
        )
