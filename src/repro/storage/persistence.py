"""Database persistence: JSON-lines dumps, saved incrementally.

The paper's store is a server database that naturally survives the
crawler process; the embedded store gains the same property through an
explicit dump format -- one file per relation, one JSON object per row
(``json.dumps(row, sort_keys=True)`` and a newline), plus a manifest.
Restores validate against the current schema, so a dump from an
incompatible version fails loudly instead of silently corrupting a
crawl; that includes every format v1 dump.

The manifest (format v2) records, per relation, the file holding its
rows, the row count, the byte length and the BLAKE2b-128 digest of those
bytes, and the schema's column names::

    {"format_version": 2,
     "relations": {"terms": {"file": "terms.jsonl", "rows": <int>,
                             "bytes": <int>, "blake2b": "<32 hex>",
                             "columns": ["doc_id", "term", "tf"]}, ...}}

A reader trusts only that byte prefix of the file: it reads exactly
``bytes`` bytes and checks the digest and the row count.  Anything past
the prefix (the tail of an append that never committed) is ignored.

:class:`DumpWriter` saves one database into one directory again and
again, writing only what changed.  While a relation's
:attr:`~repro.storage.database.Relation.rewrites` count is unchanged,
its rows since the writer's last save are its tail, and the writer
appends just those to the relation's file.  A relation whose count
moved, or that this writer has not saved before, is written whole into a
file name that no manifest in the directory uses.  A save has two steps:

* :meth:`DumpWriter.stage` writes the bytes and returns the new manifest;
* the caller makes that manifest current with one atomic rename (the
  commit point), then calls :meth:`DumpWriter.commit`, which advances
  the writer's record of what is on disk, refreshes ``manifest.json``
  and deletes the relation files (``<rel>.jsonl``, ``<rel>.<n>.jsonl``)
  the new manifest does not name.  Files under any other name are left
  alone.

No file or byte range that the current manifest references is changed
before the commit point, so a crash at any moment leaves the previous
dump readable.  (Nothing is fsynced: a dump survives the process dying,
not the machine losing power.)  :func:`dump_database` is the one-shot
case, the first save of a fresh writer.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, count, islice
from typing import Any, BinaryIO

from repro.errors import StorageError
from repro.storage.database import Database, Relation

__all__ = [
    "DumpWriter",
    "StagedDump",
    "dump_database",
    "load_database",
    "dump_state",
    "load_state",
    "sync_term_statistics",
]

_MANIFEST = "manifest.json"
_FORMAT_VERSION = 2
_STATE_FORMAT_VERSION = 1
#: rows encoded per write, so a whole-relation write never holds the
#: relation's full encoding in memory
_CHUNK_ROWS = 4096
#: the file names a dump gives a relation: ``<rel>.jsonl``, ``<rel>.<n>.jsonl``
_DUMP_FILE = re.compile(r"(?P<relation>\w+)(?:\.\d+)?\.jsonl")

#: ``json.dumps(row, sort_keys=True)``, with the encoder built once
_encode = json.JSONEncoder(sort_keys=True).encode


def _digest(data: bytes = b"") -> Any:
    return hashlib.blake2b(data, digest_size=16)


def _write_atomic(path: pathlib.Path, text: str) -> None:
    """Replace ``path`` with ``text`` through a temp file + rename."""
    temp = path.with_name(path.name + ".tmp")
    temp.write_text(text, encoding="utf-8")
    temp.replace(path)


def _write_rows(
    handle: BinaryIO, rows: Iterator[dict], digest: Any
) -> tuple[int, int]:
    """Encode ``rows`` onto ``handle`` and into ``digest``; returns the
    (row, byte) counts written."""
    written = size = 0
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        data = ("\n".join(map(_encode, chunk)) + "\n").encode("utf-8")
        handle.write(data)
        digest.update(data)
        written += len(chunk)
        size += len(data)
    return written, size


@dataclass(frozen=True)
class _Segment:
    """One relation's file, as a manifest records it."""

    relation: Relation
    #: the relation's rewrite count when the rows were written
    rewrites: int
    file: str
    rows: int
    size: int
    #: running BLAKE2b of the file's first ``size`` bytes
    digest: Any

    def entry(self) -> dict:
        return {
            "file": self.file,
            "rows": self.rows,
            "bytes": self.size,
            "blake2b": self.digest.hexdigest(),
            "columns": list(self.relation.schema.column_names),
        }


@dataclass(frozen=True)
class StagedDump:
    """A save whose bytes are written but whose manifest is not yet
    current."""

    segments: dict[str, _Segment]
    manifest: dict
    rows_written: int
    bytes_written: int

    @property
    def rows(self) -> int:
        return sum(segment.rows for segment in self.segments.values())


class DumpWriter:
    """Saves a database into ``directory``, appending where it can.

    The writer remembers what its last committed save put on disk; see
    the module docstring for the save protocol.
    """

    def __init__(self, directory: str | pathlib.Path) -> None:
        self.directory = pathlib.Path(directory)
        self._committed: dict[str, _Segment] = {}

    def stage(self, database: Database) -> StagedDump:
        """Write every relation's new rows; returns the pending save."""
        self.directory.mkdir(parents=True, exist_ok=True)
        taken = {segment.file for segment in self._committed.values()}
        segments: dict[str, _Segment] = {}
        rows_written = bytes_written = 0
        for name, relation in database.relations.items():
            old = self._committed.get(name)
            segment = None if old is None else self._append(old, relation)
            if segment is None:
                segment = self._rewrite(name, relation, taken)
                old = None
            rows_written += segment.rows - (old.rows if old else 0)
            bytes_written += segment.size - (old.size if old else 0)
            taken.add(segment.file)
            segments[name] = segment
        manifest = {
            "format_version": _FORMAT_VERSION,
            "relations": {
                name: segment.entry() for name, segment in segments.items()
            },
        }
        return StagedDump(segments, manifest, rows_written, bytes_written)

    def commit(self, staged: StagedDump) -> None:
        """Adopt ``staged`` once its commit point has passed.

        Advances the writer's record first, so a later save never cuts
        into bytes the committed manifest references; then writes
        ``manifest.json`` and deletes the relation files (of a relation
        of this database, under a name a dump gives it) the manifest does
        not name.  Other files in the directory are left alone.
        """
        self._committed = staged.segments
        _write_atomic(
            self.directory / _MANIFEST,
            json.dumps(staged.manifest, indent=2, sort_keys=True),
        )
        named = {segment.file for segment in staged.segments.values()}
        for path in sorted(self.directory.iterdir()):
            match = _DUMP_FILE.fullmatch(path.name)
            if (
                match is not None
                and match["relation"] in staged.segments
                and path.name not in named
            ):
                path.unlink()

    def _append(self, old: _Segment, relation: Relation) -> _Segment | None:
        """Extend ``old`` by the relation's tail; None if the rows since
        the last save are not a pure tail, or the file was cut short."""
        if old.relation is not relation or old.rewrites != relation.rewrites:
            return None
        path = self.directory / old.file
        try:
            on_disk = path.stat().st_size
        except FileNotFoundError:
            return None
        if on_disk < old.size:
            return None
        digest = old.digest.copy()
        rows = size = 0
        if len(relation) > old.rows:
            # any bytes past the committed size are a prefix of this same
            # tail, written by a save that never committed
            with open(path, "r+b") as handle:
                handle.seek(old.size)
                rows, size = _write_rows(
                    handle, relation.tail(old.rows), digest
                )
        return _Segment(
            relation, relation.rewrites, old.file,
            old.rows + rows, old.size + size, digest,
        )

    def _rewrite(
        self, name: str, relation: Relation, taken: set[str]
    ) -> _Segment:
        """Write the whole relation into a file no manifest uses."""
        file = next(
            file
            for file in chain(
                [f"{name}.jsonl"], (f"{name}.{n}.jsonl" for n in count(1))
            )
            if file not in taken and not (self.directory / file).exists()
        )
        digest = _digest()
        with open(self.directory / file, "wb") as handle:
            rows, size = _write_rows(handle, relation.tail(0), digest)
        return _Segment(relation, relation.rewrites, file, rows, size, digest)


def dump_database(database: Database, directory: str | pathlib.Path) -> int:
    """Write every relation to ``directory``; returns the row count.

    The first save of a fresh :class:`DumpWriter`: every relation goes
    whole into a file the directory's current dump does not use, and
    renaming ``manifest.json`` into place commits the dump.
    """
    writer = DumpWriter(directory)
    staged = writer.stage(database)
    writer.commit(staged)
    return staged.rows


def load_database(
    directory: str | pathlib.Path,
    validate: bool = True,
    manifest: dict | None = None,
) -> Database:
    """Restore a database saved by :func:`dump_database` or a
    :class:`DumpWriter`.

    The relation files are read through ``manifest`` when one is given
    (a crawl checkpoint carries its own), else through the directory's
    ``manifest.json``.
    """
    directory = pathlib.Path(directory)
    if manifest is None:
        manifest_path = directory / _MANIFEST
        if not manifest_path.exists():
            raise StorageError(f"no manifest in {directory}")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise StorageError(
            f"unsupported dump format {manifest.get('format_version')!r}"
        )
    database = Database(validate=validate)
    for name, info in manifest["relations"].items():
        relation = database.table(name)  # raises on unknown relation
        expected = list(relation.schema.column_names)
        if info.get("columns") != expected:
            raise StorageError(
                f"relation {name!r}: dump columns {info.get('columns')} "
                f"do not match the current schema {expected}"
            )
        relation.bulk_insert(_read_rows(directory, name, info))
    return database


def _read_rows(directory: pathlib.Path, name: str, info: dict) -> list[dict]:
    """The rows of one manifest entry, checked against it."""
    file = info["file"]
    if pathlib.PurePath(file).name != file:
        raise StorageError(f"relation {name!r}: bad file name {file!r}")
    try:
        with open(directory / file, "rb") as handle:
            data = handle.read(info["bytes"])
    except FileNotFoundError:
        raise StorageError(f"missing dump file for {name!r}") from None
    if len(data) != info["bytes"]:
        raise StorageError(
            f"relation {name!r}: expected {info['bytes']} bytes in "
            f"{file}, found {len(data)}"
        )
    if _digest(data).hexdigest() != info["blake2b"]:
        raise StorageError(f"relation {name!r}: checksum mismatch in {file}")
    rows = [json.loads(line) for line in data.splitlines()]
    if len(rows) != info["rows"]:
        raise StorageError(
            f"relation {name!r}: expected {info['rows']} rows, "
            f"found {len(rows)}"
        )
    return rows


def sync_term_statistics(database: Database, vectorizer) -> int:
    """Materialise the idf snapshot into the ``term_statistics`` relation.

    The paper keeps document-frequency statistics in the store so the
    search side can weight query terms without re-scanning ``terms``;
    this writes one ``(term, df, idf)`` row per snapshot term from a
    :class:`~repro.text.vectorizer.TfIdfVectorizer`.  Re-syncing after
    a retraining replaces the previous snapshot.  Returns the row
    count.
    """
    statistics = vectorizer.statistics
    relation = database.table("term_statistics")
    for row in relation.scan():
        relation.delete(term=row["term"])
    count = 0
    snapshot_df = statistics.snapshot_df
    for term in sorted(snapshot_df):
        relation.insert({
            "term": term,
            "df": int(snapshot_df[term]),
            "idf": float(statistics.idf(term)),
        })
        count += 1
    return count


def dump_state(
    state: dict, directory: str | pathlib.Path, kind: str = "state"
) -> pathlib.Path:
    """Write an arbitrary JSON-serializable state blob (versioned).

    Component snapshots that are not relational -- crawl checkpoints,
    frontier/dedup/host-state dumps -- persist through this so they get
    the same loud version checking as the database dump format.  The
    write goes through a temp file + rename so a crash mid-write never
    leaves a truncated state file behind.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{kind}.json"
    payload = {
        "format_version": _STATE_FORMAT_VERSION,
        "kind": kind,
        "state": state,
    }
    _write_atomic(path, json.dumps(payload, sort_keys=True))
    return path


def load_state(directory: str | pathlib.Path, kind: str = "state") -> dict:
    """Restore a state blob written by :func:`dump_state`."""
    path = pathlib.Path(directory) / f"{kind}.json"
    if not path.exists():
        raise StorageError(f"no {kind!r} state file in {directory}")
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("format_version") != _STATE_FORMAT_VERSION:
        raise StorageError(
            f"unsupported state format {payload.get('format_version')!r}"
        )
    if payload.get("kind") != kind:
        raise StorageError(
            f"state file holds {payload.get('kind')!r}, expected {kind!r}"
        )
    return payload["state"]
