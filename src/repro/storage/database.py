"""The embedded relational store.

A :class:`Database` hosts :class:`Relation` instances built from
:class:`~repro.storage.schema.RelationSchema` declarations.  Rows are
plain dicts validated against the schema; each relation keeps

* a primary-key hash map (uniqueness enforced),
* one hash index per declared secondary index,

and supports point lookups, index scans, predicate scans, updates and
deletes.  ``bulk_insert`` is the fast path used by the
:class:`~repro.storage.bulkloader.BulkLoader`: it validates and indexes a
whole batch with one call, skipping the per-statement overhead that the
paper found dominated row-at-a-time SQL inserts.

Rows keep insertion order, and ``Relation.rewrites`` counts the
mutations that are not appends: an upsert that replaces a row, a delete
that removes rows, and any update.  While that count is unchanged, the
rows before an earlier point are untouched and the rows added since are
exactly the relation's tail, which lets :mod:`repro.storage.persistence`
save by appending.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import islice

from repro.errors import StorageError
from repro.storage.schema import BINGO_SCHEMA, RelationSchema

__all__ = ["Relation", "Database"]


class Relation:
    """One flat relation with primary key and secondary hash indexes."""

    def __init__(self, schema: RelationSchema, validate: bool = True) -> None:
        self.schema = schema
        self.validate = validate
        self._rows: dict[tuple, dict] = {}
        self._indexes: dict[tuple[str, ...], dict[tuple, set[tuple]]] = {
            index: {} for index in schema.indexes
        }
        #: simulated per-statement overhead counter (for the throughput bench)
        self.statements = 0
        #: non-append mutations so far (replacing upserts, deletes, updates)
        self.rewrites = 0

    # -- keys ------------------------------------------------------------

    def _pk(self, row: dict) -> tuple:
        return tuple(row[c] for c in self.schema.primary_key)

    def _index_key(self, index: tuple[str, ...], row: dict) -> tuple:
        return tuple(row[c] for c in index)

    # -- mutation ----------------------------------------------------------

    def insert(self, row: dict) -> None:
        """Insert one row; raises on duplicate primary key."""
        self.statements += 1
        self._insert_unchecked(row)

    def _insert_unchecked(self, row: dict) -> None:
        if self.validate:
            self.schema.validate_row(row)
        key = self._pk(row)
        if key in self._rows:
            raise StorageError(
                f"{self.schema.name}: duplicate primary key {key!r}"
            )
        self._rows[key] = row
        for index, mapping in self._indexes.items():
            mapping.setdefault(self._index_key(index, row), set()).add(key)

    def bulk_insert(self, rows: Iterable[dict]) -> int:
        """Insert many rows under a single statement; returns the count."""
        self.statements += 1
        count = 0
        for row in rows:
            self._insert_unchecked(row)
            count += 1
        return count

    def upsert(self, row: dict) -> None:
        """Insert, or replace the existing row with the same primary key."""
        self.statements += 1
        if self.validate:
            self.schema.validate_row(row)
        key = self._pk(row)
        if key in self._rows:
            self._remove_key(key)
            self.rewrites += 1
        self._rows[key] = row
        for index, mapping in self._indexes.items():
            mapping.setdefault(self._index_key(index, row), set()).add(key)

    def delete(self, **key_columns) -> int:
        """Delete rows matching the equality conditions; returns the count."""
        self.statements += 1
        victims = [
            key for key, row in self._rows.items()
            if all(row.get(c) == v for c, v in key_columns.items())
        ]
        for key in victims:
            self._remove_key(key)
        if victims:
            self.rewrites += 1
        return len(victims)

    def _remove_key(self, key: tuple) -> None:
        row = self._rows.pop(key)
        for index, mapping in self._indexes.items():
            index_key = self._index_key(index, row)
            bucket = mapping.get(index_key)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del mapping[index_key]

    def update(self, key: Sequence, **changes) -> None:
        """Update non-key columns of the row with primary key ``key``."""
        self.statements += 1
        key = tuple(key)
        row = self._rows.get(key)
        if row is None:
            raise StorageError(f"{self.schema.name}: no row with key {key!r}")
        for column in changes:
            if column in self.schema.primary_key:
                raise StorageError(
                    f"{self.schema.name}: cannot update key column {column!r}"
                )
        updated = {**row, **changes}
        if self.validate:
            self.schema.validate_row(updated)
        # re-index only the affected secondary indexes
        for index, mapping in self._indexes.items():
            old_key = self._index_key(index, row)
            new_key = self._index_key(index, updated)
            if old_key != new_key:
                bucket = mapping.get(old_key)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del mapping[old_key]
                mapping.setdefault(new_key, set()).add(key)
        self._rows[key] = updated
        self.rewrites += 1

    # -- access -------------------------------------------------------------

    def get(self, *key) -> dict | None:
        """Primary-key point lookup."""
        return self._rows.get(tuple(key))

    def lookup(self, index: Sequence[str], *values) -> list[dict]:
        """Equality scan over a declared secondary index."""
        index = tuple(index)
        mapping = self._indexes.get(index)
        if mapping is None:
            raise StorageError(
                f"{self.schema.name}: no index on {index!r} "
                f"(declared: {list(self._indexes)})"
            )
        keys = mapping.get(tuple(values), set())
        return [self._rows[k] for k in keys]

    def scan(self, predicate: Callable[[dict], bool] | None = None) -> list[dict]:
        """Full scan, optionally filtered."""
        if predicate is None:
            return list(self._rows.values())
        return [row for row in self._rows.values() if predicate(row)]

    def tail(self, start: int) -> Iterator[dict]:
        """The rows after the first ``start``, in insertion order."""
        return islice(self._rows.values(), start, None)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: tuple) -> bool:
        return tuple(key) in self._rows


@dataclass
class Database:
    """A named collection of relations (defaults to the 24-relation schema)."""

    schemas: dict[str, RelationSchema] = field(
        default_factory=lambda: dict(BINGO_SCHEMA)
    )
    validate: bool = True
    relations: dict[str, Relation] = field(init=False)

    def __post_init__(self) -> None:
        self.relations = {
            name: Relation(schema, validate=self.validate)
            for name, schema in self.schemas.items()
        }

    def table(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise StorageError(f"unknown relation {name!r}") from None

    def __getitem__(self, name: str) -> Relation:
        return self.table(name)

    @property
    def total_rows(self) -> int:
        return sum(len(rel) for rel in self.relations.values())

    @property
    def total_statements(self) -> int:
        return sum(rel.statements for rel in self.relations.values())
