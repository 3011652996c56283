"""The database: one possible world plus change notification.

A :class:`Database` owns a set of named :class:`~repro.db.table.Table`
instances.  In the architecture of the paper the database always stores
*one* concrete possible world; MCMC inference mutates it in place, and
attached :class:`~repro.db.delta.DeltaRecorder` buffers observe every
mutation so evaluators can maintain materialized query answers.

Snapshots (:meth:`Database.snapshot` / :meth:`Database.restore`) support
parallel chains (each chain runs on its own copy of the initial world)
and ground-truth estimation.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, Sequence, Tuple

from repro.db.delta import Delta, DeltaRecorder
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import IntegrityError

__all__ = ["Database", "Snapshot"]

Row = Tuple[Any, ...]


class Snapshot:
    """An immutable copy of every table's rows at one instant.

    ``version`` is the source database's committed-statement version at
    the moment the snapshot was taken (see :attr:`Database.version`);
    restoring the snapshot restores the version with it.
    """

    def __init__(
        self,
        tables: Dict[str, tuple[Schema, tuple[Row, ...]]],
        version: int = 0,
    ):
        self._tables = tables
        self.version = version

    def table_names(self) -> Iterator[str]:
        return iter(self._tables)

    def rows(self, table: str) -> tuple[Row, ...]:
        return self._tables[table.lower()][1]

    def schema(self, table: str) -> Schema:
        return self._tables[table.lower()][0]


class Database:
    """Named tables representing the current possible world."""

    def __init__(self, name: str = "world"):
        self.name = name
        self._tables: Dict[str, Table] = {}
        self._recorders: list[DeltaRecorder] = []
        self._version = 0
        self._schema_version = 0

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic count of committed DML/DDL statements.

        Bumped by the SQL executor when a statement actually changes
        the stored world or schema — **not** by MCMC world transitions,
        which mutate rows millions of times per query without changing
        the evidence.  The serving layer keys its shared marginal cache
        on this value: two probabilistic reads at the same version see
        the same evidence, so their marginals are interchangeable.
        """
        return self._version

    def bump_version(self) -> int:
        """Advance and return the committed-statement version."""
        self._version += 1
        return self._version

    @property
    def schema_version(self) -> int:
        """Monotonic count of schema changes (table create/drop).

        Unlike :attr:`version` — which the SQL executor advances for
        committed statements — this counter is bumped by the schema
        operations *themselves*, so every route is covered: SQL DDL,
        ``execute_script``, and direct :meth:`create_table` /
        :meth:`drop_table` calls (including DDL issued by another
        session sharing this database).  Compiled query plans hold
        schema-derived accessors, so the plan cache keys its entries on
        this value: a ``DROP TABLE`` + ``CREATE TABLE`` with a
        different layout can never serve a stale compiled plan, which
        would silently read columns at their old positions.
        """
        return self._schema_version

    # ------------------------------------------------------------------
    # Schema management
    # ------------------------------------------------------------------
    def create_table(self, schema: Schema) -> Table:
        key = schema.name.lower()
        if key in self._tables:
            raise IntegrityError(f"table {schema.name!r} already exists")
        table = Table(schema, listener=self._on_mutation)
        self._tables[key] = table
        self._schema_version += 1
        return table

    def drop_table(self, name: str) -> None:
        if name.lower() not in self._tables:
            raise IntegrityError(f"no table named {name!r}")
        del self._tables[name.lower()]
        self._schema_version += 1

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise IntegrityError(
                f"no table named {name!r} (have {sorted(self._tables)})"
            ) from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return [t.schema.name for t in self._tables.values()]

    def __contains__(self, name: str) -> bool:
        return self.has_table(name)

    # ------------------------------------------------------------------
    # Mutation convenience (forwarding to tables)
    # ------------------------------------------------------------------
    def insert(self, table: str, row: Sequence[Any]) -> Row:
        return self.table(table).insert(row)

    def insert_many(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        return self.table(table).insert_many(rows)

    def update(self, table: str, pk: Sequence[Any], changes: Dict[str, Any]):
        return self.table(table).update(pk, changes)

    def delete(self, table: str, pk: Sequence[Any]) -> Row:
        return self.table(table).delete(pk)

    def _on_mutation(self, kind: str, table: str, row: Row, new_row: Row | None) -> None:
        for recorder in self._recorders:
            if kind == "insert":
                recorder.notify_insert(table, row)
            elif kind == "delete":
                recorder.notify_delete(table, row)
            else:
                recorder.notify_update(table, row, new_row)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Delta capture
    # ------------------------------------------------------------------
    def attach_recorder(self) -> DeltaRecorder:
        """Attach and return a fresh delta buffer observing all mutations."""
        recorder = DeltaRecorder()
        self._recorders.append(recorder)
        return recorder

    def detach_recorder(self, recorder: DeltaRecorder) -> None:
        self._recorders.remove(recorder)

    @contextmanager
    def suspended_recorders(self) -> Iterator[None]:
        """Temporarily detach every delta recorder.

        Used while pickling the database for a checkpoint: the pickled
        copy must not carry live recorder buffers (they belong to the
        evaluator that attached them and are rebuilt on resume).
        """
        recorders, self._recorders = self._recorders, []
        try:
            yield
        finally:
            self._recorders = recorders

    def apply_delta(self, delta: Delta) -> None:
        """Apply a signed delta directly (used to replay/undo changes).

        Deletions are matched by primary key when the table is keyed.
        """
        for table_name in delta.tables():
            table = self.table(table_name)
            for row, count in list(delta.for_table(table_name).items()):
                if count < 0:
                    for _ in range(-count):
                        if table.schema.key:
                            table.delete(table.schema.key_of(row))
                        else:
                            table.delete_row(row)
            for row, count in list(delta.for_table(table_name).items()):
                if count > 0:
                    for _ in range(count):
                        table.insert(row)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """A copy of all rows, cheap to restore or to clone into a new DB."""
        return Snapshot(
            {
                key: (table.schema, tuple(table.rows()))
                for key, table in self._tables.items()
            },
            version=self._version,
        )

    def restore(self, snap: Snapshot) -> None:
        """Reset all tables to ``snap`` (reported to recorders as
        delete-all + insert-all); the snapshot's version is restored
        with its rows."""
        snapshot_keys = set(snap.table_names())
        for key in snapshot_keys:
            if key not in self._tables:
                self.create_table(snap.schema(key))
        for key, table in self._tables.items():
            table.clear()
            for row in snap.rows(key) if key in snapshot_keys else ():
                table.insert(row)
        self._version = snap.version

    @classmethod
    def from_snapshot(cls, snap: Snapshot, name: str = "world") -> "Database":
        """A brand-new database holding a copy of ``snap``."""
        db = cls(name)
        for key in snap.table_names():
            table = db.create_table(snap.schema(key))
            table.insert_many(snap.rows(key))
        db._version = snap.version
        return db

    def clone(self, name: str | None = None) -> "Database":
        """An independent copy of this database (rows only, no recorders)."""
        return Database.from_snapshot(self.snapshot(), name or f"{self.name}-clone")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{t.name}({len(t)})" for t in self._tables.values())
        return f"Database({self.name}: {parts})"
