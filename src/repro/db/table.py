"""Tables: keyed row storage.

A :class:`Table` stores the rows of one relation in the *current
possible world*.  Tables with a primary key store ``pk → row``; keyless
tables store a bag of rows.  All mutations report the old/new rows to
the owning database so that attached :class:`~repro.db.delta.DeltaRecorder`
instances see every change.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, Sequence, Tuple

from repro.db.multiset import Multiset
from repro.db.schema import Schema
from repro.errors import IntegrityError, SchemaError

__all__ = ["Table"]

Row = Tuple[Any, ...]
Key = Tuple[Any, ...]
MutationListener = Callable[[str, str, Row, Row | None], None]
# listener(kind, table, row_or_old, new_row_or_None) with kind in
# {"insert", "delete", "update"}.


class Table:
    """Rows of one relation in the current possible world."""

    def __init__(self, schema: Schema, listener: MutationListener | None = None):
        self.schema = schema
        self._listener = listener
        self._rows: Dict[Key, Row] = {}
        self._bag: Multiset | None = None if schema.key else Multiset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        if self._bag is not None:
            return len(self._bag)
        return len(self._rows)

    def rows(self) -> Iterator[Row]:
        """Iterate over the rows of the current world."""
        if self._bag is not None:
            return iter(self._bag)
        return iter(self._rows.values())

    def as_multiset(self) -> Multiset:
        """The table contents as a (positively counted) multiset."""
        if self._bag is not None:
            return self._bag.copy()
        return Multiset(self._rows.values())

    def get(self, pk: Sequence[Any]) -> Row:
        """The row with primary key ``pk``; raises if absent."""
        self._require_key()
        try:
            return self._rows[tuple(pk)]
        except KeyError:
            raise IntegrityError(
                f"no row with key {tuple(pk)!r} in table {self.name!r}"
            ) from None

    def find(self, pk: Key) -> Row | None:
        """The row with primary key ``pk``, or ``None`` if absent."""
        return self._rows.get(pk)

    def contains_key(self, pk: Sequence[Any]) -> bool:
        self._require_key()
        return tuple(pk) in self._rows

    def keys(self) -> Iterator[Key]:
        self._require_key()
        return iter(self._rows)

    def _require_key(self) -> None:
        if not self.schema.key:
            raise IntegrityError(f"table {self.name!r} has no primary key")

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[Any]) -> Row:
        """Insert one row (validated against the schema)."""
        stored = self.schema.validate_row(row)
        if self._bag is not None:
            self._bag.add(stored)
        else:
            pk = self.schema.key_of(stored)
            if pk in self._rows:
                raise IntegrityError(
                    f"duplicate primary key {pk!r} in table {self.name!r}"
                )
            self._rows[pk] = stored
        if self._listener is not None:
            self._listener("insert", self.name, stored, None)
        return stored

    def insert_dict(self, values: Dict[str, Any]) -> Row:
        return self.insert(self.schema.row_from_dict(values))

    def delete(self, pk: Sequence[Any]) -> Row:
        """Delete the row with primary key ``pk`` and return it."""
        self._require_key()
        key = tuple(pk)
        row = self._rows.pop(key, None)
        if row is None:
            raise IntegrityError(f"no row with key {key!r} in table {self.name!r}")
        if self._listener is not None:
            self._listener("delete", self.name, row, None)
        return row

    def delete_row(self, row: Sequence[Any]) -> None:
        """Delete one occurrence of ``row`` from a keyless table."""
        stored = self.schema.validate_row(row)
        if self._bag is None:
            self.delete(self.schema.key_of(stored))
            return
        if self._bag.count(stored) <= 0:
            raise IntegrityError(f"row {stored!r} not present in table {self.name!r}")
        self._bag.discard(stored)
        if self._listener is not None:
            self._listener("delete", self.name, stored, None)

    def update(self, pk: Sequence[Any], changes: Dict[str, Any]) -> tuple[Row, Row]:
        """Update attributes of the row with primary key ``pk``.

        Returns ``(old_row, new_row)``.  The primary key itself may not
        be modified (delete + insert instead).
        """
        self._require_key()
        key = tuple(pk)
        old_row = self.get(key)
        new_values = list(old_row)
        for attr, value in changes.items():
            pos = self.schema.position(attr)
            new_values[pos] = value
        new_row = self.schema.validate_row(new_values)
        if self.schema.key_of(new_row) != key:
            raise IntegrityError(
                f"update may not change the primary key of table {self.name!r}"
            )
        if new_row == old_row:
            return old_row, new_row
        self._rows[key] = new_row
        if self._listener is not None:
            self._listener("update", self.name, old_row, new_row)
        return old_row, new_row

    def clear(self) -> None:
        """Remove all rows (reported as individual deletes)."""
        if self._bag is not None:
            rows = list(self._bag)
            self._bag.clear()
            if self._listener is not None:
                for row in rows:
                    self._listener("delete", self.name, row, None)
            return
        rows_map = self._rows
        self._rows = {}
        if self._listener is not None:
            for row in rows_map.values():
                self._listener("delete", self.name, row, None)

    # ------------------------------------------------------------------
    # Bulk/clone helpers
    # ------------------------------------------------------------------
    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def clone_into(self, other: "Table") -> None:
        """Copy all rows into ``other`` without notifications."""
        if other.schema != self.schema:
            raise SchemaError("clone target has a different schema")
        if self._bag is not None:
            other._bag = self._bag.copy()
        else:
            other._rows = dict(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name}, {len(self)} rows)"
