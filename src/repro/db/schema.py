"""Relation schemas.

A :class:`Schema` is an ordered list of named, typed attributes with an
optional primary key.  Rows are stored as plain Python tuples in
attribute order; the schema owns the name→position mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.db.types import AttrType, coerce_value
from repro.errors import QueryError, SchemaError

__all__ = ["Attribute", "Schema"]


@dataclass(frozen=True)
class Attribute:
    """One named, typed column of a relation."""

    name: str
    attr_type: AttrType

    def __post_init__(self) -> None:
        # Dots appear in qualified intermediate names ("T1.STRING") that
        # plan nodes expose; base-table attributes are plain identifiers.
        bare = self.name.replace("_", "").replace(".", "")
        if not self.name or not bare.isalnum():
            raise SchemaError(f"invalid attribute name: {self.name!r}")


class Schema:
    """An ordered collection of :class:`Attribute` with an optional key.

    Parameters
    ----------
    name:
        The relation name, e.g. ``"TOKEN"``.  Names are case-preserving
        but matched case-insensitively by the SQL layer.
    attributes:
        Attributes in column order.
    key:
        Names of the primary-key attributes (may be empty for keyless
        relations such as query results).
    """

    def __init__(
        self,
        name: str,
        attributes: Sequence[Attribute],
        key: Sequence[str] = (),
    ):
        self.name = name
        self.attributes = tuple(attributes)
        names = [a.name for a in self.attributes]
        if len(set(n.lower() for n in names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema {name!r}: {names}")
        self._positions = {a.name.lower(): i for i, a in enumerate(self.attributes)}
        self.key = tuple(key)
        for k in self.key:
            if k.lower() not in self._positions:
                raise SchemaError(f"key attribute {k!r} not in schema {name!r}")
        self._key_positions = tuple(self._positions[k.lower()] for k in self.key)
        # resolve()'s answers by (name, qualifier) as written; the
        # attributes never change, so an answer never goes stale.
        self._resolved: dict[tuple[str, str | None], int] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def position(self, attr_name: str) -> int:
        """Column index of ``attr_name`` (case-insensitive)."""
        try:
            return self._positions[attr_name.lower()]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {attr_name!r} in relation {self.name!r} "
                f"(have {list(self.attribute_names)})"
            ) from None

    def resolve(self, name: str, qualifier: str | None, label: object) -> int:
        """Column index of the reference ``qualifier.name``.

        Matching is case-insensitive; an unqualified ``name`` matches an
        attribute by its full name or by the part after its last dot.
        Raises :class:`~repro.errors.QueryError` naming ``label`` when
        no attribute or more than one matches.
        """
        position = self._resolved.get((name, qualifier))
        if position is None:
            position = self._find(name, qualifier, label)
            self._resolved[name, qualifier] = position
        return position

    def _find(self, name: str, qualifier: str | None, label: object) -> int:
        wanted = name.lower()
        qualifier = qualifier.lower() if qualifier else None
        matches = []
        for i, attr in enumerate(self.attributes):
            full = attr.name.lower()
            if "." in full:
                qual, base = full.rsplit(".", 1)
            else:
                qual, base = None, full
            if base != wanted and full != wanted:
                continue
            if qualifier is not None and qual != qualifier:
                continue
            matches.append(i)
        if not matches:
            raise QueryError(
                f"unknown column {label!r} among {list(self.attribute_names)}"
            )
        if len(matches) > 1:
            raise QueryError(
                f"ambiguous column {label!r} among {list(self.attribute_names)}"
            )
        return matches[0]

    def has_attribute(self, attr_name: str) -> bool:
        return attr_name.lower() in self._positions

    def attribute(self, attr_name: str) -> Attribute:
        return self.attributes[self.position(attr_name)]

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.name, self.attributes, self.key))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{a.name}:{a.attr_type.value}" for a in self.attributes)
        key = f" KEY({', '.join(self.key)})" if self.key else ""
        return f"Schema({self.name}: {cols}{key})"

    # ------------------------------------------------------------------
    # Row helpers
    # ------------------------------------------------------------------
    def validate_row(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """Coerce and validate one row, returning the storage tuple."""
        if len(row) != self.arity:
            raise SchemaError(
                f"row arity {len(row)} does not match schema "
                f"{self.name!r} arity {self.arity}"
            )
        return tuple(
            coerce_value(attr.attr_type, value)
            for attr, value in zip(self.attributes, row)
        )

    def row_from_dict(self, values: dict[str, Any]) -> tuple[Any, ...]:
        """Build a storage tuple from an attribute→value mapping."""
        extra = {k for k in values if not self.has_attribute(k)}
        if extra:
            raise SchemaError(f"unknown attributes for {self.name!r}: {sorted(extra)}")
        missing = [a.name for a in self.attributes if a.name not in values
                   and a.name.lower() not in {k.lower() for k in values}]
        if missing:
            raise SchemaError(f"missing attributes for {self.name!r}: {missing}")
        lowered = {k.lower(): v for k, v in values.items()}
        return self.validate_row([lowered[a.name.lower()] for a in self.attributes])

    def row_to_dict(self, row: Sequence[Any]) -> dict[str, Any]:
        """Present a storage tuple as an attribute→value mapping."""
        return dict(zip(self.attribute_names, row))

    def key_of(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """Extract the primary-key values of ``row``."""
        if not self.key:
            raise SchemaError(f"relation {self.name!r} has no primary key")
        return tuple(row[i] for i in self._key_positions)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        name: str,
        columns: Iterable[tuple[str, AttrType]],
        key: Sequence[str] = (),
    ) -> "Schema":
        """Shorthand constructor from ``(name, type)`` pairs."""
        return cls(name, [Attribute(n, t) for n, t in columns], key=key)

    def renamed(self, new_name: str) -> "Schema":
        """A copy of this schema under a different relation name."""
        return Schema(new_name, self.attributes, key=self.key)
