"""The :class:`Relation` table abstraction.

A relation in the Scrutinizer setting (Figure 1 of the paper) is a wide
table with one distinguished primary-key column (``Index`` in the IEA data)
and a set of value attributes, most of which are years.  Storage is
column-oriented: one list per attribute plus a key → row-position index,
which makes the point look-ups issued by statistical-check queries cheap.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

from repro.dataset.types import Value, coerce_value, is_missing, is_numeric
from repro.errors import SchemaError, UnknownAttributeError, UnknownKeyError


class Relation:
    """A named table with a primary-key column and value attributes.

    Parameters
    ----------
    name:
        Relation name as referenced from SQL (e.g. ``"GED"``).
    key_attribute:
        Name of the primary-key column (``"Index"`` in the paper's data).
    attributes:
        Ordered value-attribute names (e.g. years ``"2000"`` … ``"2040"``).
    rows:
        Optional initial rows; each row is a mapping that must contain the
        key attribute and may contain any subset of the value attributes.
    description:
        Free-text metadata (tables in the IEA corpus come with little more
        than a name, so this defaults to empty).
    """

    def __init__(
        self,
        name: str,
        key_attribute: str,
        attributes: Sequence[str],
        rows: Iterable[Mapping[str, Any]] | None = None,
        description: str = "",
    ) -> None:
        if not name:
            raise SchemaError("relation name must be non-empty")
        if not key_attribute:
            raise SchemaError("key attribute name must be non-empty")
        attribute_list = [str(attribute) for attribute in attributes]
        if key_attribute in attribute_list:
            raise SchemaError("the key attribute cannot also be a value attribute")
        if len(set(attribute_list)) != len(attribute_list):
            raise SchemaError(f"duplicate attribute names in relation {name!r}")
        self.name = name
        self.key_attribute = key_attribute
        self.description = description
        self._attributes: list[str] = attribute_list
        self._columns: dict[str, list[Value]] = {attr: [] for attr in attribute_list}
        self._keys: list[str] = []
        self._key_positions: dict[str, int] = {}
        if rows is not None:
            for row in rows:
                self.insert(row)

    # ------------------------------------------------------------------ #
    # schema
    # ------------------------------------------------------------------ #
    @property
    def attributes(self) -> tuple[str, ...]:
        """Value-attribute names in declaration order."""
        return tuple(self._attributes)

    @property
    def keys(self) -> tuple[str, ...]:
        """Primary-key values in insertion order."""
        return tuple(self._keys)

    @property
    def row_count(self) -> int:
        return len(self._keys)

    @property
    def column_count(self) -> int:
        return len(self._attributes)

    def has_key(self, key: str) -> bool:
        return str(key) in self._key_positions

    def has_attribute(self, attribute: str) -> bool:
        return str(attribute) in self._columns

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def insert(self, row: Mapping[str, Any]) -> None:
        """Insert a row given as a mapping from column name to raw value."""
        if self.key_attribute not in row:
            raise SchemaError(
                f"row for relation {self.name!r} is missing the key attribute "
                f"{self.key_attribute!r}"
            )
        key = str(row[self.key_attribute])
        if key in self._key_positions:
            raise SchemaError(f"duplicate key {key!r} in relation {self.name!r}")
        unexpected = set(row) - set(self._attributes) - {self.key_attribute}
        if unexpected:
            raise SchemaError(
                f"row for relation {self.name!r} has unknown attributes: "
                f"{sorted(unexpected)}"
            )
        self._key_positions[key] = len(self._keys)
        self._keys.append(key)
        for attribute in self._attributes:
            self._columns[attribute].append(coerce_value(row.get(attribute)))

    def set_value(self, key: str, attribute: str, value: Any) -> None:
        """Overwrite a single cell (used by the synthetic data generator)."""
        position = self._position(key)
        column = self._column(attribute)
        column[position] = coerce_value(value)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def value(self, key: str, attribute: str) -> Value:
        """Point look-up: the cell at (``key``, ``attribute``)."""
        return self._column(attribute)[self._position(key)]

    def get(self, key: str, attribute: str, default: Value = None) -> Value:
        """Like :meth:`value` but returning ``default`` when absent."""
        key = str(key)
        attribute = str(attribute)
        if key not in self._key_positions or attribute not in self._columns:
            return default
        return self._columns[attribute][self._key_positions[key]]

    def row(self, key: str) -> dict[str, Value]:
        """Return the full row for ``key`` (including the key column)."""
        position = self._position(key)
        record: dict[str, Value] = {self.key_attribute: self._keys[position]}
        for attribute in self._attributes:
            record[attribute] = self._columns[attribute][position]
        return record

    def column(self, attribute: str) -> list[Value]:
        """Return a copy of one value column, aligned with :attr:`keys`."""
        return list(self._column(attribute))

    def numeric_column(self, attribute: str) -> list[float]:
        """Return the numeric values of a column, skipping missing cells."""
        return [value for value in self._column(attribute) if is_numeric(value)]

    def iter_rows(self) -> Iterator[dict[str, Value]]:
        for key in self._keys:
            yield self.row(key)

    def iter_cells(self) -> Iterator[tuple[str, str, Value]]:
        """Yield ``(key, attribute, value)`` for every non-missing cell."""
        for key in self._keys:
            position = self._key_positions[key]
            for attribute in self._attributes:
                value = self._columns[attribute][position]
                if not is_missing(value):
                    yield key, attribute, value

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _position(self, key: str) -> int:
        key = str(key)
        try:
            return self._key_positions[key]
        except KeyError:
            raise UnknownKeyError(self.name, key) from None

    def _column(self, attribute: str) -> list[Value]:
        attribute = str(attribute)
        try:
            return self._columns[attribute]
        except KeyError:
            raise UnknownAttributeError(self.name, attribute) from None

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.row_count

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and key in self._key_positions

    def __repr__(self) -> str:
        return (
            f"Relation(name={self.name!r}, rows={self.row_count}, "
            f"attributes={self.column_count})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.name == other.name
            and self.key_attribute == other.key_attribute
            and self._attributes == other._attributes
            and self._keys == other._keys
            and self._columns == other._columns
        )
