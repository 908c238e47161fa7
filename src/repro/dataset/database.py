"""The :class:`Database` corpus of relations.

The paper's corpus ``D`` is a set of heterogeneous relations with no rich
metadata beyond table and attribute names.  :class:`Database` stores the
relations, answers point look-ups and provides the inverted indexes used by
the synthetic-corpus profiler and by the question planner (e.g. "which
relations contain this key value?").
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.dataset.relation import Relation
from repro.dataset.types import Value
from repro.errors import DatasetError, UnknownRelationError


class Database:
    """A named collection of :class:`~repro.dataset.relation.Relation`."""

    def __init__(self, relations: Iterable[Relation] | None = None, name: str = "corpus") -> None:
        self.name = name
        self._relations: dict[str, Relation] = {}
        if relations is not None:
            for relation in relations:
                self.add(relation)

    # ------------------------------------------------------------------ #
    # corpus management
    # ------------------------------------------------------------------ #
    def add(self, relation: Relation) -> None:
        """Register a relation; names must be unique within the corpus."""
        if relation.name in self._relations:
            raise DatasetError(f"relation {relation.name!r} already exists in {self.name!r}")
        self._relations[relation.name] = relation

    def remove(self, name: str) -> Relation:
        """Remove and return the relation called ``name``."""
        try:
            return self._relations.pop(name)
        except KeyError:
            raise UnknownRelationError(name) from None

    def relation(self, name: str) -> Relation:
        """Return the relation called ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def get(self, name: str) -> Relation | None:
        return self._relations.get(name)

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    @property
    def relation_count(self) -> int:
        return len(self._relations)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def __repr__(self) -> str:
        return f"Database(name={self.name!r}, relations={self.relation_count})"

    # ------------------------------------------------------------------ #
    # look-ups used by query generation
    # ------------------------------------------------------------------ #
    def lookup(self, relation: str, key: str, attribute: str) -> Value:
        """Point look-up ``relation[key, attribute]`` (the paper's "look-up")."""
        return self.relation(relation).value(key, attribute)

    def try_lookup(self, relation: str, key: str, attribute: str) -> Value:
        """Like :meth:`lookup` but returning ``None`` for any missing piece."""
        table = self._relations.get(relation)
        if table is None:
            return None
        return table.get(key, attribute)

    def relations_with_key(self, key: str) -> list[str]:
        """Names of relations whose primary key contains ``key``."""
        return [name for name, table in self._relations.items() if table.has_key(key)]

    def relations_with_attribute(self, attribute: str) -> list[str]:
        """Names of relations that expose the value attribute ``attribute``."""
        return [
            name for name, table in self._relations.items() if table.has_attribute(attribute)
        ]

    def all_keys(self) -> set[str]:
        """The union of primary-key values across the corpus."""
        keys: set[str] = set()
        for table in self._relations.values():
            keys.update(table.keys)
        return keys

    def total_cells(self) -> int:
        """Total number of cells in the corpus (rows times attributes)."""
        return sum(table.row_count * table.column_count for table in self._relations.values())
