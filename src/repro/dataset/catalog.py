"""Lightweight catalog over a :class:`~repro.dataset.database.Database`.

The paper stresses that the corpus "does not come with rich metadata beyond
table and attribute names"; the catalog therefore derives what little
structure is available — key/attribute vocabularies, per-relation summaries,
and inverted indexes from key values and attributes back to relations — and
exposes it to the classifiers and to the question planner.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.dataset.database import Database
from repro.dataset.types import is_numeric


@dataclass(frozen=True)
class RelationSummary:
    """Descriptive statistics for a single relation."""

    name: str
    key_attribute: str
    row_count: int
    column_count: int
    numeric_cell_count: int
    missing_cell_count: int
    description: str = ""

    @property
    def cell_count(self) -> int:
        return self.row_count * self.column_count

    @property
    def density(self) -> float:
        """Fraction of cells that hold a numeric measurement."""
        if self.cell_count == 0:
            return 0.0
        return self.numeric_cell_count / self.cell_count


class Catalog:
    """Derived metadata and inverted indexes for a database corpus."""

    def __init__(self, database: Database) -> None:
        self._database = database
        self._summaries: dict[str, RelationSummary] = {}
        self._key_index: dict[str, set[str]] = defaultdict(set)
        self._attribute_index: dict[str, set[str]] = defaultdict(set)
        self._build()

    def _build(self) -> None:
        for relation in self._database:
            numeric = 0
            missing = 0
            for attribute in relation.attributes:
                for value in relation.column(attribute):
                    if is_numeric(value):
                        numeric += 1
                    elif value is None:
                        missing += 1
                self._attribute_index[attribute].add(relation.name)
            for key in relation.keys:
                self._key_index[key].add(relation.name)
            self._summaries[relation.name] = RelationSummary(
                name=relation.name,
                key_attribute=relation.key_attribute,
                row_count=relation.row_count,
                column_count=relation.column_count,
                numeric_cell_count=numeric,
                missing_cell_count=missing,
                description=relation.description,
            )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def database(self) -> Database:
        return self._database

    def summary(self, relation_name: str) -> RelationSummary:
        return self._summaries[relation_name]

    def summaries(self) -> list[RelationSummary]:
        return list(self._summaries.values())

    def relations_for_key(self, key: str) -> set[str]:
        """Relations whose primary key contains ``key``."""
        return set(self._key_index.get(key, set()))

    def attribute_vocabulary(self) -> list[str]:
        """Every value-attribute name seen anywhere in the corpus, sorted."""
        return sorted(self._attribute_index)

    def shared_keys(self, first: str, second: str) -> set[str]:
        """Primary-key values present in both named relations."""
        first_relation = self._database.relation(first)
        second_relation = self._database.relation(second)
        return set(first_relation.keys) & set(second_relation.keys)
