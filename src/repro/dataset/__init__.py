"""In-memory relational substrate (the corpus of tables ``D`` of the paper).

The IEA corpus is made of wide tables keyed by a single ``Index`` column and
whose remaining attributes are mostly years (see Figure 1 of the paper).
:class:`~repro.dataset.relation.Relation` models exactly that shape — a
primary-key column plus named value attributes — while
:class:`~repro.dataset.database.Database` holds the corpus and answers the
look-ups issued by the SQL engine and the query generator.  Relations are
built in memory (the synthetic corpus in :mod:`repro.synth.energy_data`);
there is no file import or export.

Layering contract: layer 2 of the enforced import DAG (peer of
``analysis``/``ml``/``text``) — may import only ``errors``, ``config`` and
same-layer peers; never ``sqlengine`` or anything above. Enforced by
reprolint; see ``docs/architecture.md``.
"""

from repro.dataset.database import Database
from repro.dataset.relation import Relation
from repro.dataset.types import Value, coerce_value, is_missing, is_numeric

__all__ = [
    "Database",
    "Relation",
    "Value",
    "coerce_value",
    "is_missing",
    "is_numeric",
]
