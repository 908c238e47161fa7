"""The vectorized claim pipeline: matrices as the unit of work.

Algorithm 1 re-scores every pending claim after every batch, so the
prediction/planning hot path must not loop over claims in Python.  This
package provides the two pieces that make the batch the native shape of
the system:

* :class:`~repro.pipeline.feature_store.ClaimFeatureStore` — featurize
  each claim once into cached rows over a featurizer that is fitted once
  and never refitted.
* :class:`~repro.pipeline.batch.ClaimBatchPredictions` — per-property
  probability matrices for a batch of claims, with lazy materialization of
  ranked per-claim :class:`~repro.ml.base.Prediction` objects.

:mod:`repro.planning.scoring` turns the probability matrices into
vectorized expected verification cost and training utility, and each
selected claim is planned from its row of the same batch.  There is no
single-claim prediction path: ``ClaimTranslator.predict`` is row 0 of a
one-claim batch.

Layering contract: layer 5 of the enforced import DAG (peer of
``claims``) — may import ``claims``, ``ml`` and everything below; never
``translation``, ``planning`` or anything above them. Enforced by
reprolint; see ``docs/architecture.md``.
"""

from repro.pipeline.batch import ClaimBatchPredictions, PropertyBatch
from repro.pipeline.feature_store import ClaimFeatureStore

__all__ = [
    "ClaimBatchPredictions",
    "ClaimFeatureStore",
    "PropertyBatch",
]
