"""The vectorized claim pipeline: matrices as the unit of work.

Algorithm 1 re-scores every pending claim after every batch, so the
prediction/planning hot path must not loop over claims in Python.  This
package provides the three pieces that make the batch the native shape of
the system:

* :class:`~repro.pipeline.feature_store.ClaimFeatureStore` — featurize the
  corpus once per featurizer generation into cached rows, invalidated
  automatically when the vocabulary is refit.
* :class:`~repro.pipeline.batch.ClaimBatchPredictions` — per-property
  probability matrices for a batch of claims, with lazy materialization of
  ranked per-claim :class:`~repro.ml.base.Prediction` objects.
* :mod:`~repro.pipeline.scoring` — vectorized expected verification cost
  and training utility over whole batches, feeding claim ordering.

The single-claim entry points (``ClaimTranslator.predict``,
``Classifier.predict``) remain as thin wrappers over the batch path.

Layering contract: layer 7 of the enforced import DAG (peer of
``planning``) — may import ``translation``, ``claims`` and
everything below, plus its peer; never ``crowd``, ``api``, ``runtime``,
``serving`` or ``gateway``. Enforced by reprolint; see
``docs/architecture.md``.
"""

from repro.pipeline.batch import ClaimBatchPredictions, PropertyBatch
from repro.pipeline.feature_store import ClaimFeatureStore
from repro.pipeline.scoring import estimate_costs, estimate_utilities

__all__ = [
    "ClaimBatchPredictions",
    "ClaimFeatureStore",
    "PropertyBatch",
    "estimate_costs",
    "estimate_utilities",
]
