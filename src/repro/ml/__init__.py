"""Machine-learning substrate for the property classifiers.

The paper trains one classifier per query property (relations, primary-key
values, attributes, formulas) over the Figure 4 features.  scikit-learn is
not available offline, so the package implements the needed model classes on
top of numpy: multinomial (softmax) logistic regression and a
k-nearest-neighbour fallback, together with label encoding.  The
active-learning training utility of Section 5.2 lives with the planner, in
:func:`repro.planning.utility.claim_training_utility`.

Layering contract: layer 2 of the enforced import DAG (peer of
``analysis``/``dataset``/``text``) — may import only ``errors``, ``config``
and same-layer peers; never ``sqlengine`` or anything above. Enforced by
reprolint; see ``docs/architecture.md``.
"""

from repro.ml.base import Classifier, Prediction
from repro.ml.encoding import LabelEncoder
from repro.ml.knn import KNearestNeighborsClassifier
from repro.ml.logistic import SoftmaxRegressionClassifier
from repro.ml.state import model_from_state, model_to_state

__all__ = [
    "Classifier",
    "KNearestNeighborsClassifier",
    "LabelEncoder",
    "Prediction",
    "SoftmaxRegressionClassifier",
    "model_from_state",
    "model_to_state",
]
