"""Claim-to-query translation (Section 4 of the paper).

The pipeline has three stages: claim preprocessing into feature matrices
(:mod:`repro.translation.preprocess`), the four property classifiers
(:mod:`repro.translation.classifiers`), and the query-generation algorithm
(Algorithm 2, :mod:`repro.translation.querygen`).  The
:class:`~repro.translation.translator.ClaimTranslator` facade glues them
together and is the component Algorithm 1 calls for every claim.

Layering contract: layer 6 of the enforced import DAG — may import
``claims``/``pipeline``, ``formulas``, ``sqlengine``,
``dataset``/``ml``/``text``, ``config`` and ``errors``; never
``planning`` or anything above. Enforced by reprolint; see
``docs/architecture.md``.
"""

from repro.translation.classifiers import PropertyClassifierSuite, TrainingExample
from repro.translation.preprocess import ClaimPreprocessor
from repro.translation.querygen import QueryCandidate, QueryGenerationResult, QueryGenerator
from repro.translation.translator import ClaimTranslator, TranslationResult

__all__ = [
    "ClaimPreprocessor",
    "ClaimTranslator",
    "PropertyClassifierSuite",
    "QueryCandidate",
    "QueryGenerationResult",
    "QueryGenerator",
    "TrainingExample",
    "TranslationResult",
]
