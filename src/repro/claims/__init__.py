"""Claims, documents, annotations and the annotated corpus.

This package models the inputs of the verification problem (Section 2 of
the paper): a text document divided into sections and sentences, claims
(explicit or general) referring to data, the annotations left by checkers
who verified claims in the past, and the corpus object tying everything
together with the database.

Layering contract: layer 5 of the enforced import DAG (peer of
``pipeline``) — may import ``formulas``, ``sqlengine``,
``dataset``/``ml``/``text``/``analysis``, ``config`` and ``errors``;
never ``translation`` or anything above.
Enforced by reprolint; see ``docs/architecture.md``.
"""

from repro.claims.annotations import CheckerAnnotation, build_annotation
from repro.claims.corpus import AnnotatedClaim, ClaimCorpus, PropertyFrequencyProfile
from repro.claims.document import Document, Section, Sentence
from repro.claims.model import Claim, ClaimGroundTruth, ClaimProperty, ComparisonOp

__all__ = [
    "AnnotatedClaim",
    "CheckerAnnotation",
    "Claim",
    "ClaimCorpus",
    "ClaimGroundTruth",
    "ClaimProperty",
    "ComparisonOp",
    "Document",
    "PropertyFrequencyProfile",
    "Section",
    "Sentence",
    "build_annotation",
]
