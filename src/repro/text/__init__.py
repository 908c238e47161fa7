"""Text-processing substrate used by the claim-to-query translation pipeline.

The pipeline of Figure 4 of the paper concatenates (i) an averaged word
embedding of the sentence, (ii) TF-IDF scores of unigrams and bigrams of the
claim and (iii) TF-IDF scores of character 3-grams.  The paper uses GloVe
pre-trained embeddings; because the reproduction must run offline we
substitute deterministic hashed random-projection embeddings
(:mod:`repro.text.embeddings`), which play the same role of a dense
distributed representation.  Each component is fitted once, in its
constructor, and its fitted tables never change afterwards; whether a
featurizer exists yet is the business of
:class:`~repro.translation.preprocess.ClaimPreprocessor`, which also stores
the fit texts a snapshot restores it from.  An explicit claim's parameter
is not parsed from its text here: it comes from the claim record
(:attr:`~repro.claims.model.Claim.parameter`).

Layering contract: layer 2 of the enforced import DAG (peer of
``analysis``/``dataset``/``ml``) — may import only ``errors``, ``config``
and same-layer peers; never ``sqlengine`` or anything above. Enforced by
reprolint; see ``docs/architecture.md``.
"""

from repro.text.embeddings import HashingWordEmbeddings
from repro.text.features import ClaimFeaturizer
from repro.text.tfidf import TfidfVectorizer, character_ngrams, word_ngrams
from repro.text.tokenizer import Tokenizer, sentence_split

__all__ = [
    "ClaimFeaturizer",
    "HashingWordEmbeddings",
    "TfidfVectorizer",
    "Tokenizer",
    "character_ngrams",
    "sentence_split",
    "word_ngrams",
]
