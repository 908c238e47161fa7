"""Tests for TF-IDF, embeddings and the claim featurizer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.text.embeddings import HashingWordEmbeddings
from repro.text.features import ClaimFeaturizer, FeaturizerConfig
from repro.text.tfidf import TfidfVectorizer, character_ngrams, word_ngrams
from repro.text.tokenizer import Tokenizer

CORPUS = [
    "global electricity demand grew by 3% in 2017",
    "coal supply declined in Europe between 2016 and 2017",
    "wind capacity additions increased nine-fold from 2000 to 2017",
    "solar PV generation expanded aggressively in China",
]


class TestNgrams:
    def test_word_unigrams_and_bigrams(self):
        grams = word_ngrams(["a", "b", "c"], orders=(1, 2))
        assert grams == ["a", "b", "c", "a b", "b c"]

    def test_character_trigrams(self):
        grams = character_ngrams("abcd", order=3)
        assert grams == ["abc", "bcd"]

    def test_short_text_returns_whole_text(self):
        assert character_ngrams("ab", order=3) == ["ab"]

    def test_invalid_order(self):
        with pytest.raises(ConfigurationError):
            word_ngrams(["a"], orders=(0,))


class TestTfidf:
    def _vectorizer(self, documents=CORPUS):
        tokenizer = Tokenizer()
        return TfidfVectorizer(lambda text: word_ngrams(tokenizer(text), (1, 2)), documents)

    @staticmethod
    def _transform(vectorizer, documents):
        return np.vstack([vectorizer.transform_one(document) for document in documents])

    def test_fit_transform_shape(self):
        vectorizer = self._vectorizer()
        matrix = self._transform(vectorizer, CORPUS)
        assert matrix.shape == (len(CORPUS), vectorizer.dimension)

    def test_rows_are_normalised(self):
        vectorizer = self._vectorizer()
        matrix = self._transform(vectorizer, CORPUS)
        norms = np.linalg.norm(matrix, axis=1)
        assert np.allclose(norms[norms > 0], 1.0)

    def test_unseen_terms_ignored(self):
        vectorizer = self._vectorizer()
        vector = vectorizer.transform_one("totally unseen words only")
        assert np.allclose(vector, 0.0)

    def test_max_features_caps_vocabulary(self):
        tokenizer = Tokenizer()
        vectorizer = TfidfVectorizer(lambda text: tokenizer(text), CORPUS, max_features=5)
        assert vectorizer.dimension == 5

    def test_min_df_filters_rare_terms(self):
        tokenizer = Tokenizer()
        unpruned = TfidfVectorizer(lambda text: tokenizer(text), CORPUS)
        vectorizer = TfidfVectorizer(lambda text: tokenizer(text), CORPUS, min_df=2)
        # Only "in" and "2017" occur in two or more documents.
        assert unpruned.dimension > vectorizer.dimension == 2
        # "nine" occurs in one document: kept without min_df, pruned with it.
        assert np.any(unpruned.transform_one("nine"))
        assert not np.any(vectorizer.transform_one("nine"))
        assert np.any(vectorizer.transform_one("2017"))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            self._vectorizer([])


class TestEmbeddings:
    def test_deterministic_vectors(self):
        first = HashingWordEmbeddings([], dimension=32, seed=1).vector("demand")
        second = HashingWordEmbeddings([], dimension=32, seed=1).vector("demand")
        assert np.allclose(first, second)

    def test_different_seeds_differ(self):
        first = HashingWordEmbeddings([], dimension=32, seed=1).vector("demand")
        second = HashingWordEmbeddings([], dimension=32, seed=2).vector("demand")
        assert not np.allclose(first, second)

    def test_unit_norm_base_vectors(self):
        vector = HashingWordEmbeddings([], dimension=16).vector("electricity")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_sentence_embedding_is_mean(self):
        embeddings = HashingWordEmbeddings([], dimension=16, smoothing=0.0)
        tokens = ["a", "b"]
        mean = (embeddings.vector("a") + embeddings.vector("b")) / 2
        assert np.allclose(embeddings.embed_tokens(tokens), mean)

    def test_empty_tokens_zero_vector(self):
        assert np.allclose(HashingWordEmbeddings([], dimension=8).embed_tokens([]), 0.0)

    def test_smoothing_pulls_cooccurring_words_closer(self):
        tokenizer = Tokenizer()
        unfitted = HashingWordEmbeddings([], dimension=64, smoothing=0.6)
        embeddings = HashingWordEmbeddings(
            tokenizer.tokenize_many(["electricity demand grew"] * 20),
            dimension=64,
            smoothing=0.6,
        )
        before = unfitted.similarity("electricity", "demand")
        after = embeddings.similarity("electricity", "demand")
        assert after > before

    def test_invalid_smoothing_rejected(self):
        with pytest.raises(Exception):
            HashingWordEmbeddings([], smoothing=1.5)


class TestClaimFeaturizer:
    def test_fit_transform_dimension(self):
        featurizer = ClaimFeaturizer(FeaturizerConfig(embedding_dimension=16), CORPUS)
        matrix = featurizer.transform_matrix(CORPUS[:1])
        assert matrix.shape == (1, featurizer.dimension)

    def test_segments_exposed(self):
        # Row layout: sentence embedding (16 columns), then the claim's
        # word and character TF-IDF scores; only the embedding sees context.
        featurizer = ClaimFeaturizer(FeaturizerConfig(embedding_dimension=16), CORPUS)
        bare = featurizer.transform_matrix(CORPUS[:1])[0]
        in_context = featurizer.transform_matrix(
            CORPUS[:1], sentence_texts=[CORPUS[0] + " Extra context."]
        )[0]
        assert not np.array_equal(bare[:16], in_context[:16])
        np.testing.assert_array_equal(bare[16:], in_context[16:])

    def test_matrix_shape(self):
        featurizer = ClaimFeaturizer(FeaturizerConfig(embedding_dimension=16), CORPUS)
        matrix = featurizer.transform_matrix(CORPUS)
        assert matrix.shape == (len(CORPUS), featurizer.dimension)

    def test_mismatched_sentence_list_rejected(self):
        featurizer = ClaimFeaturizer(FeaturizerConfig(embedding_dimension=16), CORPUS)
        with pytest.raises(ConfigurationError):
            featurizer.transform_matrix(CORPUS, sentence_texts=CORPUS[:1])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            ClaimFeaturizer(FeaturizerConfig(), [])

    @settings(deadline=None, max_examples=10)
    @given(st.text(min_size=1, max_size=80))
    def test_transform_never_raises_after_fit(self, text):
        featurizer = ClaimFeaturizer(FeaturizerConfig(embedding_dimension=8), CORPUS)
        matrix = featurizer.transform_matrix([text])
        assert np.all(np.isfinite(matrix))
