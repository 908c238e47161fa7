"""Tests for tokenisation and sentence splitting."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.text.tokenizer import Tokenizer, normalize_whitespace, sentence_split


class TestTokenizer:
    def test_basic_tokenisation(self):
        tokens = Tokenizer()("In 2017, global electricity demand grew by 3%.")
        assert "2017" in tokens
        assert "electricity" in tokens
        assert "3%" in tokens

    def test_lowercasing(self):
        assert Tokenizer()("Global Demand") == ["global", "demand"]

    def test_stopword_removal(self):
        tokens = Tokenizer(remove_stopwords=True)("the demand of the world")
        assert "the" not in tokens and "demand" in tokens

    def test_empty_text(self):
        assert Tokenizer()("") == []

    def test_apostrophes_kept_in_words(self):
        assert "world's" in Tokenizer()("the world's energy")

    @given(st.text(max_size=200))
    def test_never_raises_and_returns_list(self, text):
        tokens = Tokenizer()(text)
        assert isinstance(tokens, list)


class TestSentenceSplit:
    def test_splits_on_period(self):
        sentences = sentence_split("Demand grew. Supply fell.")
        assert len(sentences) == 2

    def test_single_sentence(self):
        assert sentence_split("Demand grew by 3%") == ["Demand grew by 3%"]

    def test_empty(self):
        assert sentence_split("") == []

    def test_normalize_whitespace(self):
        assert normalize_whitespace("a   b\t c") == "a b c"
