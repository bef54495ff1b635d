"""Tests for the tokenizer and embedding substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, TokenizerError
from repro.llm import embedding
from repro.llm.embedding import EmbeddingModel
from repro.llm.tokenizer import Tokenizer, count_tokens, default_tokenizer


class TestTokenizer:
    def test_pieces_lossless(self):
        tok = Tokenizer()
        text = "Hello, world!  Multi  spaces."
        assert "".join(tok.pieces(text)) == text

    @given(st.text(max_size=300))
    @settings(max_examples=60)
    def test_pieces_lossless_property(self, text):
        tok = default_tokenizer()
        assert "".join(tok.pieces(text)) == text

    def test_long_words_split(self):
        tok = Tokenizer(max_word_len=4)
        pieces = tok.pieces("abcdefgh")
        assert pieces == ["abcd", "efgh"]

    def test_count_excludes_whitespace(self):
        assert count_tokens("one two three") == 3

    def test_count_includes_punctuation(self):
        assert count_tokens("yes, no.") == 4

    def test_token_id_stable_and_bounded(self):
        tok = Tokenizer(vocab_size=1000)
        assert tok.token_id("hello") == tok.token_id("hello")
        assert 0 <= tok.token_id("hello") < 1000

    def test_content_tokens_lowercased_alnum(self):
        tok = Tokenizer()
        assert tok.content_tokens("Hello, World 42!") == ["hello", "world", "42"]

    def test_rejects_tiny_vocab(self):
        with pytest.raises(TokenizerError):
            Tokenizer(vocab_size=10)

    def test_rejects_tiny_word_len(self):
        with pytest.raises(TokenizerError):
            Tokenizer(max_word_len=1)

    def test_tokenizers_compare_equal_whatever_they_encoded(self):
        a, b = Tokenizer(), Tokenizer()
        a.encode("same text")
        b.encode("same text")
        assert a == b
        a.encode("a different warm-up")
        b.count_many(["and another"])
        assert a == b
        assert a != Tokenizer(max_word_len=4)


class TestEmbedding:
    def test_deterministic(self):
        model = EmbeddingModel(seed=1)
        assert np.allclose(model.embed("the cat"), model.embed("the cat"))

    def test_unit_norm(self):
        model = EmbeddingModel()
        assert np.isclose(np.linalg.norm(model.embed("some text here")), 1.0, atol=1e-5)

    def test_lexical_similarity_ordering(self):
        model = EmbeddingModel()
        close = model.similarity("the red fox jumps", "the red fox runs")
        far = model.similarity("the red fox jumps", "quarterly revenue grew")
        assert close > far

    def test_stem_smoothing(self):
        model = EmbeddingModel()
        with_stem = model.similarity("configure", "configuration")
        no_stem = EmbeddingModel(stem_weight=0.0).similarity("configure", "configuration")
        assert with_stem > no_stem

    def test_bigram_order_sensitivity(self):
        model = EmbeddingModel(bigram_weight=0.5)
        same = model.similarity("berlin to rome", "berlin to rome")
        swapped = model.similarity("berlin to rome", "rome to berlin")
        assert same > swapped

    def test_different_seeds_differ(self):
        a = EmbeddingModel(seed=1).embed("hello world")
        b = EmbeddingModel(seed=2).embed("hello world")
        assert not np.allclose(a, b)

    def test_empty_text_stable(self):
        model = EmbeddingModel()
        assert np.allclose(model.embed(""), model.embed("   "))

    def test_batch_shape(self):
        model = EmbeddingModel(dim=32)
        matrix = model.embed_batch(["a b", "c d", "e f"])
        assert matrix.shape == (3, 32)
        assert model.embed_batch([]).shape == (0, 32)

    def test_idf_downweights_common_tokens(self):
        corpus = [f"common word doc {i}" for i in range(50)] + ["rare gem"]
        model = EmbeddingModel().fit_idf(corpus)
        plain = EmbeddingModel()
        # With IDF, the rare token dominates a mixed query more.
        sim_fit = model.similarity("common gem", "rare gem")
        sim_plain = plain.similarity("common gem", "rare gem")
        assert sim_fit > sim_plain

    def test_models_compare_equal_after_embedding_the_same_text(self):
        # Own tokenizers, so their id caches fill separately too.
        a = EmbeddingModel(dim=16, tokenizer=Tokenizer())
        b = EmbeddingModel(dim=16, tokenizer=Tokenizer())
        a.embed("alpha beta")
        b.embed("alpha beta")
        assert a == b

    def test_models_compare_equal_after_different_warm_ups(self):
        a = EmbeddingModel(dim=16, tokenizer=Tokenizer())
        b = EmbeddingModel(dim=16, tokenizer=Tokenizer())
        a.embed_batch(["alpha beta", "gamma"])
        b.embed("delta epsilon")
        assert a == b
        assert a != EmbeddingModel(dim=16, seed=1, tokenizer=Tokenizer())

    def test_rejects_small_dim(self):
        with pytest.raises(ConfigError):
            EmbeddingModel(dim=4)


class TestEmbeddingMemo:
    def test_writing_into_results_leaves_the_next_call_unchanged(self):
        texts = ["the red fox", "", "the red fox", "quarterly revenue"]
        expected = EmbeddingModel(dim=16).embed_batch(texts)
        model = EmbeddingModel(dim=16)
        model.embed("the red fox")[:] = 0.0
        model.embed_batch(texts)[:] = 0.0
        assert np.array_equal(model.embed("the red fox"), expected[0])
        assert np.array_equal(model.embed_batch(texts), expected)

    def test_memo_never_exceeds_its_bound(self, monkeypatch):
        model = EmbeddingModel(dim=8)
        model.embed_batch([f"text {i}" for i in range(embedding.MEMO_ROWS + 10)])
        assert len(model._memo) == embedding.MEMO_ROWS
        monkeypatch.setattr(embedding, "MEMO_ROWS", 3)
        small = EmbeddingModel(dim=8)
        for i in range(5):
            small.embed(f"word {i}")
            assert len(small._memo) <= 3
        small.embed_batch([f"term {i}" for i in range(7)])
        assert list(small._memo) == ["term 4", "term 5", "term 6"]

    def test_batch_with_more_distinct_misses_than_the_bound(self, monkeypatch):
        monkeypatch.setattr(embedding, "MEMO_ROWS", 2)
        texts = ["alpha beta", "gamma", "delta", "alpha beta", "", "epsilon", "gamma"]
        model = EmbeddingModel(dim=16)
        model.embed("delta")  # a hit that this batch's own misses evict
        stacked = np.stack([EmbeddingModel(dim=16).embed(t) for t in texts])
        assert np.array_equal(model.embed_batch(texts), stacked)
        assert len(model._memo) == 2

    @staticmethod
    def _state(model):
        slab = b"" if model._slab is None else model._slab.tobytes()
        memo = [(text, model._memo_rows[slot].tobytes()) for text, slot in model._memo.items()]
        return (memo, dict(model._keys), list(model._owners), model._stored, slab,
                model.generation)

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: m.embed(None),
            lambda m: m.embed(123),
            lambda m: m.embed(["a"]),
            lambda m: m.embed_batch(["fresh text", None]),
            lambda m: m.embed_batch(["the red fox", 123]),
            lambda m: m.embed_batch(["fresh text", ["a"]]),
        ],
        ids=["embed-none", "embed-int", "embed-list", "batch-none", "batch-int", "batch-list"],
    )
    def test_a_non_string_text_raises_a_typed_error_and_changes_nothing(self, call):
        # The tokenizer's regex used to raise a bare TypeError.
        model = EmbeddingModel(dim=16)
        model.embed_batch(["the red fox", "quarterly revenue"])
        before = self._state(model)
        with pytest.raises(TokenizerError, match="needs a str text|needs str texts"):
            call(model)
        assert self._state(model) == before

    def test_models_compare_and_repr_without_the_memo(self):
        warm, cold = EmbeddingModel(dim=16), EmbeddingModel(dim=16)
        warm.embed("text")
        assert warm == cold
        assert repr(warm) == repr(cold)
        assert "_memo" not in repr(warm)
