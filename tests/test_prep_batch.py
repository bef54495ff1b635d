"""Parity tests for the offline data-path overhaul.

Mirrors ``tests/test_vector_batch.py``: every vectorized prep kernel must
return *identical* output to the frozen pre-overhaul implementation in
``benchmarks/perf/_legacy_prep.py`` — same shingle sets, bitwise-equal
MinHash signatures, identical dedup clusters and accounting, bitwise-equal
embedding matrices, and identical HNSW graphs and search results.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.perf._legacy_prep import (
    LegacyEmbeddingModel,
    LegacyHNSWIndex,
    LegacyMinHashDeduper,
    legacy_line_dedup,
    legacy_shingles,
)
from repro.data.synth import CorpusBuilder, CorpusConfig, TrainingDocument
from repro.llm.embedding import EmbeddingModel
from repro.llm.tokenizer import Tokenizer
from repro.prep.dedup import (
    _MERSENNE,
    MinHashDeduper,
    line_dedup,
    shingle_hashes_many,
    shingles,
)
from repro.vector.hnsw import HNSWIndex


@pytest.fixture(scope="module")
def corpus():
    """Small labelled corpus with exact/near duplicates injected."""
    return CorpusBuilder(CorpusConfig(docs_per_domain=30, seed=13)).build()


def _doc(doc_id: str, text: str) -> TrainingDocument:
    return TrainingDocument(doc_id=doc_id, text=text, domain="news", quality="clean")


# ---------------------------------------------------------------- tokenizer


class TestTokenizerBatch:
    TEXTS = [
        "Plain ASCII words only",
        "MixedCase With UPPER and lower",
        "under_scores and __dunder__ tokens",
        "punctuation! (lots); of... it?",
        "unicode naïve café données схема",
        "long " + "x" * 30 + " words " + "y" * 17,
        "digits 123 and a1b2c3 mixes",
        "",
        "   \t\n  ",
        "___",
        "…ellipsis—dashes",
    ]

    def test_content_tokens_many_matches_scalar(self):
        tok = Tokenizer()
        assert tok.content_tokens_many(self.TEXTS) == [
            tok.content_tokens(t) for t in self.TEXTS
        ]

    def test_count_many_matches_scalar(self):
        tok = Tokenizer()
        by_piece = [sum(not p.isspace() for p in tok.pieces(t)) for t in self.TEXTS]
        assert tok.count_many(self.TEXTS) == [tok.count(t) for t in self.TEXTS] == by_piece

    def test_count_many_long_word_split(self):
        tok = Tokenizer(max_word_len=4)
        text = "abcdefghij x!"  # 10-char word -> 3 pieces, 1 word, 1 punct
        assert tok.count_many([text]) == [tok.count(text)] == [5]


# -------------------------------------------------------------------- dedup


class TestMinHashParity:
    def test_shingle_hashes_match_legacy_sets(self, corpus):
        texts = [d.text for d in corpus]
        arrays = shingle_hashes_many(texts)
        deduper = MinHashDeduper()
        n = deduper.shingle_size
        tok = Tokenizer()
        for text, values in zip(texts, arrays):
            if len(tok.content_tokens(text)) >= n:
                assert set(values.tolist()) == legacy_shingles(text, n)

    def test_string_hash_fallback_matches_legacy_sets(self):
        # 300 distinct tokens with n = 8: 300**8 >= 2**63, so packed int64
        # window keys would overflow and every window is hashed as a string.
        n = 8
        vocab = [f"t{i:03d}" for i in range(300)]
        assert len(vocab) ** n >= 2**63
        texts = [
            " ".join(vocab[i : i + 40]) for i in range(0, 300, 20)
        ] + [" ".join(vocab[:12] * 2), " ".join(vocab[:3]), "", " ".join(vocab[:40])]
        arrays = shingle_hashes_many(texts, n)
        tok = Tokenizer()
        for text, values in zip(texts, arrays):
            tokens = tok.content_tokens(text)
            assert values.dtype == np.int64
            assert values.shape[0] == max(len(tokens) - n + 1, int(bool(tokens)))
            # The frozen short-document branch skips the modulo reduction.
            assert set(values.tolist()) == {
                v % _MERSENNE for v in legacy_shingles(text, n)
            }
        # Long documents only: the legacy signature overflows on an
        # unreduced short-document hash above 2**63 - 1.
        docs = [
            _doc(f"d{i:02d}", t)
            for i, t in enumerate(texts)
            if len(tok.content_tokens(t)) >= n
        ]
        new = MinHashDeduper(shingle_size=n).dedup(docs)
        old = LegacyMinHashDeduper(shingle_size=n).dedup(docs)
        assert [d.doc_id for d in new.kept] == [d.doc_id for d in old.kept]
        assert new.clusters == old.clusters
        assert (new.candidate_pairs, new.verified_pairs) == (
            old.candidate_pairs,
            old.verified_pairs,
        )

    def test_signature_many_matches_legacy(self, corpus):
        texts = [d.text for d in corpus]
        new = MinHashDeduper()
        old = LegacyMinHashDeduper()
        signatures = new.signature_many(shingle_hashes_many(texts))
        for i, text in enumerate(texts):
            expected = old.signature(legacy_shingles(text))
            assert np.array_equal(signatures[i], expected), f"doc {i}"

    def test_dedup_output_matches_legacy(self, corpus):
        new = MinHashDeduper().dedup(corpus)
        old = LegacyMinHashDeduper().dedup(corpus)
        assert [d.doc_id for d in new.kept] == [d.doc_id for d in old.kept]
        assert sorted(d.doc_id for d in new.removed) == sorted(
            d.doc_id for d in old.removed
        )
        assert sorted(map(sorted, new.clusters)) == sorted(map(sorted, old.clusters))
        assert new.candidate_pairs == old.candidate_pairs
        assert new.verified_pairs == old.verified_pairs

    def test_short_doc_shingle_is_reduced(self):
        # Regression: the short-document branch must reduce modulo the
        # Mersenne prime like every other shingle hash, so signatures never
        # overflow int64.
        values = shingles("two words")
        assert values and all(0 <= v < _MERSENNE for v in values)
        docs = [_doc("a", "two words"), _doc("b", "two words"), _doc("c", "")]
        result = MinHashDeduper().dedup(docs)
        assert [d.doc_id for d in result.kept] == ["a", "c"]

    def test_exact_duplicates_cluster(self):
        text = (
            "the quick brown fox jumps over the lazy dog and keeps on "
            "running through the quiet green field until sunset"
        )
        docs = [_doc(f"d{i}", text) for i in range(4)] + [
            _doc("other", "completely different content about database systems "
                 "and vectorized query execution engines")
        ]
        result = MinHashDeduper().dedup(docs)
        assert [d.doc_id for d in result.kept] == ["d0", "other"]
        assert result.clusters == [[0, 1, 2, 3]]


class TestLineDedup:
    def test_matches_legacy(self, corpus):
        new_docs, new_removed = line_dedup(corpus)
        old_docs, old_removed = legacy_line_dedup(corpus)
        assert new_removed == old_removed
        assert [(d.doc_id, d.text) for d in new_docs] == [
            (d.doc_id, d.text) for d in old_docs
        ]

    def test_golden(self):
        boiler = "Subscribe to our newsletter."
        docs = [
            _doc("a", f"Alpha fact one. {boiler} Alpha fact two."),
            _doc("b", f"{boiler} Beta fact one."),
            _doc("c", f"Gamma fact. {boiler}"),
            _doc("d", "Delta fact. Delta fact."),
        ]
        kept, removed = line_dedup(docs, max_occurrences=2)
        # The boilerplate line appears in 3 documents (> 2) and is dropped
        # everywhere; the within-document repeat in "d" is dropped too.
        assert [(d.doc_id, d.text) for d in kept] == [
            ("a", "Alpha fact one. Alpha fact two."),
            ("b", "Beta fact one."),
            ("c", "Gamma fact."),
            ("d", "Delta fact."),
        ]
        assert removed == 4


# ---------------------------------------------------------------- embedding


class TestEmbeddingParity:
    def test_embed_batch_matches_scalar_embed(self, corpus):
        texts = [d.text for d in corpus][:120] + ["", "   ", "one"]
        model = EmbeddingModel(dim=64, seed=5)
        batched = model.embed_batch(texts)
        stacked = np.stack([EmbeddingModel(dim=64, seed=5).embed(t) for t in texts])
        assert np.array_equal(batched, stacked)

    def test_embed_batch_matches_legacy_fitted(self, corpus):
        texts = [d.text for d in corpus][:150]
        new = EmbeddingModel(dim=64, seed=2).fit_idf(texts)
        old = LegacyEmbeddingModel(dim=64, seed=2).fit_idf(texts)
        assert new._doc_freq == old._doc_freq
        assert new._num_docs == old._num_docs
        assert np.array_equal(new.embed_batch(texts), old.embed_batch(texts))

    def test_fit_idf_accumulates_across_calls(self):
        texts_a = ["alpha beta", "beta gamma"]
        texts_b = ["beta delta"]
        new = EmbeddingModel(dim=32).fit_idf(texts_a).fit_idf(texts_b)
        old = LegacyEmbeddingModel(dim=32).fit_idf(texts_a).fit_idf(texts_b)
        assert new._doc_freq == old._doc_freq
        assert new._num_docs == old._num_docs


# --------------------------------------------------------------------- hnsw


class TestHNSWParity:
    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(21)
        vectors = rng.standard_normal((600, 32)).astype(np.float32)
        queries = rng.standard_normal((20, 32)).astype(np.float32)
        return vectors, queries

    def _build_pair(self, vectors):
        ids = [f"v{i}" for i in range(vectors.shape[0])]
        new = HNSWIndex(32, m=8, ef_construction=60, ef_search=40, seed=3)
        old = LegacyHNSWIndex(32, m=8, ef_construction=60, ef_search=40, seed=3)
        new.add(ids, vectors)
        old.add(ids, vectors)
        return new, old

    def test_build_produces_identical_graph(self, workload):
        vectors, _ = workload
        new, old = self._build_pair(vectors)
        assert new._entry == old._entry
        assert new._entry_level == old._entry_level
        assert new._node_level == old._node_level
        assert new.num_layers == len(old._graph)
        for layer in range(new.num_layers):
            assert new.layer_adjacency(layer) == old._graph[layer], f"layer {layer}"

    def test_search_matches_legacy_index(self, workload):
        # Bitwise: the query path issues the same per-expansion BLAS
        # product as the frozen baseline, so ids AND scores are identical.
        vectors, queries = workload
        new, old = self._build_pair(vectors)
        for q in queries:
            assert new.search(q, 10) == old.search(q, 10)
        new.remove("v7")
        old.remove("v7")
        for q in queries[:5]:
            assert new.search(q, 10) == old.search(q, 10)

    def test_search_many_matches_looped_search(self, workload):
        vectors, queries = workload
        ids = [f"v{i}" for i in range(vectors.shape[0])]
        index = HNSWIndex(32, m=8, ef_search=40, seed=1)
        index.add(ids, vectors)
        batched = index.search_many(queries, 10)
        assert batched == [index.search(q, 10) for q in queries]
