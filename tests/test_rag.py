"""Tests for chunking, retrievers, rerankers, and the RAG pipelines."""

import pytest

from repro.data.documents import Document
from repro.errors import ConfigError
from repro.llm.embedding import EmbeddingModel
from repro.rag import (
    BM25Retriever,
    DenseRetriever,
    EmbeddingReranker,
    HybridRetriever,
    LLMReranker,
    RAGPipeline,
    chunk_corpus,
    fixed_chunks,
    semantic_chunks,
    sentence_chunks,
    split_sentences,
)


def _doc(text, doc_id="d0"):
    return Document(doc_id=doc_id, title="t", text=text)


class TestChunking:
    def test_split_sentences(self):
        assert split_sentences("One. Two! Three?") == ["One.", "Two!", "Three?"]

    def test_fixed_chunks_cover_text(self):
        doc = _doc("word " * 200)
        chunks = fixed_chunks(doc, chunk_tokens=50, overlap_tokens=10)
        assert len(chunks) >= 4
        assert all(c.doc_id == "d0" for c in chunks)
        assert [c.position for c in chunks] == list(range(len(chunks)))

    def test_fixed_chunks_overlap(self):
        doc = _doc(" ".join(f"w{i}" for i in range(100)))
        chunks = fixed_chunks(doc, chunk_tokens=40, overlap_tokens=20)
        assert "w39" in chunks[0].text
        assert "w20" in chunks[1].text  # overlap region repeats

    def test_fixed_chunks_validation(self):
        with pytest.raises(ConfigError):
            fixed_chunks(_doc("x"), chunk_tokens=0)
        with pytest.raises(ConfigError):
            fixed_chunks(_doc("x"), chunk_tokens=10, overlap_tokens=10)

    def test_sentence_chunks_never_split_sentences(self):
        sentences = [f"Sentence number {i} is here." for i in range(20)]
        doc = _doc(" ".join(sentences))
        chunks = sentence_chunks(doc, max_tokens=20)
        reassembled = " ".join(c.text for c in chunks)
        assert reassembled == doc.text
        for chunk in chunks:
            for sentence in split_sentences(chunk.text):
                assert sentence in sentences

    def test_semantic_chunks_split_on_topic_shift(self):
        embedder = EmbeddingModel()
        topic_a = "the fox ran through the forest. " * 3
        topic_b = "quarterly revenue exceeded forecasts. " * 3
        doc = _doc((topic_a + topic_b).strip())
        chunks = semantic_chunks(doc, embedder, similarity_threshold=0.3, max_tokens=500)
        assert len(chunks) >= 2

    def test_chunk_corpus_strategies(self):
        docs = [_doc("A b c. D e f. G h i.", doc_id=f"d{i}") for i in range(3)]
        assert chunk_corpus(docs, strategy="fixed", chunk_tokens=4, overlap_tokens=0)
        assert chunk_corpus(docs, strategy="sentence")
        with pytest.raises(ConfigError):
            chunk_corpus(docs, strategy="semantic")  # embedder required
        with pytest.raises(ConfigError):
            chunk_corpus(docs, strategy="magic")


@pytest.fixture(scope="module")
def chunked(world, docs):
    return chunk_corpus(list(docs), strategy="sentence")


class TestRetrievers:
    def test_dense_finds_relevant_doc(self, world, chunked):
        retriever = DenseRetriever(EmbeddingModel())
        retriever.add(chunked)
        company = world.companies[0]
        hits = retriever.retrieve(f"{company.name} headquarters", k=3)
        assert any(company.name in rc.chunk.text for rc in hits)

    def test_dense_dedups_chunk_ids(self, chunked):
        retriever = DenseRetriever(EmbeddingModel())
        retriever.add(chunked[:10])
        retriever.add(chunked[:10])
        assert len(retriever) == 10

    def test_bm25_exact_term_match(self, world, chunked):
        retriever = BM25Retriever()
        retriever.add(chunked)
        company = world.companies[0]
        hits = retriever.retrieve(company.name, k=3)
        assert hits and company.name.split()[0] in hits[0].chunk.text

    def test_bm25_empty_query_terms(self, chunked):
        retriever = BM25Retriever()
        retriever.add(chunked[:5])
        assert retriever.retrieve("zzzzunknownterm", k=3) == []

    def test_bm25_validation(self):
        with pytest.raises(ConfigError):
            BM25Retriever(k1=0)

    def test_hybrid_fuses(self, world, chunked):
        dense = DenseRetriever(EmbeddingModel())
        sparse = BM25Retriever()
        hybrid = HybridRetriever(dense, sparse)
        hybrid.add(chunked)
        company = world.companies[1]
        hits = hybrid.retrieve(f"where is {company.name}", k=5)
        assert len(hits) == 5
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)


class TestRerankers:
    def test_embedding_reranker_orders_by_similarity(self, chunked):
        reranker = EmbeddingReranker(EmbeddingModel())
        candidates = DenseRetriever(EmbeddingModel())
        candidates.add(chunked)
        initial = candidates.retrieve("city population", k=10)
        ranked = reranker.rerank("city population", initial, k=5)
        assert len(ranked) == 5
        scores = [r.score for r in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_llm_reranker_returns_permutation(self, llm, chunked):
        retriever = DenseRetriever(llm.embedder)
        retriever.add(chunked)
        candidates = retriever.retrieve("company revenue", k=6)
        ranked = LLMReranker(llm).rerank("company revenue", candidates)
        assert {r.chunk.chunk_id for r in ranked} == {
            c.chunk.chunk_id for c in candidates
        }

    def test_rerankers_handle_empty(self, llm):
        assert EmbeddingReranker(EmbeddingModel()).rerank("q", []) == []
        assert LLMReranker(llm).rerank("q", []) == []


class TestRAGPipeline:
    @pytest.fixture()
    def pipeline(self, llm, docs):
        return RAGPipeline.from_documents(llm, docs)

    def test_rag_beats_closed_book(self, pipeline, qa):
        questions = qa.single_hop(25)
        closed = sum(
            pipeline.answer_closed_book(q.text).text == q.answer for q in questions
        )
        grounded = sum(pipeline.answer(q.text).text == q.answer for q in questions)
        assert grounded > closed

    def test_answer_carries_evidence(self, pipeline, qa):
        answer = pipeline.answer(qa.single_hop(1)[0].text)
        assert answer.retrieved

    def test_iterative_beats_single_shot_on_multihop(self, pipeline, qa):
        questions = qa.multi_hop(20)
        single = sum(pipeline.answer(q.text).text == q.answer for q in questions)
        iterative = sum(
            pipeline.answer_iterative(q.text).text == q.answer for q in questions
        )
        assert iterative > single

    def test_iterative_falls_back_on_single_hop(self, pipeline, qa):
        q = qa.single_hop(1)[0]
        answer = pipeline.answer_iterative(q.text)
        assert answer.hops == 1

    def test_reflective_reduces_confidently_wrong(self, llm, docs, qa):
        pipeline = RAGPipeline.from_documents(llm, docs, context_chunks=2)
        questions = qa.single_hop(30)
        base_wrong = sum(
            1
            for q in questions
            if (a := pipeline.answer(q.text)).text != q.answer and not a.abstained
        )
        reflect_wrong = sum(
            1
            for q in questions
            if (a := pipeline.answer_reflective(q.text)).text != q.answer
            and not a.abstained
        )
        assert reflect_wrong <= base_wrong

    def test_reflective_marks_support(self, pipeline, qa):
        answer = pipeline.answer_reflective(qa.single_hop(1)[0].text)
        assert answer.reflected
        assert answer.supported in (True, False)

    def test_rerank_options(self, llm, docs):
        assert RAGPipeline.from_documents(llm, docs, rerank="embedding").reranker
        assert RAGPipeline.from_documents(llm, docs, rerank="llm").reranker
