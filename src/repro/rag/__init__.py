"""Retrieval-augmented generation: chunking, retrieval, reranking, pipelines."""

from .chunking import Chunk, chunk_corpus, fixed_chunks, semantic_chunks, sentence_chunks, split_sentences
from .pipeline import RAGAnswer, RAGPipeline
from .reranker import EmbeddingReranker, LLMReranker
from .retriever import BM25Retriever, DenseRetriever, HybridRetriever, RetrievedChunk, Retriever

__all__ = [
    "Chunk",
    "chunk_corpus",
    "fixed_chunks",
    "semantic_chunks",
    "sentence_chunks",
    "split_sentences",
    "RAGAnswer",
    "RAGPipeline",
    "EmbeddingReranker",
    "LLMReranker",
    "BM25Retriever",
    "DenseRetriever",
    "HybridRetriever",
    "RetrievedChunk",
    "Retriever",
]
