"""Retrievers: dense (vector index), sparse (BM25), and hybrid fusion.

Dense retrieval is the paper's default (§2.2.1: "query and documents are
converted into embedding vectors, followed by a nearest neighbor search");
BM25 and reciprocal-rank-fusion hybrid are the standard complements.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigError
from ..llm.embedding import EmbeddingModel
from ..llm.tokenizer import Tokenizer, default_tokenizer
from ..vector.base import VectorIndex
from ..vector.flat import FlatIndex
from .chunking import Chunk


@dataclass(frozen=True)
class RetrievedChunk:
    """One retrieval result."""

    chunk: Chunk
    score: float


class Retriever:
    """Interface: ``retrieve(query, k) -> List[RetrievedChunk]``."""

    def retrieve(self, query: str, k: int = 5) -> List[RetrievedChunk]:
        raise NotImplementedError


class DenseRetriever(Retriever):
    """Embeds chunks into a vector index; queries by cosine ANN/exact search."""

    def __init__(
        self,
        embedder: EmbeddingModel,
        *,
        index: Optional[VectorIndex] = None,
    ) -> None:
        self.embedder = embedder
        self.index = index or FlatIndex(embedder.dim)
        self._chunks: Dict[str, Chunk] = {}

    def add(self, chunks: Sequence[Chunk]) -> None:
        new = [c for c in chunks if c.chunk_id not in self._chunks]
        if not new:
            return
        vectors = self.embedder.embed_batch([c.text for c in new])
        self.index.add([c.chunk_id for c in new], vectors)
        for chunk in new:
            self._chunks[chunk.chunk_id] = chunk

    def retrieve(self, query: str, k: int = 5) -> List[RetrievedChunk]:
        hits = self.index.search(self.embedder.embed(query), k=k)
        return [
            RetrievedChunk(chunk=self._chunks[h.id], score=h.score)
            for h in hits
            if h.id in self._chunks
        ]

    def __len__(self) -> int:
        return len(self._chunks)


class BM25Retriever(Retriever):
    """Okapi BM25 over chunk token bags."""

    def __init__(
        self,
        *,
        k1: float = 1.5,
        b: float = 0.75,
        tokenizer: Optional[Tokenizer] = None,
    ) -> None:
        if k1 <= 0 or not 0 <= b <= 1:
            raise ConfigError("invalid BM25 parameters")
        self.k1 = k1
        self.b = b
        self.tokenizer = tokenizer or default_tokenizer()
        self._chunks: List[Chunk] = []
        self._term_freqs: List[Counter] = []
        self._doc_freq: Counter = Counter()
        self._lengths: List[int] = []

    def add(self, chunks: Sequence[Chunk]) -> None:
        # One tokenizer pass over the whole batch; per-chunk stats and the
        # corpus document frequencies come out identical to the old
        # chunk-at-a-time loop.
        token_lists = self.tokenizer.content_tokens_many([c.text for c in chunks])
        for chunk, tokens in zip(chunks, token_lists):
            tf = Counter(tokens)
            self._chunks.append(chunk)
            self._term_freqs.append(tf)
            self._lengths.append(len(tokens))
            self._doc_freq.update(tf.keys())

    def retrieve(self, query: str, k: int = 5) -> List[RetrievedChunk]:
        if not self._chunks:
            return []
        n = len(self._chunks)
        avg_len = sum(self._lengths) / n if n else 1.0
        query_terms = self.tokenizer.content_tokens(query)
        scores = [0.0] * n
        for term in query_terms:
            df = self._doc_freq.get(term, 0)
            if df == 0:
                continue
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            for i, tf in enumerate(self._term_freqs):
                f = tf.get(term, 0)
                if f == 0:
                    continue
                denom = f + self.k1 * (1 - self.b + self.b * self._lengths[i] / avg_len)
                scores[i] += idf * f * (self.k1 + 1) / denom
        order = sorted(range(n), key=lambda i: -scores[i])[:k]
        return [
            RetrievedChunk(chunk=self._chunks[i], score=scores[i])
            for i in order
            if scores[i] > 0
        ]

    def __len__(self) -> int:
        return len(self._chunks)


class HybridRetriever(Retriever):
    """Reciprocal-rank fusion of dense and sparse result lists."""

    def __init__(
        self,
        dense: DenseRetriever,
        sparse: BM25Retriever,
        *,
        rrf_k: int = 60,
        fetch_factor: int = 3,
    ) -> None:
        self.dense = dense
        self.sparse = sparse
        self.rrf_k = rrf_k
        self.fetch_factor = fetch_factor

    def add(self, chunks: Sequence[Chunk]) -> None:
        self.dense.add(chunks)
        self.sparse.add(chunks)

    def retrieve(self, query: str, k: int = 5) -> List[RetrievedChunk]:
        fetch = max(k * self.fetch_factor, k)
        fused: Dict[str, float] = {}
        chunk_map: Dict[str, Chunk] = {}
        for results in (
            self.dense.retrieve(query, fetch),
            self.sparse.retrieve(query, fetch),
        ):
            for rank, rc in enumerate(results):
                fused[rc.chunk.chunk_id] = fused.get(rc.chunk.chunk_id, 0.0) + 1.0 / (
                    self.rrf_k + rank + 1
                )
                chunk_map[rc.chunk.chunk_id] = rc.chunk
        order = sorted(fused, key=lambda cid: -fused[cid])[:k]
        return [RetrievedChunk(chunk=chunk_map[cid], score=fused[cid]) for cid in order]
