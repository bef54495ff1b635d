"""Document chunking strategies for RAG ingestion.

The paper lists "semantic document segmentation" as a core RAG challenge
(§2.2.1). Three strategies are provided:

* :func:`fixed_chunks` — fixed token windows with overlap (the baseline);
* :func:`sentence_chunks` — sentence-aligned windows (never splits a fact
  sentence in half);
* :func:`semantic_chunks` — greedy boundary placement where adjacent
  sentences' embedding similarity drops below a threshold, approximating
  topic-based segmentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..data.documents import SENTENCE_SPLIT, Document
from ..errors import ConfigError
from ..llm.embedding import EmbeddingModel
from ..llm.tokenizer import Tokenizer, default_tokenizer


@dataclass(frozen=True)
class Chunk:
    """One retrievable unit with provenance back to its document."""

    chunk_id: str
    doc_id: str
    text: str
    position: int
    meta: Dict[str, object] = field(default_factory=dict)


def split_sentences(text: str) -> List[str]:
    """Split text into sentences (simple punctuation rule)."""
    return [s.strip() for s in SENTENCE_SPLIT.split(text.strip()) if s.strip()]


def fixed_chunks(
    doc: Document,
    *,
    chunk_tokens: int = 64,
    overlap_tokens: int = 16,
    tokenizer: Optional[Tokenizer] = None,
) -> List[Chunk]:
    """Fixed-size token windows with overlap."""
    if chunk_tokens <= 0:
        raise ConfigError("chunk_tokens must be positive")
    if not 0 <= overlap_tokens < chunk_tokens:
        raise ConfigError("overlap_tokens must be in [0, chunk_tokens)")
    tok = tokenizer or default_tokenizer()
    pieces = tok.pieces(doc.text)
    word_indices = [i for i, p in enumerate(pieces) if not p.isspace()]
    chunks: List[Chunk] = []
    step = chunk_tokens - overlap_tokens
    position = 0
    for start in range(0, max(len(word_indices), 1), step):
        window = word_indices[start : start + chunk_tokens]
        if not window:
            break
        text = "".join(pieces[window[0] : window[-1] + 1]).strip()
        if text:
            chunks.append(
                Chunk(
                    chunk_id=f"{doc.doc_id}#c{position}",
                    doc_id=doc.doc_id,
                    text=text,
                    position=position,
                    meta=dict(doc.meta),
                )
            )
            position += 1
        if start + chunk_tokens >= len(word_indices):
            break
    return chunks


def sentence_chunks(
    doc: Document,
    *,
    max_tokens: int = 64,
    tokenizer: Optional[Tokenizer] = None,
) -> List[Chunk]:
    """Sentence-aligned chunks: pack whole sentences up to ``max_tokens``."""
    tok = tokenizer or default_tokenizer()
    sentences = split_sentences(doc.text)
    chunks: List[Chunk] = []
    current: List[str] = []
    current_tokens = 0
    position = 0

    def flush() -> None:
        nonlocal current, current_tokens, position
        if current:
            chunks.append(
                Chunk(
                    chunk_id=f"{doc.doc_id}#c{position}",
                    doc_id=doc.doc_id,
                    text=" ".join(current),
                    position=position,
                    meta=dict(doc.meta),
                )
            )
            position += 1
            current, current_tokens = [], 0

    for sentence in sentences:
        n = tok.count(sentence)
        if current and current_tokens + n > max_tokens:
            flush()
        current.append(sentence)
        current_tokens += n
    flush()
    return chunks


def semantic_chunks(
    doc: Document,
    embedder: EmbeddingModel,
    *,
    similarity_threshold: float = 0.25,
    max_tokens: int = 96,
    tokenizer: Optional[Tokenizer] = None,
) -> List[Chunk]:
    """Boundary-by-topic-shift segmentation.

    A new chunk starts when the next sentence's similarity to the running
    chunk centroid falls below ``similarity_threshold`` (or the token budget
    is hit).
    """
    tok = tokenizer or default_tokenizer()
    sentences = split_sentences(doc.text)
    if not sentences:
        return []
    chunks: List[Chunk] = []
    current: List[str] = [sentences[0]]
    centroid = embedder.embed(sentences[0]).astype(np.float64)
    count = 1
    tokens = tok.count(sentences[0])
    position = 0

    def flush() -> None:
        nonlocal position
        chunks.append(
            Chunk(
                chunk_id=f"{doc.doc_id}#c{position}",
                doc_id=doc.doc_id,
                text=" ".join(current),
                position=position,
                meta=dict(doc.meta),
            )
        )
        position += 1

    for sentence in sentences[1:]:
        vec = embedder.embed(sentence)
        mean = centroid / count
        norm = np.linalg.norm(mean)
        sim = float(np.dot(vec, mean / norm)) if norm > 0 else 0.0
        n = tok.count(sentence)
        if sim < similarity_threshold or tokens + n > max_tokens:
            flush()
            current = [sentence]
            centroid = vec.astype(np.float64)
            count, tokens = 1, n
        else:
            current.append(sentence)
            centroid += vec
            count += 1
            tokens += n
    flush()
    return chunks


def chunk_corpus(
    docs: List[Document],
    *,
    strategy: str = "sentence",
    embedder: Optional[EmbeddingModel] = None,
    **kwargs: object,
) -> List[Chunk]:
    """Chunk a corpus with the named strategy ('fixed'|'sentence'|'semantic')."""
    chunks: List[Chunk] = []
    for doc in docs:
        if strategy == "fixed":
            chunks.extend(fixed_chunks(doc, **kwargs))
        elif strategy == "sentence":
            chunks.extend(sentence_chunks(doc, **kwargs))
        elif strategy == "semantic":
            if embedder is None:
                raise ConfigError("semantic chunking requires an embedder")
            chunks.extend(semantic_chunks(doc, embedder, **kwargs))
        else:
            raise ConfigError(f"unknown chunking strategy {strategy!r}")
    return chunks
