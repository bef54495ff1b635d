"""Streaming corpus: dedup -> embed -> index as one incremental pipeline.

The streaming counterpart of the batch prep pipeline (§2.3.2): documents
arrive in batches, near-duplicates are admitted or rejected against the
persistent MinHash signature store, admitted documents are embedded under
the embedder's *pinned* IDF statistics (so query and index vectors share a
space), and vectors land in a live ANN index via incremental insert.
Evictions (an arriving document bridging two previously distinct duplicate
clusters) delete the demoted representative from the index; IDF drift past
a threshold triggers a re-embed of the live set; IVF occupancy skew
triggers a coarse-quantizer rebalance. The result converges to a full
rebuild: identical dedup survivors (proven equivalence, see
``prep/dedup.py``) and matching retrieval quality (measured in
``replay.convergence_check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.synth import TrainingDocument
from ..errors import ConfigError, PipelineError
from ..llm.embedding import EmbeddingModel
from ..prep.dedup import MinHashDeduper
from ..vector.database import Collection
from ..vector.ivf import IVFIndex


@dataclass(frozen=True)
class IngestReport:
    """Outcome of one :meth:`StreamingCorpus.ingest` batch."""

    arrived: int
    admitted: int
    rejected: int
    evicted: int
    refreshed: bool
    reembedded: int
    rebalanced: bool


class StreamingCorpus:
    """Incremental dedup + online-IDF embedding + live ANN index.

    Parameters
    ----------
    dim:
        Embedding dimensionality (must match ``embedder.dim`` if one is
        supplied).
    index_type / metric / index_kwargs:
        Forwarded to the underlying :class:`~repro.vector.database.Collection`.
    embedder / deduper:
        Injectable components; defaults are seeded from ``seed``.
    refresh_threshold:
        IDF drift past which the embedder re-pins and the live corpus is
        re-embedded (see :meth:`EmbeddingModel.refresh`).
    auto_rebalance:
        Run :meth:`IVFIndex.maybe_rebalance` after each batch (no-op for
        other index types).
    compact_fraction:
        Tombstone fraction past which the index is compacted after a
        batch. Deletes come from evictions and from refresh re-embeds
        (an upsert replaces rows); without compaction a refresh at n live
        documents would leave n tombstones behind.
    """

    def __init__(
        self,
        *,
        dim: int = 64,
        index_type: str = "hnsw",
        metric: str = "cosine",
        embedder: Optional[EmbeddingModel] = None,
        deduper: Optional[MinHashDeduper] = None,
        refresh_threshold: float = 0.05,
        auto_rebalance: bool = True,
        compact_fraction: float = 0.3,
        seed: int = 0,
        **index_kwargs: object,
    ) -> None:
        if refresh_threshold < 0:
            raise ConfigError(
                f"refresh_threshold must be >= 0, got {refresh_threshold}"
            )
        if not 0.0 < compact_fraction <= 1.0:
            raise ConfigError(
                f"compact_fraction must be in (0, 1], got {compact_fraction}"
            )
        self.embedder = embedder or EmbeddingModel(dim=dim, seed=seed)
        if self.embedder.dim != dim:
            raise ConfigError(
                f"embedder dim {self.embedder.dim} != corpus dim {dim}"
            )
        self.deduper = deduper or MinHashDeduper(seed=seed)
        self.collection = Collection(
            "stream", dim, index_type=index_type, metric=metric, **index_kwargs
        )
        self.dim = dim
        self.index_type = index_type
        self.refresh_threshold = refresh_threshold
        self.auto_rebalance = auto_rebalance
        self.compact_fraction = compact_fraction
        self._live: Dict[str, TrainingDocument] = {}
        self.refreshes = 0
        self.rebalances = 0

    # ------------------------------------------------------------- ingestion
    def ingest(self, docs: Sequence[TrainingDocument]) -> IngestReport:
        """Admit one arrival batch; returns what happened.

        Order matters: evictions are applied before inserts (an arriving
        bridge document may both evict an old representative and itself be
        rejected), inserts are embedded under the current IDF pin, and the
        drift check runs last so a refresh re-embeds the batch too.

        A batch holding an item that is not a :class:`TrainingDocument`, a
        document whose ``text`` is not a ``str``, or two documents with one
        ``doc_id`` raises :class:`~repro.errors.PipelineError` before the
        deduper, the embedder or the index sees any of it.
        """
        doc_ids = set()
        for doc in docs:
            if not isinstance(doc, TrainingDocument):
                raise PipelineError(
                    f"ingest needs TrainingDocument items, got {type(doc).__name__}"
                )
            if not isinstance(doc.text, str):
                raise PipelineError(
                    f"document {doc.doc_id!r} has a {type(doc.text).__name__} text, not a str"
                )
            if doc.doc_id in doc_ids:
                raise PipelineError(f"doc_id {doc.doc_id!r} occurs twice in one batch")
            doc_ids.add(doc.doc_id)
        result = self.deduper.dedup_incremental(docs)
        for doc_id in result.evicted:
            self.collection.delete(doc_id)
            self._live.pop(doc_id, None)
        if result.admitted:
            texts = [d.text for d in result.admitted]
            self.embedder.partial_fit_idf(texts)
            vectors = self.embedder.embed_batch(texts)
            self.collection.upsert(
                [d.doc_id for d in result.admitted],
                vectors=vectors,
                texts=texts,
                metadatas=[{"domain": d.domain} for d in result.admitted],
            )
            for doc in result.admitted:
                self._live[doc.doc_id] = doc
        refreshed = self.embedder.refresh(self.refresh_threshold)
        reembedded = 0
        if refreshed:
            self.refreshes += 1
            reembedded = self._reembed_all()
        if self.collection.index.tombstone_fraction > self.compact_fraction:
            self.collection.index.compact()
        rebalanced = False
        if self.auto_rebalance and isinstance(self.collection.index, IVFIndex):
            rebalanced = self.collection.index.maybe_rebalance()
            if rebalanced:
                self.rebalances += 1
        return IngestReport(
            arrived=len(docs),
            admitted=len(result.admitted),
            rejected=len(result.rejected),
            evicted=len(result.evicted),
            refreshed=refreshed,
            reembedded=reembedded,
            rebalanced=rebalanced,
        )

    def _reembed_all(self) -> int:
        """Re-embed every live document under the freshly pinned IDF stats."""
        if not self._live:
            return 0
        ids = list(self._live)
        docs = [self._live[i] for i in ids]
        texts = [d.text for d in docs]
        vectors = self.embedder.embed_batch(texts)
        self.collection.upsert(
            ids,
            vectors=vectors,
            texts=texts,
            metadatas=[{"domain": d.domain} for d in docs],
        )
        return len(ids)

    # --------------------------------------------------------------- queries
    def search(self, text: str, k: int = 10) -> List[str]:
        """Top-k live doc_ids for a text query (pinned embedding space)."""
        return self.collection.query_ids(self.embedder.embed(text), k=k)

    def search_vectors(self, queries: np.ndarray, k: int = 10) -> List[List[str]]:
        """Batched top-k doc_ids for pre-embedded queries."""
        per_query = self.collection.query_many(vectors=queries, k=k)
        return [[hit.id for hit in hits] for hits in per_query]

    # ------------------------------------------------------------ inspection
    def __len__(self) -> int:
        return len(self._live)

    def live_doc_ids(self) -> List[str]:
        """doc_ids currently retrievable, sorted."""
        return sorted(self._live)

    def live_docs(self) -> List[TrainingDocument]:
        """Live documents sorted by doc_id."""
        return [self._live[i] for i in sorted(self._live)]

    def live_vectors(self) -> np.ndarray:
        """``(n, dim)`` matrix of the live vectors, in sorted doc_id order."""
        ids = self.live_doc_ids()
        if not ids:
            return np.zeros((0, self.dim), dtype=np.float32)
        return np.stack([self.collection.index.vector(i) for i in ids])
