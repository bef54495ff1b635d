"""Vector database: named collections with metadata filtering + persistence.

The "Vector Database" box of Figure 1. Each collection owns one index (any
:class:`~repro.vector.base.VectorIndex` implementation), a metadata store,
and optionally an embedder so callers can ingest and query raw text.
Metadata filtering uses post-filter with adaptive over-fetch (the common
design when filters are rare-ish); persistence is npz + JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

import numpy as np

from ..errors import CollectionError
from ..llm.embedding import EmbeddingModel
from .base import SearchHit, VectorIndex, check_finite
from .flat import FlatIndex
from .hnsw import HNSWIndex
from .ivf import IVFIndex
from .lsh import LSHIndex
from .pq import PQIndex

T = TypeVar("T")

INDEX_TYPES: Dict[str, Callable[..., VectorIndex]] = {
    "flat": FlatIndex,
    "ivf": IVFIndex,
    "hnsw": HNSWIndex,
    "lsh": LSHIndex,
    "pq": PQIndex,
}

MetadataFilter = Callable[[Dict[str, object]], bool]


@dataclass(frozen=True)
class Record:
    """One stored item: id, optional source text, metadata."""

    id: str
    text: Optional[str]
    metadata: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class QueryResult:
    """A search hit joined with its stored record."""

    id: str
    score: float
    text: Optional[str]
    metadata: Dict[str, object]


class Collection:
    """One named vector collection."""

    def __init__(
        self,
        name: str,
        dim: int,
        *,
        index_type: str = "flat",
        metric: str = "cosine",
        embedder: Optional[EmbeddingModel] = None,
        **index_kwargs: object,
    ) -> None:
        if index_type not in INDEX_TYPES:
            raise CollectionError(
                f"unknown index type {index_type!r}; choose from {sorted(INDEX_TYPES)}"
            )
        self.name = name
        self.dim = dim
        self.index_type = index_type
        # Remembered so save()/load() can round-trip tuned hyperparameters
        # (m, ef_search, nlist, ...) instead of silently rebuilding a
        # default-parameter index from the raw vectors.
        self.index_kwargs: Dict[str, object] = dict(index_kwargs)
        self.index: VectorIndex = INDEX_TYPES[index_type](dim, metric, **index_kwargs)
        self.embedder = embedder
        self._records: Dict[str, Record] = {}

    # ------------------------------------------------------------ ingestion
    def upsert(
        self,
        ids: Sequence[str],
        *,
        vectors: Optional[np.ndarray] = None,
        texts: Optional[Sequence[str]] = None,
        metadatas: Optional[Sequence[Dict[str, object]]] = None,
    ) -> None:
        """Insert or replace items.

        Supply either explicit ``vectors`` or ``texts`` (requires an
        embedder). Existing ids are replaced.

        Every input is validated *before* any existing record is touched: a
        bad batch (length mismatch, repeated id, wrong dimensionality, a NaN
        or infinite component) raises with the collection exactly as it was.
        """
        ids = list(ids)
        if len(set(ids)) != len(ids):
            raise CollectionError("duplicate ids within upsert batch")
        if texts is not None and len(texts) != len(ids):
            raise CollectionError("texts length mismatch")
        if metadatas is not None and len(metadatas) != len(ids):
            raise CollectionError("metadatas length mismatch")
        if vectors is None:
            if texts is None:
                raise CollectionError("upsert needs vectors or texts")
            if self.embedder is None:
                raise CollectionError(f"collection {self.name!r} has no embedder")
            vectors = self.embedder.embed_batch(list(texts))
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise CollectionError(
                f"vectors must be (n, {self.dim}); got shape {vectors.shape}"
            )
        if vectors.shape[0] != len(ids):
            raise CollectionError(
                f"{len(ids)} ids for {vectors.shape[0]} vectors"
            )
        check_finite(vectors, "vectors")
        # All checks passed: mutation starts here and cannot fail partway.
        for vid in ids:
            if vid in self._records:
                self.index.remove(vid)
                del self._records[vid]
        self.index.add(ids, vectors)
        for i, vid in enumerate(ids):
            self._records[vid] = Record(
                id=vid,
                text=texts[i] if texts is not None else None,
                metadata=dict(metadatas[i]) if metadatas is not None else {},
            )

    def delete(self, vid: str) -> bool:
        """Remove one item; returns False if absent."""
        if vid not in self._records:
            return False
        self.index.remove(vid)
        del self._records[vid]
        return True

    def get(self, vid: str) -> Optional[Record]:
        record = self._records.get(vid)
        if record is None:
            return None
        # Defensive copy (matching _materialize): handing out the stored
        # metadata dict would let callers corrupt the store that query()'s
        # `where` filters read.
        return Record(id=record.id, text=record.text, metadata=dict(record.metadata))

    def __len__(self) -> int:
        return len(self._records)

    # --------------------------------------------------------------- search
    def query(
        self,
        *,
        vector: Optional[np.ndarray] = None,
        text: Optional[str] = None,
        k: int = 10,
        where: Optional[MetadataFilter] = None,
        max_overfetch: int = 8,
    ) -> List[QueryResult]:
        """Top-k search with optional metadata post-filter.

        With a filter, the collection over-fetches (doubling up to
        ``max_overfetch``×) until ``k`` filtered hits are found or the
        whole index has been considered.
        """
        if vector is None:
            if text is None:
                raise CollectionError("query needs vector or text")
            if self.embedder is None:
                raise CollectionError(f"collection {self.name!r} has no embedder")
            vector = self.embedder.embed(text)
        return self._fetch(vector, k, lambda hits: self._materialize(hits, where), max_overfetch)

    def query_ids(self, vector: np.ndarray, k: int = 10, max_overfetch: int = 8) -> List[str]:
        """The ids of ``query(vector=vector, k=k)`` without building results:
        every live index id has a record, so no hit is dropped."""
        return [hit.id for hit in self._fetch(vector, k, list, max_overfetch)]

    def _fetch(self, vector: np.ndarray, k: int, keep: Callable[[List[SearchHit]], List[T]],
               max_overfetch: int) -> List[T]:
        """Search, doubling the fetch (up to ``max_overfetch`` times) until
        ``keep`` passes ``k`` hits or the whole index has been considered."""
        fetch = k
        kept: List[T] = []
        for _ in range(max(1, max_overfetch)):
            kept = keep(self.index.search(vector, k=fetch))
            if len(kept) >= k or fetch >= len(self.index):
                break
            fetch = min(fetch * 2, max(len(self.index), 1))
        return kept[:k]

    def query_many(
        self,
        *,
        vectors: Optional[np.ndarray] = None,
        texts: Optional[Sequence[str]] = None,
        k: int = 10,
        where: Optional[MetadataFilter] = None,
        max_overfetch: int = 8,
    ) -> List[List[QueryResult]]:
        """Batched :meth:`query`: one result list per query.

        The whole batch is answered with a single :meth:`VectorIndex.search_many`
        call (matrix-matrix products on flat/IVF/PQ). Queries that come up
        short after filtering fall back to the single-query over-fetch loop.
        """
        if vectors is None:
            if texts is None:
                raise CollectionError("query_many needs vectors or texts")
            if self.embedder is None:
                raise CollectionError(f"collection {self.name!r} has no embedder")
            vectors = self.embedder.embed_batch(list(texts))
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        per_query = self.index.search_many(vectors, k=k)
        out: List[List[QueryResult]] = []
        for qi, hits in enumerate(per_query):
            results = self._materialize(hits, where)
            if len(results) < k and len(hits) < len(self.index):
                # Filter ate too many hits: rerun this query alone with the
                # adaptive over-fetch loop.
                results = self.query(
                    vector=vectors[qi], k=k, where=where, max_overfetch=max_overfetch
                )
            out.append(results[:k])
        return out

    def _materialize(
        self, hits: List[SearchHit], where: Optional[MetadataFilter]
    ) -> List[QueryResult]:
        out: List[QueryResult] = []
        for hit in hits:
            record = self._records.get(hit.id)
            if record is None:
                continue
            if where is not None and not where(record.metadata):
                continue
            out.append(
                QueryResult(
                    id=hit.id,
                    score=hit.score,
                    text=record.text,
                    metadata=dict(record.metadata),
                )
            )
        return out


class VectorDatabase:
    """Named registry of collections with save/load."""

    def __init__(self, embedder: Optional[EmbeddingModel] = None) -> None:
        self.default_embedder = embedder
        self._collections: Dict[str, Collection] = {}

    def create_collection(
        self,
        name: str,
        dim: int,
        *,
        index_type: str = "flat",
        metric: str = "cosine",
        embedder: Optional[EmbeddingModel] = None,
        **index_kwargs: object,
    ) -> Collection:
        if name in self._collections:
            raise CollectionError(f"collection {name!r} already exists")
        collection = Collection(
            name,
            dim,
            index_type=index_type,
            metric=metric,
            embedder=embedder or self.default_embedder,
            **index_kwargs,
        )
        self._collections[name] = collection
        return collection

    def get_collection(self, name: str) -> Collection:
        try:
            return self._collections[name]
        except KeyError:
            raise CollectionError(f"no collection named {name!r}") from None

    # ---------------------------------------------------------- persistence
    def save(self, directory: str) -> None:
        """Persist all collections (vectors as npz, records as JSON).

        Indexes are rebuilt (flat layout) on load; graph/IVF structures are
        reconstructed from the raw vectors, matching how real stores
        snapshot data rather than data structures.
        """
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        manifest = {}
        for name, coll in self._collections.items():
            ids = [vid for vid in coll._records]
            vectors = (
                np.stack([coll.index.vector(vid) for vid in ids])
                if ids
                else np.zeros((0, coll.dim), dtype=np.float32)
            )
            np.savez_compressed(root / f"{name}.npz", vectors=vectors)
            records = [
                {
                    "id": r.id,
                    "text": r.text,
                    "metadata": r.metadata,
                }
                for r in (coll._records[vid] for vid in ids)
            ]
            (root / f"{name}.json").write_text(json.dumps(records))
            manifest[name] = {
                "dim": coll.dim,
                "index_type": coll.index_type,
                "metric": coll.index.metric,
                "index_kwargs": coll.index_kwargs,
            }
        (root / "manifest.json").write_text(json.dumps(manifest))

    @classmethod
    def load(
        cls, directory: str, *, embedder: Optional[EmbeddingModel] = None
    ) -> "VectorDatabase":
        root = Path(directory)
        manifest_path = root / "manifest.json"
        if not manifest_path.exists():
            raise CollectionError(f"no manifest in {directory!r}")
        manifest = json.loads(manifest_path.read_text())
        db = cls(embedder=embedder)
        for name, info in manifest.items():
            coll = db.create_collection(
                name,
                int(info["dim"]),
                index_type=str(info["index_type"]),
                metric=str(info["metric"]),
                # Older manifests predate hyperparameter persistence.
                **dict(info.get("index_kwargs", {})),
            )
            vectors = np.load(root / f"{name}.npz")["vectors"]
            records = json.loads((root / f"{name}.json").read_text())
            if records:
                coll.upsert(
                    [r["id"] for r in records],
                    vectors=vectors,
                    texts=[r["text"] for r in records],
                    metadatas=[r["metadata"] for r in records],
                )
        return db
