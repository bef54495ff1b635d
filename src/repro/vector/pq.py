"""Product-quantization index with asymmetric distance computation (ADC).

Splits each vector into ``num_subspaces`` chunks, k-means-codes each chunk
into one byte, and scores queries against codes via per-subspace lookup
tables. Trades a controlled accuracy loss for ~``dim*4 / num_subspaces``-fold
memory compression — the standard trick for RAM-bound vector stores.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import VectorIndexError
from .base import QUERY_CHUNK, VectorIndex
from .kmeans import kmeans


class PQIndex(VectorIndex):
    """Flat scan over PQ codes (IVF-free, so compression effects isolate)."""

    def __init__(
        self,
        dim: int,
        metric: str = "cosine",
        *,
        num_subspaces: int = 8,
        bits: int = 6,
        train_size: int = 256,
        rerank_factor: int = 8,
        seed: int = 0,
    ) -> None:
        super().__init__(dim, metric)
        if dim % num_subspaces:
            raise VectorIndexError(f"dim {dim} not divisible by num_subspaces {num_subspaces}")
        if not 2 <= bits <= 8:
            raise VectorIndexError("bits must be in [2, 8]")
        self.num_subspaces = num_subspaces
        self.sub_dim = dim // num_subspaces
        self.num_centroids = 1 << bits
        self.train_size = train_size
        if rerank_factor < 1:
            raise VectorIndexError("rerank_factor must be >= 1")
        self.rerank_factor = rerank_factor
        self.seed = seed
        self._codebooks: Optional[np.ndarray] = None  # (S, K, sub_dim)
        self._codes = np.zeros((0, num_subspaces), dtype=np.uint8)

    # ------------------------------------------------------------- training
    def _maybe_train(self) -> None:
        if self._codebooks is not None or self.total_rows < self.train_size:
            return
        live = self._vectors[~self._deleted]
        books = np.zeros(
            (self.num_subspaces, self.num_centroids, self.sub_dim), dtype=np.float32
        )
        for s in range(self.num_subspaces):
            chunk = live[:, s * self.sub_dim : (s + 1) * self.sub_dim]
            result = kmeans(chunk, self.num_centroids, seed=self.seed + s)
            books[s, : result.centroids.shape[0]] = result.centroids
        self._codebooks = books
        self._codes = self._encode(self._vectors)

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        assert self._codebooks is not None
        codes = np.zeros((vectors.shape[0], self.num_subspaces), dtype=np.uint8)
        for s in range(self.num_subspaces):
            chunk = vectors[:, s * self.sub_dim : (s + 1) * self.sub_dim]
            book = self._codebooks[s]
            cross = chunk @ book.T
            d = (
                np.einsum("ij,ij->i", chunk, chunk)[:, None]
                - 2.0 * cross
                + np.einsum("ij,ij->i", book, book)[None, :]
            )
            codes[:, s] = np.argmin(d, axis=1).astype(np.uint8)
        return codes

    def _on_add(self, rows: np.ndarray, vectors: np.ndarray) -> None:
        if self._codebooks is None:
            self._maybe_train()
            return
        self._codes = np.vstack([self._codes, self._encode(vectors)])

    # --------------------------------------------------------------- search
    def _search_ids_many(self, queries: np.ndarray, k: int) -> List[List[tuple]]:
        self._maybe_train()
        if self._codebooks is None:
            # Untrained: fall back to exact scan.
            return self._batch_topk(queries, k)
        # ADC: per-subspace dot-product tables for the whole chunk at once;
        # similarity is additive over subspaces. The rerank pool is selected
        # by ADC score and rescored exactly (standard PQ refinement); the
        # pool size trades recall against extra exact distance computations
        # (crucial when many points are near-equidistant).
        nq = queries.shape[0]
        n = self._codes.shape[0]
        pool = min(max(k * self.rerank_factor, k), n)
        qsub = queries.reshape(nq, self.num_subspaces, self.sub_dim)
        deleted = self._deleted[:n]
        any_deleted = self._num_deleted > 0 and bool(deleted.any())
        results: List[List[tuple]] = []
        for start in range(0, nq, QUERY_CHUNK):
            chunk = qsub[start : start + QUERY_CHUNK]
            tables = np.einsum("skd,nsd->nsk", self._codebooks, chunk)
            scores = np.zeros((chunk.shape[0], n), dtype=np.float32)
            for s in range(self.num_subspaces):
                scores += tables[:, s, self._codes[:, s]]
            if any_deleted:
                scores[:, deleted] = -np.inf
            for i in range(chunk.shape[0]):
                if pool < n:
                    top = np.argpartition(scores[i], n - pool)[n - pool :]
                else:
                    top = np.arange(n)
                top = top[np.isfinite(scores[i][top])]  # drop deleted rows
                exact = self._exact_scores(top, queries[start + i])
                order = np.argsort(-exact, kind="stable")
                results.append(
                    [(int(r), float(v)) for r, v in zip(top[order], exact[order])]
                )
        return results

    def _on_compact(self, live: np.ndarray, row_map: np.ndarray) -> None:
        if self._codebooks is not None:
            self._codes = self._codes[live]

    # ----------------------------------------------------------- reporting
