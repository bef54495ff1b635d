"""Random-hyperplane LSH index for cosine similarity.

Hashes each vector into ``num_tables`` signatures of ``num_bits`` sign bits;
a query scans only the buckets it hashes into. Cheap to build and update,
lower recall than HNSW at equal latency — included as the classic baseline.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set

import numpy as np

from ..errors import VectorIndexError
from ..utils import derive_rng
from .base import VectorIndex


class LSHIndex(VectorIndex):
    """Multi-table sign-random-projection LSH."""

    def __init__(
        self,
        dim: int,
        metric: str = "cosine",
        *,
        num_tables: int = 8,
        num_bits: int = 12,
        seed: int = 0,
    ) -> None:
        if metric != "cosine":
            raise VectorIndexError("LSHIndex supports only the cosine metric")
        super().__init__(dim, metric)
        if num_tables <= 0 or num_bits <= 0:
            raise VectorIndexError("num_tables and num_bits must be positive")
        self.num_tables = num_tables
        self.num_bits = num_bits
        rng = derive_rng(seed, "lsh")
        self._planes = rng.standard_normal((num_tables, num_bits, dim)).astype(np.float32)
        self._tables: List[Dict[int, List[int]]] = [{} for _ in range(num_tables)]
        self._powers = (1 << np.arange(num_bits)).astype(np.int64)

    def _signatures(self, vector: np.ndarray) -> np.ndarray:
        # One einsum per vector, never a batched GEMM: sign bits of
        # near-zero projections are sensitive to reduction order, and the
        # per-vector path keeps bucket assignment identical no matter how
        # many vectors were added or queried alongside.
        bits = (np.einsum("tbd,d->tb", self._planes, vector) > 0).astype(np.int64)
        return bits @ self._powers  # one bucket key per table

    def _on_add(self, rows: np.ndarray, vectors: np.ndarray) -> None:
        tables = self._tables
        for row, vec in zip(rows.tolist(), vectors):
            for table, key in zip(tables, self._signatures(vec).tolist()):
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [row]
                else:
                    bucket.append(row)

    def _search_ids(self, query: np.ndarray, k: int) -> List[tuple]:
        """Score the union of the query's buckets; best candidates first."""
        candidates: Set[int] = set()
        for table, key in zip(self._tables, self._signatures(query).tolist()):
            bucket = table.get(key)
            if bucket:
                candidates.update(bucket)
        if not candidates:
            return []
        rows = np.fromiter(candidates, dtype=np.int64, count=len(candidates))
        scores = self._score_fn(query, self._vectors[rows])
        scores = np.where(self._deleted[rows], -np.inf, scores)
        order = np.argsort(-scores)[: max(k, 1)]
        rows_top = rows[order].tolist()
        scores_top = scores[order].tolist()
        return [
            (row, score)
            for row, score in zip(rows_top, scores_top)
            if math.isfinite(score)
        ]

    def _on_compact(self, rows_live: np.ndarray, row_map: np.ndarray) -> None:
        for t, table in enumerate(self._tables):
            rebuilt: Dict[int, List[int]] = {}
            for key, rows in table.items():
                mapped = [int(row_map[r]) for r in rows if row_map[r] >= 0]
                if mapped:
                    rebuilt[key] = mapped
            self._tables[t] = rebuilt
