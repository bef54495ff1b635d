"""Common interface of all vector indexes."""

from __future__ import annotations

import abc
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import DimensionMismatchError, VectorIndexError
from .metrics import normalize_rows, resolve_metric

# Queries processed per matrix-matrix product in batched kernels. Bounds the
# score-buffer working set to a few MB regardless of index size.
QUERY_CHUNK = 32


def check_finite(vectors: np.ndarray, what: str) -> None:
    """Raise :class:`~repro.errors.VectorIndexError` if any component of
    ``vectors`` is NaN or infinite."""
    if not np.isfinite(vectors).all():
        raise VectorIndexError(f"{what} must be finite; got a NaN or infinite component")


class SearchHit(NamedTuple):
    """One nearest-neighbour result."""

    id: str
    score: float


class VectorIndex(abc.ABC):
    """Abstract nearest-neighbour index over string-keyed vectors.

    Concrete classes implement either :meth:`_search_ids` (single query over
    internal row numbers) or :meth:`_search_ids_many` (batched); each default
    delegates to the other. This base handles id bookkeeping, dimension
    checks, metric normalization and deletion masking, so index
    implementations stay focused on their data structure.
    """

    def __init__(self, dim: int, metric: str = "cosine") -> None:
        if dim <= 0:
            raise VectorIndexError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.metric = metric
        self._score_fn = resolve_metric(metric)
        self._ids: List[str] = []
        self._id_to_row: Dict[str, int] = {}
        # Row storage is amortized: the buffers below hold capacity for more
        # rows than are in use and double when they fill, so a streaming
        # sequence of small ``add`` calls costs O(1) amortized per row
        # instead of one O(n) vstack per call.  Subclasses see the in-use
        # prefix through the ``_vectors`` / ``_deleted`` / ``_row_norms``
        # view properties and never touch the raw buffers.
        self._size = 0
        self._vec_buf = np.zeros((0, dim), dtype=np.float32)
        self._del_buf = np.zeros(0, dtype=bool)
        # Squared row norms, maintained at insert so l2 ranking can use the
        # expansion trick (2·q·v − ‖v‖²) without recomputing norms per query.
        self._norm_buf = np.zeros(0, dtype=np.float32)
        self._num_deleted = 0

    # ------------------------------------------------------- storage views
    @property
    def _vectors(self) -> np.ndarray:
        """In-use ``(total_rows, dim)`` slice of the vector buffer."""
        return self._vec_buf[: self._size]

    @property
    def _deleted(self) -> np.ndarray:
        """In-use tombstone mask (True = removed)."""
        return self._del_buf[: self._size]

    @property
    def _row_norms(self) -> np.ndarray:
        """In-use squared row norms."""
        return self._norm_buf[: self._size]

    def _ensure_rows(self, needed: int) -> None:
        cap = self._vec_buf.shape[0]
        if needed <= cap:
            return
        new_cap = max(needed, cap * 2, 64)
        vec = np.zeros((new_cap, self.dim), dtype=np.float32)
        vec[: self._size] = self._vec_buf[: self._size]
        self._vec_buf = vec
        dele = np.zeros(new_cap, dtype=bool)
        dele[: self._size] = self._del_buf[: self._size]
        self._del_buf = dele
        norms = np.zeros(new_cap, dtype=np.float32)
        norms[: self._size] = self._norm_buf[: self._size]
        self._norm_buf = norms

    # ------------------------------------------------------------ ingestion
    def _prepare(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        if vectors.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"expected dim {self.dim}, got {vectors.shape[1]}"
            )
        check_finite(vectors, "vectors")
        if self.metric == "cosine":
            vectors = normalize_rows(vectors)
        return vectors

    def add(self, ids: Sequence[str], vectors: np.ndarray) -> None:
        """Insert vectors under the given ids (ids must be new)."""
        vectors = self._prepare(vectors)
        if len(ids) != vectors.shape[0]:
            raise VectorIndexError(f"{len(ids)} ids for {vectors.shape[0]} vectors")
        for vid in ids:
            if vid in self._id_to_row:
                raise VectorIndexError(f"duplicate id {vid!r}; use remove() first")
        start = len(self._ids)
        n = vectors.shape[0]
        self._ids.extend(ids)
        for offset, vid in enumerate(ids):
            self._id_to_row[vid] = start + offset
        self._ensure_rows(start + n)
        self._vec_buf[start : start + n] = vectors
        self._del_buf[start : start + n] = False
        self._norm_buf[start : start + n] = np.einsum("ij,ij->i", vectors, vectors)
        self._size = start + n
        self._on_add(np.arange(start, start + n), vectors)

    def remove(self, vid: str) -> bool:
        """Tombstone one id; returns False if absent."""
        row = self._id_to_row.pop(vid, None)
        if row is None:
            return False
        self._deleted[row] = True
        self._num_deleted += 1
        self._on_remove(row)
        return True

    # --------------------------------------------------------------- search
    def search(self, query: np.ndarray, k: int = 10) -> List[SearchHit]:
        """Top-``k`` most similar live vectors to ``query``."""
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        return self.search_many(query[None, :], k)[0]

    def search_many(self, queries: np.ndarray, k: int = 10) -> List[List[SearchHit]]:
        """Top-``k`` search for a batch of queries; one hit list per query.

        Flat/IVF/PQ answer the whole batch with matrix-matrix products;
        graph/hash indexes fall back to a per-query loop. A query of the
        wrong dimension, one with a NaN or infinite component, and a ``k``
        below 1 raise :class:`~repro.errors.VectorIndexError` (the first a
        :class:`~repro.errors.DimensionMismatchError`), also on an empty
        index.
        """
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"query dim {queries.shape[-1] if queries.ndim else 0} != {self.dim}"
            )
        if k <= 0:
            raise VectorIndexError(f"k must be positive, got {k}")
        check_finite(queries, "query")
        nq = queries.shape[0]
        if len(self) == 0 or nq == 0:
            return [[] for _ in range(nq)]
        if self.metric == "cosine":
            queries = normalize_rows(queries)
        # Over-fetch by the live tombstone count: subclasses return ~k
        # candidates without knowing which rows are masked, so asking for
        # exactly k after deletions would starve the post-mask truncation
        # below k even when >= k live rows exist (graph/hash indexes
        # truncate their candidate pools before _finalize sees them).
        fetch = k + self._num_deleted if self._num_deleted else k
        per_query = self._search_ids_many(queries, fetch)
        return [self._finalize(rows_scores, k) for rows_scores in per_query]

    def _finalize(self, rows_scores: List[tuple], k: int) -> List[SearchHit]:
        """Mask deleted rows, truncate to ``k``, and build hits."""
        ids = self._ids
        if not self._num_deleted:
            return [
                SearchHit(id=ids[row], score=float(score))
                for row, score in rows_scores[:k]
            ]
        deleted = self._deleted
        hits: List[SearchHit] = []
        for row, score in rows_scores:
            if deleted[row]:
                continue
            hits.append(SearchHit(id=ids[row], score=float(score)))
            if len(hits) == k:
                break
        return hits

    # ----------------------------------------------------------- compaction
    def compact(self) -> int:
        """Physically drop tombstoned rows; returns the rows reclaimed.

        Live rows are left-packed in place (ascending order preserved, so
        relative row order — and therefore every stable tie-break — is
        unchanged), id bookkeeping is rebuilt, and subclasses remap their
        row references via :meth:`_on_compact`.
        """
        if not self._num_deleted:
            return 0
        live = np.flatnonzero(~self._deleted)
        total = self._size
        row_map = np.full(total, -1, dtype=np.int64)
        n = live.shape[0]
        row_map[live] = np.arange(n, dtype=np.int64)
        self._vec_buf[:n] = self._vec_buf[live]
        self._norm_buf[:n] = self._norm_buf[live]
        self._del_buf[:n] = False
        ids = self._ids
        self._ids = [ids[r] for r in live.tolist()]
        self._id_to_row = {vid: i for i, vid in enumerate(self._ids)}
        self._size = n
        self._num_deleted = 0
        self._on_compact(live, row_map)
        return total - n

    @property
    def tombstone_fraction(self) -> float:
        """Fraction of stored rows that are tombstoned."""
        return self._num_deleted / self._size if self._size else 0.0

    def __len__(self) -> int:
        return len(self._ids) - self._num_deleted

    @property
    def total_rows(self) -> int:
        return len(self._ids)

    def __contains__(self, vid: str) -> bool:
        return vid in self._id_to_row

    def vector(self, vid: str) -> np.ndarray:
        """The stored (possibly normalized) vector for ``vid``."""
        row = self._id_to_row.get(vid)
        if row is None:
            raise VectorIndexError(f"unknown id {vid!r}")
        return self._vectors[row].copy()

    # ----------------------------------------------------- batched kernels
    def _exact_scores(self, rows: np.ndarray, query: np.ndarray) -> np.ndarray:
        """Exact similarity of ``query`` to the given rows.

        Deliberately a fixed-shape gather + vector product: the result for a
        row depends only on that row and the query, never on how many other
        queries were batched alongside — so ``search`` and ``search_many``
        report bitwise-identical scores for the same candidates.
        """
        vectors = self._vectors[rows]
        if self.metric == "l2":
            diff = vectors - query
            return -np.einsum("ij,ij->i", diff, diff)
        return vectors @ query

    def _batch_topk(
        self, queries: np.ndarray, k: int, rows: Optional[np.ndarray] = None
    ) -> List[List[tuple]]:
        """Brute-force batched top-``k``: one GEMM per query chunk.

        Candidate *selection* ranks by the chunked matrix product (for l2 via
        the cached-norm expansion, which orders identically); the selected
        rows are then rescored per query with :meth:`_exact_scores` so
        reported values match the single-query path exactly. ``rows``
        restricts the scan to a subset (e.g. an untrained IVF's live rows).
        """
        if rows is None:
            vectors = self._vectors
            deleted = self._deleted
            sq_norms = self._row_norms
            live = len(self._ids) - self._num_deleted
        else:
            vectors = self._vectors[rows]
            deleted = self._deleted[rows]
            sq_norms = self._row_norms[rows]
            live = int((~deleted).sum())
        n = vectors.shape[0]
        nq = queries.shape[0]
        if n == 0:
            return [[] for _ in range(nq)]
        kk = min(k, live)
        if kk == 0:
            return [[] for _ in range(nq)]
        vt = vectors.T
        any_deleted = live != n
        is_l2 = self.metric == "l2"
        buf = np.empty((min(QUERY_CHUNK, nq), n), dtype=np.float32)
        out: List[List[tuple]] = []
        for start in range(0, nq, QUERY_CHUNK):
            chunk = queries[start : start + QUERY_CHUNK]
            scores = np.matmul(chunk, vt, out=buf[: chunk.shape[0]])
            if is_l2:
                scores *= 2.0
                scores -= sq_norms[None, :]
            if any_deleted:
                scores[:, deleted] = -np.inf
            for i in range(chunk.shape[0]):
                if kk < n:
                    # Top-kk of a live row is never -inf (kk <= live).
                    top = np.argpartition(scores[i], n - kk)[n - kk :]
                else:
                    top = np.arange(n)
                cand = top if rows is None else rows[top]
                exact = self._exact_scores(cand, queries[start + i])
                order = np.argsort(-exact, kind="stable")
                out.append(
                    [(int(r), float(v)) for r, v in zip(cand[order], exact[order])]
                )
        return out

    # ------------------------------------------------------------ subclass
    def _search_ids(self, query: np.ndarray, k: int) -> List[tuple]:
        """Return candidate ``(row, score)`` pairs for one query, best first.

        May return more than ``k`` candidates; the base class masks deleted
        rows and truncates. Subclasses override this *or*
        :meth:`_search_ids_many`.
        """
        return self._search_ids_many(query[None, :], k)[0]

    def _search_ids_many(self, queries: np.ndarray, k: int) -> List[List[tuple]]:
        """Batched form of :meth:`_search_ids`; default is a per-query loop."""
        return [self._search_ids(query, k) for query in queries]

    def _on_add(self, rows: np.ndarray, vectors: np.ndarray) -> None:
        """Hook: incorporate new rows into the index structure."""

    def _on_remove(self, row: int) -> None:
        """Hook: react to a tombstoned row."""

    def _on_compact(self, live: np.ndarray, row_map: np.ndarray) -> None:
        """Hook: remap internal row references after :meth:`compact`.

        ``live`` holds the surviving old row numbers in ascending order;
        ``row_map[old_row]`` is the new row number, or ``-1`` for rows that
        were reclaimed. Indexes that store row numbers (cells, buckets,
        adjacency, codes) must rewrite them here.
        """
