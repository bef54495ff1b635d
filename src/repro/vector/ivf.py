"""IVF (inverted-file) index: k-means coarse quantizer + probed cell scan.

Queries scan only the ``nprobe`` cells whose centroids are closest to the
query, trading recall for a ~nlist/nprobe reduction in scanned vectors.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..errors import VectorIndexError
from ..utils import derive_seed
from .base import VectorIndex
from .kmeans import kmeans


class IVFIndex(VectorIndex):
    """Inverted-file ANN index.

    Parameters
    ----------
    nlist:
        Number of coarse cells (k-means centroids).
    nprobe:
        Cells scanned per query (may be changed between queries).
    train_size:
        Rows required before the quantizer trains; until then the index
        answers by brute force (as faiss does before training).
    rebalance_skew:
        Live-occupancy skew (max cell / ideal cell) past which
        :meth:`maybe_rebalance` retrains the coarse quantizer.
    """

    def __init__(
        self,
        dim: int,
        metric: str = "cosine",
        *,
        nlist: int = 32,
        nprobe: int = 4,
        train_size: int = 256,
        rebalance_skew: float = 4.0,
        seed: int = 0,
    ) -> None:
        super().__init__(dim, metric)
        if nlist <= 0 or nprobe <= 0:
            raise VectorIndexError("nlist and nprobe must be positive")
        if rebalance_skew < 1.0:
            raise VectorIndexError(
                f"rebalance_skew must be >= 1.0, got {rebalance_skew}"
            )
        self.nlist = nlist
        self.nprobe = min(nprobe, nlist)
        self.train_size = train_size
        self.rebalance_skew = rebalance_skew
        self.seed = seed
        self._centroids: np.ndarray = np.zeros((0, dim), dtype=np.float32)
        self._centroid_sq: np.ndarray = np.zeros(0, dtype=np.float32)  # ‖c‖² per cell
        self._cells: Dict[int, List[int]] = {}
        # Per-cell contiguous storage (rows, vectors, squared norms), built
        # lazily per cell and dropped when the cell changes — the inverted
        # "lists hold the vectors" layout real IVF implementations use, so
        # scoring a cell is a straight GEMM with no gather.
        self._cell_arrays: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Streaming-maintenance bookkeeping: row -> assigned cell plus live
        # occupancy per cell (tombstoned rows stay in the cell list until
        # compaction but stop counting here).
        self._row_cell: Dict[int, int] = {}
        self._cell_live: Dict[int, int] = {}
        self._rebalances = 0
        self._trained = False

    # ------------------------------------------------------------- training
    def _maybe_train(self) -> None:
        if self._trained or self.total_rows < self.train_size:
            return
        live_rows = np.flatnonzero(~self._deleted)
        result = kmeans(
            self._vectors[live_rows],
            min(self.nlist, len(live_rows)),
            seed=self.seed,
        )
        self._retrain(live_rows, result.centroids, result.assignments)
        self._trained = True

    def _retrain(self, rows: np.ndarray, centroids: np.ndarray, cells: np.ndarray) -> None:
        """Adopt new centroids, with ``rows`` (every live row) in ``cells``."""
        self._centroids = centroids
        self._centroid_sq = np.einsum("ij,ij->i", centroids, centroids)
        self._cells = {}
        self._cell_arrays = {}
        self._row_cell = {}
        self._cell_live = {}
        self._place(rows, cells)

    def _place(self, rows: np.ndarray, cells: np.ndarray) -> None:
        """Append each row to its cell and count it live there."""
        cell_rows, row_cell, cell_live = self._cells, self._row_cell, self._cell_live
        for row, cell in zip(rows.tolist(), cells.tolist()):
            cell_rows.setdefault(cell, []).append(row)
            row_cell[row] = cell
            cell_live[cell] = cell_live.get(cell, 0) + 1

    def _on_add(self, rows: np.ndarray, vectors: np.ndarray) -> None:
        if not self._trained:
            self._maybe_train()
            return
        # Incremental insert: each new row joins its nearest centroid's cell
        # (the first on a tie), and occupancy is tracked so maybe_rebalance
        # can detect drift. One pass per centroid computes every new row's
        # squared distance to it exactly as a pass per row would.
        dist = np.empty((len(rows), len(self._centroids)), dtype=np.float64)
        for j, centroid in enumerate(self._centroids):
            diff = centroid - vectors
            dist[:, j] = np.einsum("ij,ij->i", diff, diff)
        cells = np.argmin(dist, axis=1)
        self._place(rows, cells)
        for cell in np.unique(cells).tolist():
            self._cell_arrays.pop(cell, None)

    def _on_remove(self, row: int) -> None:
        if not self._trained:
            return
        cell = self._row_cell.pop(row, None)
        if cell is not None:
            self._cell_live[cell] -= 1

    def _cell_entry(self, cell: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        entry = self._cell_arrays.get(cell)
        if entry is None:
            rows = np.asarray(self._cells[cell], dtype=np.int64)
            entry = (rows, self._vectors[rows], self._row_norms[rows])
            self._cell_arrays[cell] = entry
        return entry

    # --------------------------------------------------------------- search
    def _search_ids_many(self, queries: np.ndarray, k: int) -> List[List[tuple]]:
        self._maybe_train()
        if not self._trained:
            return self._batch_topk(queries, k, rows=np.flatnonzero(~self._deleted))
        nq = queries.shape[0]
        ncells = self._centroids.shape[0]
        # Rank cells for all queries at once. ‖c‖² − 2·q·c orders cells
        # identically to ‖c − q‖² (the ‖q‖² term is constant per query).
        cross = queries @ self._centroids.T
        cell_rank = self._centroid_sq[None, :] - 2.0 * cross
        nprobe = min(self.nprobe, ncells)
        if nprobe < ncells:
            probe = np.argpartition(cell_rank, nprobe - 1, axis=1)[:, :nprobe]
        else:
            probe = np.broadcast_to(np.arange(ncells), (nq, ncells))
        # Invert to cell -> querying-query indices, then score each probed
        # cell once with a single GEMM shared by every query probing it.
        cell_to_queries: Dict[int, List[int]] = {}
        for qi, cells in enumerate(probe.tolist()):
            for cell in cells:
                cell_to_queries.setdefault(cell, []).append(qi)
        is_l2 = self.metric == "l2"
        kk = max(k, 1)
        any_deleted = self._num_deleted > 0
        cand_rows: List[List[np.ndarray]] = [[] for _ in range(nq)]
        cand_scores: List[List[np.ndarray]] = [[] for _ in range(nq)]
        for cell, query_idx in cell_to_queries.items():
            if not self._cells.get(cell):
                continue
            rows, vectors, norms = self._cell_entry(cell)
            scores = queries[query_idx] @ vectors.T
            if is_l2:
                scores *= 2.0
                scores -= norms[None, :]
            if any_deleted:
                deleted = self._deleted[rows]
                if deleted.any():
                    scores[:, deleted] = -np.inf
            # Keep only each query's top-k *within the cell* (one axis
            # argpartition + take shared by every query probing it). The
            # global top-k of the probed union is always contained in the
            # union of per-cell top-ks, so the per-query merge below handles
            # at most nprobe*k candidates instead of every scanned row.
            m = rows.size
            if kk < m:
                part = np.argpartition(scores, m - kk, axis=1)[:, m - kk :]
                sel_scores = scores[np.arange(len(query_idx))[:, None], part]
                sel_rows = rows[part]
            else:
                sel_scores = scores
                sel_rows = np.broadcast_to(rows, scores.shape)
            for j, qi in enumerate(query_idx):
                cand_rows[qi].append(sel_rows[j])
                cand_scores[qi].append(sel_scores[j])
        results: List[List[tuple]] = []
        for qi in range(nq):
            if not cand_rows[qi]:
                results.append([])
                continue
            rows = (
                np.concatenate(cand_rows[qi])
                if len(cand_rows[qi]) > 1
                else cand_rows[qi][0]
            )
            scores = (
                np.concatenate(cand_scores[qi])
                if len(cand_scores[qi]) > 1
                else cand_scores[qi][0]
            )
            if any_deleted:
                finite = np.isfinite(scores)  # drop deleted candidates
                if not finite.all():
                    rows = rows[finite]
            exact = self._exact_scores(rows, queries[qi])
            order = np.argsort(-exact, kind="stable")[:kk]
            results.append(
                [(int(r), float(v)) for r, v in zip(rows[order], exact[order])]
            )
        return results

    # --------------------------------------------------------- maintenance

    def occupancy_skew(self) -> float:
        """Max live cell occupancy over the ideal (uniform) occupancy."""
        if not self._trained or not self._cell_live:
            return 1.0
        live_total = sum(n for n in self._cell_live.values() if n > 0)
        if not live_total:
            return 1.0
        ideal = live_total / max(self._centroids.shape[0], 1)
        return max(self._cell_live.values()) / ideal if ideal else 1.0

    def rebalance(self) -> None:
        """Retrain the coarse quantizer on the live rows and reassign.

        Deterministic: the k-means seed is derived from the index seed and
        a monotone rebalance counter, so the same ingestion history always
        produces the same cells.
        """
        if not self._trained:
            return
        self._rebalances += 1
        live_rows = np.flatnonzero(~self._deleted)
        if not live_rows.shape[0]:
            return
        result = kmeans(
            self._vectors[live_rows],
            min(self.nlist, len(live_rows)),
            seed=derive_seed(self.seed, "ivf-rebalance", self._rebalances) % (2**31),
        )
        self._retrain(live_rows, result.centroids, result.assignments)

    def maybe_rebalance(self) -> bool:
        """Rebalance iff live occupancy skew exceeds ``rebalance_skew``."""
        if not self._trained or self.occupancy_skew() <= self.rebalance_skew:
            return False
        self.rebalance()
        return True

    def _on_compact(self, live: np.ndarray, row_map: np.ndarray) -> None:
        if not self._trained:
            return
        cells: Dict[int, List[int]] = {}
        row_cell: Dict[int, int] = {}
        cell_live: Dict[int, int] = {}
        for cell, rows in self._cells.items():
            mapped = [int(row_map[r]) for r in rows if row_map[r] >= 0]
            if mapped:
                cells[cell] = mapped
                for r in mapped:
                    row_cell[r] = cell
                cell_live[cell] = len(mapped)
        self._cells = cells
        self._row_cell = row_cell
        self._cell_live = cell_live
        self._cell_arrays = {}

    def scanned_fraction(self) -> float:
        """Approximate fraction of the index a query touches (for reports)."""
        if not self._trained or not self._cells:
            return 1.0
        total = sum(len(rows) for rows in self._cells.values())
        if total == 0:
            return 1.0
        probed = sorted((len(rows) for rows in self._cells.values()), reverse=True)
        return sum(probed[: self.nprobe]) / total
