"""HNSW graph index (Malkov & Yashunin) — the workhorse ANN structure.

A hierarchy of proximity graphs: the sparse top layers route a greedy search
into the right region, the dense bottom layer (layer 0) holds every point.
Search cost is roughly O(log n) hops, giving the sub-linear latency that
makes vector databases practical for RAG (paper §2.2.1).

Adjacency is stored as preallocated int64 arrays (one ``(rows, cap + 1)``
matrix plus a degree vector per layer) rather than dict-of-lists, and the
per-layer search tracks visited nodes with an epoch-stamped array instead of
a Python set.

Both the insertion path and the query path score candidates with one
``_score_fn`` BLAS product per expansion, exactly like the pre-overhaul
implementation — so graphs *and* search results are bitwise-identical to
the frozen baseline in ``benchmarks/perf/_legacy_prep.py``.  The wins come
from the bookkeeping around the scoring: contiguous adjacency slices
instead of dict lookups, one vectorized visited probe per expansion instead
of a set-membership test per neighbour, and a result-floor prefilter that
keeps dead pairs out of the heaps.  (A lockstep cohort kernel that batches
the similarity math *across* queries was prototyped and measured: the
per-expansion BLAS call on this graph is already so small that round
synchronization costs as much as it saves, so the per-query loop stays.)
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Tuple

import numpy as np

from ..errors import VectorIndexError
from ..utils import derive_rng
from .base import VectorIndex


class HNSWIndex(VectorIndex):
    """Hierarchical Navigable Small World graph.

    Parameters
    ----------
    m:
        Max neighbours per node on upper layers (layer 0 allows ``2*m``).
    ef_construction:
        Candidate-list width during insertion; larger = better graph, slower
        build.
    ef_search:
        Candidate-list width during queries; the recall/latency dial.
    compact_fraction:
        Tombstone fraction past which :meth:`~VectorIndex.compact` runs
        automatically after a delete (``1.0`` disables auto-compaction).
    """

    def __init__(
        self,
        dim: int,
        metric: str = "cosine",
        *,
        m: int = 16,
        ef_construction: int = 100,
        ef_search: int = 50,
        compact_fraction: float = 0.3,
        seed: int = 0,
    ) -> None:
        super().__init__(dim, metric)
        if m < 2:
            raise VectorIndexError(f"m must be >= 2, got {m}")
        if not 0.0 < compact_fraction <= 1.0:
            raise VectorIndexError(
                f"compact_fraction must be in (0, 1], got {compact_fraction}"
            )
        self.m = m
        self.m0 = 2 * m
        self.ef_construction = max(ef_construction, m)
        self.ef_search = ef_search
        self.compact_fraction = compact_fraction
        self._level_mult = 1.0 / math.log(m)
        self._rng = derive_rng(seed, "hnsw")
        # Per-layer adjacency: _adj[layer][row, :_deg[layer][row]] are the
        # neighbour rows, in insertion order (identical to the old list
        # order).  Rows not on a layer carry degree -1.  One spare column
        # beyond the layer cap lets _link append before pruning in place.
        self._adj: List[np.ndarray] = []
        self._deg: List[np.ndarray] = []
        self._capacity = 0
        # Epoch-stamped visited marks: row visited iff _visited[row] == _epoch.
        # Bumping the epoch resets all marks in O(1) per query.
        self._visited = np.zeros(0, dtype=np.int64)
        self._epoch = 0
        self._node_level: Dict[int, int] = {}
        self._entry: int = -1
        self._entry_level: int = -1

    # ----------------------------------------------------------- adjacency
    def _layer_width(self, layer: int) -> int:
        return (self.m0 if layer == 0 else self.m) + 1

    def _ensure_capacity(self, total_rows: int) -> None:
        if total_rows <= self._capacity:
            return
        new_cap = max(total_rows, self._capacity * 2, 256)
        for layer, adj in enumerate(self._adj):
            grown = np.empty((new_cap, adj.shape[1]), dtype=np.int64)
            grown[: adj.shape[0]] = adj
            self._adj[layer] = grown
            deg = np.full(new_cap, -1, dtype=np.int64)
            deg[: self._deg[layer].shape[0]] = self._deg[layer]
            self._deg[layer] = deg
        visited = np.zeros(new_cap, dtype=np.int64)
        visited[: self._visited.shape[0]] = self._visited
        self._visited = visited
        self._capacity = new_cap

    def _add_layer(self) -> None:
        layer = len(self._adj)
        self._adj.append(
            np.empty((self._capacity, self._layer_width(layer)), dtype=np.int64)
        )
        self._deg.append(np.full(self._capacity, -1, dtype=np.int64))

    @property
    def num_layers(self) -> int:
        """Number of graph layers currently allocated."""
        return len(self._adj)

    def layer_adjacency(self, layer: int) -> Dict[int, List[int]]:
        """Snapshot one layer's adjacency as ``{row: [neighbour rows]}``."""
        adj, deg = self._adj[layer], self._deg[layer]
        return {
            int(row): adj[row, : deg[row]].tolist()
            for row in np.flatnonzero(deg >= 0)
        }

    # ------------------------------------------------------------ insertion
    def _random_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._level_mult)

    def _search_layer(
        self, query: np.ndarray, entry_rows: List[int], ef: int, layer: int
    ) -> List[Tuple[float, int]]:
        """Best-first search over one layer; up to ``ef`` (sim, row).

        Serves both insertion and queries.  Scores via ``_score_fn`` — one
        BLAS product over the fresh neighbours per expansion, the exact call
        shape of the pre-overhaul loop — so construction decisions, the
        graph, and every reported similarity stay bitwise-identical to the
        frozen baseline.
        """
        adj, deg = self._adj[layer], self._deg[layer]
        vectors = self._vectors
        score_fn = self._score_fn
        self._epoch += 1
        epoch = self._epoch
        visited = self._visited
        # With live tombstones, stale in-edges may still point at deleted
        # rows (delete repair rewires out-edges; asymmetric in-edges are
        # only reclaimed at compaction). Skip them here so deleted nodes
        # are neither routed through nor returned. The no-deletion path is
        # untouched — bitwise-identical to the frozen baseline.
        deleted = self._del_buf if self._num_deleted else None
        entry = np.asarray(entry_rows, dtype=np.int64)
        visited[entry] = epoch
        # Max-heap of candidates by similarity (negated for heapq);
        # min-heap of current best results by similarity.
        candidates: List[Tuple[float, int]] = []
        results: List[Tuple[float, int]] = []
        entry_sims = score_fn(query, vectors[entry])
        for row, sim in zip(entry_rows, entry_sims.tolist()):
            heapq.heappush(candidates, (-sim, row))
            heapq.heappush(results, (sim, row))
        while candidates:
            neg_sim, row = heapq.heappop(candidates)
            if results and -neg_sim < results[0][0] and len(results) >= ef:
                break
            d = deg[row]
            if d <= 0:
                continue
            nbrs = adj[row, :d]
            fresh = nbrs[visited[nbrs] != epoch]
            if fresh.shape[0] == 0:
                continue
            visited[fresh] = epoch
            if deleted is not None:
                fresh = fresh[~deleted[fresh]]
                if fresh.shape[0] == 0:
                    continue
            sims = score_fn(query, vectors[fresh])
            if len(results) >= ef:
                # The result floor only rises while the heap is full, so
                # neighbours below it now can never be admitted later;
                # dropping them here skips dead heap traffic without
                # changing which nodes get pushed.
                keep = sims > results[0][0]
                fresh = fresh[keep]
                sims = sims[keep]
            for n_row, sim in zip(fresh.tolist(), sims.tolist()):
                if len(results) < ef or sim > results[0][0]:
                    heapq.heappush(candidates, (-sim, n_row))
                    heapq.heappush(results, (sim, n_row))
                    if len(results) > ef:
                        heapq.heappop(results)
        return sorted(results, reverse=True)

    def _select_neighbours(
        self, query: np.ndarray, candidates: List[Tuple[float, int]], m: int
    ) -> List[int]:
        """Heuristic neighbour selection (keeps diverse edges)."""
        ordered = sorted(candidates, reverse=True)
        selected: List[int] = []
        # Already-selected vectors accumulate in a preallocated matrix so the
        # domination check is one vectorized score call per candidate instead
        # of a Python loop over selected neighbours.
        selected_vecs = np.empty((m, self.dim), dtype=np.float32)
        for sim, row in ordered:
            if len(selected) >= m:
                break
            # Diversity check: skip a candidate dominated by an already
            # selected neighbour (closer to it than to the query).
            vec = self._vectors[row]
            if selected and float(
                np.max(self._score_fn(vec, selected_vecs[: len(selected)]))
            ) > sim:
                continue
            selected_vecs[len(selected)] = vec
            selected.append(row)
        if len(selected) < m:  # backfill with remaining best
            chosen = set(selected)
            for sim, row in ordered:
                if len(selected) >= m:
                    break
                if row not in chosen:
                    selected.append(row)
                    chosen.add(row)
        return selected

    def _link(self, layer: int, row: int, neighbours: List[int]) -> None:
        adj, deg = self._adj[layer], self._deg[layer]
        adj[row, : len(neighbours)] = neighbours
        deg[row] = len(neighbours)
        cap = self.m0 if layer == 0 else self.m
        for n_row in neighbours:
            d = int(deg[n_row])
            if d < 0:
                d = 0
            adj[n_row, d] = row
            d += 1
            deg[n_row] = d
            if d > cap:
                # Prune with the diversity heuristic, not raw similarity:
                # similarity-only pruning severs the long-range edges that
                # keep distinct clusters mutually reachable, fragmenting
                # the graph (the failure mode the original paper's
                # "heuristic" neighbour selection exists to prevent).
                links = adj[n_row, :d]
                vec = self._vectors[n_row]
                sims = self._score_fn(vec, self._vectors[links])
                candidates = list(zip(sims.tolist(), links.tolist()))
                selected = self._select_neighbours(vec, candidates, cap)
                adj[n_row, : len(selected)] = selected
                deg[n_row] = len(selected)

    def _on_add(self, rows: np.ndarray, vectors: np.ndarray) -> None:
        self._ensure_capacity(self.total_rows)
        for row in rows:
            self._insert(int(row))

    def _insert(self, row: int) -> None:
        level = self._random_level()
        self._node_level[row] = level
        while len(self._adj) <= level:
            self._add_layer()
        query = self._vectors[row]
        if self._entry < 0:
            for layer in range(level + 1):
                self._deg[layer][row] = 0
            self._entry, self._entry_level = row, level
            return
        entry = [self._entry]
        # Greedy descent through layers above the node's level.
        for layer in range(self._entry_level, level, -1):
            entry = [self._search_layer(query, entry, 1, layer)[0][1]]
        # Insert with full candidate search below.
        for layer in range(min(level, self._entry_level), -1, -1):
            candidates = self._search_layer(query, entry, self.ef_construction, layer)
            m = self.m0 if layer == 0 else self.m
            neighbours = self._select_neighbours(query, candidates, m)
            self._link(layer, row, neighbours)
            entry = [r for _, r in candidates]
        if level > self._entry_level:
            self._entry, self._entry_level = row, level

    # ------------------------------------------------------------- deletion
    def _on_remove(self, row: int) -> None:
        """Delete with graph repair.

        The deleted node is unlinked from every layer it occupies; each of
        its (out-)neighbours is re-linked through the surviving candidates —
        its own remaining neighbours plus the deleted node's other
        neighbours — via the same diversity heuristic used at construction,
        so local connectivity survives the removal. If the entry point
        died, a new one is elected from the highest still-populated layer.
        Stale in-edges (asymmetric links pointing at the deleted row) are
        skipped at search time and reclaimed by compaction, which runs
        automatically past ``compact_fraction``.
        """
        level = self._node_level.pop(row, None)
        if level is None:
            return
        for layer in range(min(level, len(self._adj) - 1) + 1):
            adj, deg = self._adj[layer], self._deg[layer]
            d = int(deg[row])
            if d < 0:
                continue
            nbrs = adj[row, :d].tolist()
            deg[row] = -1
            cap = self.m0 if layer == 0 else self.m
            deleted = self._del_buf
            live_nbrs = [n for n in nbrs if not deleted[n] and deg[n] >= 0]
            for n_row in live_nbrs:
                nd = int(deg[n_row])
                current = adj[n_row, :nd].tolist()
                # Drop the deleted row, then offer the deleted node's other
                # neighbours as bridge candidates (first occurrence wins,
                # order deterministic: existing links then bridges).
                candidates: List[int] = []
                seen = {row, n_row}
                for c in current:
                    if c not in seen and not deleted[c]:
                        seen.add(c)
                        candidates.append(c)
                for c in live_nbrs:
                    if c not in seen:
                        seen.add(c)
                        candidates.append(c)
                if not candidates:
                    deg[n_row] = 0
                    continue
                vec = self._vectors[n_row]
                cand_rows = np.asarray(candidates, dtype=np.int64)
                sims = self._score_fn(vec, self._vectors[cand_rows])
                selected = self._select_neighbours(
                    vec, list(zip(sims.tolist(), candidates)), cap
                )
                adj[n_row, : len(selected)] = selected
                deg[n_row] = len(selected)
        if row == self._entry:
            self._elect_entry()
        if (
            self.compact_fraction < 1.0
            and self.total_rows >= 32
            and self._num_deleted >= self.compact_fraction * self.total_rows
        ):
            self.compact()

    def _elect_entry(self) -> None:
        """Re-elect the entry point from the highest populated layer."""
        for layer in range(len(self._adj) - 1, -1, -1):
            deg = self._deg[layer][: self.total_rows]
            rows = np.flatnonzero((deg >= 0) & ~self._deleted)
            if rows.shape[0]:
                self._entry = int(rows[0])
                self._entry_level = layer
                return
        self._entry, self._entry_level = -1, -1

    def _on_compact(self, live: np.ndarray, row_map: np.ndarray) -> None:
        total = row_map.shape[0]
        for layer, (adj, deg) in enumerate(zip(self._adj, self._deg)):
            new_adj = np.empty_like(adj)
            new_deg = np.full(deg.shape[0], -1, dtype=np.int64)
            for old in live.tolist():
                d = int(deg[old])
                if d < 0:
                    continue
                new = int(row_map[old])
                if d:
                    # Remap neighbours, dropping stale links to dead rows.
                    mapped = row_map[adj[old, :d]]
                    mapped = mapped[mapped >= 0]
                    new_adj[new, : mapped.shape[0]] = mapped
                    new_deg[new] = mapped.shape[0]
                else:
                    new_deg[new] = 0
            self._adj[layer] = new_adj
            self._deg[layer] = new_deg
        self._node_level = {
            int(row_map[old]): lvl
            for old, lvl in self._node_level.items()
            if old < total and row_map[old] >= 0
        }
        # Stale visited marks would alias remapped rows; reset the epoch.
        self._visited[:] = 0
        self._epoch = 0
        if self._entry >= 0:
            # remove() re-elects before compaction triggers, so the entry is
            # always live here and maps to a real row.
            self._entry = int(row_map[self._entry])
        if self._entry < 0:
            self._elect_entry()

    # --------------------------------------------------------------- search
    def _search_ids_many(self, queries: np.ndarray, k: int) -> List[List[tuple]]:
        """Graph search for a batch of prepared queries.

        Each query runs the same descent as the pre-overhaul ``search`` —
        greedy ef=1 through the upper layers, then a full ``ef_search``
        sweep of layer 0 — through :meth:`_search_layer`, so ids *and*
        scores are bitwise-equal to the frozen baseline (and ``search_many``
        is trivially bitwise-equal to looped ``search``).  The batch shares
        the epoch-stamped visited buffer, so no per-query allocation scales
        with the index size.
        """
        nq = queries.shape[0]
        if self._entry < 0:
            return [[] for _ in range(nq)]
        ef = max(self.ef_search, k)
        out: List[List[tuple]] = []
        for qi in range(nq):
            query = queries[qi]
            entry = [self._entry]
            for layer in range(self._entry_level, 0, -1):
                entry = [self._search_layer(query, entry, 1, layer)[0][1]]
            results = self._search_layer(query, entry, ef, 0)
            out.append([(row, sim) for sim, row in results])
        return out

    # ----------------------------------------------------------- statistics
