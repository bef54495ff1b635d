"""Frozen pre-overhaul offline data-path implementations (PR 5 baselines).

These are the data-prep and retrieval-ingest hot paths exactly as they
existed before the offline-path overhaul: per-document MinHash signatures
(one ``(P, S)`` matrix per document), per-doc-per-band ``stable_hash``
string banding, per-text ``embed`` calls that re-walk the token stream one
numpy axpy at a time, and the dict/set-based HNSW/LSH query loops.
``scripts/bench.py`` times them against the current implementations in
interleaved pairs (``harness.time_pairs``) so ``BENCH_prep.json`` records
speedups against a stable baseline, and ``tests/test_prep_batch.py``
proves the optimized paths return *identical* outputs (signatures,
clusters, embeddings, and ANN result sets).  The current LSH index runs
the same set-union bucket probe as :func:`legacy_lsh_search`; its row
measures only the shared ``search_many`` bookkeeping.

Do not "fix" or modernize this module — its value is that it never changes.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.data.synth import TrainingDocument
from repro.errors import ConfigError, VectorIndexError
from repro.prep.dedup import DedupResult
from repro.utils import derive_rng, normalize, stable_hash
from repro.vector.base import VectorIndex

from ._legacy import _legacy_finish, _legacy_prepare_query

_MERSENNE = (1 << 61) - 1

# --------------------------------------------------------------------------
# Legacy tokenizer content path: regex over every whitespace/punctuation
# chunk, per-piece isalnum scan.  Frozen because the overhaul added a
# fast word-only path to Tokenizer.content_tokens; the baseline must keep
# paying the original cost.
# --------------------------------------------------------------------------

_LEGACY_TOKEN_PATTERN = re.compile(r"\w+|[^\w\s]|\s+", re.UNICODE)


class LegacyTokenizer:
    """The pre-overhaul ``Tokenizer`` content path (pieces + filter)."""

    def __init__(self, max_word_len: int = 8) -> None:
        self.max_word_len = max_word_len

    def pieces(self, text: str) -> List[str]:
        pieces: List[str] = []
        for match in _LEGACY_TOKEN_PATTERN.finditer(text):
            chunk = match.group(0)
            if chunk.isspace() or len(chunk) <= self.max_word_len:
                pieces.append(chunk)
            else:
                step = self.max_word_len
                pieces.extend(chunk[i : i + step] for i in range(0, len(chunk), step))
        return pieces

    def content_tokens(self, text: str) -> List[str]:
        return [
            piece.lower()
            for piece in self.pieces(text)
            if not piece.isspace() and any(ch.isalnum() for ch in piece)
        ]


_LEGACY_TOKENIZER = LegacyTokenizer()


# --------------------------------------------------------------------------
# Legacy MinHash dedup: per-doc shingle sets and signatures, stable_hash
# string banding, dict buckets, pairwise jaccard on Python sets.
# --------------------------------------------------------------------------


def legacy_shingles(text: str, n: int = 3) -> Set[int]:
    tokens = _LEGACY_TOKENIZER.content_tokens(text)
    if len(tokens) < n:
        # NOTE: frozen with the original quirk — the short-document branch
        # did not reduce modulo the Mersenne prime.
        return {stable_hash(" ".join(tokens))} if tokens else set()
    return {
        stable_hash(" ".join(tokens[i : i + n])) % _MERSENNE
        for i in range(len(tokens) - n + 1)
    }


def legacy_jaccard(a: Set[int], b: Set[int]) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


class _LegacyUnionFind:
    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self._parent.setdefault(x, x)
        if parent != x:
            self._parent[x] = self.find(parent)
        return self._parent[x]

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


class LegacyMinHashDeduper:
    """Pre-overhaul ``MinHashDeduper``: one numpy kernel per document."""

    def __init__(
        self,
        *,
        num_permutations: int = 64,
        bands: int = 16,
        rows_per_band: int = 4,
        shingle_size: int = 3,
        verify_threshold: float = 0.6,
        seed: int = 0,
    ) -> None:
        if bands * rows_per_band != num_permutations:
            raise ConfigError("bands * rows_per_band must equal num_permutations")
        self.num_permutations = num_permutations
        self.bands = bands
        self.rows_per_band = rows_per_band
        self.shingle_size = shingle_size
        self.verify_threshold = verify_threshold
        rng = derive_rng(seed, "minhash")
        self._a = rng.integers(1, _MERSENNE, size=num_permutations, dtype=np.int64)
        self._b = rng.integers(0, _MERSENNE, size=num_permutations, dtype=np.int64)

    def signature(self, shingle_set: Set[int]) -> np.ndarray:
        if not shingle_set:
            return np.full(self.num_permutations, _MERSENNE, dtype=np.int64)
        values = np.fromiter(shingle_set, dtype=np.int64)
        hashed = (self._a[:, None] * values[None, :] + self._b[:, None]) % _MERSENNE
        return hashed.min(axis=1)

    def dedup(self, docs: Sequence[TrainingDocument]) -> DedupResult:
        shingle_sets = [legacy_shingles(d.text, self.shingle_size) for d in docs]
        signatures = [self.signature(s) for s in shingle_sets]
        buckets: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        for i, sig in enumerate(signatures):
            for band in range(self.bands):
                lo = band * self.rows_per_band
                key = stable_hash(
                    f"{band}:" + ",".join(map(str, sig[lo : lo + self.rows_per_band]))
                )
                buckets[(band, key)].append(i)
        uf = _LegacyUnionFind()
        candidate_pairs = 0
        verified_pairs = 0
        checked: Set[Tuple[int, int]] = set()
        for ids in buckets.values():
            if len(ids) < 2:
                continue
            for x in range(len(ids)):
                for y in range(x + 1, len(ids)):
                    pair = (min(ids[x], ids[y]), max(ids[x], ids[y]))
                    if pair in checked:
                        continue
                    checked.add(pair)
                    candidate_pairs += 1
                    if (
                        legacy_jaccard(shingle_sets[pair[0]], shingle_sets[pair[1]])
                        >= self.verify_threshold
                    ):
                        verified_pairs += 1
                        uf.union(pair[0], pair[1])
        clusters: Dict[int, List[int]] = defaultdict(list)
        for i in range(len(docs)):
            clusters[uf.find(i)].append(i)
        kept: List[TrainingDocument] = []
        removed: List[TrainingDocument] = []
        for root, members in clusters.items():
            members.sort()
            kept.append(docs[members[0]])
            removed.extend(docs[m] for m in members[1:])
        kept.sort(key=lambda d: d.doc_id)
        return DedupResult(
            kept=kept,
            removed=removed,
            clusters=[m for m in clusters.values() if len(m) > 1],
            candidate_pairs=candidate_pairs,
            verified_pairs=verified_pairs,
        )


def legacy_line_dedup(
    docs: Sequence[TrainingDocument], *, max_occurrences: int = 2
) -> Tuple[List[TrainingDocument], int]:
    """Pre-overhaul ``line_dedup``: per-doc normalized sets, two passes."""
    from repro.rag.chunking import split_sentences

    if max_occurrences < 1:
        raise ConfigError("max_occurrences must be >= 1")
    counts: Counter = Counter()
    doc_sentences: List[List[str]] = []
    for doc in docs:
        sentences = split_sentences(doc.text)
        doc_sentences.append(sentences)
        normalized = {s.strip().lower() for s in sentences}
        for s in normalized:
            counts[s] += 1
    banned = {s for s, c in counts.items() if c > max_occurrences}
    out: List[TrainingDocument] = []
    removed_sentences = 0
    for doc, sentences in zip(docs, doc_sentences):
        kept_sentences = []
        seen_local: Set[str] = set()
        for s in sentences:
            key = s.strip().lower()
            if key in banned or key in seen_local:
                removed_sentences += 1
                continue
            seen_local.add(key)
            kept_sentences.append(s)
        if kept_sentences:
            out.append(
                TrainingDocument(
                    doc_id=doc.doc_id,
                    text=" ".join(kept_sentences),
                    domain=doc.domain,
                    quality=doc.quality,
                    is_toxic=doc.is_toxic,
                    dup_group=doc.dup_group,
                    is_duplicate=doc.is_duplicate,
                )
            )
    return out, removed_sentences


# --------------------------------------------------------------------------
# Legacy embedding model: per-text embed with one axpy per contribution.
# --------------------------------------------------------------------------


@dataclass
class LegacyEmbeddingModel:
    """Pre-overhaul ``EmbeddingModel``: ``embed_batch`` stacks per-text loops."""

    dim: int = 128
    seed: int = 0
    stem_len: int = 5
    stem_weight: float = 0.4
    bigram_weight: float = 0.25
    tokenizer: LegacyTokenizer = field(default_factory=lambda: _LEGACY_TOKENIZER)
    _token_vectors: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _doc_freq: Dict[str, int] = field(default_factory=dict, repr=False)
    _num_docs: int = field(default=0, repr=False)

    def fit_idf(self, corpus) -> "LegacyEmbeddingModel":
        for text in corpus:
            self._num_docs += 1
            for token in set(self.tokenizer.content_tokens(text)):
                self._doc_freq[token] = self._doc_freq.get(token, 0) + 1
        return self

    def _idf(self, token: str) -> float:
        if not self._num_docs:
            return 1.0
        df = self._doc_freq.get(token, 0)
        return math.log((1 + self._num_docs) / (1 + df)) + 1.0

    def _unit_vector(self, key: str) -> np.ndarray:
        vec = self._token_vectors.get(key)
        if vec is None:
            rng = np.random.default_rng(stable_hash(f"emb:{self.seed}:{key}"))
            vec = rng.standard_normal(self.dim).astype(np.float32)
            vec /= np.linalg.norm(vec)
            self._token_vectors[key] = vec
        return vec

    def embed(self, text: str) -> np.ndarray:
        tokens = self.tokenizer.content_tokens(text)
        acc = np.zeros(self.dim, dtype=np.float32)
        if not tokens:
            return self._unit_vector("<empty>").copy()
        for token in tokens:
            weight = self._idf(token)
            acc += weight * self._unit_vector(token)
            if self.stem_weight > 0 and len(token) > self.stem_len:
                acc += weight * self.stem_weight * self._unit_vector(token[: self.stem_len])
        if self.bigram_weight > 0:
            for left, right in zip(tokens, tokens[1:]):
                acc += self.bigram_weight * self._unit_vector(f"{left}##{right}")
        return normalize(acc).astype(np.float32)

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float32)
        return np.stack([self.embed(text) for text in texts])


# --------------------------------------------------------------------------
# Legacy HNSW: dict-of-lists adjacency, Python-set visited tracking.
# The full index class is kept for small-scale build parity; the search
# functions run the frozen per-query algorithm against a prebuilt graph
# snapshot so the 50k-vector benchmark does not have to build twice.
# --------------------------------------------------------------------------


def _legacy_sim_many(index, query: np.ndarray, rows: List[int]) -> np.ndarray:
    return index._score_fn(query, index._vectors[np.asarray(rows, dtype=np.int64)])


def legacy_hnsw_graph(index) -> List[Dict[int, List[int]]]:
    """Snapshot the index adjacency as the pre-overhaul dict-of-lists form."""
    graph: List[Dict[int, List[int]]] = []
    for layer in range(index.num_layers):
        graph.append(
            {row: list(neigh) for row, neigh in index.layer_adjacency(layer).items()}
        )
    return graph


def _legacy_search_layer(
    index,
    graph: List[Dict[int, List[int]]],
    query: np.ndarray,
    entry_rows: List[int],
    ef: int,
    layer: int,
) -> List[Tuple[float, int]]:
    adjacency = graph[layer]
    visited: Set[int] = set(entry_rows)
    candidates: List[Tuple[float, int]] = []
    results: List[Tuple[float, int]] = []
    entry_sims = _legacy_sim_many(index, query, entry_rows)
    for row, sim in zip(entry_rows, entry_sims):
        sim = float(sim)
        heapq.heappush(candidates, (-sim, row))
        heapq.heappush(results, (sim, row))
    while candidates:
        neg_sim, row = heapq.heappop(candidates)
        if results and -neg_sim < results[0][0] and len(results) >= ef:
            break
        neighbours = [n for n in adjacency.get(row, []) if n not in visited]
        if not neighbours:
            continue
        visited.update(neighbours)
        sims = _legacy_sim_many(index, query, neighbours)
        for n_row, sim in zip(neighbours, sims):
            sim = float(sim)
            if len(results) < ef or sim > results[0][0]:
                heapq.heappush(candidates, (-sim, n_row))
                heapq.heappush(results, (sim, n_row))
                if len(results) > ef:
                    heapq.heappop(results)
    return sorted(results, reverse=True)


def legacy_hnsw_search(
    index, graph: List[Dict[int, List[int]]], query: np.ndarray, k: int = 10
):
    """Pre-overhaul ``HNSWIndex.search`` against a graph snapshot."""
    query = _legacy_prepare_query(index, query)
    if index._entry < 0:
        return []
    entry = [index._entry]
    for layer in range(index._entry_level, 0, -1):
        entry = [_legacy_search_layer(index, graph, query, entry, 1, layer)[0][1]]
    ef = max(index.ef_search, k)
    results = _legacy_search_layer(index, graph, query, entry, ef, 0)
    return _legacy_finish(index, [(row, sim) for sim, row in results], k)


class LegacyHNSWIndex(VectorIndex):
    """Pre-overhaul ``HNSWIndex``, kept whole for small-scale build parity."""

    def __init__(
        self,
        dim: int,
        metric: str = "cosine",
        *,
        m: int = 16,
        ef_construction: int = 100,
        ef_search: int = 50,
        seed: int = 0,
    ) -> None:
        super().__init__(dim, metric)
        if m < 2:
            raise VectorIndexError(f"m must be >= 2, got {m}")
        self.m = m
        self.m0 = 2 * m
        self.ef_construction = max(ef_construction, m)
        self.ef_search = ef_search
        self._level_mult = 1.0 / math.log(m)
        self._rng = derive_rng(seed, "hnsw")
        self._graph: List[Dict[int, List[int]]] = []
        self._node_level: Dict[int, int] = {}
        self._entry: int = -1
        self._entry_level: int = -1

    def _sim_many(self, query: np.ndarray, rows: List[int]) -> np.ndarray:
        return self._score_fn(query, self._vectors[np.asarray(rows, dtype=np.int64)])

    def _random_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._level_mult)

    def _search_layer(
        self, query: np.ndarray, entry_rows: List[int], ef: int, layer: int
    ) -> List[Tuple[float, int]]:
        return _legacy_search_layer(self, self._graph, query, entry_rows, ef, layer)

    def _select_neighbours(
        self, query: np.ndarray, candidates: List[Tuple[float, int]], m: int
    ) -> List[int]:
        ordered = sorted(candidates, reverse=True)
        selected: List[int] = []
        selected_vecs = np.empty((m, self.dim), dtype=np.float32)
        for sim, row in ordered:
            if len(selected) >= m:
                break
            vec = self._vectors[row]
            if selected and float(
                np.max(self._score_fn(vec, selected_vecs[: len(selected)]))
            ) > sim:
                continue
            selected_vecs[len(selected)] = vec
            selected.append(row)
        if len(selected) < m:
            chosen = set(selected)
            for sim, row in ordered:
                if len(selected) >= m:
                    break
                if row not in chosen:
                    selected.append(row)
                    chosen.add(row)
        return selected

    def _link(self, layer: int, row: int, neighbours: List[int]) -> None:
        adjacency = self._graph[layer]
        adjacency[row] = list(neighbours)
        cap = self.m0 if layer == 0 else self.m
        for n_row in neighbours:
            links = adjacency.setdefault(n_row, [])
            links.append(row)
            if len(links) > cap:
                vec = self._vectors[n_row]
                sims = self._sim_many(vec, links)
                candidates = [(float(s), l) for s, l in zip(sims, links)]
                adjacency[n_row] = self._select_neighbours(vec, candidates, cap)

    def _on_add(self, rows: np.ndarray, vectors: np.ndarray) -> None:
        for row in rows:
            self._insert(int(row))

    def _insert(self, row: int) -> None:
        level = self._random_level()
        self._node_level[row] = level
        while len(self._graph) <= level:
            self._graph.append({})
        query = self._vectors[row]
        if self._entry < 0:
            for layer in range(level + 1):
                self._graph[layer][row] = []
            self._entry, self._entry_level = row, level
            return
        entry = [self._entry]
        for layer in range(self._entry_level, level, -1):
            entry = [self._search_layer(query, entry, 1, layer)[0][1]]
        for layer in range(min(level, self._entry_level), -1, -1):
            candidates = self._search_layer(query, entry, self.ef_construction, layer)
            m = self.m0 if layer == 0 else self.m
            neighbours = self._select_neighbours(query, candidates, m)
            self._link(layer, row, neighbours)
            entry = [r for _, r in candidates]
        if level > self._entry_level:
            self._entry, self._entry_level = row, level

    def _search_ids(self, query: np.ndarray, k: int) -> List[tuple]:
        if self._entry < 0:
            return []
        entry = [self._entry]
        for layer in range(self._entry_level, 0, -1):
            entry = [self._search_layer(query, entry, 1, layer)[0][1]]
        ef = max(self.ef_search, k)
        results = self._search_layer(query, entry, ef, 0)
        return [(row, sim) for sim, row in results]


# --------------------------------------------------------------------------
# Legacy LSH: per-query signature + Python-set bucket union.
# --------------------------------------------------------------------------


def legacy_lsh_search(index, query: np.ndarray, k: int = 10):
    """Pre-overhaul ``LSHIndex.search``: set-union bucket probe per query."""
    query = _legacy_prepare_query(index, query)
    bits = (np.einsum("tbd,d->tb", index._planes, query) > 0).astype(np.int64)
    keys = bits @ index._powers
    candidate_rows: Set[int] = set()
    for table, key in zip(index._tables, keys):
        candidate_rows.update(table.get(int(key), []))
    if not candidate_rows:
        return []
    rows = np.fromiter(candidate_rows, dtype=np.int64)
    scores = index._score_fn(query, index._vectors[rows])
    scores = np.where(index._deleted[rows], -np.inf, scores)
    order = np.argsort(-scores)[: max(k, 1)]
    rows_scores = [
        (int(rows[i]), float(scores[i])) for i in order if np.isfinite(scores[i])
    ]
    return _legacy_finish(index, rows_scores, k)
