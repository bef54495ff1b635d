"""Parity tests: ``search_many`` must agree with N single ``search`` calls.

The batched kernels select candidates with chunked matrix-matrix products but
rescore the selected rows with a batch-size-independent exact kernel, so the
returned ids AND scores must match the single-query path — not merely
approximately, but within 1e-9 (in practice bitwise).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.vector.database import Collection
from repro.vector.flat import FlatIndex
from repro.vector.hnsw import HNSWIndex
from repro.vector.ivf import IVFIndex
from repro.vector.pq import PQIndex


def _populate(index, n=400, dim=32, seed=7):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dim)).astype(np.float32)
    index.add([f"v{i}" for i in range(n)], vectors)
    return rng.normal(size=(25, dim)).astype(np.float32)


def _assert_parity(index, queries, k=10):
    batched = index.search_many(queries, k=k)
    assert len(batched) == queries.shape[0]
    for qi, query in enumerate(queries):
        single = index.search(query, k=k)
        got = batched[qi]
        assert [h.id for h in got] == [h.id for h in single]
        for a, b in zip(got, single):
            assert abs(a.score - b.score) <= 1e-9


class TestBatchedParity:
    @pytest.mark.parametrize("metric", ["cosine", "l2", "dot"])
    def test_flat(self, metric):
        index = FlatIndex(32, metric)
        queries = _populate(index)
        _assert_parity(index, queries)

    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    def test_ivf_trained(self, metric):
        index = IVFIndex(32, metric, nlist=16, nprobe=4, train_size=128, seed=3)
        queries = _populate(index)
        assert index._trained
        _assert_parity(index, queries)

    def test_ivf_untrained(self):
        index = IVFIndex(32, "cosine", train_size=10_000)
        queries = _populate(index)
        assert not index._trained
        _assert_parity(index, queries)

    def test_pq_trained(self):
        index = PQIndex(32, "cosine", num_subspaces=4, train_size=128, seed=3)
        queries = _populate(index)
        assert index._codebooks is not None
        _assert_parity(index, queries)

    def test_pq_untrained(self):
        index = PQIndex(32, "cosine", num_subspaces=4, train_size=10_000)
        queries = _populate(index)
        _assert_parity(index, queries)

    def test_flat_with_deletions(self):
        index = FlatIndex(32, "l2")
        queries = _populate(index)
        for i in range(0, 400, 3):
            index.remove(f"v{i}")
        _assert_parity(index, queries)

    def test_hnsw_batched_equals_looped_search(self):
        # HNSW overrides _search_ids_many with the array-native graph
        # kernel; every traversal is per query, so the batch must agree
        # with single search exactly (see also tests/test_prep_batch.py
        # for parity against the frozen pre-overhaul implementation).
        index = HNSWIndex(32, "cosine", m=8, ef_search=40, seed=1)
        queries = _populate(index, n=200)[:5]
        _assert_parity(index, queries, k=5)

    def test_k_larger_than_index(self):
        index = FlatIndex(16, "cosine")
        rng = np.random.default_rng(0)
        index.add(["a", "b", "c"], rng.normal(size=(3, 16)).astype(np.float32))
        queries = rng.normal(size=(4, 16)).astype(np.float32)
        _assert_parity(index, queries, k=10)

    def test_empty_batch_and_empty_index(self):
        index = FlatIndex(16, "cosine")
        assert index.search_many(np.zeros((0, 16), dtype=np.float32), k=5) == []
        rng = np.random.default_rng(0)
        assert index.search_many(rng.normal(size=(3, 16)).astype(np.float32), k=5) == [
            [],
            [],
            [],
        ]


class TestBatchedRouting:
    def test_collection_query_many_matches_query(self):
        coll = Collection("c", 24, index_type="flat")
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(60, 24)).astype(np.float32)
        coll.upsert(
            [f"d{i}" for i in range(60)],
            vectors=vectors,
            metadatas=[{"even": i % 2 == 0} for i in range(60)],
        )
        queries = rng.normal(size=(6, 24)).astype(np.float32)
        batched = coll.query_many(vectors=queries, k=4)
        for qi, query in enumerate(queries):
            single = coll.query(vector=query, k=4)
            assert [(r.id, r.score) for r in batched[qi]] == [
                (r.id, r.score) for r in single
            ]

    def test_collection_query_many_with_filter_overfetches(self):
        coll = Collection("c", 24, index_type="flat")
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(60, 24)).astype(np.float32)
        coll.upsert(
            [f"d{i}" for i in range(60)],
            vectors=vectors,
            metadatas=[{"even": i % 2 == 0} for i in range(60)],
        )
        queries = rng.normal(size=(4, 24)).astype(np.float32)
        where = lambda meta: bool(meta["even"])
        batched = coll.query_many(vectors=queries, k=5, where=where)
        for qi, query in enumerate(queries):
            single = coll.query(vector=query, k=5, where=where)
            assert [(r.id, r.score) for r in batched[qi]] == [
                (r.id, r.score) for r in single
            ]
            assert len(batched[qi]) == 5
