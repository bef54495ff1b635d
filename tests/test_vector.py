"""Tests for vector indexes, k-means, and the vector database."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CollectionError, DimensionMismatchError, VectorIndexError
from repro.llm.embedding import EmbeddingModel
from repro.vector import (
    Collection,
    FlatIndex,
    HNSWIndex,
    IVFIndex,
    LSHIndex,
    PQIndex,
    VectorDatabase,
    kmeans,
)


def _clustered_data(n=400, dim=32, clusters=8, seed=0):
    """Clustered vectors (the regime ANN indexes are built for)."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((clusters, dim)) * 3
    data = centers[rng.integers(0, clusters, n)] + rng.standard_normal((n, dim)) * 0.4
    return data.astype(np.float32)


@pytest.fixture(scope="module")
def data():
    return _clustered_data()


@pytest.fixture(scope="module")
def gold(data):
    flat = FlatIndex(data.shape[1])
    flat.add([f"v{i}" for i in range(len(data))], data)
    return [
        {h.id for h in flat.search(data[q], 10)} for q in range(0, 100, 10)
    ]


class TestFlatIndex:
    def test_exact_self_match(self, data):
        index = FlatIndex(data.shape[1])
        index.add([f"v{i}" for i in range(len(data))], data)
        hits = index.search(data[7], 1)
        assert hits[0].id == "v7"
        assert hits[0].score == pytest.approx(1.0, abs=1e-5)

    def test_scores_sorted(self, data):
        index = FlatIndex(data.shape[1])
        index.add([f"v{i}" for i in range(len(data))], data)
        scores = [h.score for h in index.search(data[0], 20)]
        assert scores == sorted(scores, reverse=True)

    def test_k_larger_than_index(self):
        index = FlatIndex(4)
        index.add(["a", "b"], np.eye(4)[:2])
        assert len(index.search(np.ones(4), 10)) == 2

    def test_k_zero(self, data):
        index = FlatIndex(data.shape[1])
        index.add(["a"], data[:1])
        with pytest.raises(VectorIndexError, match="k must be positive"):
            index.search(data[0], 0)

    def test_remove_tombstones(self, data):
        index = FlatIndex(data.shape[1])
        index.add([f"v{i}" for i in range(10)], data[:10])
        assert index.remove("v3") is True
        assert index.remove("v3") is False
        assert "v3" not in index
        assert len(index) == 9
        assert all(h.id != "v3" for h in index.search(data[3], 10))

    def test_duplicate_id_rejected(self, data):
        index = FlatIndex(data.shape[1])
        index.add(["a"], data[:1])
        with pytest.raises(VectorIndexError):
            index.add(["a"], data[1:2])

    def test_dim_mismatch(self):
        index = FlatIndex(8)
        with pytest.raises(DimensionMismatchError):
            index.add(["a"], np.ones((1, 4)))
        with pytest.raises(DimensionMismatchError):
            index.search(np.ones(4), 1)

    def test_id_count_mismatch(self, data):
        index = FlatIndex(data.shape[1])
        with pytest.raises(VectorIndexError):
            index.add(["a", "b"], data[:1])

    def test_vector_retrieval_normalized(self, data):
        index = FlatIndex(data.shape[1])
        index.add(["a"], data[:1])
        assert np.isclose(np.linalg.norm(index.vector("a")), 1.0, atol=1e-5)
        with pytest.raises(VectorIndexError):
            index.vector("missing")


@pytest.mark.parametrize(
    "cls,kwargs,min_recall",
    [
        (HNSWIndex, {"m": 8, "ef_search": 40}, 0.85),
        (IVFIndex, {"nlist": 16, "nprobe": 4, "train_size": 100}, 0.6),
        (LSHIndex, {"num_tables": 10, "num_bits": 8}, 0.5),
        (PQIndex, {"num_subspaces": 8, "train_size": 100}, 0.6),
    ],
)
class TestANNIndexes:
    def test_recall_on_clustered_data(self, cls, kwargs, min_recall, data, gold):
        index = cls(data.shape[1], **kwargs)
        index.add([f"v{i}" for i in range(len(data))], data)
        recalls = []
        for probe, gold_ids in zip(range(0, 100, 10), gold):
            got = {h.id for h in index.search(data[probe], 10)}
            recalls.append(len(got & gold_ids) / 10)
        assert float(np.mean(recalls)) >= min_recall

    def test_incremental_add(self, cls, kwargs, min_recall, data):
        index = cls(data.shape[1], **kwargs)
        index.add([f"v{i}" for i in range(200)], data[:200])
        index.add([f"v{i}" for i in range(200, 400)], data[200:])
        assert len(index) == 400
        hits = index.search(data[350], 5)
        assert hits  # late additions are findable
        assert any(h.id == "v350" for h in hits)

    def test_remove(self, cls, kwargs, min_recall, data):
        index = cls(data.shape[1], **kwargs)
        index.add([f"v{i}" for i in range(300)], data[:300])
        index.remove("v5")
        assert all(h.id != "v5" for h in index.search(data[5], 10))


class TestIndexSpecifics:
    def test_ivf_scanned_fraction(self, data):
        index = IVFIndex(data.shape[1], nlist=16, nprobe=2, train_size=100)
        index.add([f"v{i}" for i in range(len(data))], data)
        assert 0.0 < index.scanned_fraction() < 1.0

    def test_ivf_brute_force_before_training(self, data):
        index = IVFIndex(data.shape[1], train_size=10_000)
        index.add([f"v{i}" for i in range(50)], data[:50])
        assert index.search(data[3], 1)[0].id == "v3"

    def test_hnsw_rejects_small_m(self):
        with pytest.raises(VectorIndexError):
            HNSWIndex(8, m=1)

    def test_lsh_requires_cosine(self):
        with pytest.raises(VectorIndexError):
            LSHIndex(8, metric="l2")

    def test_pq_rejects_indivisible_dim(self):
        with pytest.raises(VectorIndexError):
            PQIndex(30, num_subspaces=8)


class TestKMeans:
    def test_recovers_separated_clusters(self):
        data = _clustered_data(n=300, clusters=4, seed=3)
        result = kmeans(data, 4, seed=1)
        assert result.centroids.shape == (4, data.shape[1])
        assert len(set(result.assignments.tolist())) == 4

    def test_k_clamped_to_n(self):
        data = np.eye(3, dtype=np.float32)
        result = kmeans(data, 10)
        assert result.centroids.shape[0] == 3

    def test_deterministic(self):
        data = _clustered_data(n=100)
        a = kmeans(data, 5, seed=2)
        b = kmeans(data, 5, seed=2)
        assert np.allclose(a.centroids, b.centroids)

    def test_rejects_empty(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            kmeans(np.zeros((0, 4)), 2)


class TestVectorDatabase:
    @pytest.fixture()
    def db(self):
        return VectorDatabase(embedder=EmbeddingModel(dim=32))

    def test_create_and_query_by_text(self, db):
        coll = db.create_collection("docs", 32)
        coll.upsert(
            ["a", "b"],
            texts=["red fox in the forest", "quarterly earnings report"],
            metadatas=[{"kind": "nature"}, {"kind": "finance"}],
        )
        hits = coll.query(text="fox forest animal", k=1)
        assert hits[0].id == "a"
        assert hits[0].metadata["kind"] == "nature"

    def test_metadata_filter_overfetches(self, db):
        coll = db.create_collection("docs", 32)
        ids = [f"d{i}" for i in range(20)]
        texts = [f"common topic document {i}" for i in range(20)]
        metas = [{"shard": i % 2} for i in range(20)]
        coll.upsert(ids, texts=texts, metadatas=metas)
        hits = coll.query(text="common topic", k=5, where=lambda m: m["shard"] == 1)
        assert len(hits) == 5
        assert all(h.metadata["shard"] == 1 for h in hits)

    def test_upsert_replaces(self, db):
        coll = db.create_collection("docs", 32)
        coll.upsert(["a"], texts=["first version"])
        coll.upsert(["a"], texts=["second version"])
        assert len(coll) == 1
        assert coll.get("a").text == "second version"

    def test_delete(self, db):
        coll = db.create_collection("docs", 32)
        coll.upsert(["a"], texts=["something"])
        assert coll.delete("a") is True
        assert coll.delete("a") is False
        assert len(coll) == 0

    def test_duplicate_collection_rejected(self, db):
        db.create_collection("x", 32)
        with pytest.raises(CollectionError):
            db.create_collection("x", 32)

    def test_unknown_collection(self, db):
        with pytest.raises(CollectionError):
            db.get_collection("nope")

    def test_unknown_index_type(self, db):
        with pytest.raises(CollectionError):
            db.create_collection("x", 32, index_type="balltree")

    def test_query_without_embedder(self):
        db = VectorDatabase()
        coll = db.create_collection("raw", 4)
        coll.upsert(["a"], vectors=np.ones((1, 4)))
        with pytest.raises(CollectionError):
            coll.query(text="hello")
        assert coll.query(vector=np.ones(4), k=1)[0].id == "a"

    def test_save_load_roundtrip(self, db, tmp_path):
        coll = db.create_collection("docs", 32, index_type="flat")
        coll.upsert(
            ["a", "b"],
            texts=["alpha text", "beta text"],
            metadatas=[{"n": 1}, {"n": 2}],
        )
        db.save(str(tmp_path / "store"))
        loaded = VectorDatabase.load(
            str(tmp_path / "store"), embedder=EmbeddingModel(dim=32)
        )
        coll2 = loaded.get_collection("docs")
        assert len(coll2) == 2
        assert coll2.get("a").metadata == {"n": 1}
        hits = coll2.query(text="alpha text", k=1)
        assert hits[0].id == "a"

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(CollectionError):
            VectorDatabase.load(str(tmp_path / "empty"))


@given(
    st.lists(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=8, max_size=8),
        min_size=2,
        max_size=30,
        unique_by=tuple,
    )
)
@settings(max_examples=25, deadline=None)
def test_flat_search_property(rows):
    """Flat search: top hit of a stored vector's own query is itself (when
    vectors are distinct after normalization)."""
    data = np.asarray(rows, dtype=np.float32)
    norms = np.linalg.norm(data, axis=1)
    data = data[norms > 1e-3]
    if data.shape[0] < 2:
        return
    normalized = data / np.linalg.norm(data, axis=1, keepdims=True)
    # Skip degenerate duplicate directions.
    if len(np.unique(np.round(normalized, 5), axis=0)) != len(normalized):
        return
    index = FlatIndex(8)
    index.add([f"v{i}" for i in range(len(data))], data)
    for i in range(len(data)):
        assert index.search(data[i], 1)[0].id == f"v{i}"


class TestDeprecatedIndexErrorAlias:
    def test_unknown_attribute_still_raises(self):
        import importlib

        errors = importlib.import_module("repro.errors")
        with pytest.raises(AttributeError):
            errors.NoSuchError_
        assert not hasattr(errors, "IndexError_")  # the expired alias is gone


class TestBoundaryInputs:
    """A non-finite vector and a non-positive ``k`` raise VectorIndexError
    from every index type and leave the collection as it was. Each used to
    leak: NaN rows were stored, an all-NaN query returned hits scored
    ``nan``, and ``k`` of 0 or -1 returned ``[]``."""

    INDEX_TYPES = ("flat", "ivf", "hnsw", "lsh", "pq")

    @staticmethod
    def _collection(index_type):
        rng = np.random.default_rng(7)
        coll = Collection("c", 16, index_type=index_type)
        coll.upsert([f"v{i}" for i in range(64)], vectors=rng.standard_normal((64, 16)))
        return coll

    @staticmethod
    def _state(coll):
        probe = np.ones(16, dtype=np.float32)
        hits = [(hit.id, hit.score) for hit in coll.query(vector=probe, k=5)]
        return len(coll), len(coll.index), sorted(coll._records), hits

    @pytest.mark.parametrize("index_type", INDEX_TYPES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_upsert_of_a_non_finite_vector_raises_and_changes_nothing(self, index_type, bad):
        coll = self._collection(index_type)
        before = self._state(coll)
        vectors = np.ones((2, 16), dtype=np.float32)
        vectors[1, 3] = bad
        with pytest.raises(VectorIndexError, match="finite"):
            coll.upsert(["v0", "new"], vectors=vectors)  # v0 would be replaced
        assert self._state(coll) == before
        with pytest.raises(VectorIndexError, match="finite"):
            coll.index.add(["raw"], vectors[1])
        assert self._state(coll) == before

    @pytest.mark.parametrize("index_type", INDEX_TYPES)
    def test_a_non_finite_query_raises(self, index_type):
        coll = self._collection(index_type)
        before = self._state(coll)
        nan = np.full(16, np.nan, dtype=np.float32)
        one_inf = np.ones(16, dtype=np.float32)
        one_inf[0] = np.inf
        for query in (nan, one_inf):
            with pytest.raises(VectorIndexError, match="finite"):
                coll.query(vector=query, k=3)
            with pytest.raises(VectorIndexError, match="finite"):
                coll.query_ids(query, k=3)
            with pytest.raises(VectorIndexError, match="finite"):
                coll.query_many(vectors=np.stack([np.ones(16), query]), k=3)
        assert self._state(coll) == before

    @pytest.mark.parametrize("index_type", INDEX_TYPES)
    @pytest.mark.parametrize("k", [0, -1])
    def test_a_non_positive_k_raises(self, index_type, k):
        coll = self._collection(index_type)
        empty = Collection("empty", 16, index_type=index_type)
        probe = np.ones(16, dtype=np.float32)
        for target in (coll, empty):
            with pytest.raises(VectorIndexError, match="k must be positive"):
                target.query(vector=probe, k=k)
            with pytest.raises(VectorIndexError, match="k must be positive"):
                target.query_ids(probe, k=k)
            with pytest.raises(VectorIndexError, match="k must be positive"):
                target.query_many(vectors=probe[None, :], k=k)
