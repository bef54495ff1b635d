"""Tests for the streaming data flywheel: incremental dedup equivalence,
online IDF pinning, live HNSW/IVF maintenance, and the replay driver."""

import dataclasses

import numpy as np
import pytest

from repro.data.synth import CorpusBuilder, CorpusConfig, TrainingDocument
from repro.errors import ConfigError, PipelineError
from repro.llm.embedding import EmbeddingModel
from repro.prep.dedup import MinHashDeduper
from repro.stream import (
    StreamingCorpus,
    convergence_check,
    poisson_stream,
    rebuild_from_scratch,
    replay,
)
from repro.vector import FlatIndex, HNSWIndex, IVFIndex


def _corpus(docs_per_domain=80, seed=3):
    return CorpusBuilder(CorpusConfig(docs_per_domain=docs_per_domain, seed=seed)).build()


def _doc(i, text):
    return TrainingDocument(
        doc_id=f"d{i:03d}",
        text=text,
        domain="x",
        quality=0.5,
        is_toxic=False,
        dup_group=None,
        is_duplicate=False,
    )


# ------------------------------------------------------- incremental dedup
class TestIncrementalDedup:
    @pytest.mark.parametrize("num_batches", [1, 4, 13])
    def test_equivalent_to_full_dedup(self, num_batches):
        docs = _corpus()
        full = MinHashDeduper(verify_threshold=0.5).dedup(docs)
        full_kept = sorted(d.doc_id for d in full.kept)
        inc = MinHashDeduper(verify_threshold=0.5)
        for idx in np.array_split(np.arange(len(docs)), num_batches):
            inc.dedup_incremental([docs[i] for i in idx])
        assert sorted(inc.store.kept_doc_ids()) == full_kept

    def test_bridge_document_evicts_younger_representative(self):
        # A and B are dissimilar; C overlaps both enough to merge their
        # clusters, so B (admitted in an earlier batch) must be evicted and
        # C itself rejected — exactly what a full dedup over {A, B, C} keeps.
        a = _doc(0, "alpha beta gamma delta")
        b = _doc(1, "epsilon zeta eta theta")
        c = _doc(2, "alpha beta gamma delta epsilon zeta eta theta")
        deduper = MinHashDeduper(
            num_permutations=64,
            bands=32,
            rows_per_band=2,
            shingle_size=1,
            verify_threshold=0.4,
        )
        r1 = deduper.dedup_incremental([a])
        r2 = deduper.dedup_incremental([b])
        assert [d.doc_id for d in r1.admitted] == ["d000"]
        assert [d.doc_id for d in r2.admitted] == ["d001"]
        r3 = deduper.dedup_incremental([c])
        assert r3.admitted == []
        assert [d.doc_id for d in r3.rejected] == ["d002"]
        assert r3.evicted == ["d001"]
        full = MinHashDeduper(
            num_permutations=64,
            bands=32,
            rows_per_band=2,
            shingle_size=1,
            verify_threshold=0.4,
        ).dedup([a, b, c])
        assert sorted(d.doc_id for d in full.kept) == sorted(
            deduper.store.kept_doc_ids()
        )

    def test_rejected_docs_still_bridge(self):
        # B duplicates A (rejected); C duplicates B but not A. A full dedup
        # keeps only A; the incremental path must agree even though B was
        # never admitted.
        a = _doc(0, "one two three four five six")
        b = _doc(1, "one two three four five seven")
        c = _doc(2, "one two three eight five seven")
        deduper = MinHashDeduper(
            num_permutations=64,
            bands=32,
            rows_per_band=2,
            shingle_size=1,
            verify_threshold=0.6,
        )
        deduper.dedup_incremental([a, b])
        deduper.dedup_incremental([c])
        full = MinHashDeduper(
            num_permutations=64,
            bands=32,
            rows_per_band=2,
            shingle_size=1,
            verify_threshold=0.6,
        ).dedup([a, b, c])
        assert sorted(deduper.store.kept_doc_ids()) == sorted(
            d.doc_id for d in full.kept
        )


# ------------------------------------------------------------- online IDF
class TestOnlineIDF:
    BASE = ["the cat sat on the mat", "dogs chase cats", "indexes embed vectors"] * 4

    def test_unpinned_path_unchanged(self):
        a = EmbeddingModel(dim=32, seed=1).fit_idf(self.BASE)
        b = EmbeddingModel(dim=32, seed=1).fit_idf(self.BASE)
        assert np.array_equal(a.embed_batch(self.BASE), b.embed_batch(self.BASE))

    def test_pin_freezes_embedding_space(self):
        m = EmbeddingModel(dim=32, seed=1).fit_idf(self.BASE)
        v0 = m.embed("cats and vectors")
        m.partial_fit_idf(["quantum flux capacitors recalibrate"] * 8)
        assert np.array_equal(m.embed("cats and vectors"), v0)
        assert m.stale_docs == 8
        assert m.idf_drift() > 0.0

    def test_refresh_below_threshold_is_noop(self):
        m = EmbeddingModel(dim=32, seed=1).fit_idf(self.BASE)
        v0 = m.embed("cats")
        m.partial_fit_idf(["novel words appear here"])
        assert m.refresh(threshold=10.0) is False
        assert np.array_equal(m.embed("cats"), v0)

    def test_refresh_repins_and_matches_full_refit(self):
        extra = ["rivers flow to the sea"]
        full = EmbeddingModel(dim=32, seed=1).fit_idf(self.BASE + extra)
        inc = EmbeddingModel(dim=32, seed=1).fit_idf(self.BASE)
        inc.partial_fit_idf(extra)
        assert inc.refresh(threshold=0.0) is True
        assert inc.stale_docs == 0 and inc.idf_drift() == 0.0
        assert np.array_equal(
            full.embed("rivers and cats"), inc.embed("rivers and cats")
        )

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            EmbeddingModel(dim=32).refresh(threshold=-0.1)

    def test_nan_threshold_rejected_and_pin_unmoved(self):
        """NaN compares False to everything: it must not pass as a drift bound."""
        m = EmbeddingModel(dim=32, seed=1).fit_idf(self.BASE)
        m.partial_fit_idf(["novel words appear here"])
        v0 = m.embed("cats")
        generation, drift = m.generation, m.idf_drift()
        with pytest.raises(ConfigError):
            m.refresh(threshold=float("nan"))
        assert (m.generation, m.idf_drift(), m.stale_docs) == (generation, drift, 1)
        assert np.array_equal(m.embed("cats"), v0)

    def test_corpus_nan_refresh_threshold_rejected(self):
        with pytest.raises(ConfigError):
            StreamingCorpus(dim=32, refresh_threshold=float("nan"))

    @pytest.mark.parametrize("dim", [8.5, 64.0, "64"])
    def test_non_integer_dim_rejected_at_construction(self, dim):
        with pytest.raises(ConfigError):
            EmbeddingModel(dim=dim)
        with pytest.raises(ConfigError):
            StreamingCorpus(dim=dim)


# ------------------------------------------------- live index maintenance
def _clustered(n, dim=32, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((8, dim)) * 3
    data = centers[rng.integers(0, 8, n)] + rng.standard_normal((n, dim)) * 0.4
    return data.astype(np.float32)


class TestHNSWDelete:
    def test_delete_half_including_entry_recall_matches_rebuild(self):
        data = _clustered(1200, seed=9)
        ids = [f"v{i}" for i in range(len(data))]
        index = HNSWIndex(32, m=8, ef_search=48, seed=0)
        index.add(ids, data)
        entry_id = index._ids[index._entry]
        doomed = {entry_id} | set(ids[::2]) - {ids[1]}
        for vid in doomed:
            index.remove(vid)
        survivors = [i for i in ids if i not in doomed]
        assert len(index) == len(survivors)
        rebuilt = HNSWIndex(32, m=8, ef_search=48, seed=0)
        sdata = np.stack([data[int(v[1:])] for v in survivors])
        rebuilt.add(survivors, sdata)
        exact = FlatIndex(32)
        exact.add(survivors, sdata)
        k = 10
        inc_recall = reb_recall = 0.0
        queries = range(0, 120, 6)
        for q in queries:
            hits = index.search(data[q], k)
            assert len(hits) == k
            assert all(h.id not in doomed for h in hits)
            truth = {h.id for h in exact.search(data[q], k)}
            inc_recall += len(truth & {h.id for h in hits}) / k
            reb_recall += len(truth & {h.id for h in rebuilt.search(data[q], k)}) / k
        n = len(list(queries))
        inc_recall /= n
        reb_recall /= n
        assert inc_recall >= reb_recall - 0.05

    def test_entry_point_reelected(self):
        data = _clustered(300, seed=2)
        ids = [f"v{i}" for i in range(len(data))]
        index = HNSWIndex(32, m=8, seed=0, compact_fraction=1.0)
        index.add(ids, data)
        entry_id = index._ids[index._entry]
        index.remove(entry_id)
        assert index._entry >= 0
        assert not index._deleted[index._entry]
        assert len(index.search(data[0], 5)) == 5

    def test_auto_compaction_bounds_tombstones(self):
        data = _clustered(500, seed=4)
        ids = [f"v{i}" for i in range(len(data))]
        index = HNSWIndex(32, m=8, seed=0, compact_fraction=0.2)
        index.add(ids, data)
        for vid in ids[: len(ids) // 2]:
            index.remove(vid)
        assert index.tombstone_fraction <= 0.2
        assert len(index) == len(ids) - len(ids) // 2


class TestIVFMaintenance:
    def test_incremental_insert_tracks_occupancy(self):
        data = _clustered(600, seed=6)
        index = IVFIndex(32, nlist=16, nprobe=16, train_size=256, seed=0)
        index.add([f"v{i}" for i in range(400)], data[:400])
        index.add([f"w{i}" for i in range(200)], data[400:])
        assert sum(index._cell_live.values()) == 600
        assert len(index.search(data[0], 10)) == 10

    def test_remove_updates_occupancy(self):
        data = _clustered(400, seed=6)
        index = IVFIndex(32, nlist=16, nprobe=16, train_size=256, seed=0)
        index.add([f"v{i}" for i in range(400)], data)
        for i in range(0, 100):
            index.remove(f"v{i}")
        assert sum(index._cell_live.values()) == 300

    def test_rebalance_restores_skew(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((300, 16)).astype(np.float32)
        index = IVFIndex(16, nlist=8, nprobe=8, train_size=256, seed=0)
        index.add([f"v{i}" for i in range(300)], base)
        # Pile a tight new cluster far from training data into one cell.
        pile = (rng.standard_normal((400, 16)) * 0.01 + 25.0).astype(np.float32)
        index.add([f"p{i}" for i in range(400)], pile)
        skew_before = index.occupancy_skew()
        assert skew_before > index.rebalance_skew
        assert index.maybe_rebalance() is True
        assert index.occupancy_skew() < skew_before
        assert len(index.search(base[0], 10)) == 10
        assert len(index.search(pile[0], 10)) == 10

    def test_rebalance_deterministic(self):
        data = _clustered(400, seed=6)

        def build():
            index = IVFIndex(32, nlist=16, nprobe=4, train_size=256, seed=0)
            index.add([f"v{i}" for i in range(400)], data)
            index.rebalance()
            return index

        a, b = build(), build()
        assert np.array_equal(a._centroids, b._centroids)
        assert a._cells == b._cells


# ------------------------------------------------------------ replay driver
class TestStreamingCorpus:
    def test_end_to_end_replay_and_convergence(self):
        docs = _corpus(docs_per_domain=60, seed=5)
        corpus = StreamingCorpus(
            dim=48, index_type="hnsw", seed=5, refresh_threshold=0.1, m=8
        )
        events = poisson_stream(docs, batch_size=40, rate=25.0, seed=5)
        report = replay(corpus, events, cost_model=lambda r: 0.001 * r.arrived)
        assert report.docs == len(docs)
        assert report.admitted - report.evicted == len(corpus)
        assert report.mean_staleness > 0.0
        assert report.max_staleness >= report.p95_staleness >= report.mean_staleness * 0.5
        conv = convergence_check(corpus, docs, num_queries=12, k=10, seed=5)
        assert conv["survivors_match"] == 1.0
        assert conv["stream_recall"] >= conv["rebuild_recall"] - 0.05

    def test_search_returns_live_ids(self):
        docs = _corpus(docs_per_domain=30, seed=8)
        corpus = StreamingCorpus(dim=32, index_type="flat", seed=8)
        for idx in np.array_split(np.arange(len(docs)), 4):
            corpus.ingest([docs[i] for i in idx])
        live = set(corpus.live_doc_ids())
        hits = corpus.search(docs[0].text, k=5)
        assert len(hits) == 5
        assert set(hits) <= live

    def test_replay_arrival_ordering(self):
        docs = _corpus(docs_per_domain=20, seed=1)
        events = poisson_stream(docs, batch_size=16, rate=10.0, seed=1)
        arrivals = [e.arrival for e in events]
        assert arrivals == sorted(arrivals)
        assert sum(len(e.docs) for e in events) == len(docs)
        # Same seed, same events.
        again = poisson_stream(docs, batch_size=16, rate=10.0, seed=1)
        assert [e.arrival for e in again] == arrivals

    def test_clock_and_cost_model_mutually_exclusive(self):
        corpus = StreamingCorpus(dim=32, index_type="flat")
        with pytest.raises(ConfigError):
            replay(
                corpus,
                [],
                clock=lambda: 0.0,
                cost_model=lambda r: 0.0,
            )

    def test_rebuild_from_scratch_matches_hyperparameters(self):
        docs = _corpus(docs_per_domain=20, seed=2)
        corpus = StreamingCorpus(dim=32, index_type="hnsw", seed=2, m=6)
        corpus.ingest(docs)
        coll, embedder, kept = rebuild_from_scratch(docs, like=corpus)
        assert coll.index.m == 6
        assert embedder.dim == 32 and embedder.seed == 2
        assert kept == corpus.live_doc_ids()


class TestIngestBoundary:
    """A bad batch raises a typed error and leaves every stage untouched."""

    @staticmethod
    def _state(corpus):
        store = corpus.deduper.store
        embedder = corpus.embedder
        return (
            len(store),
            list(store.kept),
            embedder._num_docs,
            dict(embedder._doc_freq),
            corpus.collection.index.total_rows,
            corpus.live_doc_ids(),
        )

    @pytest.fixture()
    def corpus(self):
        corpus = StreamingCorpus(dim=32, index_type="ivf", seed=4)
        corpus.ingest(_corpus(docs_per_domain=10, seed=4)[:40])
        return corpus

    @pytest.mark.parametrize(
        "bad",
        [
            _doc(900, None),
            _doc(901, b"bytes are not text"),
            None,
            "a bare string is not a document",
        ],
    )
    def test_non_document_or_non_str_text_raises_and_changes_nothing(self, corpus, bad):
        before = self._state(corpus)
        with pytest.raises(PipelineError):
            corpus.ingest([_doc(902, "alpha beta gamma delta"), bad])
        assert self._state(corpus) == before

    def test_duplicate_doc_id_in_one_batch_raises_and_changes_nothing(self, corpus):
        before = self._state(corpus)
        twins = [_doc(903, "alpha beta gamma delta"), _doc(903, "epsilon zeta eta theta")]
        with pytest.raises(PipelineError):
            corpus.ingest(twins)
        assert self._state(corpus) == before
        store = corpus.deduper.store
        survivors = sorted(d.doc_id for d, kept in zip(store.docs, store.kept) if kept)
        assert survivors == corpus.live_doc_ids()

    @pytest.mark.parametrize("same_text", [True, False])
    def test_doc_id_from_an_earlier_batch_raises_and_changes_nothing(self, corpus, same_text):
        store = corpus.deduper.store
        old = store.docs[0]
        again = dataclasses.replace(old, text=old.text if same_text else "epsilon zeta eta")
        before = self._state(corpus)
        with pytest.raises(PipelineError, match="earlier batch"):
            corpus.ingest([_doc(905, "alpha beta gamma delta"), again])
        assert self._state(corpus) == before
        assert sorted(store.kept_doc_ids()) == corpus.live_doc_ids()

    def test_a_good_batch_after_a_bad_one_is_admitted(self, corpus):
        with pytest.raises(PipelineError):
            corpus.ingest([_doc(904, "alpha beta gamma delta"), None])
        report = corpus.ingest([_doc(904, "alpha beta gamma delta")])
        assert report.admitted == 1
        assert "d904" in corpus.live_doc_ids()
