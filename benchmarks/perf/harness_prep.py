"""Measurement harness for the offline data-path benchmarks.

Mirrors :mod:`.harness`: every case runs the frozen pre-overhaul
implementation (:mod:`._legacy_prep`) and the current one on *identical*
inputs, takes best-of-3 wall clock for each, and sanity-checks that the two
paths agree before reporting a speedup.  Dedup and embedding agree exactly
(same clusters / bitwise-equal matrices); the ANN comparisons allow the
documented ulp-level query-normalization drift between the frozen helpers
and ``search_many`` (id lists must still match for almost every query).
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

import numpy as np

from repro.data.synth import CorpusBuilder, CorpusConfig, TrainingDocument
from repro.llm.embedding import EmbeddingModel
from repro.prep.dedup import MinHashDeduper
from repro.vector.hnsw import HNSWIndex
from repro.vector.lsh import LSHIndex

from ._legacy_prep import (
    LegacyEmbeddingModel,
    LegacyMinHashDeduper,
    legacy_hnsw_graph,
    legacy_hnsw_search,
    legacy_lsh_search,
)

# one CorpusBuilder "docs_per_domain" unit yields 6 domains * 1.2 dup factor
# of documents; 2_800 -> 20_160 docs, the headline dedup workload.


def prep_corpus(docs_per_domain: int, *, seed: int = 7) -> List[TrainingDocument]:
    """Labelled corpus with exact and near duplicates injected."""
    return CorpusBuilder(
        CorpusConfig(docs_per_domain=docs_per_domain, seed=seed)
    ).build()


def _best_of(runs: int, fn) -> tuple:
    # GC is suspended inside the timed region (as timeit does): the resident
    # corpora and legacy graph snapshots are large tracked object graphs, and
    # collector sweeps triggered mid-run add noise that swamps kernel-level
    # differences.  Both variants of every case time under the same rule.
    best = float("inf")
    result = None
    gc_was_enabled = gc.isenabled()
    for _ in range(runs):
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
        finally:
            if gc_was_enabled:
                gc.enable()
    return best, result


def run_dedup_case(docs_per_domain: int, *, seed: int = 7) -> Dict[str, object]:
    """Legacy vs vectorized MinHash dedup on one corpus; outputs must match."""
    docs = prep_corpus(docs_per_domain, seed=seed)
    legacy_wall, legacy_result = _best_of(
        3, lambda: LegacyMinHashDeduper().dedup(docs)
    )
    new_wall, new_result = _best_of(3, lambda: MinHashDeduper().dedup(docs))

    # Full-output parity, not a spot check: same survivors, same clusters,
    # same candidate/verified accounting.
    assert [d.doc_id for d in new_result.kept] == [
        d.doc_id for d in legacy_result.kept
    ], "dedup kept-set drift"
    assert sorted(map(sorted, new_result.clusters)) == sorted(
        map(sorted, legacy_result.clusters)
    ), "dedup cluster drift"
    assert new_result.candidate_pairs == legacy_result.candidate_pairs
    assert new_result.verified_pairs == legacy_result.verified_pairs

    return {
        "workload": {
            "num_docs": len(docs),
            "docs_per_domain": docs_per_domain,
            "seed": seed,
            "candidate_pairs": new_result.candidate_pairs,
            "verified_pairs": new_result.verified_pairs,
        },
        "legacy": {"wall_s": legacy_wall, "docs_per_s": len(docs) / legacy_wall},
        "current": {"wall_s": new_wall, "docs_per_s": len(docs) / new_wall},
        "speedup": legacy_wall / max(new_wall, 1e-12),
    }


def run_embed_case(docs_per_domain: int, *, seed: int = 9) -> Dict[str, object]:
    """Legacy per-text embed loop vs the batched slab kernel (bitwise equal)."""
    texts = [d.text for d in prep_corpus(docs_per_domain, seed=seed)]

    legacy_model = LegacyEmbeddingModel(dim=128, seed=1)
    new_model = EmbeddingModel(dim=128, seed=1)
    legacy_fit, _ = _best_of(1, lambda: legacy_model.fit_idf(texts))
    new_fit, _ = _best_of(1, lambda: new_model.fit_idf(texts))
    assert new_model._doc_freq == legacy_model._doc_freq, "fit_idf drift"

    # Best-of-3 on one model per variant: the first call populates the
    # hash-seeded token-vector cache (identical cost on both sides), so the
    # best run measures the embedding kernel itself, warm — the steady state
    # of any corpus-scale ingest.  The current side times the slab kernel
    # behind ``embed_batch`` directly: every repeat embeds every text, as
    # the legacy loop does, instead of replaying rows from the model's
    # text memo (or deduplicating the corpus's exact copies).
    legacy_wall, legacy_out = _best_of(3, lambda: legacy_model.embed_batch(texts))
    new_wall, new_out = _best_of(3, lambda: new_model._embed_rows(texts))
    assert np.array_equal(new_out, legacy_out), "embedding drift (not bitwise equal)"
    assert np.array_equal(new_model.embed_batch(texts), legacy_out), "memo drift"

    return {
        "workload": {"num_texts": len(texts), "dim": 128, "seed": seed},
        "legacy": {
            "wall_s": legacy_wall,
            "fit_idf_s": legacy_fit,
            "texts_per_s": len(texts) / legacy_wall,
        },
        "current": {
            "wall_s": new_wall,
            "fit_idf_s": new_fit,
            "texts_per_s": len(texts) / new_wall,
        },
        "speedup": legacy_wall / max(new_wall, 1e-12),
        "fit_idf_speedup": legacy_fit / max(new_fit, 1e-12),
    }


def _ann_workload(num_vectors: int, *, dim: int, seed: int, num_queries: int = 256):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((num_vectors, dim)).astype(np.float32)
    queries = rng.standard_normal((num_queries, dim)).astype(np.float32)
    return vectors, queries


def _id_agreement(legacy_results, batched_results) -> float:
    """Fraction of queries whose ranked id lists match exactly."""
    matches = sum(
        [vid for vid, _ in lr] == [h.id for h in br]
        for lr, br in zip(legacy_results, batched_results)
    )
    return matches / max(len(legacy_results), 1)


def run_hnsw_case(
    num_vectors: int, *, dim: int = 96, k: int = 10, seed: int = 0
) -> Dict[str, object]:
    """Frozen per-query graph search vs the array-native ``search_many``.

    Both paths traverse the *same* graph (built once by the current index,
    snapshotted into the legacy dict-of-lists form), so the timing isolates
    the search kernels.
    """
    vectors, queries = _ann_workload(num_vectors, dim=dim, seed=seed)
    index = HNSWIndex(dim, m=16, ef_construction=100, ef_search=50, seed=seed)
    index.add([f"v{i}" for i in range(num_vectors)], vectors)
    graph = legacy_hnsw_graph(index)

    legacy_hnsw_search(index, graph, queries[0], k)  # warm
    index.search_many(queries[:8], k)

    legacy_wall, legacy_results = _best_of(
        3, lambda: [legacy_hnsw_search(index, graph, q, k) for q in queries]
    )
    new_wall, new_results = _best_of(3, lambda: index.search_many(queries, k))

    agreement = _id_agreement(legacy_results, new_results)
    if agreement < 0.95:
        raise AssertionError(f"hnsw result drift: agreement {agreement:.2%}")

    nq = queries.shape[0]
    return {
        "workload": {
            "index": "hnsw",
            "num_vectors": num_vectors,
            "dim": dim,
            "num_queries": nq,
            "k": k,
            "id_list_agreement": agreement,
        },
        "legacy": {"wall_s": legacy_wall, "queries_per_s": nq / legacy_wall},
        "current": {"wall_s": new_wall, "queries_per_s": nq / new_wall},
        "speedup": legacy_wall / max(new_wall, 1e-12),
    }


def run_lsh_case(
    num_vectors: int, *, dim: int = 96, k: int = 10, seed: int = 0
) -> Dict[str, object]:
    """Frozen set-union bucket probe vs the vectorized probe, same tables."""
    vectors, queries = _ann_workload(num_vectors, dim=dim, seed=seed)
    index = LSHIndex(dim, num_tables=8, num_bits=10, seed=seed)
    index.add([f"v{i}" for i in range(num_vectors)], vectors)

    legacy_lsh_search(index, queries[0], k)  # warm
    index.search_many(queries[:8], k)

    legacy_wall, legacy_results = _best_of(
        3, lambda: [legacy_lsh_search(index, q, k) for q in queries]
    )
    new_wall, new_results = _best_of(3, lambda: index.search_many(queries, k))

    agreement = _id_agreement(legacy_results, new_results)
    if agreement < 0.95:
        raise AssertionError(f"lsh result drift: agreement {agreement:.2%}")

    nq = queries.shape[0]
    return {
        "workload": {
            "index": "lsh",
            "num_vectors": num_vectors,
            "dim": dim,
            "num_queries": nq,
            "k": k,
            "id_list_agreement": agreement,
        },
        "legacy": {"wall_s": legacy_wall, "queries_per_s": nq / legacy_wall},
        "current": {"wall_s": new_wall, "queries_per_s": nq / new_wall},
        "speedup": legacy_wall / max(new_wall, 1e-12),
    }
