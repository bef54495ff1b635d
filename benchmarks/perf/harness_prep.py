"""Measurement harness for the offline data-path benchmarks.

Every case times the frozen pre-overhaul implementation (:mod:`._legacy_prep`)
against the current one on *identical* inputs through
:func:`.harness.time_pairs`, which runs the case's agreement check on every
pair.  Dedup and embedding agree exactly (same clusters / bitwise-equal
matrices); the ANN comparisons allow the documented ulp-level
query-normalization drift between the frozen helpers and ``search_many``
(id lists must still match for almost every query).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.data.synth import CorpusBuilder, CorpusConfig, TrainingDocument
from repro.llm.embedding import EmbeddingModel
from repro.prep.dedup import DedupResult, MinHashDeduper
from repro.vector.hnsw import HNSWIndex
from repro.vector.lsh import LSHIndex

from ._legacy_prep import (
    LegacyEmbeddingModel,
    LegacyMinHashDeduper,
    legacy_hnsw_graph,
    legacy_hnsw_search,
    legacy_lsh_search,
)
from .harness import time_pairs

# one CorpusBuilder "docs_per_domain" unit yields 6 domains * 1.2 dup factor
# of documents; 2_800 -> 20_160 docs, the headline dedup workload.


def prep_corpus(docs_per_domain: int, *, seed: int = 7) -> List[TrainingDocument]:
    """Labelled corpus with exact and near duplicates injected."""
    return CorpusBuilder(
        CorpusConfig(docs_per_domain=docs_per_domain, seed=seed)
    ).build()


def run_dedup_case(docs_per_domain: int, *, seed: int = 7) -> Dict[str, object]:
    """Legacy vs vectorized MinHash dedup on one corpus; outputs must match."""
    docs = prep_corpus(docs_per_domain, seed=seed)

    def check(legacy_result: DedupResult, new_result: DedupResult) -> None:
        # Full-output parity, not a spot check: same survivors, same
        # clusters, same candidate/verified accounting.
        assert [d.doc_id for d in new_result.kept] == [
            d.doc_id for d in legacy_result.kept
        ], "dedup kept-set drift"
        assert sorted(map(sorted, new_result.clusters)) == sorted(
            map(sorted, legacy_result.clusters)
        ), "dedup cluster drift"
        assert new_result.candidate_pairs == legacy_result.candidate_pairs
        assert new_result.verified_pairs == legacy_result.verified_pairs

    timing, _, result = time_pairs(
        lambda: LegacyMinHashDeduper().dedup(docs),
        lambda: MinHashDeduper().dedup(docs),
        check,
    )
    return {
        "workload": {"num_docs": len(docs), "docs_per_domain": docs_per_domain, "seed": seed},
        **timing,
        "detail": {
            "candidate_pairs": result.candidate_pairs,
            "verified_pairs": result.verified_pairs,
        },
    }


def run_embed_case(docs_per_domain: int, *, seed: int = 9) -> Dict[str, object]:
    """Legacy per-text embed loop vs the batched slab kernel (bitwise equal).

    ``fit_idf`` is timed first, on a fresh model per call; the embedding
    pairs then run on the last pair's two fitted models.  The first embed
    call on a model populates its hash-seeded token-vector cache (identical
    cost on both sides), so the median measures the embedding kernel warm —
    the steady state of any corpus-scale ingest.  The current side times
    the slab kernel behind ``embed_batch`` directly: every call embeds
    every text, as the legacy loop does, instead of replaying rows from
    the model's text memo (or deduplicating the corpus's exact copies).
    """
    texts = [d.text for d in prep_corpus(docs_per_domain, seed=seed)]

    def check_fit(legacy: LegacyEmbeddingModel, new: EmbeddingModel) -> None:
        assert new._doc_freq == legacy._doc_freq, "fit_idf drift"

    def check_embed(legacy_out: np.ndarray, new_out: np.ndarray) -> None:
        assert np.array_equal(new_out, legacy_out), "embedding drift (not bitwise equal)"

    fit, legacy_model, new_model = time_pairs(
        lambda: LegacyEmbeddingModel(dim=128, seed=1).fit_idf(texts),
        lambda: EmbeddingModel(dim=128, seed=1).fit_idf(texts),
        check_fit,
    )
    timing, legacy_out, _ = time_pairs(
        lambda: legacy_model.embed_batch(texts),
        lambda: new_model._embed_rows(texts),
        check_embed,
    )
    assert np.array_equal(new_model.embed_batch(texts), legacy_out), "memo drift"
    return {
        "workload": {"num_texts": len(texts), "dim": 128, "seed": seed},
        **timing,
        "detail": {"fit_idf_speedup": fit["speedup"]},
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


def _ann_case(kind: str, index, legacy_search, queries: np.ndarray, k: int) -> Dict[str, object]:
    """Frozen per-query search vs ``search_many`` on one built index."""

    def check(legacy_results: List, new_results: List) -> None:
        agreement = _id_agreement(legacy_results, new_results)
        if agreement < 0.95:
            raise AssertionError(f"{kind} result drift: agreement {agreement:.2%}")

    timing, legacy_results, new_results = time_pairs(
        lambda: [legacy_search(q) for q in queries],
        lambda: index.search_many(queries, k),
        check,
    )
    return {
        "workload": {
            "index": kind,
            "num_vectors": len(index),
            "dim": index.dim,
            "num_queries": queries.shape[0],
            "k": k,
        },
        **timing,
        "detail": {"id_list_agreement": _id_agreement(legacy_results, new_results)},
    }


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
    return _ann_case("hnsw", index, lambda q: legacy_hnsw_search(index, graph, q, k), queries, k)


def run_lsh_case(
    num_vectors: int, *, dim: int = 96, k: int = 10, seed: int = 0
) -> Dict[str, object]:
    """Frozen set-union bucket probe vs ``search_many``, same tables."""
    vectors, queries = _ann_workload(num_vectors, dim=dim, seed=seed)
    index = LSHIndex(dim, num_tables=8, num_bits=10, seed=seed)
    index.add([f"v{i}" for i in range(num_vectors)], vectors)
    return _ann_case("lsh", index, lambda q: legacy_lsh_search(index, q, k), queries, k)
