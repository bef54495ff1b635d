"""Measurement harness for the streaming-ingestion benchmark.

One case streams a labelled corpus (exact + near duplicates injected)
through :class:`~repro.stream.StreamingCorpus` in arrival order, timing
every batch with a real clock, then:

* reports steady-state ingest throughput (docs over total service time);
* reports staleness (arrival -> retrievable) by replaying the recorded
  per-batch service times through the single-server queue recurrence
  against a seeded Poisson arrival process pinned at a fixed utilization
  of the measured capacity — so the staleness numbers are a property of
  the measured service distribution, not of an arbitrary arrival rate;
* times the frozen full-rebuild baseline (:mod:`._baseline_stream`) on
  the same documents and asserts convergence: identical dedup survivors,
  recall@10 within tolerance of the rebuild (each path scored against
  exact search in its own embedding space);
* reports the freshness speedup: the cost of absorbing a typical batch
  incrementally versus rebuilding the whole corpus from scratch.

Stream and rebuild run as :func:`.harness.time_pairs` pairs, convergence
checked on every pair: the pair is the rebuild's wall time against the
stream's median batch (a :class:`.harness.SelfTimed` reading of the
per-batch service clock, so an occasional refresh re-embed landing in one
batch does not skew it).  Throughput, staleness and counters come from the
last pair's stream.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.stream import StreamingCorpus
from repro.stream.replay import _recall_at_k
from repro.utils import derive_rng

from ._baseline_stream import full_rebuild
from .harness import SelfTimed, time_pairs
from .harness_prep import prep_corpus

DIM = 64
QUERY_COUNT = 64
RECALL_K = 10
RECALL_TOLERANCE = 0.05


def _staleness(
    services: List[float], weights: List[int], *, rate: float, seed: int
) -> Dict[str, float]:
    """Queue-recurrence staleness for recorded service times at ``rate``
    batch arrivals/sec (Poisson)."""
    rng = derive_rng(seed, "stream-bench-arrivals")
    gaps = rng.exponential(1.0 / rate, size=len(services))
    arrivals = np.cumsum(gaps)
    ready = 0.0
    stale: List[float] = []
    for arrival, service in zip(arrivals, services):
        ready = max(float(arrival), ready) + service
        stale.append(ready - float(arrival))
    per_doc = np.repeat(
        np.array(stale, dtype=np.float64), np.array(weights, dtype=np.int64)
    )
    return {
        "mean_s": float(per_doc.mean()),
        "p95_s": float(np.quantile(per_doc, 0.95)),
        "max_s": float(per_doc.max()),
    }


def run_stream_case(
    docs_per_domain: int,
    index_type: str,
    *,
    batch_size: int = 512,
    utilization: float = 0.8,
    refresh_threshold: float = 0.1,
    seed: int = 7,
    **index_kwargs: object,
) -> Dict[str, object]:
    """Stream one corpus end to end; returns throughput, staleness, and
    convergence against the frozen full rebuild."""
    docs = prep_corpus(docs_per_domain, seed=seed)
    batches = [docs[i : i + batch_size] for i in range(0, len(docs), batch_size)]
    rng = derive_rng(seed, "stream-bench-queries")
    query_texts = [
        docs[int(i)].text
        for i in rng.integers(0, len(docs), size=QUERY_COUNT)
    ]

    def stream() -> SelfTimed:
        corpus = StreamingCorpus(
            dim=DIM,
            index_type=index_type,
            seed=seed,
            refresh_threshold=refresh_threshold,
            **index_kwargs,
        )
        services: List[float] = []
        reports = []
        for batch in batches:
            t0 = time.perf_counter()
            reports.append(corpus.ingest(batch))
            services.append(time.perf_counter() - t0)
        return SelfTimed(float(np.median(services)), (corpus, services, reports))

    def rebuild():
        return full_rebuild(
            docs, dim=DIM, index_type=index_type, seed=seed, index_kwargs=index_kwargs
        )

    recalls: Dict[str, float] = {}

    def check(rebuilt, streamed) -> None:
        rebuild_coll, rebuild_embedder, rebuild_kept = rebuilt
        corpus = streamed[0]
        assert corpus.live_doc_ids() == rebuild_kept, (
            "streaming survivors diverged from full re-dedup "
            f"({len(corpus)} vs {len(rebuild_kept)})"
        )
        recalls["stream"] = _recall_at_k(
            corpus.collection, corpus.embedder.embed_batch(query_texts), RECALL_K
        )
        recalls["rebuild"] = _recall_at_k(
            rebuild_coll, rebuild_embedder.embed_batch(query_texts), RECALL_K
        )
        assert recalls["stream"] >= recalls["rebuild"] - RECALL_TOLERANCE, (
            f"streaming recall@{RECALL_K} {recalls['stream']:.3f} fell more than "
            f"{RECALL_TOLERANCE} below the rebuild's {recalls['rebuild']:.3f}"
        )

    timing, (_, _, rebuild_kept), (corpus, services, reports) = time_pairs(
        rebuild, stream, check
    )
    total_service = sum(services)
    staleness = _staleness(
        services,
        [len(b) for b in batches],
        rate=utilization * len(batches) / total_service,
        seed=seed,
    )
    return {
        "workload": {
            "num_docs": len(docs),
            "index": index_type,
            "dim": DIM,
            "batch_size": batch_size,
            "utilization": utilization,
            "refresh_threshold": refresh_threshold,
            "seed": seed,
        },
        **timing,
        "detail": {
            "total_service_s": total_service,
            "docs_per_sec": len(docs) / total_service,
            "staleness": staleness,
            "last_batch_s": services[-1],
            "live_docs": len(corpus),
            "kept_docs": len(rebuild_kept),
            "admitted": sum(r.admitted for r in reports),
            "evicted": sum(r.evicted for r in reports),
            "refreshes": sum(int(r.refreshed) for r in reports),
            "rebalances": sum(int(r.rebalanced) for r in reports),
            "stream_recall_at_10": recalls["stream"],
            "rebuild_recall_at_10": recalls["rebuild"],
            "recall_gap": recalls["stream"] - recalls["rebuild"],
        },
    }
