"""Golden digests of the streaming ingest path: reports, live set, vectors, searches.

``StreamingCorpus.ingest`` (MinHash dedup -> online-IDF embedding -> IVF
insert) is optimized for speed only: every admission decision, signature,
embedding, index row and search result must stay bitwise what it was.
These digests were captured before those optimizations, on the corpus the
``stream_ingest_query`` benchmark builds at seed 1, in its shuffled arrival
order, ingested in 64-document batches into the benchmark's
``StreamingCorpus(dim=64, index_type="ivf", seed=1)``. The 36 batches are
what the benchmark's 12-second schedule serves; they hold IDF refreshes,
index compactions and IVF rebalances. Any drift means an optimization
changed what the program computes, not only how fast.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.data.synth import CorpusBuilder, CorpusConfig
from repro.prep.dedup import shingle_hashes_many
from repro.stream import StreamingCorpus
from repro.utils import derive_rng

SEED = 1
BATCH_DOCS = 64
BATCHES = 36
DOCS = 3712  # what the benchmark's 12-second schedule draws at 192 docs/s
SEARCHES = 100

GOLDEN = {
    "reports": "be79057de4f27318",
    "live_ids": "94143d79953bc408",
    "live_vectors": "4589ae73b414046a",
    "signatures": "a7e46570adfafa22",
    "buckets": "4b217f2d9abf6806",
    "searches": "4114f70b1a396b8c",
}


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _documents():
    per_domain = math.ceil(DOCS / 7.2)
    docs = CorpusBuilder(CorpusConfig(docs_per_domain=per_domain, seed=SEED)).build()
    order = derive_rng(SEED, "perfbench", "stream", "order").permutation(len(docs))
    return [docs[i] for i in order.tolist()]


def _stream_run() -> dict:
    docs = _documents()[: BATCHES * BATCH_DOCS]
    corpus = StreamingCorpus(dim=64, index_type="ivf", seed=SEED)
    index = corpus.collection.index
    compactions = []
    compact = index.compact

    def counted_compact():
        compactions.append(compact())
        return compactions[-1]

    index.compact = counted_compact
    deduper = corpus.deduper
    reports, signatures = [], []
    for lo in range(0, len(docs), BATCH_DOCS):
        batch = docs[lo : lo + BATCH_DOCS]
        # The signatures ingest computes for this batch, one call per batch.
        values = shingle_hashes_many([d.text for d in batch], deduper.shingle_size)
        signatures.append(deduper.signature_many(values).tobytes())
        reports.append(corpus.ingest(batch))
    # One call over every arrived document runs the full-width kernel blocks.
    values = shingle_hashes_many([d.text for d in docs], deduper.shingle_size)
    signatures.append(deduper.signature_many(values).tobytes())
    picks = np.linspace(0, len(docs) - 1, SEARCHES).astype(np.int64).tolist()
    buckets = [sorted(band.items()) for band in deduper.store.buckets]
    return {
        "reports": reports,
        "live_ids": corpus.live_doc_ids(),
        "live_vectors": corpus.live_vectors().tobytes(),
        "signatures": signatures,
        "buckets": buckets,
        "searches": [corpus.search(docs[i].text, k=10) for i in picks],
        "compactions": compactions,
        "survivors": sorted(deduper.store.kept_doc_ids()),
    }


@pytest.fixture(scope="module")
def stream_run():
    return _stream_run()


@pytest.mark.parametrize("part", sorted(GOLDEN))
def test_stream_path_matches_its_golden_digest(stream_run, part):
    assert _digest(stream_run[part]) == GOLDEN[part]


def test_golden_run_exercises_refresh_compaction_and_rebalance(stream_run):
    # Guards the digests against pinning a run that skips a maintenance path.
    reports = stream_run["reports"]
    assert len(reports) == BATCHES
    assert sum(r.refreshed for r in reports) >= 1
    assert sum(r.rebalanced for r in reports) >= 1
    assert sum(r.evicted for r in reports) >= 1
    assert sum(r.rejected for r in reports) >= 1
    assert len(stream_run["compactions"]) >= 1
    assert stream_run["survivors"] == stream_run["live_ids"]
    assert all(len(hits) == 10 for hits in stream_run["searches"])
