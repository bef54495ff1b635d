"""stream_ingest_query: open-loop ingest beside reads on one thread.

Documents of a seeded CorpusBuilder corpus (exact and near duplicates
injected, arrival order shuffled) arrive in 64-document batches on a
Poisson schedule, and search queries arrive on their own Poisson schedule
asking for the text of a document that has already arrived.  Both rates
are constants set well below this machine's ingest capacity, so every
commit sees the same schedule.  One server thread takes the operations in
due order, so queries queue behind ingest batches.  The end-to-end query
latency is a search's own service time; the wait from each operation's
due time, and ingest freshness, are per-layer numbers, because their
tail is set by refresh re-embeds whose size varies from seed to seed
(the due-time p99 spread over a third of its median across seeds);
``query_p50_ms`` is the median search's service time and ``work_per_s``
ingest speed at the median batch, BATCH_DOCS over the median batch
service time, both in quiet-machine time (see ``gauge``; the server runs
the gauge's reference only in gaps of over SLACK_S between due times).  A 12-second run holds about 36 batches, and the few that
refresh the IDF and re-embed take several times longer than the rest, in
numbers that vary from seed to seed; their cost shows in
``stream.freshness_p95_s``.  Exercises
incremental MinHash dedup, online IDF with refresh re-embeds, and IVF
insert, compaction and rebalance.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass
from typing import List, Tuple

from common import Outcome, clock, percentile, report_failure
from repro.data.synth import CorpusBuilder, CorpusConfig, TrainingDocument
from repro.stream import StreamingCorpus
from repro.utils import derive_rng
from repro.vector.flat import FlatIndex

DIM = 64
BATCH_DOCS = 64
DOC_RATE = 192.0  # arriving documents per second
QUERY_RATE = 150.0  # arriving queries per second
K = 10
SLACK_S = 0.015  # idle time before a due operation in which the gauge may run
RECALL_QUERIES = 200
MIN_RECALL = 0.5
#: Slope of search time on the gauge's reference time (see ``gauge``): 1.75.
SENSITIVITY = 1.75
BATCH, QUERY = 0, 1


@dataclass
class State:
    corpus: StreamingCorpus
    docs: List[TrainingDocument]
    events: List[Tuple[float, int, object]]  # (due s, kind, doc range or query text)
    window_s: float
    seed: int


def _documents(seed: int, count: int) -> List[TrainingDocument]:
    """At least ``count`` labelled documents in a seeded arrival order."""
    per_domain = math.ceil(count / 7.2)  # 6 domains, 1.2 documents per base document
    docs = CorpusBuilder(CorpusConfig(docs_per_domain=per_domain, seed=seed)).build()
    order = derive_rng(seed, "perfbench", "stream", "order").permutation(len(docs))
    return [docs[i] for i in order.tolist()]


def _schedule(docs: List[TrainingDocument], seconds: float, seed: int):
    rng = derive_rng(seed, "perfbench", "stream", "batches")
    events: List[Tuple[float, int, object]] = []
    due = 0.0
    for lo in range(0, len(docs) - BATCH_DOCS + 1, BATCH_DOCS):
        due += float(rng.exponential(BATCH_DOCS / DOC_RATE))
        if due > seconds:
            break
        events.append((due, BATCH, (lo, lo + BATCH_DOCS)))
    batch_due = [event[0] for event in events]
    rng = derive_rng(seed, "perfbench", "stream", "queries")
    due = batch_due[0]
    while True:
        due += float(rng.exponential(1.0 / QUERY_RATE))
        if due > seconds:
            break
        arrived = BATCH_DOCS * bisect.bisect_right(batch_due, due)
        events.append((due, QUERY, docs[int(rng.integers(0, arrived))].text))
    events.sort(key=lambda event: (event[0], event[1]))
    return events


def _corpus(seed: int) -> StreamingCorpus:
    return StreamingCorpus(dim=DIM, index_type="ivf", seed=seed)


def setup(seed: int, seconds: float) -> State:
    docs = _documents(seed, int(DOC_RATE * seconds * 1.5) + 4 * BATCH_DOCS)
    events = _schedule(docs, seconds, seed)
    # Warm-up slice on a throwaway corpus, so first-call costs land in set-up.
    warm, warm_docs = _corpus(seed + 1), _documents(seed + 1, 6 * BATCH_DOCS)
    for lo in range(0, 6 * BATCH_DOCS, BATCH_DOCS):
        warm.ingest(warm_docs[lo : lo + BATCH_DOCS])
    for doc in warm_docs[:32]:
        warm.search(doc.text, k=K)
    return State(_corpus(seed), docs, events, seconds, seed)


def _wait_until(target: float, gauge) -> None:
    """Spin: a server that slept wakes up slower, by an amount that varies
    with the rest of the machine's load."""
    if target - clock() > SLACK_S:
        gauge.tick()
    while clock() < target:
        pass


def run(state: State, tracer, gauge, *, seconds=None, ops=None) -> Outcome:
    """Serve the whole schedule in due order; set-up fixed its length."""
    corpus = state.corpus
    outputs: List[object] = []
    query_begin: List[float] = []
    query_latency: List[float] = []
    batch_begin: List[float] = []
    query_wait: List[float] = []
    batch_wait: List[float] = []
    batch_service: List[float] = []
    freshness: List[float] = []
    lag: List[float] = []
    arrived = failed = backlog = 0
    busy = ingest_busy = 0.0
    origin = clock()
    window_end = origin + state.window_s
    free_at = origin
    gauge.tick(force=True)
    for due, kind, payload in state.events:
        target = origin + due
        _wait_until(target, gauge)
        begin = clock()
        backlog += begin > window_end
        if free_at <= target:  # the server was idle, so any lateness is the generator's
            lag.append(begin - target)
        out: object = None
        try:
            if kind == BATCH:
                with tracer.op("ingest"):
                    report = corpus.ingest(state.docs[payload[0] : payload[1]])
                out = (report.admitted, report.rejected, report.evicted,
                       report.refreshed, report.reembedded, report.rebalanced)
            else:
                with tracer.op("search"):
                    out = corpus.search(payload, k=K)
        except Exception as exc:  # operation boundary: count it and go on
            failed += 1
            report_failure("ingest" if kind == BATCH else "search", exc)
        end = clock()
        free_at = end
        busy += end - begin
        if kind == BATCH:
            arrived += BATCH_DOCS
            ingest_busy += end - begin
            batch_begin.append(begin)
            batch_service.append(end - begin)
            batch_wait.append(begin - target)
            freshness.append(end - target)
        else:
            query_wait.append(begin - target)
            query_begin.append(begin)
            query_latency.append(end - begin)
        outputs.append(out)
    gauge.tick(force=True)
    scaled_query = gauge.scaled(query_begin, query_latency)
    scaled_batch = gauge.scaled(batch_begin, batch_service)
    return Outcome(
        ops=len(state.events),
        failed=failed,
        busy_s=busy,
        outputs=outputs,
        end_to_end={
            "query_p50_ms": percentile(scaled_query, 50) * 1e3,
            "work_per_s": BATCH_DOCS / percentile(scaled_batch, 50),
        },
        layer_extras={
            "stream.ingest_wait_ms": statistics.fmean(batch_wait) * 1e3,
            "stream.query_wait_ms": statistics.fmean(query_wait) * 1e3,
            "stream.generator_lag_ms": statistics.median(lag) * 1e3 if lag else 0.0,
            "stream.backlog_ops": backlog,
            "stream.freshness_p50_s": percentile(freshness, 50),
            "stream.freshness_p95_s": percentile(freshness, 95),
        },
        info={
            "arrived_docs": arrived,
            "raw_query_p50_ms": percentile(query_latency, 50) * 1e3,
            "raw_docs_per_s": BATCH_DOCS / statistics.median(batch_service),
            "query_p95_ms": percentile(scaled_query, 95) * 1e3,
            "raw_query_p99_ms": percentile(query_latency, 99) * 1e3,
            "ingest_docs_per_busy_s": arrived / ingest_busy,
            "batches": len(freshness),
            "queries": len(query_latency),
            "duplicate_doc_share": sum(d.is_duplicate for d in state.docs[:arrived]) / arrived,
            "backlog_ops": backlog,
        },
    )


def finish(state: State, outcome: Outcome) -> List[str]:
    """Live ids must equal the deduper's survivors; recall@10 is measured
    against exact search over the live vectors."""
    corpus = state.corpus
    problems = []
    store = corpus.deduper.store
    survivors = sorted(doc.doc_id for doc, kept in zip(store.docs, store.kept) if kept)
    if survivors != corpus.live_doc_ids():
        problems.append("stream_ingest_query: live ids differ from the deduper's survivors")
    arrived = outcome.info["arrived_docs"]
    rng = derive_rng(state.seed, "perfbench", "stream", "recall")
    picks = rng.integers(0, arrived, RECALL_QUERIES)
    queries = corpus.embedder.embed_batch([state.docs[int(i)].text for i in picks])
    exact = FlatIndex(DIM, corpus.collection.index.metric)
    exact.add(corpus.live_doc_ids(), corpus.live_vectors())
    truth = exact.search_many(queries, k=K)
    found = corpus.search_vectors(queries, k=K)
    recall = statistics.fmean(
        len({hit.id for hit in t} & set(f)) / len(t) for t, f in zip(truth, found)
    )
    outcome.end_to_end["output_quality"] = recall
    if recall < MIN_RECALL:
        problems.append(f"stream_ingest_query: recall@{K} {recall:.3f} below {MIN_RECALL}")
    return problems
