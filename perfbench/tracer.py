"""In-memory span recorder that attributes a workload's time to layers.

The program under test carries no instrumentation of its own, so the
traced run wraps the public calls of each layer from outside: every
method listed in :data:`LAYERS` is replaced on its class by a wrapper that
records a span (name, start, end, parent, operation id) while the tracer
is active and otherwise calls straight through.  Self time is a span's
duration minus the time covered by its child spans, so the layer self
times of one operation sum to the time spent inside layer calls; the rest
of the operation is reported as unattributed.

Counter hooks run after a span closes and read only the call's arguments
and result (token counts, rows written, cache hits, ...), so the traced
program computes exactly what the untraced one does.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Spans kept for the Chrome trace file; later spans still count toward
#: self times and counters, they are only left out of the file.
MAX_EXPORTED_SPANS = 60_000

#: Every counter a hook may add to; a hook that names another one fails.
COUNTERS = (
    "llm.tokenizer.tokens",
    "llm.model.input_tokens",
    "llm.model.output_tokens",
    "llm.model.charged_calls",
    "llm.model.usd",
    "llm.embedding.texts",
    "vector.rows_written",
    "vector.compactions",
    "vector.rebalances",
    "datalake.planner.replans",
    "datalake.extract_steps",
    "datalake.extractor_calls",
    "semopt.cache_hits",
    "semopt.cache_lookups",
    "prep.dedup.arrived",
    "prep.dedup.admitted",
    "prep.dedup.evictions",
    "stream.refreshes",
    "stream.reembedded_docs",
    "inference.prefixed",
    "inference.prefix_hits",
    "inference.rejected",
    "inference.pools.handoffs",
    "inference.pools.migrations",
    "inference.pools.reprefills",
)

Hook = Callable[[Dict[str, float], tuple, object], None]


def _add(key: str, fn: Callable[[tuple, object], float]) -> Hook:
    def hook(counters: Dict[str, float], args: tuple, result: object) -> None:
        counters[key] += fn(args, result)

    return hook


def _model_usage(counters: Dict[str, float], args: tuple, result: object) -> None:
    for response in result if isinstance(result, list) else [result]:
        usage = response.usage
        counters["llm.model.input_tokens"] += usage.input_tokens
        counters["llm.model.output_tokens"] += usage.output_tokens
        counters["llm.model.usd"] += usage.usd
        counters["llm.model.charged_calls"] += usage.calls


def _extract_steps(counters: Dict[str, float], args: tuple, result: object) -> None:
    counters["datalake.extract_steps"] += sum(1 for s in args[1].steps if s.op == "extract")


def _semopt_cache(counters: Dict[str, float], args: tuple, result: object) -> None:
    if result.cache is not None:
        counters["semopt.cache_hits"] += result.cache.hits
        counters["semopt.cache_lookups"] += result.cache.hits + result.cache.misses


def _dedup(counters: Dict[str, float], args: tuple, result: object) -> None:
    counters["prep.dedup.arrived"] += len(result.admitted) + len(result.rejected)
    counters["prep.dedup.admitted"] += len(result.admitted)
    counters["prep.dedup.evictions"] += len(result.evicted)


def _ingest(counters: Dict[str, float], args: tuple, result: object) -> None:
    counters["stream.refreshes"] += int(result.refreshed)
    counters["stream.reembedded_docs"] += result.reembedded


def _cluster_fleet(counters: Dict[str, float], args: tuple, result: object) -> None:
    fleet, workload = args[0], args[1]
    counters["inference.rejected"] += result.rejected_total
    if fleet.pools is not None:
        counters["inference.pools.handoffs"] += result.handoffs
        counters["inference.pools.migrations"] += result.migrations
        counters["inference.pools.reprefills"] += result.reprefills
        return
    prefixed = (workload.prefix_code >= 0) & ~np.asarray(result.rejected, dtype=bool)
    counters["inference.prefixed"] += int(prefixed.sum())
    counters["inference.prefix_hits"] += int((result.prefix_hit_tokens[prefixed] > 0).sum())


def _engine_fleet(counters: Dict[str, float], args: tuple, result: object) -> None:
    counters["inference.rejected"] += args[0].rejected
    for request in result:
        if request.prefix_id is not None and not request.rejected:
            counters["inference.prefixed"] += 1
            counters["inference.prefix_hits"] += int(request.prefix_hit)


def _disagg_fleet(counters: Dict[str, float], args: tuple, result: object) -> None:
    fleet = args[0]
    counters["inference.rejected"] += fleet.rejected
    counters["inference.pools.handoffs"] += fleet.handoffs
    counters["inference.pools.reprefills"] += fleet.reprefills


def _first_arg_len(args: tuple, result: object) -> float:
    return len(args[1])


def _fleet_layer(fleet: object) -> str:
    return "inference.pools" if getattr(fleet, "pools", None) is not None else "inference.fleet"


#: (layer, module, class, method, counter hook).  A layer given as a
#: callable is chosen per call from the receiver.
LAYERS: Tuple[Tuple[object, str, str, str, Optional[Hook]], ...] = (
    ("rag", "repro.rag.pipeline", "RAGPipeline", "answer", None),
    ("rag", "repro.rag.retriever", "DenseRetriever", "retrieve", None),
    ("llm.tokenizer", "repro.llm.tokenizer", "Tokenizer", "count",
     _add("llm.tokenizer.tokens", lambda a, r: r)),
    ("llm.tokenizer", "repro.llm.tokenizer", "Tokenizer", "count_many",
     _add("llm.tokenizer.tokens", lambda a, r: sum(r))),
    ("llm.tokenizer", "repro.llm.tokenizer", "Tokenizer", "content_tokens_many",
     _add("llm.tokenizer.tokens", lambda a, r: sum(len(t) for t in r))),
    ("llm.model", "repro.llm.model", "SimLLM", "generate", _model_usage),
    ("llm.model", "repro.llm.model", "SimLLM", "generate_many", _model_usage),
    ("llm.embedding", "repro.llm.embedding", "EmbeddingModel", "embed",
     _add("llm.embedding.texts", lambda a, r: 1)),
    ("llm.embedding", "repro.llm.embedding", "EmbeddingModel", "embed_batch",
     _add("llm.embedding.texts", _first_arg_len)),
    ("llm.embedding", "repro.llm.embedding", "EmbeddingModel", "partial_fit_idf", None),
    ("llm.embedding", "repro.llm.embedding", "EmbeddingModel", "refresh", None),
    ("vector.read", "repro.vector.base", "VectorIndex", "search", None),
    ("vector.read", "repro.vector.base", "VectorIndex", "search_many", None),
    ("vector.read", "repro.vector.database", "Collection", "query", None),
    ("vector.read", "repro.vector.database", "Collection", "query_many", None),
    ("vector.write", "repro.vector.base", "VectorIndex", "add",
     _add("vector.rows_written", _first_arg_len)),
    ("vector.write", "repro.vector.base", "VectorIndex", "compact",
     _add("vector.compactions", lambda a, r: int(r > 0))),
    ("vector.write", "repro.vector.ivf", "IVFIndex", "maybe_rebalance",
     _add("vector.rebalances", lambda a, r: int(bool(r)))),
    ("vector.write", "repro.vector.database", "Collection", "upsert", None),
    ("vector.write", "repro.vector.database", "Collection", "delete", None),
    ("datalake.planner", "repro.datalake.planner", "LakePlanner", "plan", None),
    ("datalake.planner", "repro.datalake.planner", "LakePlanner", "replan",
     _add("datalake.planner.replans", lambda a, r: 1)),
    ("datalake.planner", "repro.datalake.linking", "EmbeddingLinker", "link", None),
    ("datalake.executor", "repro.datalake.executor", "PlanExecutor", "execute", _extract_steps),
    ("datalake.catalog", "repro.datalake.catalog", "DataLake", "json_as_table", None),
    ("unstructured.extract", "repro.unstructured.schema_extract", "EvaporateExtractor",
     "extract", _add("datalake.extractor_calls", lambda a, r: 1)),
    *(
        ("unstructured.operators", "repro.unstructured.operators", "SemanticOperators", op, None)
        for op in ("sem_filter", "sem_map", "sem_join", "sem_topk", "sem_group_count")
    ),
    ("semopt", "repro.semopt.executor", "SemExecutor", "run", _semopt_cache),
    ("semopt", "repro.semopt.optimizer", "SemOptimizer", "optimize", None),
    ("prep.dedup", "repro.prep.dedup", "MinHashDeduper", "dedup_incremental", _dedup),
    ("stream", "repro.stream.corpus", "StreamingCorpus", "ingest", _ingest),
    ("stream", "repro.stream.corpus", "StreamingCorpus", "search", None),
    (_fleet_layer, "repro.inference.fleet", "ClusterFleet", "run", _cluster_fleet),
    ("inference.fleet", "repro.inference.fleet", "EngineFleet", "run", _engine_fleet),
    ("inference.pools", "repro.inference.pools", "DisaggEngineFleet", "run", _disagg_fleet),
    ("inference.scheduler", "repro.inference.scheduler", "ServingEngine", "step", None),
)


def layer_names() -> List[str]:
    """Every layer in table order, the receiver-chosen ones expanded."""
    names: List[str] = []
    for layer, *_ in LAYERS:
        for name in ("inference.fleet", "inference.pools") if callable(layer) else (layer,):
            if name not in names:
                names.append(name)
    return names


class Tracer:
    """Span recorder; inert until :meth:`install` and :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        # (span id, parent id, name, layer, start, end, op id)
        self.spans: List[Tuple[int, int, str, str, float, float, int]] = []
        self.dropped = 0
        self._stack: List[List[float]] = []  # open spans: [child seconds, span id]
        self._next_id = 0
        self._originals: List[Tuple[type, str, object]] = []

    def install(self) -> None:
        """Wrap every call in :data:`LAYERS` on its class."""
        for layer, module, cls_name, method, hook in LAYERS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            self._originals.append((cls, method, original))
            setattr(cls, method, self._wrap(original, f"{cls_name}.{method}", layer, hook))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._originals):
            setattr(cls, method, original)
        self._originals.clear()

    def _open(self) -> Tuple[List[float], int]:
        span_id = self._next_id
        self._next_id += 1
        parent = int(self._stack[-1][1]) if self._stack else -1
        frame = [0.0, span_id]
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame: List[float], parent: int, name: str, layer: str,
               start: float, end: float) -> float:
        """Pop ``frame``; returns its self time."""
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        if len(self.spans) < MAX_EXPORTED_SPANS:
            self.spans.append((int(frame[1]), parent, name, layer, start, end, self.op_id))
        else:
            self.dropped += 1
        return duration - frame[0]

    def _wrap(self, fn: Callable, name: str, layer: object, hook: Optional[Hook]) -> Callable:
        tracer = self
        clock = time.perf_counter
        layer_of = layer if callable(layer) else None

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_layer = layer_of(args[0]) if layer_of is not None else layer
            frame, parent = tracer._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.self_s[span_layer] += tracer._close(frame, parent, name, span_layer, start, end)
                tracer.calls[span_layer] += 1
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextmanager
    def op(self, kind: str) -> Iterator[None]:
        """One workload operation: a root span whose own self time is the
        client loop's share of the operation (attributed to no layer)."""
        if not self.active:
            yield
            return
        self.op_id += 1
        frame, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, parent, kind, "op", start, time.perf_counter())

    def write_chrome_trace(self, path: Path, meta: Dict[str, object]) -> None:
        """Chrome trace-event JSON (opens in Perfetto and chrome://tracing)."""
        origin = min((span[4] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "op": op_id},
            }
            for span_id, parent, name, layer, start, end, op_id in self.spans
        ]
        events.sort(key=lambda event: (event["ts"], -event["dur"]))
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(meta, dropped_spans=self.dropped),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


class NullTracer:
    """Stand-in for untraced runs: operations are plain code blocks."""

    active = False

    @contextmanager
    def op(self, kind: str) -> Iterator[None]:
        yield
