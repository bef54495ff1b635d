"""Measurement harness shared by the ``perf``-marked tests and scripts/bench.py.

Every case runs a frozen pre-overhaul implementation (``_legacy*.py``) and
the current one on *identical* inputs through :func:`time_pairs`, the one
timing protocol of every layer benchmark: ``REPEATS`` interleaved pairs,
each call timed with GC collected and then off, the case's parity check run
on both outputs of every pair, and each side's runs and the per-pair ratios
reported as median and IQR.  A case keeps only its workload builder, its
parity check and the detail it reports from the last pair's outputs.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from repro.inference import (
    ContinuousBatchScheduler,
    PagedAllocator,
    Request,
    ServingEngine,
)
from repro.vector.flat import FlatIndex
from repro.vector.ivf import IVFIndex
from repro.vector.pq import PQIndex

from ._legacy import (
    LegacyContinuousBatchScheduler,
    LegacyPagedAllocator,
    LegacyServingEngine,
    legacy_flat_search,
    legacy_ivf_search,
    legacy_pq_search,
)

#: Interleaved legacy/current pairs behind every reported ratio.
REPEATS = 5


class SelfTimed(NamedTuple):
    """A side's output that carries its own clock reading.

    :func:`time_pairs` records ``wall_s`` for the call instead of the call's
    wall time.  Only the stream case uses it: its pair is a full rebuild
    against the median batch of a stream measured batch by batch.
    """

    wall_s: float
    value: object


def _timed(fn: Callable[[], object]) -> SelfTimed:
    """One call under the timeit rule: collect garbage, then GC off for it.

    The resident corpora, fleets and legacy graph snapshots are large tracked
    object graphs; collector sweeps triggered mid-call would add noise that
    swamps kernel-level differences.
    """
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return out if isinstance(out, SelfTimed) else SelfTimed(wall, out)


def spread(values: List[float]) -> Dict[str, object]:
    """Median, IQR (``statistics.quantiles(values, n=4)``) and every value."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1, "runs": list(values)}


def time_pairs(
    legacy: Callable[[], object],
    current: Callable[[], object],
    check: Callable[[object, object], None],
) -> Tuple[Dict[str, object], object, object]:
    """Time ``REPEATS`` legacy/current pairs; parity-check every pair.

    Even pairs run legacy first, odd pairs current first, so drift of the
    host cancels in the per-pair ratio ``legacy / current``.  ``check``
    receives both outputs of each pair and raises on drift.  Returns the
    timing (``legacy`` and ``current`` seconds and the ``speedup`` ratios,
    each as :func:`spread`) and the last pair's legacy and current outputs.
    """
    sides = {"legacy": legacy, "current": current}
    runs: Dict[str, List[float]] = {"legacy": [], "current": []}
    for i in range(REPEATS):
        out: Dict[str, object] = {}
        for side in ("legacy", "current") if i % 2 == 0 else ("current", "legacy"):
            wall, out[side] = _timed(sides[side])
            runs[side].append(wall)
        check(out["legacy"], out["current"])
    ratios = [
        lw / max(cw, 1e-12) for lw, cw in zip(runs["legacy"], runs["current"])
    ]
    timing = {
        "legacy": spread(runs["legacy"]),
        "current": spread(runs["current"]),
        "speedup": spread(ratios),
    }
    return timing, out["legacy"], out["current"]


# --------------------------------------------------------------- serving


def admission_workload(
    num_requests: int, *, prompt_tokens: int = 128, output_tokens: int = 4
) -> List[Request]:
    """All requests queued at t=0: stresses the admission path itself."""
    return [
        Request(
            request_id=f"r{i:06d}",
            arrival_s=0.0,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
        )
        for i in range(num_requests)
    ]


def run_serving_case(
    num_requests: int,
    *,
    max_batch: int = 64,
    capacity_tokens: int = 1 << 20,
    block_size: int = 16,
) -> Dict[str, object]:
    """Legacy vs current engine on the same queued-admission workload.

    Engines and request lists are built before timing, one per call, so a
    call times ``engine.run`` alone; every pair must agree on iterations,
    the final simulated clock, and every request's first-token and finish
    times and preemption count.
    """

    def engines(build: Callable[[], object]) -> Callable[[], object]:
        fresh = [(build(), admission_workload(num_requests)) for _ in range(REPEATS)]

        def run() -> Tuple[object, List[Request]]:
            engine, requests = fresh.pop()
            return engine, engine.run(requests)

        return run

    def timelines(requests: List[Request]) -> List[Tuple]:
        return [(r.first_token_s, r.finished_s, r.preemptions) for r in requests]

    def check(legacy: Tuple, current: Tuple) -> None:
        (old, old_requests), (new, new_requests) = legacy, current
        assert (new.iterations, new.now, timelines(new_requests)) == (
            old.iterations,
            old.now,
            timelines(old_requests),
        ), "trajectory drift: the refactor must be bit-identical"

    timing, _, (engine, requests) = time_pairs(
        engines(
            lambda: LegacyServingEngine(
                LegacyContinuousBatchScheduler(max_batch=max_batch),
                allocator=LegacyPagedAllocator(capacity_tokens, block_size=block_size),
            )
        ),
        engines(
            lambda: ServingEngine(
                ContinuousBatchScheduler(max_batch=max_batch),
                allocator=PagedAllocator(capacity_tokens, block_size=block_size),
            )
        ),
        check,
    )
    return {
        "workload": {
            "num_requests": num_requests,
            "prompt_tokens": 128,
            "output_tokens": 4,
            "max_batch": max_batch,
            "capacity_tokens": capacity_tokens,
            "block_size": block_size,
        },
        **timing,
        "detail": {
            "iterations": engine.iterations,
            "completed": sum(1 for r in requests if r.finished_s is not None),
            "preemptions": sum(r.preemptions for r in requests),
            "sim_now": engine.now,
        },
    }


# ---------------------------------------------------------------- vector

LEGACY_SEARCH: Dict[str, Callable] = {
    "flat": legacy_flat_search,
    "ivf": legacy_ivf_search,
    "pq": legacy_pq_search,
}


def build_index(kind: str, num_vectors: int, *, dim: int = 64, seed: int = 0):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(num_vectors, dim)).astype(np.float32)
    if kind == "flat":
        index = FlatIndex(dim, "cosine")
    elif kind == "ivf":
        index = IVFIndex(dim, "cosine", nlist=64, nprobe=8, seed=seed)
    elif kind == "pq":
        index = PQIndex(dim, "cosine", num_subspaces=8, seed=seed)
    else:
        raise ValueError(kind)
    index.add([f"v{i}" for i in range(num_vectors)], vectors)
    queries = rng.normal(size=(256, dim)).astype(np.float32)
    return index, queries


def run_vector_case(
    kind: str, num_vectors: int, *, dim: int = 64, k: int = 10, seed: int = 0
) -> Dict[str, object]:
    """Legacy per-query loop vs batched ``search_many`` on one index."""
    index, queries = build_index(kind, num_vectors, dim=dim, seed=seed)
    legacy_fn = LEGACY_SEARCH[kind]
    nq = queries.shape[0]

    def check(legacy_results: List, batched_results: List) -> None:
        # Flat search is exact, so the two paths rank the same vectors
        # (spot-check a few queries); approximate indexes may tie-break
        # differently.
        if kind != "flat":
            return
        for qi in (0, nq // 2, nq - 1):
            legacy_ids = {vid for vid, _ in legacy_results[qi]}
            if legacy_ids != {h.id for h in batched_results[qi]}:
                raise AssertionError(f"flat result drift on query {qi}")

    timing, _, _ = time_pairs(
        lambda: [legacy_fn(index, q, k) for q in queries],
        lambda: index.search_many(queries, k=k),
        check,
    )
    return {
        "workload": {
            "index": kind,
            "num_vectors": num_vectors,
            "dim": dim,
            "num_queries": nq,
            "k": k,
        },
        **timing,
        "detail": {},
    }
