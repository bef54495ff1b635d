"""Perf-regression guard for the streaming data flywheel.

Marked ``perf`` and excluded from tier-1; run with
``pytest benchmarks/perf -m perf``. The harness asserts convergence
(identical survivors, recall within tolerance) inside every case, so these
double as end-to-end equivalence checks at scales tier-1 cannot afford.
"""

from __future__ import annotations

import pytest

from .harness_stream import run_stream_case

pytestmark = pytest.mark.perf


def test_stream_smoke():
    """Tiny IVF + HNSW streams: the gate scripts/check.sh runs on commit."""
    run_stream_case(100, "ivf", batch_size=128, nlist=16, train_size=256)
    run_stream_case(60, "hnsw", batch_size=128, m=8)


def test_stream_ivf_freshness():
    # Absorbing one batch must beat rebuilding the corpus by a wide margin
    # once the corpus is big enough for the rebuild to hurt.
    case = run_stream_case(700, "ivf", nlist=64, train_size=512)  # ~5k docs
    assert case["speedup"]["median"] >= 3.0, case
    assert case["detail"]["live_docs"] == case["detail"]["kept_docs"]


def test_stream_staleness_bounded():
    # At 80% utilization the queue is stable: p95 staleness stays within a
    # small multiple of the mean batch service time.
    case = run_stream_case(400, "ivf", nlist=32, train_size=512)
    mean_batch = (
        case["detail"]["total_service_s"]
        * case["workload"]["batch_size"]
        / case["workload"]["num_docs"]
    )
    assert case["detail"]["staleness"]["p95_s"] <= 30 * mean_batch, case
