"""Perf-regression guard for the offline data-path kernels.

Marked ``perf`` and excluded from tier-1 (``-m "not perf"`` in pyproject):
run with ``pytest benchmarks/perf -m perf``. Sizes are scaled down from
scripts/bench.py; thresholds are looser than the headline numbers.  Every
case also asserts output parity inside the harness, so these double as
end-to-end equivalence checks at scales the tier-1 suite cannot afford.
"""

from __future__ import annotations

import pytest

from .harness_prep import run_dedup_case, run_embed_case, run_hnsw_case, run_lsh_case

pytestmark = pytest.mark.perf


def test_prep_smoke():
    """Tiny sizes, parity-focused: the gate scripts/check.sh runs on commit.

    The harness asserts identical dedup output, bitwise-equal embeddings,
    and matching ANN result lists; no speedup thresholds at this scale
    (fixed overheads dominate sub-second workloads).
    """
    run_dedup_case(60)
    run_embed_case(30)
    run_hnsw_case(1_500, dim=48)


def test_dedup_speedup():
    case = run_dedup_case(700)  # ~5k docs
    assert case["speedup"]["median"] >= 2.5, case


def test_embed_speedup():
    case = run_embed_case(400)  # ~2.9k texts
    assert case["speedup"]["median"] >= 2.0, case


def test_hnsw_batched_speedup():
    # The honest ceiling here is modest (~1.3x measured): traversal must
    # stay bitwise-identical to the baseline, which pins the per-expansion
    # gather+gemv (the dominant cost — the frontier is ~m0 rows, too small
    # to batch).  The overhaul wins on the bookkeeping around it; this
    # guard holds that win and catches regressions back to dict/set land.
    case = run_hnsw_case(15_000)
    assert case["speedup"]["median"] >= 1.1, case


def test_lsh_probe_no_regression():
    # The probe is the frozen set-union bucket scan (no optimized twin);
    # the shared search_many bookkeeping around it must hold the line.
    case = run_lsh_case(15_000)
    assert case["speedup"]["median"] >= 0.8, case
