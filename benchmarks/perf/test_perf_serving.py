"""Perf-regression guard for the serving-engine admission path.

Marked ``perf`` and excluded from tier-1 (``-m "not perf"`` in pyproject):
run with ``pytest benchmarks/perf -m perf``. Sizes are scaled down from
scripts/bench.py so the suite stays quick; thresholds are deliberately
looser than the headline numbers to avoid flakes on loaded machines.
"""

from __future__ import annotations

import pytest

from .harness import run_serving_case

pytestmark = pytest.mark.perf


#: Tiny scale for the commit-gate smoke: under a second.
SMOKE_REQUESTS = 200


def test_serving_smoke():
    """Legacy parity with room to spare and under KV pressure.

    The harness compares every request's first-token and finish times and
    preemptions on each legacy/current pair; 4,096 KV tokens cannot hold
    the admitted batch's decodes, so the preempting append path runs too.
    """
    roomy = run_serving_case(SMOKE_REQUESTS)
    assert roomy["detail"]["completed"] == SMOKE_REQUESTS
    assert roomy["detail"]["preemptions"] == 0
    tight = run_serving_case(SMOKE_REQUESTS, capacity_tokens=4096)
    assert tight["detail"]["completed"] == SMOKE_REQUESTS
    assert tight["detail"]["preemptions"] > 0, tight


def test_engine_trajectory_matches_legacy():
    # The harness asserts equal iterations, sim clock and per-request
    # timelines on every legacy/current pair.
    case = run_serving_case(500)
    assert case["detail"]["completed"] == 500


def test_admission_path_speedup_at_2k():
    case = run_serving_case(2000)
    # Headline target is >=5x at 10k queued requests (see BENCH_serving.json);
    # at 2k the allocator-recount elimination should already show >=2x.
    assert case["speedup"]["median"] >= 2.0, case
