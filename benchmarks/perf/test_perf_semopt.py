"""Perf-regression guard for the semantic-operator optimizer.

Marked ``perf`` and excluded from tier-1 (``-m "not perf"`` in pyproject):
run with ``pytest benchmarks/perf -m perf``. Sizes are scaled down from
scripts/bench.py; thresholds are looser than the headline numbers.  Every
case asserts inside the harness that the optimized executor's output is
identical to the frozen naive executor's, so these double as end-to-end
plan-equivalence checks at scales the tier-1 suite cannot afford.
"""

from __future__ import annotations

import pytest

from .harness_semopt import run_semopt_case

pytestmark = pytest.mark.perf


def test_semopt_smoke():
    """Tiny sizes, parity-focused: the gate scripts/check.sh runs on commit.

    Asserts identical survivors/aggregates on both pipeline shapes; no
    speedup thresholds at this scale (fixed overheads dominate).
    """
    run_semopt_case(2_000, pool_size=400)
    run_semopt_case(2_000, pipeline_kind="mixed", pool_size=400)


def test_cascade_speedup():
    case = run_semopt_case(20_000, pool_size=2_000)
    assert case["speedup"]["median"] >= 4.0, case
    assert case["detail"]["call_reduction"] >= 2.0, case


def test_mixed_pipeline_speedup():
    case = run_semopt_case(20_000, pipeline_kind="mixed", pool_size=2_000)
    assert case["speedup"]["median"] >= 2.0, case


def test_large_tier_parity():
    """Plans must stay exact when the model tier (cost/accuracy) changes."""
    case = run_semopt_case(2_000, pool_size=400, tier="sim-large")
    assert case["detail"]["call_reduction"] >= 1.0, case
