"""Perf-regression guard for the batched ANN kernels.

Marked ``perf`` and excluded from tier-1 (``-m "not perf"`` in pyproject):
run with ``pytest benchmarks/perf -m perf``. Sizes are scaled down from
scripts/bench.py; thresholds are looser than the headline numbers.
"""

from __future__ import annotations

import pytest

from .harness import run_vector_case

pytestmark = pytest.mark.perf


def test_flat_batched_speedup():
    case = run_vector_case("flat", 20_000)
    assert case["speedup"]["median"] >= 1.5, case


def test_ivf_batched_speedup():
    case = run_vector_case("ivf", 20_000)
    assert case["speedup"]["median"] >= 3.0, case


def test_pq_batched_speedup():
    # PQ's ADC gather work is O(n) per query in both paths; batching only
    # amortizes per-query overhead, so the expected win is smaller.
    case = run_vector_case("pq", 20_000)
    assert case["speedup"]["median"] >= 1.3, case
