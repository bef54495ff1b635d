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


def test_engine_trajectory_matches_legacy():
    # The harness asserts equal iterations, completions and sim clock on
    # every legacy/current pair.
    case = run_serving_case(500)
    assert case["detail"]["completed"] == 500


def test_admission_path_speedup_at_2k():
    case = run_serving_case(2000)
    # Headline target is >=5x at 10k queued requests (see BENCH_serving.json);
    # at 2k the allocator-recount elimination should already show >=2x.
    assert case["speedup"]["median"] >= 2.0, case
