"""Perf gates for the disaggregated pool DES vs frozen naive baseline.

Every case asserts **bitwise** trajectory parity inside the harness
before timing counts, so these tests double as large-scale correctness
sweeps.  Speedup thresholds are deliberately loose — a fraction of the
measured headroom (see ``BENCH_disagg.json`` for the 1M-request headline
at 256+256 replicas) — so they survive noisy shared machines; the smoke
test asserts parity only and is the gate ``scripts/check.sh`` runs on
commit.
"""

from __future__ import annotations

import pytest

from .harness_disagg import run_disagg_case

pytestmark = pytest.mark.perf

#: Tiny scale for the commit-gate smoke: seconds, not minutes.
SMOKE_REQUESTS = 4000
SMOKE_PREFILL = 8
SMOKE_DECODE = 8

#: Moderate scale for the speedup gates (the 1M-request headline run
#: lives in scripts/bench.py).
GATE_REQUESTS = 100_000
GATE_PREFILL = 128
GATE_DECODE = 128


def test_disagg_smoke() -> None:
    """All three prefill policies agree bit-for-bit, faulty path included."""
    for policy in ("random", "least-loaded", "prefix-aware"):
        case = run_disagg_case(
            SMOKE_REQUESTS, policy, prefill=SMOKE_PREFILL, decode=SMOKE_DECODE
        )
        assert case["detail"]["report"]["completed"] == SMOKE_REQUESTS, case
        assert case["detail"]["pool"]["handoffs"] == SMOKE_REQUESTS, case
    faulty = run_disagg_case(
        SMOKE_REQUESTS,
        "least-loaded",
        prefill=SMOKE_PREFILL,
        decode=SMOKE_DECODE,
        faulty=True,
    )
    # The seeded scenario must actually exercise rare-event paths.
    pool = faulty["detail"]["pool"]
    assert pool["migrations"] + pool["reprefills"] + pool["deaths"] > 0, faulty
    completed = faulty["detail"]["report"]["completed"]
    assert completed + pool["rejected"] == SMOKE_REQUESTS, faulty


def test_disagg_speedup_prefix_aware() -> None:
    case = run_disagg_case(
        GATE_REQUESTS, "prefix-aware", prefill=GATE_PREFILL, decode=GATE_DECODE
    )
    assert case["speedup"]["median"] >= 2.5, case


def test_disagg_speedup_least_loaded() -> None:
    case = run_disagg_case(
        GATE_REQUESTS, "least-loaded", prefill=GATE_PREFILL, decode=GATE_DECODE
    )
    assert case["speedup"]["median"] >= 2.5, case


def test_disagg_speedup_faulty() -> None:
    """Rare-event paths (deaths, migration, retries, shed) keep the edge."""
    case = run_disagg_case(
        GATE_REQUESTS,
        "least-loaded",
        prefill=GATE_PREFILL,
        decode=GATE_DECODE,
        faulty=True,
    )
    assert case["speedup"]["median"] >= 2.0, case
