"""Perf gates for the fleet DES: sharded loop vs frozen naive baseline.

Every case asserts **bitwise** trajectory parity inside the harness
before timing counts, so these tests double as large-scale correctness
sweeps.  Speedup thresholds are deliberately loose — a fraction of the
measured headroom (see ``BENCH_fleet.json`` for the headline run) — so
they survive noisy shared machines; the smoke test asserts parity only
and is the gate ``scripts/check.sh`` runs on commit.
"""

from __future__ import annotations

import pytest

from .harness_fleet import run_fleet_case

pytestmark = pytest.mark.perf

#: Tiny scale for the commit-gate smoke: seconds, not minutes.
SMOKE_REQUESTS = 5000
SMOKE_REPLICAS = 16

#: Moderate scale for the speedup gates (the 1M-request headline run
#: lives in scripts/bench.py; at this scale the legacy side stays ~12s).
GATE_REQUESTS = 100_000
GATE_REPLICAS = 256


def test_fleet_smoke() -> None:
    """All three policies + the faulty scenario agree bit-for-bit."""
    for policy in ("random", "least-loaded", "prefix-aware"):
        case = run_fleet_case(SMOKE_REQUESTS, policy, replicas=SMOKE_REPLICAS)
        report = case["detail"]["report"]
        assert report["completed"] == SMOKE_REQUESTS, case
        assert report["shed_rate"] == 0.0, case
    faulty = run_fleet_case(
        SMOKE_REQUESTS, "least-loaded", replicas=SMOKE_REPLICAS, faulty=True
    )
    # The seeded scenario must actually exercise the rare-event paths.
    assert faulty["detail"]["faults"]["deaths"] > 0, faulty
    completed = faulty["detail"]["report"]["completed"]
    rejected = faulty["detail"]["faults"]["rejected"]
    assert completed + rejected == SMOKE_REQUESTS, faulty


def test_fleet_speedup_random() -> None:
    case = run_fleet_case(GATE_REQUESTS, "random", replicas=GATE_REPLICAS)
    assert case["speedup"]["median"] >= 1.8, case


def test_fleet_speedup_least_loaded() -> None:
    case = run_fleet_case(GATE_REQUESTS, "least-loaded", replicas=GATE_REPLICAS)
    assert case["speedup"]["median"] >= 2.5, case


def test_fleet_speedup_prefix_aware() -> None:
    case = run_fleet_case(GATE_REQUESTS, "prefix-aware", replicas=GATE_REPLICAS)
    assert case["speedup"]["median"] >= 4.0, case


def test_fleet_speedup_faulty() -> None:
    """Rare-event paths (deaths, retries, shed, autoscale) keep the edge."""
    case = run_fleet_case(
        GATE_REQUESTS, "least-loaded", replicas=GATE_REPLICAS, faulty=True
    )
    assert case["detail"]["faults"]["deaths"] > 0, case
    assert case["speedup"]["median"] >= 2.0, case
