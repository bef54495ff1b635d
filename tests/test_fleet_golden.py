"""Golden digests of token-level fleet runs: every request timeline, pinned.

:func:`~repro.inference.fleet.serve_engines` is the one token-level fleet
loop; simplifying it (or the engines it drives) must not move a single
timestamp.  The metamorphic anchors in ``tests/test_fleet.py`` cover only a
fleet of one, so these digests pin fleets of several replicas under faults:

* ``EngineFleet(4, prefix-aware)`` over a shared-prefix trace, with an
  untargeted and a targeted :data:`~repro.faults.REPLICA_DEATH` (in-flight
  work retried with backoff, queues re-routed);
* ``DisaggEngineFleet(2, 2)`` over a Poisson trace, with a
  :data:`~repro.faults.KV_TRANSFER_FAIL` window (ships turn into decode-side
  re-prefills) and a :data:`~repro.faults.KV_DEGRADED` window (slowed wire).

Each digest covers every request's full timeline (admission, first token,
every token time, finish, handoff, retries, rejection) plus the fleet's
counters and route assignments.  Any drift means a change altered what the
simulator computes, not only how.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.faults import KV_DEGRADED, KV_TRANSFER_FAIL, REPLICA_DEATH, FaultEvent, FaultPlan
from repro.inference import (
    ContinuousBatchScheduler,
    DisaggEngineFleet,
    EngineFleet,
    LengthDistribution,
    PagedAllocator,
    PrefixAwareRouter,
    ServingEngine,
    TransferModel,
    poisson_workload,
    shared_prefix_workload,
)

GOLDEN = {
    "engine_fleet_deaths": "465929459e4836e9",
    "disagg_kv_faults": "a173605353dd718f",
}


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _timelines(requests) -> list:
    return [
        (
            r.request_id,
            r.arrival_s,
            r.admitted_s,
            r.first_token_s,
            r.finished_s,
            tuple(r.token_times),
            r.preemptions,
            r.prefix_hit,
            r.retries,
            r.rejected,
            r.handoff_s,
            r.kv_shipped,
            r.decode_admitted_s,
        )
        for r in sorted(requests, key=lambda q: q.request_id)
    ]


def _counters(fleet) -> tuple:
    return (
        fleet.retries,
        fleet.rejected,
        fleet.deaths,
        fleet.reroutes,
        fleet.handoffs,
        fleet.reprefills,
        sorted(fleet.assignments.items()),
        [(e.at_s, e.kind, e.target) for e in fleet.fault_log],
    )


def _paged_engine() -> ServingEngine:
    return ServingEngine(
        ContinuousBatchScheduler(max_batch=8, chunk_tokens=256),
        allocator=PagedAllocator(2_000, block_size=16),
    )


def _engine_fleet_deaths():
    requests = shared_prefix_workload(
        rate_rps=48.0,
        duration_s=6.0,
        num_prefixes=4,
        prefix_tokens=192,
        unique_prompt_dist=LengthDistribution(mean=96, lo=8, hi=320),
        output_dist=LengthDistribution(mean=16, lo=4, hi=48),
        seed=5,
    )
    plan = FaultPlan(
        events=(
            FaultEvent(at_s=1.5, kind=REPLICA_DEATH, duration_s=0.4),
            FaultEvent(at_s=3.0, kind=REPLICA_DEATH, target="replica-2", duration_s=0.2),
        )
    )
    fleet = EngineFleet(_paged_engine, 4, PrefixAwareRouter(block_tokens=16), faults=plan)
    fleet.run(requests)
    return fleet, requests


def _disagg_kv_faults():
    requests = poisson_workload(rate_rps=10, duration_s=8, seed=9)

    def engine() -> ServingEngine:
        return ServingEngine(ContinuousBatchScheduler(max_batch=32))

    plan = FaultPlan(
        [
            FaultEvent(at_s=1.0, kind=KV_TRANSFER_FAIL, duration_s=1.5),
            FaultEvent(at_s=4.0, kind=KV_DEGRADED, duration_s=2.0, severity=0.2),
        ]
    )
    fleet = DisaggEngineFleet(
        engine, 2, 2, transfer=TransferModel(bandwidth=5e8, overlap=0.0), faults=plan
    )
    fleet.run(requests)
    return fleet, requests


RUNS = {
    "engine_fleet_deaths": _engine_fleet_deaths,
    "disagg_kv_faults": _disagg_kv_faults,
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_fleet_golden(case):
    fleet, requests = RUNS[case]()
    # The runs must exercise what they pin: faults absorbed, work finished.
    assert fleet.fault_log or fleet.reprefills
    assert any(r.done for r in requests)
    assert _digest((_timelines(requests), _counters(fleet))) == GOLDEN[case]
