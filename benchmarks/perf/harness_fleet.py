"""Measurement harness for the fleet DES: sharded loop vs naive baseline.

Every case runs the frozen global-heap simulator
(:mod:`._legacy_fleet`) and :class:`repro.inference.fleet.ClusterFleet`
on the *identical* workload and asserts **bitwise** result parity
(:meth:`FleetResult.equals`) on every :func:`.harness.time_pairs` pair, so
the speedup column is pure event-core efficiency, never trajectory drift.
Scale is
parameterized by the replica count and a per-replica arrival rate: the
naive baseline rebuilds its routable list and rescans per-replica load
on every decision, so its cost honestly grows with the fleet while the
sharded loop stays flat — benchmark configs state both knobs explicitly.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.faults import REPLICA_DEATH, FaultPlan, RetryPolicy
from repro.inference.fleet import (
    AutoscalePolicy,
    ClusterFleet,
    FleetResult,
    FleetWorkload,
    ReplicaModel,
    fleet_poisson_workload,
    summarize_fleet,
)
from repro.inference.request import SLO
from repro.inference.router import make_router

from ._legacy_fleet import LegacyClusterFleet
from .harness import time_pairs

#: Arrival rate per routable replica (requests/s) keeping the standard
#: workload just below fleet capacity, so queues stay busy but bounded.
RATE_PER_REPLICA = 125.0


def matches_legacy(result: FleetResult, legacy: FleetResult) -> bool:
    """``result.equals(legacy)`` over the columns the frozen fleet fills.

    It leaves the decode columns empty, so ``result``'s stand in for them.
    """
    return result.equals(dataclasses.replace(
        legacy, decode_replica=result.decode_replica, decode_start_s=result.decode_start_s
    ))


def fleet_workload(num_requests: int, *, replicas: int, seed: int = 5) -> FleetWorkload:
    """The standard bench trace: Mooncake-style shared-prefix mix.

    80% of requests prepend one of ``replicas // 2`` shared 2048-token
    system prompts to a ~512-token unique part — the regime where
    prefix-aware routing pays and the fleet runs near capacity.
    """
    return fleet_poisson_workload(
        num_requests,
        rate_rps=RATE_PER_REPLICA * replicas,
        prompt_mean=512,
        output_mean=16,
        num_prefixes=max(replicas // 2, 1),
        prefix_tokens=2048,
        prefix_fraction=0.8,
        seed=seed,
    )


def bench_model() -> ReplicaModel:
    """The replica service model every fleet bench case uses."""
    return ReplicaModel(slots=32, kv_capacity_tokens=131072)


def run_fleet_case(
    num_requests: int,
    policy: str,
    *,
    replicas: int = 64,
    faulty: bool = False,
    seed: int = 5,
    router_seed: int = 1,
) -> Dict[str, object]:
    """Time legacy vs sharded fleet on one policy; assert bitwise parity.

    ``faulty=True`` adds the full E25 scenario — seeded replica deaths
    (~half the fleet over the trace), a TTFT shed SLO set just above the
    healthy-fleet tail (0.35 s) so only fault-induced queueing sheds, and
    queue-depth autoscaling whose replacement spawns lag a quarter of
    the trace behind — so both simulators exercise every rare-event
    path and the report carries a non-trivial shed rate.
    """
    workload = fleet_workload(num_requests, replicas=replicas, seed=seed)
    model = bench_model()
    horizon = float(workload.arrival_s[-1])
    faults: Optional[FaultPlan] = None
    shed: Optional[SLO] = None
    scale: Optional[AutoscalePolicy] = None
    if faulty:
        faults = FaultPlan.seeded(
            seed=seed,
            horizon_s=horizon,
            rates={REPLICA_DEATH: max(replicas / 2, 1.0) / horizon},
        )
        shed = SLO(ttft_s=0.35)
        scale = AutoscalePolicy(
            min_replicas=max(replicas // 4, 1),
            max_replicas=replicas + replicas // 4,
            high_queue_per_replica=8.0,
            low_queue_per_replica=0.25,
            interval_s=max(horizon / 16.0, 0.5),
            spawn_delay_s=max(horizon / 4.0, 1.0),
        )

    def run_current():
        fleet = ClusterFleet(
            replicas,
            make_router(policy, seed=router_seed),
            model=model,
            faults=faults,
            retry=RetryPolicy(),
            shed_slo=shed,
            autoscale=scale,
        )
        return fleet.run(workload)

    def run_legacy():
        legacy = LegacyClusterFleet(
            replicas,
            policy,
            router_seed=router_seed,
            model=model,
            faults=faults,
            retry=RetryPolicy(),
            shed_slo=shed,
            autoscale=scale,
        )
        return legacy.run(workload)

    def check(legacy_result: FleetResult, result: FleetResult) -> None:
        if not matches_legacy(result, legacy_result):
            raise AssertionError(
                f"fleet parity drift: policy={policy} n={num_requests} replicas={replicas}"
            )

    timing, _, result = time_pairs(run_legacy, run_current, check)
    report = summarize_fleet(workload, result, policy=policy)
    return {
        "workload": {
            "num_requests": num_requests,
            "replicas": replicas,
            "policy": policy,
            "rate_rps": RATE_PER_REPLICA * replicas,
            "faulty": faulty,
            "seed": seed,
        },
        **timing,
        "detail": {
            "faults": {
                "deaths": result.deaths,
                "spawns": result.spawns,
                "retries": int(result.retries.sum()),
                "rejected": result.rejected_total,
            },
            "report": report.row(),
        },
    }
