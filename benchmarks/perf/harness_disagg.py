"""Measurement harness for the disaggregated pool DES vs naive baseline.

Every case runs the frozen global-heap pool simulator
(:mod:`._legacy_disagg`) and the sharded
:func:`repro.inference.pools.run_pool_fleet` loop (via ``ClusterFleet``)
on the *identical* workload and asserts **bitwise** result parity
(:meth:`FleetResult.equals`) on every :func:`.harness.time_pairs` pair, so
the speedup column is pure event-core efficiency, never trajectory drift.
The naive
side pays a full load rescan per routing decision, a linear fault-window
scan per handoff, and one global heap over every arrival, finish,
handoff, retry and tick; the sharded loop amortizes all three.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.faults import (
    KV_DEGRADED,
    KV_TRANSFER_FAIL,
    REPLICA_DEATH,
    FaultPlan,
    RetryPolicy,
)
from repro.inference.fleet import (
    AutoscalePolicy,
    FleetWorkload,
    ClusterFleet,
    FleetResult,
    ReplicaModel,
    fleet_poisson_workload,
    summarize_fleet,
)
from repro.inference.metrics import fleet_phase_breakdown
from repro.inference.pools import MigrationPolicy, PoolSpec
from repro.inference.request import SLO
from repro.inference.router import LeastLoadedRouter, PrefixAwareRouter, RandomRouter

from ._legacy_disagg import LegacyPoolFleet
from .harness import time_pairs

#: Arrival rate per replica slot (requests/s).  The decode pool is the
#: throughput bottleneck (~200 req/s per replica at 16 output tokens on
#: the bench model), so with a 50/50 split this keeps the fleet near but
#: under capacity — queues stay busy but bounded.
RATE_PER_REPLICA = 85.0


def disagg_workload(
    num_requests: int, *, replicas: int, seed: int = 5
) -> FleetWorkload:
    """The standard bench trace: Mooncake-style shared-prefix mix."""
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
    """The replica service model every disagg bench case uses."""
    return ReplicaModel(slots=32, kv_capacity_tokens=131072)


def _router(policy: str, seed: int):
    if policy == "random":
        return RandomRouter(seed=seed)
    if policy == "least-loaded":
        return LeastLoadedRouter()
    return PrefixAwareRouter(block_tokens=bench_model().block_tokens)


def _decode_router(policy: str, seed: int):
    if policy == "random":
        return RandomRouter(seed=seed, stream="router-decode")
    return LeastLoadedRouter()


def run_disagg_case(
    num_requests: int,
    policy: str,
    dpolicy: str = "least-loaded",
    *,
    prefill: int = 128,
    decode: int = 128,
    faulty: bool = False,
    seed: int = 5,
    router_seed: int = 1,
) -> Dict[str, object]:
    """Time legacy vs sharded pool DES on one policy pair; assert parity.

    ``faulty=True`` layers the full rare-event scenario on both sides:
    seeded replica deaths (an eighth of the fleet over the trace),
    KV transfer-failure and degraded-wire windows,
    retries with backoff, a TTFT shed SLO, hot-spot migration, and
    queue-depth autoscaling with a warm-up on every spawn.
    """
    replicas = prefill + decode
    workload = disagg_workload(num_requests, replicas=replicas, seed=seed)
    model = bench_model()
    horizon = float(workload.arrival_s[-1])
    faults: Optional[FaultPlan] = None
    shed: Optional[SLO] = None
    scale: Optional[AutoscalePolicy] = None
    migration: Optional[MigrationPolicy] = None
    warmup = 0.0
    if faulty:
        faults = FaultPlan.seeded(
            seed=seed,
            horizon_s=horizon,
            rates={
                REPLICA_DEATH: max(replicas / 8, 1.0) / horizon,
                KV_TRANSFER_FAIL: 4.0 / horizon,
                KV_DEGRADED: 4.0 / horizon,
            },
            mean_duration_s={
                KV_TRANSFER_FAIL: horizon / 16.0,
                KV_DEGRADED: horizon / 16.0,
            },
            degraded_severity=0.5,
        )
        shed = SLO(ttft_s=2.0)
        scale = AutoscalePolicy(
            min_replicas=max(replicas // 4, 2),
            max_replicas=replicas + replicas // 4,
            high_queue_per_replica=8.0,
            low_queue_per_replica=0.25,
            interval_s=max(horizon / 16.0, 0.5),
            spawn_delay_s=max(horizon / 8.0, 1.0),
        )
        migration = MigrationPolicy(hot_queue_ratio=2.0, min_queue=4)
        warmup = max(horizon / 32.0, 0.25)
    pools = PoolSpec(
        prefill=prefill, decode=decode, warmup_s=warmup, migration=migration
    )

    def run_current():
        fleet = ClusterFleet(
            replicas,
            _router(policy, router_seed),
            model=model,
            pools=pools,
            decode_router=_decode_router(dpolicy, router_seed),
            faults=faults,
            retry=RetryPolicy(),
            shed_slo=shed,
            autoscale=scale,
        )
        return fleet.run(workload)

    def run_legacy():
        legacy = LegacyPoolFleet(
            replicas,
            policy,
            dpolicy,
            router_seed=router_seed,
            decode_seed=router_seed,
            block_tokens=model.block_tokens,
            model=model,
            pools=pools,
            faults=faults,
            retry=RetryPolicy(),
            shed_slo=shed,
            autoscale=scale,
        )
        return legacy.run(workload)

    def check(legacy_result: FleetResult, result: FleetResult) -> None:
        if not result.equals(legacy_result):
            raise AssertionError(
                f"disagg parity drift: policy={policy}/{dpolicy} "
                f"n={num_requests} pools={prefill}p+{decode}d"
            )

    timing, _, result = time_pairs(run_legacy, run_current, check)
    report = summarize_fleet(workload, result, policy=policy)
    phases = fleet_phase_breakdown(workload, result)
    return {
        "workload": {
            "num_requests": num_requests,
            "prefill": prefill,
            "decode": decode,
            "policy": policy,
            "decode_policy": dpolicy,
            "rate_rps": RATE_PER_REPLICA * replicas,
            "faulty": faulty,
            "seed": seed,
        },
        **timing,
        "detail": {
            "pool": {
                "handoffs": result.handoffs,
                "migrations": result.migrations,
                "shipped_migrations": result.shipped_migrations,
                "reprefills": result.reprefills,
                "deaths": result.deaths,
                "spawns": result.spawns,
                "rejected": result.rejected_total,
            },
            "phases": phases.rows(),
            "report": report.row(),
        },
    }
