"""Disaggregated pool tests: parity, metamorphic anchors, ledger, phases.

Four layers of correctness for the prefill/decode pool subsystem:

* **Spec units** — :class:`PoolSpec` / :class:`MigrationPolicy` /
  ``pool_target`` reject nonsense loudly.
* **Parity** — the sharded pool DES matches the frozen naive baseline
  (``benchmarks/perf/_legacy_disagg.py``) **bitwise** through transfer
  faults, death storms, migration, warm-up autoscale, and shedding.
* **Metamorphic anchors** — an all-colocated spec reproduces the frozen
  plain fleet (``benchmarks/perf/_legacy_fleet.py``) bitwise; a
  contention-free (1 prefill, 1 decode) pair with a free wire
  reproduces a colocated fleet-of-one; the token-level
  :class:`DisaggEngineFleet` of (1, 1) with ``overlap=1.0`` walks the
  exact per-token timeline of a bare ``ServingEngine.run``.
* **Conservation** — after any run (death storms included), every KV
  ledger is zero; the simulators raise rather than leak.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from benchmarks.perf._legacy_disagg import LegacyPoolFleet
from benchmarks.perf._legacy_fleet import LegacyClusterFleet
from repro.errors import ConfigError
from repro.faults import (
    KV_DEGRADED,
    KV_TRANSFER_FAIL,
    REPLICA_DEATH,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
    pool_target,
)
from repro.inference import (
    SLO,
    AutoscalePolicy,
    ClusterFleet,
    ContinuousBatchScheduler,
    DisaggEngineFleet,
    LeastLoadedRouter,
    MigrationPolicy,
    PagedAllocator,
    PoolSpec,
    PrefixAwareRouter,
    RandomRouter,
    ReplicaModel,
    Request,
    ServingEngine,
    TransferModel,
    fleet_phase_breakdown,
    fleet_poisson_workload,
    make_pool_routers,
    make_router,
    phase_breakdown,
    summarize,
)

SMALL_MODEL = ReplicaModel(slots=16, kv_capacity_tokens=65536)


def pool_workload(n=1500, seed=11, rate=320.0):
    return fleet_poisson_workload(
        n,
        rate_rps=rate,
        prompt_mean=256,
        output_mean=16,
        num_prefixes=8,
        prefix_tokens=256,
        prefix_fraction=0.5,
        seed=seed,
    )


def run_pair(policy, dpolicy, pools, workload, **kw):
    """Run optimized + legacy pool fleets on identical inputs."""
    if policy == "random":
        router = RandomRouter(seed=5)
    elif policy == "least-loaded":
        router = LeastLoadedRouter()
    else:
        router = PrefixAwareRouter(block_tokens=SMALL_MODEL.block_tokens)
    if dpolicy == "random":
        drouter = RandomRouter(seed=5, stream="router-decode")
    else:
        drouter = LeastLoadedRouter()
    fleet = ClusterFleet(
        pools.total, router, model=SMALL_MODEL, pools=pools, decode_router=drouter, **kw
    )
    res = fleet.run(workload)
    legacy = LegacyPoolFleet(
        pools.total,
        policy,
        dpolicy,
        router_seed=5,
        decode_seed=5,
        block_tokens=SMALL_MODEL.block_tokens,
        model=SMALL_MODEL,
        pools=pools,
        **kw,
    )
    lres = legacy.run(workload)
    return res, lres


# ==================================================================== spec
class TestPoolSpec:
    def test_roles_by_slot(self):
        spec = PoolSpec(prefill=2, decode=3, colocated=1)
        assert [spec.role_of(s) for s in range(6)] == [0, 0, 1, 1, 1, 2]
        assert spec.total == 6
        assert spec.split

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ConfigError):
            PoolSpec(prefill=-1, decode=1)
        with pytest.raises(ConfigError):
            PoolSpec()

    def test_rejects_unpaired_pools(self):
        with pytest.raises(ConfigError):
            PoolSpec(prefill=2)
        with pytest.raises(ConfigError):
            PoolSpec(decode=2, colocated=1)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ConfigError):
            PoolSpec(colocated=1, warmup_s=-0.5)

    def test_migration_policy_validation(self):
        with pytest.raises(ConfigError):
            MigrationPolicy(hot_queue_ratio=1.0)
        with pytest.raises(ConfigError):
            MigrationPolicy(min_queue=0)

    def test_pool_target_parses_and_rejects_typo(self):
        assert pool_target("pool-decode") == "decode"
        assert pool_target("pool-prefill") == "prefill"
        assert pool_target("replica-3") is None
        assert pool_target(None) is None
        with pytest.raises(ConfigError):
            pool_target("pool-perfill")

    def test_make_pool_routers_recommended_pair(self):
        router, drouter = make_pool_routers(block_tokens=32)
        assert isinstance(router, PrefixAwareRouter)
        assert isinstance(drouter, LeastLoadedRouter)


# ================================================================== parity
class TestLegacyParity:
    """Bitwise FleetResult parity with the frozen naive pool DES."""

    @pytest.mark.parametrize("policy", ("random", "least-loaded", "prefix-aware"))
    @pytest.mark.parametrize("dpolicy", ("least-loaded", "random"))
    def test_clean_split(self, policy, dpolicy):
        res, lres = run_pair(
            policy, dpolicy, PoolSpec(prefill=3, decode=3), pool_workload()
        )
        assert res.equals(lres)
        assert res.handoffs > 0

    def test_transfer_faults(self):
        plan = FaultPlan(
            [
                FaultEvent(at_s=1.0, kind=KV_TRANSFER_FAIL, duration_s=2.0),
                FaultEvent(at_s=4.0, kind=KV_DEGRADED, duration_s=3.0, severity=0.4),
            ]
        )
        res, lres = run_pair(
            "prefix-aware",
            "least-loaded",
            PoolSpec(prefill=3, decode=3),
            pool_workload(),
            faults=plan,
            retry=RetryPolicy(max_retries=3, base_delay_s=0.05),
        )
        assert res.equals(lres)
        assert res.reprefills > 0

    def test_death_storm(self):
        plan = FaultPlan(
            [
                FaultEvent(at_s=1.5, kind=REPLICA_DEATH, target="pool-decode"),
                FaultEvent(at_s=3.0, kind=REPLICA_DEATH, target="pool-prefill"),
                FaultEvent(at_s=4.5, kind=REPLICA_DEATH),
                FaultEvent(at_s=4.5, kind=REPLICA_DEATH, target="pool-decode"),
            ]
        )
        res, lres = run_pair(
            "least-loaded",
            "least-loaded",
            PoolSpec(prefill=4, decode=4),
            pool_workload(),
            faults=plan,
            retry=RetryPolicy(max_retries=3, base_delay_s=0.05),
        )
        assert res.equals(lres)
        assert res.deaths == 4

    def test_migration_and_autoscale_warmup(self):
        res, lres = run_pair(
            "prefix-aware",
            "least-loaded",
            PoolSpec(
                prefill=2,
                decode=2,
                warmup_s=1.0,
                migration=MigrationPolicy(hot_queue_ratio=1.5, min_queue=2),
            ),
            pool_workload(rate=450.0),
            autoscale=AutoscalePolicy(
                min_replicas=2,
                max_replicas=8,
                high_queue_per_replica=3.0,
                low_queue_per_replica=0.0,
                interval_s=0.5,
                spawn_delay_s=0.5,
            ),
        )
        assert res.equals(lres)
        assert res.spawns > 0

    def test_shed_slow_wire(self):
        res, lres = run_pair(
            "random",
            "random",
            PoolSpec(
                prefill=2, decode=2, transfer=TransferModel(bandwidth=2e9, overlap=0.3)
            ),
            pool_workload(rate=450.0),
            shed_slo=SLO(ttft_s=3.0, tbt_s=1.0),
        )
        assert res.equals(lres)


# ===================================================== metamorphic anchors
class TestMetamorphicAnchors:
    def test_all_colocated_equals_plain_fleet(self):
        """An all-colocated PoolSpec is the frozen plain fleet, bitwise.

        Anchored on the legacy oracle rather than on ``ClusterFleet``
        without pools, which runs the same pool DES: every policy, clean
        and under deaths + retry + shed SLO + autoscale.
        """
        wl = pool_workload()
        horizon = float(wl.arrival_s[-1])
        faulty = dict(
            faults=FaultPlan.seeded(
                seed=11, horizon_s=horizon, rates={REPLICA_DEATH: 2.5 / horizon}
            ),
            retry=RetryPolicy(),
            shed_slo=SLO(ttft_s=30.0),
            autoscale=AutoscalePolicy(
                min_replicas=2,
                max_replicas=8,
                high_queue_per_replica=6.0,
                low_queue_per_replica=0.5,
                interval_s=2.0,
                spawn_delay_s=4.0,
            ),
        )
        for policy in ("random", "least-loaded", "prefix-aware"):
            for kw in ({}, faulty):
                pooled = ClusterFleet(
                    4,
                    make_router(policy, seed=5, block_tokens=SMALL_MODEL.block_tokens),
                    model=SMALL_MODEL,
                    pools=PoolSpec(colocated=4),
                    decode_router=LeastLoadedRouter(),
                    **kw,
                ).run(wl)
                legacy = LegacyClusterFleet(
                    4,
                    policy,
                    router_seed=5,
                    block_tokens=SMALL_MODEL.block_tokens,
                    model=SMALL_MODEL,
                    **kw,
                ).run(wl)
                assert pooled.equals(legacy), (policy, bool(kw))
                assert pooled.handoffs == 0
                assert pooled.completed + pooled.rejected_total == wl.n
                if kw:
                    assert pooled.deaths > 0

    def test_free_wire_pair_equals_colocated_one(self):
        """(1 prefill, 1 decode) with a free wire == colocated fleet-of-one.

        Contention-free workload: each request finishes before the next
        arrives, so the split pools never queue and the zero-cost handoff
        is the only difference — which must not be observable.
        """
        wl = fleet_poisson_workload(
            60, rate_rps=0.2, prompt_mean=256, output_mean=16, seed=3
        )
        free = TransferModel(overlap=1.0)
        split = ClusterFleet(
            2,
            LeastLoadedRouter(),
            model=SMALL_MODEL,
            pools=PoolSpec(prefill=1, decode=1, transfer=free),
            decode_router=LeastLoadedRouter(),
        ).run(wl)
        colo = ClusterFleet(
            1,
            LeastLoadedRouter(),
            model=SMALL_MODEL,
            pools=PoolSpec(colocated=1),
            decode_router=LeastLoadedRouter(),
        ).run(wl)
        assert np.array_equal(split.first_token_s, colo.first_token_s, equal_nan=True)
        assert np.array_equal(split.finish_s, colo.finish_s, equal_nan=True)
        assert split.completed == colo.completed == 60
        assert split.handoffs == 60

    def test_token_level_pair_equals_bare_engine(self):
        """DisaggEngineFleet(1, 1) with overlap=1.0 == ServingEngine.run."""

        def factory():
            return ServingEngine(ContinuousBatchScheduler(max_batch=8))

        def requests():
            return [
                Request(
                    request_id=f"r{i:03d}",
                    arrival_s=i * 10.0,
                    prompt_tokens=200 + 13 * (i % 7),
                    output_tokens=24 + (i % 5),
                )
                for i in range(12)
            ]

        fleet = DisaggEngineFleet(factory, 1, 1, transfer=TransferModel(overlap=1.0))
        disagg = requests()
        fleet.run(disagg)
        bare = factory().run(requests())
        for a, b in zip(disagg, bare):
            assert a.first_token_s == b.first_token_s
            assert a.finished_s == b.finished_s
            assert a.token_times == b.token_times
        assert fleet.handoffs == 12
        assert all(r.kv_shipped for r in disagg)


# ============================================================ conservation
class TestLedgerConservation:
    def test_death_storm_conserves_requests_and_kv(self):
        """Every request completes or is rejected; no KV survives the run.

        The pool DES itself raises ``SchedulerError("KV ledger leak")``
        when any replica ends with pinned or reserved KV — so a clean
        return *is* the ledger assertion; this test locks the accounting
        identity on top.
        """
        wl = pool_workload(n=1200)
        plan = FaultPlan(
            [
                FaultEvent(at_s=1.0, kind=REPLICA_DEATH, target="pool-decode"),
                FaultEvent(at_s=2.0, kind=REPLICA_DEATH, target="pool-prefill"),
                FaultEvent(at_s=3.0, kind=REPLICA_DEATH),
                FaultEvent(at_s=3.0, kind=REPLICA_DEATH),
            ]
        )
        fleet = ClusterFleet(
            8,
            LeastLoadedRouter(),
            model=SMALL_MODEL,
            pools=PoolSpec(prefill=4, decode=4),
            decode_router=LeastLoadedRouter(),
            faults=FaultPlan(list(plan.events)),
            retry=RetryPolicy(max_retries=3, base_delay_s=0.05),
        )
        res = fleet.run(wl)
        finished = int(np.sum(~np.isnan(res.finish_s)))
        assert finished == res.completed
        assert res.completed + res.rejected_total == wl.n
        # Disaggregated service touches two replicas per request (prefill
        # then decode), so the per-replica serve ledger covers at least
        # every completion — retries and reroutes only add to it.
        assert int(res.served_per_replica.sum()) >= res.completed

    def test_token_level_allocators_end_empty(self):
        """After a DisaggEngineFleet run every paged allocator is empty."""
        allocators = []

        def factory():
            alloc = PagedAllocator(65536, block_size=16)
            allocators.append(alloc)
            return ServingEngine(
                ContinuousBatchScheduler(max_batch=8), allocator=alloc
            )

        reqs = [
            Request(
                request_id=f"r{i:03d}",
                arrival_s=i * 0.02,
                prompt_tokens=200,
                output_tokens=16,
            )
            for i in range(150)
        ]
        DisaggEngineFleet(factory, 2, 2).run(reqs)
        assert all(r.done for r in reqs)
        for alloc in allocators:
            assert alloc.stats.reserved_tokens == 0


# =============================================================== migration
class TestMigrationBreakEven:
    def _hot_spot(self, transfer):
        return run_pair(
            "least-loaded",
            "least-loaded",
            PoolSpec(
                prefill=3,
                decode=3,
                transfer=transfer,
                migration=MigrationPolicy(hot_queue_ratio=1.5, min_queue=2),
            ),
            pool_workload(rate=500.0),
            autoscale=AutoscalePolicy(
                min_replicas=2,
                max_replicas=6,
                high_queue_per_replica=1e9,
                low_queue_per_replica=0.0,
                interval_s=0.5,
                spawn_delay_s=1.0,
            ),
        )

    def test_fast_wire_ships_kv(self):
        """ship_wins true: migrations move KV over the wire."""
        res, lres = self._hot_spot(TransferModel())
        assert res.equals(lres)
        assert res.migrations > 0
        assert res.shipped_migrations > 0

    def test_slow_wire_recomputes(self):
        """ship_wins false on a slow wire: migrations re-prefill.

        The wire must be slow enough that shipping loses to recompute,
        yet fast enough that decode queues still build hot spots — a
        handoff is a delay element, not a throughput limit.
        """
        res, lres = self._hot_spot(TransferModel(bandwidth=1e8, overlap=0.0))
        assert res.equals(lres)
        assert res.migrations > 0
        assert res.shipped_migrations == 0

    def test_ship_wins_break_even_rule(self):
        fast = TransferModel(bandwidth=50e9, overlap=0.8)
        assert fast.ship_wins(4096, recompute_s=0.5)
        slow = TransferModel(bandwidth=1e6, overlap=0.0)
        assert not slow.ship_wins(4096, recompute_s=0.5)
        free = TransferModel(overlap=1.0)
        assert free.ship_wins(4096, recompute_s=0.0)  # ties go to shipping


# ================================================================== warmup
class TestWarmup:
    def test_warmup_delays_spawned_capacity(self):
        """A long warm-up defers spawned replicas' first service."""
        wl = pool_workload(rate=500.0)
        autoscale = AutoscalePolicy(
            min_replicas=2,
            max_replicas=8,
            high_queue_per_replica=2.0,
            low_queue_per_replica=0.0,
            interval_s=0.5,
            spawn_delay_s=0.2,
        )

        def run(warmup):
            return ClusterFleet(
                4,
                LeastLoadedRouter(),
                model=SMALL_MODEL,
                pools=PoolSpec(prefill=2, decode=2, warmup_s=warmup),
                decode_router=LeastLoadedRouter(),
                autoscale=autoscale,
            ).run(wl)

        cold = run(5.0)
        hot = run(0.0)
        assert cold.spawns > 0 and hot.spawns > 0
        # Same spawn decisions happen later in wall-clock effect: the
        # cold fleet finishes no earlier and leaves latency on the table.
        assert cold.sim_end_s >= hot.sim_end_s
        assert float(np.nanmean(cold.finish_s - wl.arrival_s)) >= float(
            np.nanmean(hot.finish_s - wl.arrival_s)
        )


# ================================================================= metrics
class TestPhaseBreakdown:
    def _request(self, i, *, arrival, admitted, first, dadmit, finish, shipped=True):
        r = Request(
            request_id=f"m{i}",
            arrival_s=arrival,
            prompt_tokens=128,
            output_tokens=4,
        )
        r.admitted_s = admitted
        r.first_token_s = first
        r.kv_shipped = shipped
        r.handoff_s = dadmit
        r.decode_admitted_s = dadmit if shipped else None
        r.finished_s = finish
        r.token_times = [first, finish]
        return r

    def test_token_level_phases_exact(self):
        reqs = [
            self._request(0, arrival=0.0, admitted=1.0, first=3.0, dadmit=3.5, finish=5.0),
            self._request(1, arrival=1.0, admitted=1.0, first=2.0, dadmit=4.0, finish=9.0),
        ]
        bd = phase_breakdown(reqs)
        assert bd.queue_wait.count == 2
        assert bd.queue_wait.p50_s == pytest.approx(0.5)
        assert bd.prefill.mean_s == pytest.approx(1.5)
        assert bd.transfer.p99_s == pytest.approx(2.0, abs=0.05)
        assert bd.decode.mean_s == pytest.approx(3.25)

    def test_reprefill_request_has_no_transfer_phase(self):
        reqs = [
            self._request(
                0, arrival=0.0, admitted=1.0, first=3.0, dadmit=4.0, finish=6.0,
                shipped=False,
            )
        ]
        bd = phase_breakdown(reqs)
        assert bd.transfer.count == 0
        assert bd.decode.count == 1
        assert bd.decode.mean_s == pytest.approx(3.0)  # first token -> finish

    def test_unfinished_requests_excluded(self):
        r = Request(request_id="u", arrival_s=0.0, prompt_tokens=8, output_tokens=2)
        bd = phase_breakdown([r])
        assert all(p.count == 0 for p in bd.phases)
        assert bd.rows()[0]["count"] == 0

    def test_fleet_breakdown_disaggregated(self):
        wl = pool_workload()
        res = ClusterFleet(
            6,
            PrefixAwareRouter(block_tokens=SMALL_MODEL.block_tokens),
            model=SMALL_MODEL,
            pools=PoolSpec(prefill=3, decode=3),
            decode_router=LeastLoadedRouter(),
        ).run(wl)
        bd = fleet_phase_breakdown(wl, res)
        assert bd.queue_wait.count == res.completed
        assert bd.transfer.count == res.completed
        assert bd.transfer.p50_s > 0.0  # a real wire has visible delay
        assert bd.prefill.mean_s > 0.0
        assert bd.decode.mean_s > 0.0
        for p in bd.phases:
            assert not math.isnan(p.mean_s)

    def test_fleet_breakdown_colocated_transfer_is_zero(self):
        wl = pool_workload()
        res = ClusterFleet(
            4,
            LeastLoadedRouter(),
            model=SMALL_MODEL,
            pools=PoolSpec(colocated=4),
            decode_router=LeastLoadedRouter(),
        ).run(wl)
        bd = fleet_phase_breakdown(wl, res)
        assert bd.transfer.count == res.completed
        assert bd.transfer.p99_s == 0.0

    def test_summarize_still_counts_disagg_requests(self):
        def factory():
            return ServingEngine(ContinuousBatchScheduler(max_batch=8))

        reqs = [
            Request(
                request_id=f"r{i}",
                arrival_s=i * 0.05,
                prompt_tokens=256,
                output_tokens=24,
            )
            for i in range(80)
        ]
        DisaggEngineFleet(factory, 2, 2).run(reqs)
        report = summarize(reqs)
        assert report.completed == 80
        assert report.ttft_p95 > 0.0
