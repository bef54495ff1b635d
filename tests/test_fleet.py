"""Fleet serving tests: routers, cluster DES, metamorphic anchors.

Three layers of correctness for the multi-replica subsystem:

* **Router units** — each policy picks the replica its contract names,
  on crafted :class:`RouterState` columns.
* **Cluster DES** — :class:`ClusterFleet` matches the frozen naive
  baseline (``benchmarks/perf/_legacy_fleet.py``) **bitwise** at small
  scale, through deaths, shedding, and autoscaling; an empty fault plan
  moves nothing by one bit.
* **Metamorphic anchor** — an :class:`EngineFleet` of one replica drives
  a real :class:`ServingEngine` along a trajectory bit-identical to
  ``engine.run()`` on the same requests, whatever the router policy.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from benchmarks.perf._legacy_fleet import LegacyClusterFleet
from benchmarks.perf.harness_fleet import matches_legacy
from repro.errors import ConfigError, SchedulerError
from repro.faults import REPLICA_DEATH, FaultEvent, FaultPlan, RetryPolicy
from repro.inference import (
    SLO,
    AutoscalePolicy,
    ClusterFleet,
    ContinuousBatchScheduler,
    EngineFleet,
    FleetWorkload,
    LeastLoadedRouter,
    LengthDistribution,
    MigrationPolicy,
    PagedAllocator,
    PoolSpec,
    PrefixAwareRouter,
    RandomRouter,
    ReplicaModel,
    Router,
    RouterState,
    ServingEngine,
    TransferModel,
    fleet_poisson_workload,
    make_router,
    shared_prefix_workload,
    summarize_fleet,
)

POLICIES = ("random", "least-loaded", "prefix-aware")

SMALL_MODEL = ReplicaModel(slots=16, kv_capacity_tokens=65536)


def small_workload(n=2000, seed=7):
    return fleet_poisson_workload(
        n,
        rate_rps=400.0,
        prompt_mean=256,
        output_mean=16,
        num_prefixes=8,
        prefix_tokens=512,
        prefix_fraction=0.7,
        seed=seed,
    )


def run_pair(policy, workload, **kw):
    """Run optimized + legacy fleets on identical inputs; return both results."""
    n_replicas = kw.pop("n_replicas", 4)
    fleet = ClusterFleet(
        n_replicas, make_router(policy, seed=3), model=SMALL_MODEL, **kw
    )
    res = fleet.run(workload)
    legacy = LegacyClusterFleet(
        n_replicas, policy, router_seed=3, model=SMALL_MODEL, **kw
    )
    lres = legacy.run(workload)
    return res, lres


# ================================================================ workload
class TestFleetWorkload:
    def test_columns_validated(self):
        with pytest.raises(ConfigError):
            FleetWorkload(
                arrival_s=np.array([1.0, 0.5]),
                prompt_tokens=np.array([4, 4]),
                output_tokens=np.array([2, 2]),
                prefix_code=np.array([-1, -1]),
                prefix_tokens=np.array([0, 0]),
            )
        with pytest.raises(ConfigError):
            FleetWorkload(
                arrival_s=np.array([0.0, 1.0]),
                prompt_tokens=np.array([4]),
                output_tokens=np.array([2, 2]),
                prefix_code=np.array([-1, -1]),
                prefix_tokens=np.array([0, 0]),
            )

    def test_poisson_workload_deterministic(self):
        a = small_workload(500, seed=11)
        b = small_workload(500, seed=11)
        c = small_workload(500, seed=12)
        assert np.array_equal(a.arrival_s, b.arrival_s)
        assert np.array_equal(a.prefix_code, b.prefix_code)
        assert not np.array_equal(a.arrival_s, c.arrival_s)

    def test_prefix_share_and_head(self):
        w = small_workload(4000)
        shared = w.prefix_code >= 0
        assert 0.6 < shared.mean() < 0.8
        # Shared requests carry the prefix inside their prompt.
        assert np.all(w.prompt_tokens[shared] > w.prefix_tokens[shared])
        assert np.all(w.prefix_tokens[~shared] == 0)
        h = w.head(10)
        assert h.n == 10
        assert np.array_equal(h.arrival_s, w.arrival_s[:10])

    def test_to_requests_round_trip(self):
        w = small_workload(50)
        reqs = w.to_requests()
        assert len(reqs) == 50
        for i, r in enumerate(reqs):
            assert r.prompt_tokens == int(w.prompt_tokens[i])
            code = int(w.prefix_code[i])
            assert (r.prefix_id is None) == (code < 0)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            fleet_poisson_workload(0)
        with pytest.raises(ConfigError):
            fleet_poisson_workload(10, rate_rps=-1.0)
        with pytest.raises(ConfigError):
            fleet_poisson_workload(10, prefix_fraction=0.5, num_prefixes=0)

    def test_negative_prefix_tokens_rejected(self):
        """A negative shared prefix would score a negative cache hit."""
        with pytest.raises(ConfigError, match="prefix_tokens"):
            FleetWorkload(
                arrival_s=np.arange(4, dtype=np.float64),
                prompt_tokens=np.full(4, 100, dtype=np.int64),
                output_tokens=np.full(4, 8, dtype=np.int64),
                prefix_code=np.zeros(4, dtype=np.int64),
                prefix_tokens=np.full(4, -5, dtype=np.int64),
            )
        with pytest.raises(ConfigError, match="prefix_tokens"):
            fleet_poisson_workload(4, num_prefixes=1, prefix_tokens=-5, prefix_fraction=1.0)

    @pytest.mark.parametrize("pools", (None, PoolSpec(prefill=1, decode=1)))
    def test_empty_workload_runs_to_an_empty_result(self, pools):
        empty = FleetWorkload(
            arrival_s=np.zeros(0, dtype=np.float64),
            prompt_tokens=np.zeros(0, dtype=np.int64),
            output_tokens=np.zeros(0, dtype=np.int64),
            prefix_code=np.zeros(0, dtype=np.int64),
            prefix_tokens=np.zeros(0, dtype=np.int64),
        )
        res = ClusterFleet(2, LeastLoadedRouter(), model=SMALL_MODEL, pools=pools).run(empty)
        assert res.completed == 0 and res.rejected_total == 0
        assert res.sim_end_s == 0.0
        assert res.replica.shape == res.finish_s.shape == (0,)
        assert res.served_per_replica.tolist() == [0, 0]


# ================================================================= routers
def make_state(n=4, kv=1000):
    state = RouterState(n, kv)
    state.routable[:] = True
    state.rebuild_routable()
    return state


class TestRouters:
    def test_state_validation(self):
        with pytest.raises(ConfigError):
            RouterState(0, 100)
        with pytest.raises(ConfigError):
            RouterState(4, 0)

    def test_random_router_seeded_and_in_range(self):
        state = make_state(8)
        a = RandomRouter(seed=5)
        a.bind(state)
        picks = [a.route(-1, 0) for _ in range(200)]
        assert set(picks) <= set(range(8))
        assert len(set(picks)) > 1
        b = RandomRouter(seed=5)
        b.bind(state)
        assert [b.route(-1, 0) for _ in range(200)] == picks

    def test_random_router_no_replicas(self):
        state = make_state(2)
        state.routable[:] = False
        state.rebuild_routable()
        r = RandomRouter()
        r.bind(state)
        with pytest.raises(SchedulerError):
            r.route(-1, 0)

    def test_least_loaded_lexicographic(self):
        state = make_state(3, kv=1000)
        router = LeastLoadedRouter()
        router.bind(state)
        state.queue_depth[:] = [2, 1, 1]
        state.kv_used[:] = [0, 500, 499]
        # Same queue+running on 1 and 2: KV pressure breaks the tie.
        assert router.route(-1, 0) == 2
        state.kv_used[2] = 500
        # Full tie resolves to the lowest index.
        assert router.route(-1, 0) == 1
        state.routable[1] = False
        state.rebuild_routable()
        assert router.route(-1, 0) == 2

    def test_prefix_aware_longest_block_rounded_hit(self):
        state = make_state(3)
        router = PrefixAwareRouter(block_tokens=64)
        router.bind(state)
        state.record_prefix(0, 1, 100)   # 1 full block
        state.record_prefix(0, 2, 200)   # 3 full blocks
        assert router.route(0, 512) == 2
        # The hit is capped by the request's own prefix length.
        assert router.route(0, 100) in (1, 2)
        # Sub-block cache counts for nothing: fall back to least-loaded.
        state2 = make_state(3)
        router2 = PrefixAwareRouter(block_tokens=64)
        router2.bind(state2)
        state2.record_prefix(0, 2, 63)
        state2.queue_depth[:] = [1, 0, 1]
        assert router2.route(0, 512) == 1

    def test_prefix_aware_ignores_dead_holders(self):
        state = make_state(3)
        router = PrefixAwareRouter(block_tokens=64)
        router.bind(state)
        state.record_prefix(0, 2, 512)
        state.routable[2] = False
        state.rebuild_routable()
        state.queue_depth[:] = [0, 1, 0]
        assert router.route(0, 512) == 0

    def test_make_router(self):
        for name in POLICIES:
            assert make_router(name).name == name
        with pytest.raises(ConfigError):
            make_router("round-robin")


# ============================================================ cluster DES
class TestClusterFleetParity:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_bitwise_parity_clean(self, policy):
        w = small_workload()
        res, lres = run_pair(policy, w)
        assert matches_legacy(res, lres)
        assert res.completed == w.n and res.rejected_total == 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_bitwise_parity_faulty(self, policy):
        w = small_workload()
        horizon = float(w.arrival_s[-1])
        kw = dict(
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
        res, lres = run_pair(policy, w, **kw)
        assert matches_legacy(res, lres)
        assert res.deaths > 0

    def test_empty_fault_plan_is_inert(self):
        """faults=FaultPlan.empty() must not move the trajectory one bit."""
        w = small_workload()
        for policy in POLICIES:
            bare = ClusterFleet(4, make_router(policy, seed=3), model=SMALL_MODEL)
            empty = ClusterFleet(
                4,
                make_router(policy, seed=3),
                model=SMALL_MODEL,
                faults=FaultPlan.empty(),
            )
            assert bare.run(w).equals(empty.run(w))

    def test_plain_fleet_honours_random_router_stream(self):
        """A plain fleet draws from RandomRouter.stream, like the pool DES."""
        w = small_workload(800)

        def run(stream, **kw):
            router = RandomRouter(seed=5, stream=stream)
            return ClusterFleet(4, router, model=SMALL_MODEL, **kw).run(w)

        alt = run("router-alt")
        pooled = run("router-alt", pools=PoolSpec(colocated=4))
        assert alt.equals(pooled)
        assert not np.array_equal(alt.replica, run("router").replica)


class TestClusterFleetBehavior:
    def test_replica_death_reroutes_and_retries(self):
        w = small_workload()
        plan = FaultPlan(
            events=(FaultEvent(at_s=1.0, kind=REPLICA_DEATH, duration_s=0.5),)
        )
        fleet = ClusterFleet(
            4, make_router("least-loaded"), model=SMALL_MODEL, faults=plan
        )
        res = fleet.run(w)
        assert res.deaths == 1
        assert int(res.retries.sum()) > 0
        # Everything still lands: retried work completes on survivors.
        assert res.completed == w.n
        assert np.all(np.isfinite(res.finish_s))
        # The victim serves nothing after t=1.0, so its share is small.
        assert int((res.served_per_replica > 0).sum()) == 4

    def test_pool_target_on_plain_fleet(self):
        """A plain fleet is the colocated pool: only "pool-colocated" hits."""
        w = small_workload(500)
        for target, deaths in (("pool-colocated", 1), ("pool-decode", 0)):
            plan = FaultPlan(
                events=(
                    FaultEvent(at_s=0.5, kind=REPLICA_DEATH, target=target, duration_s=0.1),
                )
            )
            fleet = ClusterFleet(
                4, make_router("least-loaded"), model=SMALL_MODEL, faults=plan
            )
            res = fleet.run(w)
            assert res.deaths == deaths
            assert res.completed == w.n

    def test_death_of_named_target(self):
        w = small_workload(500)
        plan = FaultPlan(
            events=(
                FaultEvent(
                    at_s=0.5, kind=REPLICA_DEATH, target="replica-2", duration_s=0.1
                ),
            )
        )
        fleet = ClusterFleet(
            4, make_router("least-loaded"), model=SMALL_MODEL, faults=plan
        )
        res = fleet.run(w)
        assert res.deaths == 1
        served_after = int(res.served_per_replica[2])
        # Replica 2 only served what it finished before dying.
        assert served_after < int(res.served_per_replica.max())

    def test_retry_exhaustion_rejects(self):
        # Zero retry budget: any in-flight work on a dying replica is shed.
        w = small_workload(800)
        plan = FaultPlan(
            events=(
                FaultEvent(
                    at_s=0.4, kind=REPLICA_DEATH, target="replica-0", duration_s=0.1
                ),
                FaultEvent(
                    at_s=0.8, kind=REPLICA_DEATH, target="replica-1", duration_s=0.1
                ),
            )
        )
        fleet = ClusterFleet(
            4,
            make_router("random", seed=1),
            model=SMALL_MODEL,
            faults=plan,
            retry=RetryPolicy(max_retries=0),
        )
        res = fleet.run(w)
        assert res.deaths == 2
        assert res.rejected_total > 0
        assert res.completed + res.rejected_total == w.n
        # Rejected rows carry NaN finish times.
        assert np.all(~np.isfinite(res.finish_s[res.rejected]))

    def test_shed_slo_drops_stale_queue(self):
        # One tiny replica, a burst far above capacity, a tight TTFT SLO.
        w = fleet_poisson_workload(
            400, rate_rps=2000.0, prompt_mean=256, output_mean=16, seed=9
        )
        fleet = ClusterFleet(
            1,
            make_router("least-loaded"),
            model=ReplicaModel(slots=4, kv_capacity_tokens=16384),
            shed_slo=SLO(ttft_s=0.5),
        )
        res = fleet.run(w)
        assert res.rejected_total > 0
        assert res.completed + res.rejected_total == w.n
        report = summarize_fleet(w, res, policy="least-loaded")
        assert report.shed_rate == pytest.approx(res.rejected_total / w.n)

    def test_autoscale_spawns_under_load(self):
        w = fleet_poisson_workload(
            1500, rate_rps=1500.0, prompt_mean=256, output_mean=16, seed=13
        )
        fleet = ClusterFleet(
            2,
            make_router("least-loaded"),
            model=ReplicaModel(slots=8, kv_capacity_tokens=32768),
            autoscale=AutoscalePolicy(
                min_replicas=2,
                max_replicas=6,
                high_queue_per_replica=4.0,
                low_queue_per_replica=0.1,
                interval_s=0.25,
                spawn_delay_s=0.25,
            ),
        )
        res = fleet.run(w)
        assert res.spawns > 0
        assert res.completed == w.n
        assert int((res.served_per_replica > 0).sum()) > 2

    def test_autoscale_drains_idle_fleet(self):
        w = fleet_poisson_workload(
            200, rate_rps=20.0, prompt_mean=128, output_mean=8, seed=17
        )
        fleet = ClusterFleet(
            6,
            make_router("least-loaded"),
            model=SMALL_MODEL,
            autoscale=AutoscalePolicy(
                min_replicas=2,
                max_replicas=6,
                high_queue_per_replica=8.0,
                low_queue_per_replica=1.0,
                interval_s=0.5,
                spawn_delay_s=1.0,
            ),
        )
        res = fleet.run(w)
        assert res.drains > 0
        assert res.completed == w.n

    def test_prefix_policy_concentrates_hits(self):
        w = small_workload(3000)
        random_res = ClusterFleet(
            4, make_router("random", seed=3), model=SMALL_MODEL
        ).run(w)
        aware_res = ClusterFleet(
            4, make_router("prefix-aware"), model=SMALL_MODEL
        ).run(w)
        assert int(aware_res.prefix_hit_tokens.sum()) > int(
            random_res.prefix_hit_tokens.sum()
        )

    def test_request_larger_than_replica_rejected(self):
        w = FleetWorkload(
            arrival_s=np.array([0.0]),
            prompt_tokens=np.array([70000], dtype=np.int64),
            output_tokens=np.array([10], dtype=np.int64),
            prefix_code=np.array([-1], dtype=np.int64),
            prefix_tokens=np.array([0], dtype=np.int64),
        )
        fleet = ClusterFleet(2, make_router("random"), model=SMALL_MODEL)
        with pytest.raises(ConfigError):
            fleet.run(w)

    def test_summarize_rejects_empty(self):
        w = small_workload(100)
        res = ClusterFleet(2, make_router("random"), model=SMALL_MODEL).run(w)
        report = summarize_fleet(w, res, policy="random")
        assert report.completed == 100
        assert report.ttft_p50 <= report.ttft_p95 <= report.ttft_p99
        row = report.row()
        for key in ("ttft_p50_s", "ttft_p95_s", "ttft_p99_s", "shed_rate"):
            assert key in row


# ===================================================== engine-fleet anchor
def engine_factory():
    return ServingEngine(
        ContinuousBatchScheduler(max_batch=8, chunk_tokens=256),
        allocator=PagedAllocator(40_000, block_size=16),
    )


def engine_workload():
    return shared_prefix_workload(
        rate_rps=6.0,
        duration_s=5.0,
        num_prefixes=3,
        prefix_tokens=160,
        unique_prompt_dist=LengthDistribution(mean=80, lo=8, hi=256),
        output_dist=LengthDistribution(mean=12, lo=4, hi=32),
        seed=21,
    )


def trajectory(requests):
    return [
        (
            r.request_id,
            r.admitted_s,
            r.first_token_s,
            r.finished_s,
            tuple(r.token_times),
            r.preemptions,
            r.prefix_hit,
            r.retries,
            r.rejected,
        )
        for r in sorted(requests, key=lambda q: q.request_id)
    ]


class TestEngineFleetMetamorphic:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_fleet_of_one_bit_identical_to_bare_engine(self, policy):
        base = engine_workload()
        bare = copy.deepcopy(base)
        engine_factory().run(bare)

        routed = copy.deepcopy(base)
        fleet = EngineFleet(engine_factory, 1, make_router(policy, seed=3))
        fleet.run(routed)
        assert trajectory(routed) == trajectory(bare)

    def test_fleet_of_one_with_empty_fault_plan_inert(self):
        base = engine_workload()
        bare = copy.deepcopy(base)
        engine_factory().run(bare)
        routed = copy.deepcopy(base)
        fleet = EngineFleet(
            engine_factory, 1, make_router("random", seed=3),
            faults=FaultPlan.empty(),
        )
        fleet.run(routed)
        assert trajectory(routed) == trajectory(bare)

    def test_replicas_split_work(self):
        requests = engine_workload()
        fleet = EngineFleet(engine_factory, 3, make_router("least-loaded"))
        fleet.run(requests)
        assert all(r.done for r in requests)
        assert len(set(fleet.assignments.values())) > 1

    def test_replica_death_recovers(self):
        requests = engine_workload()
        plan = FaultPlan(
            events=(FaultEvent(at_s=1.0, kind=REPLICA_DEATH, duration_s=0.5),)
        )
        fleet = EngineFleet(
            engine_factory, 3, make_router("least-loaded"), faults=plan
        )
        fleet.run(requests)
        assert fleet.deaths == 1
        assert all(r.done or r.rejected for r in requests)
        completed = sum(1 for r in requests if r.done)
        assert completed == len(requests) - fleet.rejected


# ================================================= death-target validation
BAD_DEATH_TARGETS = ("replica-x", "replica--1", "pool-perfill")


def _plan_with_bad_second_death(target):
    """A valid untargeted death, then a malformed one later in the run."""
    return FaultPlan(
        events=(
            FaultEvent(at_s=0.1, kind=REPLICA_DEATH),
            FaultEvent(at_s=0.5, kind=REPLICA_DEATH, target=target),
        )
    )


class TestDeathTargetValidation:
    """A malformed REPLICA_DEATH target fails the constructor, not the run.

    Raising mid-run would leave the first death already applied (fault
    log, replica state); raising at build time leaves nothing behind.
    """

    @pytest.mark.parametrize("target", BAD_DEATH_TARGETS)
    @pytest.mark.parametrize("pools", (None, PoolSpec(prefill=2, decode=2)))
    def test_cluster_fleet_rejects_at_build(self, target, pools):
        plan = _plan_with_bad_second_death(target)
        events = plan.events
        with pytest.raises(ConfigError):
            ClusterFleet(
                4, make_router("least-loaded"), model=SMALL_MODEL, faults=plan, pools=pools
            )
        assert plan.events == events

    @pytest.mark.parametrize("target", BAD_DEATH_TARGETS)
    def test_engine_fleet_rejects_before_building_engines(self, target):
        built = []

        def factory():
            built.append(1)
            return engine_factory()

        router = make_router("least-loaded")
        with pytest.raises(ConfigError):
            EngineFleet(factory, 2, router, faults=_plan_with_bad_second_death(target))
        assert built == []
        assert not hasattr(router, "_state")  # never bound to a fleet

    def test_valid_targets_still_build(self):
        plan = FaultPlan(
            events=(
                FaultEvent(at_s=0.1, kind=REPLICA_DEATH, target="replica-1"),
                FaultEvent(at_s=0.2, kind=REPLICA_DEATH, target="pool-colocated"),
                FaultEvent(at_s=0.3, kind=REPLICA_DEATH, target="replica-99"),
            )
        )
        ClusterFleet(4, make_router("least-loaded"), model=SMALL_MODEL, faults=plan)
        EngineFleet(engine_factory, 2, make_router("least-loaded"), faults=plan)


# ============================================================ boundaries
NAN = float("nan")
INF = float("inf")


def _workload_columns(**override):
    columns = dict(
        arrival_s=np.arange(3, dtype=np.float64),
        prompt_tokens=np.full(3, 64, dtype=np.int64),
        output_tokens=np.full(3, 8, dtype=np.int64),
        prefix_code=np.full(3, -1, dtype=np.int64),
        prefix_tokens=np.zeros(3, dtype=np.int64),
    )
    columns.update(override)
    return columns


BAD_CONFIGS = {
    "replica-base-nan": lambda: ReplicaModel(base_s=NAN),
    "replica-prefill-nan": lambda: ReplicaModel(per_prefill_token_s=NAN),
    "replica-output-inf": lambda: ReplicaModel(per_output_token_s=INF),
    "retry-base-nan": lambda: RetryPolicy(base_delay_s=NAN),
    "retry-multiplier-nan": lambda: RetryPolicy(multiplier=NAN),
    "retry-max-inf": lambda: RetryPolicy(max_delay_s=INF),
    "workload-arrival-nan": lambda: FleetWorkload(
        **_workload_columns(arrival_s=np.array([0.0, NAN, 2.0]))
    ),
    "workload-arrival-inf": lambda: FleetWorkload(
        **_workload_columns(arrival_s=np.array([0.0, 1.0, INF]))
    ),
    "workload-2d-column": lambda: FleetWorkload(
        **_workload_columns(prompt_tokens=np.full((3, 2), 64, dtype=np.int64))
    ),
    "workload-float-tokens": lambda: FleetWorkload(
        **_workload_columns(output_tokens=np.full(3, 8.5))
    ),
    "transfer-bandwidth-nan": lambda: TransferModel(bandwidth=NAN),
    "transfer-bytes-inf": lambda: TransferModel(bytes_per_token=INF),
    "pool-warmup-nan": lambda: PoolSpec(prefill=1, decode=1, warmup_s=NAN),
    "pool-warmup-inf": lambda: PoolSpec(colocated=2, warmup_s=INF),
    "migration-ratio-nan": lambda: MigrationPolicy(hot_queue_ratio=NAN),
    "autoscale-interval-nan": lambda: AutoscalePolicy(interval_s=NAN),
    "autoscale-spawn-inf": lambda: AutoscalePolicy(spawn_delay_s=INF),
    "autoscale-low-nan": lambda: AutoscalePolicy(low_queue_per_replica=NAN),
}


class TestConfigBoundary:
    """Fleet configs refuse NaN and infinite times at construction.

    ``x <= 0`` is False for NaN, so a NaN used to pass every range check
    and stall the run much later ("pool fleet stalled").
    """

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_non_finite_setting_rejected(self, case):
        with pytest.raises(ConfigError):
            BAD_CONFIGS[case]()

    def test_infinite_watermarks_mean_never(self):
        AutoscalePolicy(high_queue_per_replica=INF)
        MigrationPolicy(hot_queue_ratio=INF)


class _RoundRobin(Router):
    """A custom policy: the pool DES has no branch for it."""

    def route(self, prefix_code, prefix_tokens):
        return 0


class _TweakedLeastLoaded(LeastLoadedRouter):
    """A subclass may change ``route``; only the exact built-in types pass."""


class TestRouterBoundary:
    @pytest.mark.parametrize("router", (_RoundRobin(), _TweakedLeastLoaded()))
    @pytest.mark.parametrize("pools", (None, PoolSpec(prefill=1, decode=1)))
    def test_cluster_fleet_refuses_other_router_types(self, router, pools):
        with pytest.raises(ConfigError, match="router"):
            ClusterFleet(2, router, model=SMALL_MODEL, pools=pools)

    @pytest.mark.parametrize(
        "decode_router", (PrefixAwareRouter(), _RoundRobin(), _TweakedLeastLoaded())
    )
    def test_cluster_fleet_refuses_other_decode_routers(self, decode_router):
        with pytest.raises(ConfigError, match="decode_router"):
            ClusterFleet(
                2,
                LeastLoadedRouter(),
                model=SMALL_MODEL,
                pools=PoolSpec(prefill=1, decode=1),
                decode_router=decode_router,
            )

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("decode_router", (None, RandomRouter(seed=2), LeastLoadedRouter()))
    def test_built_in_routers_accepted(self, policy, decode_router):
        fleet = ClusterFleet(
            2,
            make_router(policy, seed=1),
            model=SMALL_MODEL,
            pools=PoolSpec(prefill=1, decode=1),
            decode_router=decode_router,
        )
        res = fleet.run(small_workload(50))
        assert res.completed == 50
