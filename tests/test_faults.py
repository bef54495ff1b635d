"""Fault-injection framework: plans, retry policy, and recovery wiring.

The chaos smoke tests here run in tier-1 with fast configs; the full chaos
benchmark (fault-rate sweeps, Young-Daly-vs-injected-MTBF) lives in
``benchmarks/test_e24_fault_recovery.py``.
"""

import copy

import pytest

from repro.errors import ConfigError
from repro.faults import (
    FAULT_KINDS,
    GPU_CRASH,
    KV_DEGRADED,
    KV_TRANSFER_FAIL,
    RANK_DEATH,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)
from repro.inference import (
    SLO,
    ContinuousBatchScheduler,
    DisaggEngineFleet,
    PagedAllocator,
    ServingEngine,
    ShortestJobFirstScheduler,
    StaticBatchScheduler,
    TransferModel,
    poisson_workload,
    summarize,
)
from repro.training import ClusterSpec, ParallelConfig, TrainingRun, get_model_spec
from repro.training.checkpoint import states_equal


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultEvent(at_s=1.0, kind="meteor_strike")
        with pytest.raises(ConfigError):
            FaultEvent(at_s=-1.0, kind=GPU_CRASH)
        with pytest.raises(ConfigError):
            FaultEvent(at_s=1.0, kind=GPU_CRASH, duration_s=-0.5)
        with pytest.raises(ConfigError):
            FaultEvent(at_s=1.0, kind=KV_DEGRADED, severity=0.0)
        with pytest.raises(ConfigError):
            FaultEvent(at_s=1.0, kind=KV_DEGRADED, severity=1.5)

    def test_window(self):
        event = FaultEvent(at_s=2.0, kind=KV_DEGRADED, duration_s=3.0, severity=0.5)
        assert event.end_s == 5.0
        assert event.covers(2.0) and event.covers(5.0)
        assert not event.covers(1.9) and not event.covers(5.1)


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            [
                FaultEvent(at_s=5.0, kind=GPU_CRASH),
                FaultEvent(at_s=1.0, kind=RANK_DEATH),
                FaultEvent(at_s=3.0, kind=KV_TRANSFER_FAIL),
            ]
        )
        assert [e.at_s for e in plan.events] == [1.0, 3.0, 5.0]
        assert len(plan) == 3

    def test_empty_plan(self):
        assert len(FaultPlan.empty()) == 0
        assert FaultPlan.empty().of_kind(*FAULT_KINDS) == []

    def test_of_kind_filters_and_validates(self):
        plan = FaultPlan(
            [FaultEvent(at_s=1.0, kind=GPU_CRASH), FaultEvent(at_s=2.0, kind=RANK_DEATH)]
        )
        assert [e.kind for e in plan.of_kind(RANK_DEATH)] == [RANK_DEATH]
        with pytest.raises(ConfigError):
            plan.of_kind("bogus")

    def test_covering_finds_window(self):
        plan = FaultPlan(
            [FaultEvent(at_s=2.0, kind=KV_TRANSFER_FAIL, duration_s=2.0)]
        )
        assert plan.covering(KV_TRANSFER_FAIL, 3.0) is not None
        assert plan.covering(KV_TRANSFER_FAIL, 5.0) is None
        assert plan.covering(GPU_CRASH, 3.0) is None

    def test_seeded_is_deterministic(self):
        kwargs = dict(
            seed=7,
            horizon_s=100.0,
            rates={GPU_CRASH: 0.05, RANK_DEATH: 0.02},
            mean_duration_s={GPU_CRASH: 1.0},
        )
        a, b = FaultPlan.seeded(**kwargs), FaultPlan.seeded(**kwargs)
        assert a.events == b.events
        assert len(a) > 0
        assert all(0.0 <= e.at_s < 100.0 for e in a.events)

    def test_seeded_kinds_are_independent_streams(self):
        solo = FaultPlan.seeded(seed=7, horizon_s=100.0, rates={GPU_CRASH: 0.05})
        both = FaultPlan.seeded(
            seed=7, horizon_s=100.0, rates={GPU_CRASH: 0.05, RANK_DEATH: 0.1}
        )
        assert solo.of_kind(GPU_CRASH) == both.of_kind(GPU_CRASH)

    def test_seeded_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan.seeded(seed=1, horizon_s=0.0, rates={})
        with pytest.raises(ConfigError):
            FaultPlan.seeded(seed=1, horizon_s=10.0, rates={GPU_CRASH: -1.0})
        with pytest.raises(ConfigError):
            FaultPlan.seeded(seed=1, horizon_s=10.0, rates={}, degraded_severity=2.0)


class TestFaultInjector:
    def test_delivers_each_event_once_in_order(self):
        plan = FaultPlan(
            [FaultEvent(at_s=1.0, kind=GPU_CRASH), FaultEvent(at_s=3.0, kind=GPU_CRASH)]
        )
        injector = FaultInjector(plan)
        assert injector.due(0.5) == []
        assert [e.at_s for e in injector.due(1.0)] == [1.0]
        assert injector.due(1.0) == []
        assert injector.pending == 1
        assert [e.at_s for e in injector.due(10.0)] == [3.0]
        assert injector.pending == 0

    def test_kind_filter(self):
        plan = FaultPlan(
            [FaultEvent(at_s=1.0, kind=RANK_DEATH), FaultEvent(at_s=2.0, kind=GPU_CRASH)]
        )
        injector = FaultInjector(plan, kinds=(GPU_CRASH,))
        assert [e.kind for e in injector.due(10.0)] == [GPU_CRASH]
        with pytest.raises(ConfigError):
            FaultInjector(plan, kinds=("bogus",))


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5)
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.2)
        assert policy.delay_s(3) == pytest.approx(0.4)
        assert policy.delay_s(4) == pytest.approx(0.5)  # capped
        assert policy.delay_s(10) == pytest.approx(0.5)

    def test_exhaustion(self):
        policy = RetryPolicy(max_retries=2)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay_s=-0.1)
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay_s=1.0, max_delay_s=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy().delay_s(0)


class TestServingCrashRecovery:
    """Chaos smoke: the engine absorbs lane crashes (tier-1 fast config)."""

    def _workload(self):
        return poisson_workload(rate_rps=6, duration_s=10, seed=4)

    def test_empty_plan_is_bit_identical(self):
        base = self._workload()
        injected = copy.deepcopy(base)
        ServingEngine(ContinuousBatchScheduler(max_batch=32)).run(base)
        engine = ServingEngine(
            ContinuousBatchScheduler(max_batch=32),
            faults=FaultPlan.empty(),
            retry=RetryPolicy(),
        )
        engine.run(injected)
        for a, b in zip(base, injected):
            assert a.token_times == b.token_times
            assert a.finished_s == b.finished_s
        assert engine.retries == 0 and engine.rejected == 0

    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda: ContinuousBatchScheduler(max_batch=32),
            lambda: ContinuousBatchScheduler(max_batch=32, chunk_tokens=128),
            lambda: ShortestJobFirstScheduler(max_batch=32, chunk_tokens=128),
            lambda: StaticBatchScheduler(batch_size=8),
        ],
    )
    def test_crash_recovery_completes_every_request(self, policy_factory):
        requests = self._workload()
        plan = FaultPlan([FaultEvent(at_s=2.0, kind=GPU_CRASH, duration_s=0.5)])
        engine = ServingEngine(policy_factory(), faults=plan, retry=RetryPolicy())
        engine.run(requests)
        report = summarize(requests)
        assert report.completed == len(requests)  # nobody lost
        assert engine.retries > 0
        assert report.mean_retries > 0
        assert engine.downtime_s == pytest.approx(0.5)
        assert len(engine.fault_log) == 1
        # Restarted requests still have strictly increasing token timelines.
        for r in requests:
            assert all(b >= a for a, b in zip(r.token_times, r.token_times[1:]))
            assert r.finished_s >= r.arrival_s

    def test_crash_recovery_with_paged_allocator(self):
        requests = self._workload()
        plan = FaultPlan([FaultEvent(at_s=2.0, kind=GPU_CRASH)])
        engine = ServingEngine(
            ContinuousBatchScheduler(max_batch=16),
            allocator=PagedAllocator(30_000, block_size=16),
            faults=plan,
            retry=RetryPolicy(),
        )
        engine.run(requests)
        assert summarize(requests).completed == len(requests)
        # All KV was freed on crash and again at completion: nothing leaks.
        assert engine.allocator.stats.reserved_tokens == 0

    def test_crash_inflates_latency_not_loses_requests(self):
        base = self._workload()
        injected = copy.deepcopy(base)
        ServingEngine(ContinuousBatchScheduler(max_batch=32)).run(base)
        ServingEngine(
            ContinuousBatchScheduler(max_batch=32),
            faults=FaultPlan([FaultEvent(at_s=2.0, kind=GPU_CRASH, duration_s=1.0)]),
            retry=RetryPolicy(),
        ).run(injected)
        clean, chaotic = summarize(base), summarize(injected)
        assert chaotic.completed == clean.completed
        assert chaotic.makespan_s > clean.makespan_s

    def test_slo_aware_shedding_under_long_outage(self):
        requests = self._workload()
        plan = FaultPlan([FaultEvent(at_s=2.0, kind=GPU_CRASH, duration_s=3.0)])
        engine = ServingEngine(
            ContinuousBatchScheduler(max_batch=32),
            faults=plan,
            retry=RetryPolicy(),
            shed_slo=SLO(ttft_s=1.0),
        )
        engine.run(requests)
        report = summarize(requests)
        assert report.rejected > 0  # the outage backlog blew TTFT budgets
        assert report.completed + report.rejected == len(requests)
        assert engine.rejected == report.rejected
        for r in requests:
            assert r.rejected != r.done  # shed requests have no timeline

    def test_retry_budget_exhaustion_sheds(self):
        requests = poisson_workload(rate_rps=4, duration_s=5, seed=4)
        # Crash storm with a zero-retry budget: every in-flight request at
        # each crash is dropped rather than retried forever.
        plan = FaultPlan(
            [FaultEvent(at_s=0.5 * k, kind=GPU_CRASH) for k in range(1, 20)]
        )
        engine = ServingEngine(
            ContinuousBatchScheduler(max_batch=32),
            faults=plan,
            retry=RetryPolicy(max_retries=0),
        )
        engine.run(requests)
        report = summarize(requests)
        assert report.rejected > 0
        assert report.completed + report.rejected == len(requests)

    def test_static_batch_drains_between_crashes(self):
        requests = self._workload()
        plan = FaultPlan([FaultEvent(at_s=4.0, kind=GPU_CRASH)])
        engine = ServingEngine(StaticBatchScheduler(batch_size=4), faults=plan)
        engine.run(requests)
        assert summarize(requests).completed == len(requests)


class TestDisaggregationFaults:
    def _workload(self):
        return poisson_workload(rate_rps=8, duration_s=10, seed=4)

    def _run(self, **kwargs):
        """A 2+2 DisaggEngineFleet run: the fleet and its served requests."""

        def engine():
            return ServingEngine(ContinuousBatchScheduler(max_batch=64))

        fleet = DisaggEngineFleet(engine, 2, 2, **kwargs)
        return fleet, fleet.run(self._workload())

    def test_empty_plan_is_bit_identical(self):
        _, base = self._run()
        _, injected = self._run(faults=FaultPlan.empty())
        assert summarize(base) == summarize(injected)
        assert [(r.handoff_s, r.token_times, r.finished_s) for r in base] == [
            (r.handoff_s, r.token_times, r.finished_s) for r in injected
        ]

    def test_failed_ship_falls_back_to_reprefill(self):
        plan = FaultPlan(
            [FaultEvent(at_s=0.0, kind=KV_TRANSFER_FAIL, duration_s=100.0)]
        )
        _, base_reqs = self._run()
        fleet, faulty_reqs = self._run(faults=plan)
        base, faulty = summarize(base_reqs), summarize(faulty_reqs)
        # Nothing silently completes for free: every request still finishes,
        # but pays the re-prefill on the decode pool.
        assert faulty.completed == base.completed == faulty.requests
        assert faulty.mean_retries == 1.0  # every ship failed exactly once
        assert fleet.reprefills == faulty.requests
        assert not any(r.kv_shipped for r in faulty_reqs)
        assert faulty.makespan_s > base.makespan_s
        assert faulty.tbt_p99 > base.tbt_p99

    def test_degraded_window_stretches_transfer(self):
        # A deliberately slow link so the 10x degradation dominates TBT.
        slow_link = TransferModel(bandwidth=5e8, overlap=0.0)
        plan = FaultPlan(
            [FaultEvent(at_s=0.0, kind=KV_DEGRADED, duration_s=100.0, severity=0.1)]
        )
        base = summarize(self._run(transfer=slow_link)[1])
        degraded = summarize(self._run(transfer=slow_link, faults=plan)[1])
        assert degraded.completed == base.completed
        assert degraded.mean_retries == 0.0  # slow, but no failures
        # The transfer stall is each request's single worst gap, so the
        # degradation shows up in max-TBT (tbt_p99 averages over all gaps).
        assert degraded.max_tbt_p99 > base.max_tbt_p99

    def test_targeted_transfer_failure_only_hits_its_request(self):
        victim = self._workload()[0].request_id
        plan = FaultPlan(
            [
                FaultEvent(
                    at_s=0.0,
                    kind=KV_TRANSFER_FAIL,
                    duration_s=100.0,
                    target=victim,
                )
            ]
        )
        fleet, requests = self._run(faults=plan)
        report = summarize(requests)
        assert report.completed == report.requests
        assert report.mean_retries == pytest.approx(1.0 / report.requests)
        assert fleet.reprefills == 1
        assert [r.request_id for r in requests if r.retries] == [victim]


class TestTrainingRankDeath:
    def _make(self, faults, *, checkpoint_every_steps=50):
        cluster = ClusterSpec(num_nodes=1, gpus_per_node=8, mtbf_hours=10_000)
        return TrainingRun(
            get_model_spec("tiny-125m"),
            ParallelConfig(strategy="zero2", dp=8),
            cluster,
            checkpoint_every_steps=checkpoint_every_steps,
            restart_cost_s=30.0,
            seed=1,
            faults=faults,
        )

    def test_empty_plan_matches_failure_free_cluster(self):
        clean = self._make(None)  # mtbf 10k hours: no failures in horizon
        injected = self._make(FaultPlan.empty())
        result_clean, result_injected = clean.run(200), injected.run(200)
        assert result_clean == result_injected
        assert result_injected.restarts == 0
        assert states_equal(clean.state, injected.state)

    def test_rank_death_restores_bit_exact_state(self):
        clean = self._make(FaultPlan.empty())
        reference = clean.run(200)
        step_s = clean.step_time_s
        plan = FaultPlan(
            [
                FaultEvent(at_s=step_s * 60, kind=RANK_DEATH),
                FaultEvent(at_s=step_s * 110 + 31.0, kind=RANK_DEATH),
            ]
        )
        faulty = self._make(plan)
        result = faulty.run(200)
        assert result.restarts == 2
        assert result.steps_completed == reference.steps_completed == 200
        assert result.goodput < reference.goodput
        # The recovery actually reloaded checkpoints and replayed: the final
        # training state is bit-identical to the never-crashed run.
        assert states_equal(clean.state, faulty.state)

    def test_injected_deaths_cost_goodput_proportionally(self):
        step_s = self._make(FaultPlan.empty()).step_time_s
        one = self._make(FaultPlan([FaultEvent(at_s=step_s * 60, kind=RANK_DEATH)]))
        many = self._make(
            FaultPlan(
                [
                    FaultEvent(at_s=step_s * 60, kind=RANK_DEATH),
                    FaultEvent(at_s=step_s * 110 + 31.0, kind=RANK_DEATH),
                    FaultEvent(at_s=step_s * 160 + 62.0, kind=RANK_DEATH),
                ]
            )
        )
        result_one, result_many = one.run(200), many.run(200)
        assert result_many.restarts > result_one.restarts
        assert result_many.goodput < result_one.goodput
