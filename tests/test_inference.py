"""Tests for the serving simulator: KV allocators, schedulers, caches."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CacheError, ConfigError, SchedulerError, WorkloadError
from repro.inference import (
    SLO,
    ContinuousBatchScheduler,
    DependencyTreePolicy,
    DisaggEngineFleet,
    EngineFleet,
    IterationCost,
    KVEntryCache,
    LeastLoadedRouter,
    LFUPolicy,
    LRUPolicy,
    PagedAllocator,
    PrefixCacheSimulator,
    Request,
    ReservedAllocator,
    ServingEngine,
    StaticBatchScheduler,
    TransferModel,
    multi_turn_workload,
    poisson_workload,
    shared_prefix_workload,
    simulate_multiturn,
    summarize,
    sweep_splits,
)
from repro.inference.attention_store import AttentionStore, Tier


class TestRequest:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            Request("r", 0.0, prompt_tokens=0, output_tokens=5)
        with pytest.raises(WorkloadError):
            Request("r", 0.0, prompt_tokens=5, output_tokens=5, prefix_tokens=9)

    def test_timeline_metrics(self):
        request = Request("r", arrival_s=1.0, prompt_tokens=10, output_tokens=3)
        request.first_token_s = 1.5
        request.token_times = [1.5, 1.6, 1.8]
        request.finished_s = 1.8
        assert request.ttft == pytest.approx(0.5)
        assert request.tbt_values == pytest.approx([0.1, 0.2])
        assert request.max_tbt == pytest.approx(0.2)
        assert request.latency == pytest.approx(0.8)

    def test_slo_attainment(self):
        request = Request("r", arrival_s=0.0, prompt_tokens=10, output_tokens=2)
        request.first_token_s = 0.5
        request.token_times = [0.5, 0.55]
        request.finished_s = 0.55
        assert SLO(ttft_s=1.0, tbt_s=0.1).attained(request)
        assert not SLO(ttft_s=0.1, tbt_s=0.1).attained(request)


class TestWorkloads:
    def test_poisson_rate(self):
        requests = poisson_workload(rate_rps=10, duration_s=100, seed=1)
        assert 700 <= len(requests) <= 1300
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)

    def test_poisson_validation(self):
        with pytest.raises(WorkloadError):
            poisson_workload(rate_rps=0, duration_s=10)

    def test_shared_prefix_structure(self):
        requests = shared_prefix_workload(
            rate_rps=5, duration_s=30, num_prefixes=3, prefix_tokens=100, seed=2
        )
        assert {r.prefix_id for r in requests} <= {f"prefix-{i}" for i in range(3)}
        assert all(r.prefix_tokens == 100 for r in requests)
        assert all(r.prompt_tokens > 100 for r in requests)

    def test_multi_turn_history_grows(self):
        requests = multi_turn_workload(
            num_conversations=5, turns_per_conversation=4, seed=3
        )
        by_conv = {}
        for r in requests:
            by_conv.setdefault(r.conversation_id, []).append(r)
        for turns in by_conv.values():
            turns.sort(key=lambda r: r.turn_index)
            prompts = [t.prompt_tokens for t in turns]
            assert prompts == sorted(prompts)
            assert turns[0].prefix_tokens == 0
            assert all(t.prefix_tokens > 0 for t in turns[1:])


class TestIterationCost:
    def test_zero_work_zero_time(self):
        assert IterationCost().time(0, 0) == 0.0

    def test_prefill_dominates_long_prompts(self):
        cost = IterationCost()
        assert cost.time(4096, 0) > cost.time(0, 64)


class TestAllocators:
    def test_reserved_waste(self):
        alloc = ReservedAllocator(10_000, max_seq_len=1000)
        alloc.admit("a", 100)
        assert alloc.stats.reserved_tokens == 1000
        assert alloc.stats.used_tokens == 100

    def test_reserved_capacity_limits_admissions(self):
        alloc = ReservedAllocator(2000, max_seq_len=1000)
        alloc.admit("a", 10)
        alloc.admit("b", 10)
        assert not alloc.can_admit("c", 10)

    def test_reserved_overflow_rejected(self):
        alloc = ReservedAllocator(5000, max_seq_len=100)
        alloc.admit("a", 99)
        alloc.append("a", 1)
        with pytest.raises(CacheError):
            alloc.append("a", 1)

    def test_paged_allocates_on_demand(self):
        alloc = PagedAllocator(1600, block_size=16)
        alloc.admit("a", 20)
        assert alloc.stats.reserved_tokens == 32  # two blocks
        alloc.append("a", 12)
        assert alloc.stats.reserved_tokens == 32
        alloc.append("a", 1)
        assert alloc.stats.reserved_tokens == 48

    def test_paged_release_frees(self):
        alloc = PagedAllocator(320, block_size=16)
        alloc.admit("a", 100)
        used = alloc.free_blocks()
        alloc.release("a")
        assert alloc.free_blocks() > used

    def test_paged_out_of_blocks(self):
        alloc = PagedAllocator(64, block_size=16)
        alloc.admit("a", 60)
        with pytest.raises(CacheError):
            alloc.admit("b", 60)

    def test_paged_prefix_sharing_saves_blocks(self):
        alloc = PagedAllocator(3200, block_size=16)
        alloc.admit("seed", 320)
        # Register the first 320 tokens as a named prefix.
        seq = alloc._sequences["seed"]
        alloc.register_prefix("sys", list(seq.blocks), 320)
        alloc.release("seed")
        before = alloc.free_blocks()
        cached = alloc.admit("a", 400, prefix_id="sys", prefix_tokens=320)
        assert cached == 320
        # Only the non-shared remainder allocated new blocks.
        assert before - alloc.free_blocks() == -(-80 // 16)
        assert alloc.stats.shared_saved_tokens == 320

    def test_paged_shared_blocks_not_overwritten(self):
        alloc = PagedAllocator(3200, block_size=16)
        alloc.admit("seed", 320)
        seq = alloc._sequences["seed"]
        alloc.register_prefix("sys", list(seq.blocks), 320)
        alloc.release("seed")
        alloc.admit("a", 320, prefix_id="sys", prefix_tokens=320)
        free_before = alloc.free_blocks()
        alloc.append("a", 1)  # must open a fresh block, not touch shared
        assert alloc.free_blocks() == free_before - 1

    def test_paged_double_admit_rejected(self):
        alloc = PagedAllocator(640, block_size=16)
        alloc.admit("a", 10)
        with pytest.raises(CacheError):
            alloc.admit("a", 10)

    def test_drop_prefix_releases(self):
        alloc = PagedAllocator(640, block_size=16)
        alloc.admit("seed", 160)
        seq = alloc._sequences["seed"]
        alloc.register_prefix("p", list(seq.blocks), 160)
        alloc.release("seed")
        assert alloc.prefix_ids() == ["p"]
        alloc.drop_prefix("p")
        assert alloc.free_blocks() == alloc.num_blocks


class TestSchedulers:
    @pytest.fixture(scope="class")
    def workload(self):
        return poisson_workload(rate_rps=6, duration_s=30, seed=4)

    def _run(self, scheduler, workload, **engine_kw):
        requests = copy.deepcopy(workload)
        ServingEngine(scheduler, **engine_kw).run(requests)
        return requests

    def test_all_requests_complete(self, workload):
        for scheduler in (
            StaticBatchScheduler(batch_size=8),
            ContinuousBatchScheduler(max_batch=32),
            ContinuousBatchScheduler(max_batch=32, chunk_tokens=256),
        ):
            done = self._run(scheduler, workload)
            assert all(r.done for r in done)

    def test_timelines_monotone(self, workload):
        done = self._run(ContinuousBatchScheduler(max_batch=32), workload)
        for r in done:
            assert r.admitted_s >= r.arrival_s
            assert r.first_token_s >= r.admitted_s
            assert r.finished_s >= r.first_token_s
            assert r.token_times == sorted(r.token_times)
            assert len(r.token_times) == r.output_tokens

    def test_continuous_beats_static_throughput(self, workload):
        static = summarize(self._run(StaticBatchScheduler(batch_size=8), workload))
        continuous = summarize(self._run(ContinuousBatchScheduler(max_batch=32), workload))
        assert continuous.throughput_rps > static.throughput_rps
        assert continuous.ttft_p50 < static.ttft_p50

    def test_chunked_prefill_cuts_tbt(self, workload):
        plain = summarize(self._run(ContinuousBatchScheduler(max_batch=32), workload))
        chunked = summarize(
            self._run(ContinuousBatchScheduler(max_batch=32, chunk_tokens=128), workload)
        )
        assert chunked.max_tbt_p99 < plain.max_tbt_p99
        assert chunked.ttft_p50 >= plain.ttft_p50 * 0.9  # small TTFT cost

    def test_scheduler_validation(self):
        with pytest.raises(SchedulerError):
            StaticBatchScheduler(batch_size=0)
        with pytest.raises(SchedulerError):
            ContinuousBatchScheduler(max_batch=32, chunk_tokens=0)

    def test_paged_admits_more_than_reserved(self, workload):
        capacity = 60_000
        reserved_reqs = self._run(
            ContinuousBatchScheduler(max_batch=64),
            workload,
            allocator=ReservedAllocator(capacity, max_seq_len=9216),
        )
        paged_reqs = self._run(
            ContinuousBatchScheduler(max_batch=64),
            workload,
            allocator=PagedAllocator(capacity, block_size=16),
        )
        assert summarize(paged_reqs).ttft_p99 < summarize(reserved_reqs).ttft_p99

    def test_preemption_under_pressure(self):
        # Tiny KV forces preemptions; everything must still complete.
        requests = poisson_workload(rate_rps=12, duration_s=10, seed=5)
        engine = ServingEngine(
            ContinuousBatchScheduler(max_batch=16),
            allocator=PagedAllocator(9000, block_size=16),
        )
        engine.run(requests)
        assert all(r.done for r in requests)
        assert sum(r.preemptions for r in requests) > 0


class TestMetrics:
    def test_summarize_empty(self):
        report = summarize([])
        assert report.completed == 0
        assert report.slo_attainment == 0.0

    def test_row_keys(self):
        requests = poisson_workload(rate_rps=5, duration_s=10, seed=6)
        ServingEngine(ContinuousBatchScheduler()).run(requests)
        row = summarize(requests).row()
        assert "goodput_rps" in row and "ttft_p99_s" in row


def _engine():
    return ServingEngine(ContinuousBatchScheduler(max_batch=64))


def _colocated(gpus):
    return EngineFleet(_engine, gpus, LeastLoadedRouter())


def _serve(fleet, requests, slo=None):
    """Run ``fleet`` on a private copy of ``requests``; summarize it."""
    work = copy.deepcopy(list(requests))
    fleet.run(work)
    return summarize(work, slo=slo)


class TestDisaggregation:
    @pytest.fixture(scope="class")
    def workload(self):
        return poisson_workload(rate_rps=12, duration_s=20, seed=7)

    def test_disaggregation_improves_goodput(self, workload):
        slo = SLO(ttft_s=1.0, tbt_s=0.04)
        colo = _serve(_colocated(4), workload, slo)
        disagg = _serve(DisaggEngineFleet(_engine, 2, 2), workload, slo)
        assert disagg.goodput_rps > colo.goodput_rps
        assert disagg.tbt_p99 < colo.tbt_p99

    def test_sweep_covers_all_splits(self, workload):
        results = sweep_splits(workload, 4)
        names = [name for name, _ in results]
        assert names == ["colocated", "disagg-1p3d", "disagg-2p2d", "disagg-3p1d"]

    def test_sweep_validation(self, workload):
        with pytest.raises(ConfigError):
            sweep_splits(workload, 1)

    def test_gpu_count_validation(self, workload):
        with pytest.raises(ConfigError):
            _colocated(0)
        for prefill, decode in ((0, 2), (2, 0)):
            with pytest.raises(ConfigError):
                DisaggEngineFleet(_engine, prefill, decode)


class TestTransferModelValidation:
    def test_defaults_valid(self):
        model = TransferModel()
        assert model.visible_delay(100) >= 0.0

    @pytest.mark.parametrize("overlap", [-0.1, 1.1, 2.0, -5.0])
    def test_overlap_out_of_range(self, overlap):
        with pytest.raises(ConfigError):
            TransferModel(overlap=overlap)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, -50e9])
    def test_non_positive_bandwidth(self, bandwidth):
        with pytest.raises(ConfigError):
            TransferModel(bandwidth=bandwidth)

    @pytest.mark.parametrize("bytes_per_token", [0.0, -160_000.0])
    def test_non_positive_bytes_per_token(self, bytes_per_token):
        with pytest.raises(ConfigError):
            TransferModel(bytes_per_token=bytes_per_token)

    def test_boundary_overlaps_allowed(self):
        # Full overlap hides the whole transfer; zero overlap hides nothing.
        assert TransferModel(overlap=1.0).visible_delay(100) == 0.0
        full = TransferModel(overlap=0.0)
        assert full.visible_delay(100) == full.raw_delay(100)


class TestDisaggregationEdgeCases:
    """More engines than requests => idle engines; they must be no-ops."""

    def test_more_gpus_than_requests_colocated(self):
        requests = poisson_workload(rate_rps=1, duration_s=2, seed=9)
        assert 0 < len(requests) < 8
        report = _serve(_colocated(8), requests)
        assert report.completed == len(requests)

    def test_more_gpus_than_requests_disaggregated(self):
        requests = poisson_workload(rate_rps=1, duration_s=2, seed=9)
        assert 0 < len(requests) < 8
        report = _serve(DisaggEngineFleet(_engine, 8, 8), requests)
        assert report.completed == len(requests)

    def test_zero_requests_engine_run(self):
        engine = ServingEngine(ContinuousBatchScheduler())
        engine.run([])
        assert engine.iterations == 0 and engine.now == 0.0

    def test_zero_requests_colocated(self):
        report = _serve(_colocated(2), [])
        assert report.completed == 0
        assert report.goodput_rps == 0.0

    def test_zero_requests_disaggregated(self):
        report = _serve(DisaggEngineFleet(_engine, 1, 1), [])
        assert report.completed == 0
        # Empty runs report infinite latency (nothing finished), zero goodput.
        assert report.ttft_p99 == float("inf") and report.goodput_rps == 0.0

    def test_zero_requests_sweep(self):
        results = sweep_splits([], 3)
        assert [name for name, _ in results] == [
            "colocated",
            "disagg-1p2d",
            "disagg-2p1d",
        ]
        assert all(report.completed == 0 for _, report in results)

    def test_summarize_guards_never_raise(self):
        # No completed requests at all: every percentile/mean guard kicks in.
        never_run = [Request(request_id=0, arrival_s=0.0, prompt_tokens=8, output_tokens=4)]
        report = summarize(never_run)
        assert report.completed == 0 and report.mean_retries == 0.0
        assert report.row()["goodput_rps"] == 0.0
        assert report.ttft_p95 == float("inf") and report.tbt_p95 == float("inf")


class TestServingPercentiles:
    """The full p50/p95/p99 ladder for TTFT and TBT on crafted timelines."""

    @staticmethod
    def _served(i, ttft, gaps):
        r = Request(
            request_id=f"r{i}", arrival_s=0.0,
            prompt_tokens=8, output_tokens=len(gaps) + 1,
        )
        r.admitted_s = 0.0
        times = [ttft]
        for gap in gaps:
            times.append(times[-1] + gap)
        r.first_token_s = ttft
        r.token_times = times
        r.finished_s = times[-1]
        return r

    def test_ttft_percentiles_match_reference(self):
        from repro.utils import percentile

        ttfts = [0.01 * (i + 1) for i in range(100)]
        requests = [self._served(i, t, [0.005]) for i, t in enumerate(ttfts)]
        report = summarize(requests)
        assert report.ttft_p50 == percentile(ttfts, 50)
        assert report.ttft_p95 == percentile(ttfts, 95)
        assert report.ttft_p99 == percentile(ttfts, 99)
        assert report.ttft_p50 <= report.ttft_p95 <= report.ttft_p99

    def test_tbt_percentiles_match_reference(self):
        from repro.utils import percentile

        # Request i streams with a constant gap of (i+1) ms between tokens.
        requests = [
            self._served(i, 0.1, [0.001 * (i + 1)] * 4) for i in range(50)
        ]
        gaps = [g for r in requests for g in r.tbt_values]
        report = summarize(requests)
        assert report.tbt_p50 == percentile(gaps, 50)
        assert report.tbt_p95 == percentile(gaps, 95)
        assert report.tbt_p99 == percentile(gaps, 99)
        assert report.tbt_p50 <= report.tbt_p95 <= report.tbt_p99

    def test_row_carries_the_ladder(self):
        requests = [self._served(0, 0.2, [0.01, 0.02])]
        row = summarize(requests).row()
        for key in ("ttft_p50_s", "ttft_p95_s", "ttft_p99_s", "tbt_p95_s", "tbt_p99_s"):
            assert key in row


class TestEvictionPolicies:
    def test_lru_evicts_oldest(self):
        cache = KVEntryCache(100, LRUPolicy())
        cache.insert("a", 50, now=1.0)
        cache.insert("b", 50, now=2.0)
        cache.insert("c", 50, now=3.0)  # evicts a
        assert "a" not in cache and "b" in cache and "c" in cache

    def test_lfu_protects_frequent(self):
        cache = KVEntryCache(100, LFUPolicy())
        cache.insert("hot", 50, now=1.0)
        for t in range(10):
            cache.lookup("hot", now=2.0 + t)
        cache.insert("cold", 50, now=20.0)
        cache.insert("new", 50, now=21.0)  # must evict cold, not hot
        assert "hot" in cache and "cold" not in cache

    def test_dependency_tree_evicts_leaves_first(self):
        cache = KVEntryCache(150, DependencyTreePolicy())
        cache.insert("root", 50, now=1.0)
        cache.insert("leaf1", 50, parent="root", now=2.0)
        cache.insert("leaf2", 50, parent="root", now=3.0)
        cache.lookup("leaf1", now=4.0)  # leaf1 recent, root older by last_used
        cache.insert("new", 50, now=5.0)
        # A leaf goes first even though root is least-recently *directly* used.
        assert "root" in cache

    def test_oversized_entry_rejected(self):
        with pytest.raises(CacheError):
            KVEntryCache(10, LRUPolicy()).insert("big", 100)

    def test_hit_rate_accounting(self):
        cache = KVEntryCache(100, LRUPolicy())
        cache.insert("a", 10)
        cache.lookup("a")
        cache.lookup("missing")
        assert cache.metrics.hits == 1 and cache.metrics.misses == 1
        assert cache.metrics.hit_rate == pytest.approx(0.5)


class TestPrefixCache:
    def test_hits_cut_ttft(self):
        workload = shared_prefix_workload(
            rate_rps=5, duration_s=40, num_prefixes=3, prefix_tokens=600, seed=8
        )
        report = PrefixCacheSimulator(capacity_tokens=8192).replay(workload)
        assert report.hit_rate > 0.8
        assert report.ttft_speedup > 1.5
        assert 0 < report.cached_token_fraction < 1

    def test_block_granularity_rounds_down(self):
        request = Request(
            "r", 0.0, prompt_tokens=130, output_tokens=5,
            prefix_id="p", prefix_tokens=100,
        )
        warm = Request(
            "w", 0.0, prompt_tokens=100, output_tokens=5,
            prefix_id="p", prefix_tokens=100,
        )
        sim = PrefixCacheSimulator(capacity_tokens=4096, block_tokens=64)
        sim.replay([warm, request])
        # 100 cached tokens -> only one 64-token block reusable.
        assert sim.cache.metrics.tokens_recomputed >= 130 - 64

    def test_capacity_pressure_evicts(self):
        workload = shared_prefix_workload(
            rate_rps=5, duration_s=40, num_prefixes=8, prefix_tokens=500, seed=9
        )
        report = PrefixCacheSimulator(capacity_tokens=1024).replay(workload)
        assert report.evictions > 0
        big = PrefixCacheSimulator(capacity_tokens=65536).replay(workload)
        assert big.hit_rate > report.hit_rate


class TestAttentionStore:
    def test_save_fetch_roundtrip(self):
        store = AttentionStore()
        store.save("conv", 1000, now=1.0)
        tokens, transfer = store.fetch("conv")
        assert tokens == 1000 and transfer > 0

    def test_demotion_to_lower_tier(self):
        tiers = (
            Tier("hbm", capacity_tokens=1000, read_bw_tokens_s=1e6, write_bw_tokens_s=1e6),
            Tier("dram", capacity_tokens=10_000, read_bw_tokens_s=1e5, write_bw_tokens_s=1e5),
        )
        store = AttentionStore(tiers)
        store.save("a", 800, now=1.0)
        store.save("b", 800, now=2.0)  # displaces a to dram
        hbm_used, dram_used = store._tier_used
        assert hbm_used <= 1000
        assert dram_used >= 800
        _, transfer_a = store.fetch("a")
        _, transfer_b = store.fetch("b")
        assert transfer_a > transfer_b  # a reads from the slower tier

    def test_overflow_drops_session(self):
        tiers = (Tier("hbm", capacity_tokens=500, read_bw_tokens_s=1e6, write_bw_tokens_s=1e6),)
        store = AttentionStore(tiers)
        store.save("a", 400, now=1.0)
        store.save("b", 400, now=2.0)
        assert store.fetch("a") is None  # fell off the single-tier hierarchy

    def test_store_beats_recompute(self):
        workload = multi_turn_workload(num_conversations=20, turns_per_conversation=4, seed=11)
        recompute = simulate_multiturn(workload, strategy="recompute")
        stored = simulate_multiturn(workload, strategy="store")
        assert stored.followup_mean_ttft_s < recompute.followup_mean_ttft_s
        assert stored.tokens_recomputed < recompute.tokens_recomputed
        assert stored.hit_rate > 0.8

    def test_overlap_and_prefetch_help_on_slow_tiers(self):
        slow_tiers = (
            Tier("hbm", capacity_tokens=2000, read_bw_tokens_s=1e6, write_bw_tokens_s=1e6),
            Tier("ssd", capacity_tokens=10_000_000, read_bw_tokens_s=20_000, write_bw_tokens_s=40_000),
        )
        workload = multi_turn_workload(num_conversations=25, turns_per_conversation=4, seed=12)
        plain = simulate_multiturn(workload, strategy="store", tiers=slow_tiers)
        overlapped = simulate_multiturn(
            workload, strategy="store", tiers=slow_tiers, overlap=0.9, prefetch_lead_s=1.0
        )
        assert overlapped.followup_mean_ttft_s < plain.followup_mean_ttft_s

    def test_strategy_validation(self):
        workload = multi_turn_workload(num_conversations=2, seed=13)
        with pytest.raises(ConfigError):
            simulate_multiturn(workload, strategy="teleport")
        with pytest.raises(ConfigError):
            simulate_multiturn(workload, overlap=1.5)
