"""Golden-metric regression tests for the serving-engine hot-path overhaul.

The scheduler refactor (deque admission, incremental prefill/decode sets,
SJF heap, batched KV appends, O(1) allocator accounting) is a *mechanical*
speedup: the simulated trajectory must not move by one ULP. These goldens
were captured from the pre-refactor engine on fixed seeded workloads with
``repr()`` precision and are asserted with exact equality — any drift means
the optimization changed semantics, not just speed.
"""

from __future__ import annotations

import copy

import pytest

from repro.faults import GPU_CRASH, FaultPlan, RetryPolicy
from repro.inference import (
    SLO,
    ContinuousBatchScheduler,
    PagedAllocator,
    ReservedAllocator,
    ServingEngine,
    ShortestJobFirstScheduler,
    StaticBatchScheduler,
    poisson_workload,
    shared_prefix_workload,
    summarize,
)

# Captured from the pre-overhaul engine (repr precision, exact-equality keys).
GOLDEN = {
    "static_w1": {
        "completed": 183,
        "throughput_rps": 3.1255401377422394,
        "ttft_p50": 13.007691814621044,
        "ttft_p99": 27.189572028040484,
        "tbt_p50": 0.007500000000000284,
        "tbt_p99": 0.008000000000002672,
        "max_tbt_p99": 0.008000000000002672,
        "mean_preemptions": 0.0,
        "prefix_hit_rate": 0.0,
        "iterations": 6629,
        "now": 58.597344422598084,
        "busy_s": 58.54988000000269,
    },
    "continuous_w1": {
        "completed": 183,
        "throughput_rps": 5.606294735474747,
        "ttft_p50": 0.09782984920178972,
        "ttft_p99": 0.5158768119364723,
        "tbt_p50": 0.009249999999999758,
        "tbt_p99": 0.15853679999999248,
        "max_tbt_p99": 0.3644499999999997,
        "mean_preemptions": 0.0,
        "prefix_hit_rate": 0.0,
        "iterations": 2311,
        "now": 32.68934442259567,
        "busy_s": 32.64188000000031,
    },
    "chunked_w1": {
        "completed": 183,
        "throughput_rps": 5.596008547520771,
        "ttft_p50": 0.14001723247201525,
        "ttft_p99": 0.5636233314273449,
        "tbt_p50": 0.009499999999999176,
        "tbt_p99": 0.04041000000000139,
        "max_tbt_p99": 0.04116000000000142,
        "mean_preemptions": 0.0,
        "prefix_hit_rate": 0.0,
        "iterations": 2321,
        "now": 32.74934442259565,
        "busy_s": 32.70188000000028,
    },
    "sjf_w1": {
        "completed": 183,
        "throughput_rps": 5.542115840517851,
        "ttft_p50": 0.1304077865181128,
        "ttft_p99": 1.7746462689970792,
        "tbt_p50": 0.010569999999999524,
        "tbt_p99": 0.02633000000000152,
        "max_tbt_p99": 0.02657999999999916,
        "mean_preemptions": 0.0,
        "prefix_hit_rate": 0.0,
        "iterations": 2374,
        "now": 33.067344422595646,
        "busy_s": 33.019880000000285,
    },
    "continuous_paged_pressure_w2": {
        "completed": 134,
        "throughput_rps": 4.731579941632056,
        "ttft_p50": 6.276250758898366,
        "ttft_p99": 15.617351751497552,
        "tbt_p50": 0.009000000000000341,
        "tbt_p99": 0.15168999999999855,
        "max_tbt_p99": 1.1972056000000046,
        "mean_preemptions": 0.2462686567164179,
        "prefix_hit_rate": 0.0,
        "iterations": 1930,
        "now": 28.348369457520814,
        "busy_s": 28.32035000000013,
        "mean_waste": 0.010489567433529356,
        "peak_reserved": 8992,
        "shared_saved": 0,
    },
    "sjf_paged_pressure_w2": {
        "completed": 134,
        "throughput_rps": 4.682091245572497,
        "ttft_p50": 6.425911159932365,
        "ttft_p99": 15.87629188193843,
        "tbt_p50": 0.009249999999999758,
        "tbt_p99": 0.03766000000000069,
        "max_tbt_p99": 1.6713284000000228,
        "mean_preemptions": 0.27611940298507465,
        "prefix_hit_rate": 0.0,
        "iterations": 1994,
        "now": 28.647709457520957,
        "busy_s": 28.61969000000027,
        "mean_waste": 0.010389283064318855,
        "peak_reserved": 8992,
        "shared_saved": 0,
    },
    "chunked_paged_prefix_w3": {
        "completed": 133,
        "throughput_rps": 5.666697627570874,
        "ttft_p50": 0.07878636858506338,
        "ttft_p99": 0.20219758520159917,
        "tbt_p50": 0.00975000000000037,
        "tbt_p99": 0.033370000000001454,
        "max_tbt_p99": 0.03412000000000148,
        "mean_preemptions": 0.0,
        "prefix_hit_rate": 0.0,
        "iterations": 2197,
        "now": 23.537754785914476,
        "busy_s": 23.470460000000514,
        "mean_waste": 0.014848190763876445,
        "peak_reserved": 69856,
        "shared_saved": 0,
    },
    # Captured before the one-pass append/retire step: E2's reservation
    # baseline (four max_seq_len reservations fit) and the fault path
    # (crash teardown, retry re-admission, SLO shedding, preemption).
    "continuous_reserved_pressure_w2": {
        "completed": 134,
        "throughput_rps": 2.906173536730841,
        "ttft_p50": 15.943148994704503,
        "ttft_p99": 34.70085175011733,
        "tbt_p50": 0.006999999999999673,
        "tbt_p99": 0.05690999999999846,
        "max_tbt_p99": 0.35545739999999865,
        "mean_preemptions": 0.0,
        "prefix_hit_rate": 0.0,
        "iterations": 5325,
        "now": 46.13675945751973,
        "busy_s": 46.108739999999045,
        "mean_waste": 0.9231432268146599,
        "peak_reserved": 36864,
        "shared_saved": 0,
    },
    "chunked_paged_crash_shed_w2": {
        "completed": 52,
        "throughput_rps": 2.8938353453350953,
        "ttft_p50": 6.062244162491401,
        "ttft_p99": 7.368149000230375,
        "tbt_p50": 0.009499999999999176,
        "tbt_p99": 0.03791000000000011,
        "max_tbt_p99": 0.5372424000000057,
        "mean_preemptions": 0.15384615384615385,
        "prefix_hit_rate": 0.0,
        "iterations": 980,
        "now": 18.72038377196766,
        "busy_s": 14.504130000000046,
        "mean_waste": 0.011371421196982867,
        "peak_reserved": 8992,
        "shared_saved": 0,
        "retries": 87,
        "rejected": 82,
        "crashes": 7,
    },
}


def _w1():
    return poisson_workload(rate_rps=6, duration_s=30, seed=4)


def _w2():
    return poisson_workload(rate_rps=12, duration_s=10, seed=5)


def _w3():
    return shared_prefix_workload(
        rate_rps=8, duration_s=20, num_prefixes=3, prefix_tokens=256, seed=11
    )


CASES = {
    "static_w1": (lambda: StaticBatchScheduler(batch_size=8), _w1, None, {}),
    "continuous_w1": (lambda: ContinuousBatchScheduler(max_batch=32), _w1, None, {}),
    "chunked_w1": (
        lambda: ContinuousBatchScheduler(max_batch=32, chunk_tokens=256),
        _w1,
        None,
        {},
    ),
    "sjf_w1": (
        lambda: ShortestJobFirstScheduler(max_batch=32, chunk_tokens=128),
        _w1,
        None,
        {},
    ),
    "continuous_paged_pressure_w2": (
        lambda: ContinuousBatchScheduler(max_batch=16),
        _w2,
        lambda: PagedAllocator(9000, block_size=16),
        {},
    ),
    "sjf_paged_pressure_w2": (
        lambda: ShortestJobFirstScheduler(max_batch=16, chunk_tokens=256),
        _w2,
        lambda: PagedAllocator(9000, block_size=16),
        {},
    ),
    "chunked_paged_prefix_w3": (
        lambda: ContinuousBatchScheduler(max_batch=32, chunk_tokens=192),
        _w3,
        lambda: PagedAllocator(120_000, block_size=16),
        {"keep_prefix_on_release": True},
    ),
    "continuous_reserved_pressure_w2": (
        lambda: ContinuousBatchScheduler(max_batch=16),
        _w2,
        lambda: ReservedAllocator(40_000, max_seq_len=9216),
        {},
    ),
    "chunked_paged_crash_shed_w2": (
        lambda: ContinuousBatchScheduler(max_batch=16, chunk_tokens=256),
        _w2,
        lambda: PagedAllocator(9000, block_size=16),
        {
            "faults": FaultPlan.seeded(
                seed=3,
                horizon_s=20.0,
                rates={GPU_CRASH: 0.3},
                mean_duration_s={GPU_CRASH: 0.5},
            ),
            "retry": RetryPolicy(),
            "shed_slo": SLO(ttft_s=6.0),
        },
    ),
}

#: Cases that already inject faults; the empty-plan check runs on the rest.
FAULTY = {"chunked_paged_crash_shed_w2"}


def _run_case(case, **extra_engine_kw):
    policy_factory, workload_factory, allocator_factory, engine_kw = CASES[case]
    requests = copy.deepcopy(workload_factory())
    engine = ServingEngine(
        policy_factory(),
        allocator=allocator_factory() if allocator_factory else None,
        **engine_kw,
        **extra_engine_kw,
    )
    engine.run(requests)
    return engine, summarize(requests)


def _observed(engine, report):
    got = {
        "completed": report.completed,
        "throughput_rps": report.throughput_rps,
        "ttft_p50": report.ttft_p50,
        "ttft_p99": report.ttft_p99,
        "tbt_p50": report.tbt_p50,
        "tbt_p99": report.tbt_p99,
        "max_tbt_p99": report.max_tbt_p99,
        "mean_preemptions": report.mean_preemptions,
        "prefix_hit_rate": report.prefix_hit_rate,
        "iterations": engine.iterations,
        "now": engine.now,
        "busy_s": engine.busy_s,
    }
    if engine.allocator is not None:
        got["mean_waste"] = engine.allocator.stats.mean_waste_fraction
        got["peak_reserved"] = engine.allocator.stats.peak_reserved
        got["shared_saved"] = engine.allocator.stats.shared_saved_tokens
    if engine.fault_log:
        got["retries"] = engine.retries
        got["rejected"] = engine.rejected
        got["crashes"] = len(engine.fault_log)
    return got


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_scheduler_output_is_bit_identical(case):
    engine, report = _run_case(case)
    expected = GOLDEN[case]
    got = _observed(engine, report)
    # Exact equality: a mechanical speedup must not move a single bit.
    assert got == expected


@pytest.mark.parametrize("case", sorted(set(GOLDEN) - FAULTY))
def test_empty_fault_plan_is_bit_identical(case):
    """Zero injected faults => the fault-aware engine changes nothing.

    The fault-injection wiring (retry queue, crash teardown, load shedding)
    must be completely dead when the plan is empty: same GOLDEN values, to
    the bit, with the injector armed.
    """
    engine, report = _run_case(
        case, faults=FaultPlan.empty(), retry=RetryPolicy()
    )
    assert _observed(engine, report) == GOLDEN[case]
    assert engine.retries == 0 and engine.rejected == 0 and engine.fault_log == []
