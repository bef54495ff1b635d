"""E24 — Deterministic fault injection & recovery (chaos testing the stack).

Claims under test: (a) a serving lane crash is *absorbed*: every in-flight
request is re-queued with its KV freed and eventually completes — goodput
degrades monotonically with the injected crash rate instead of falling off
a cliff; (b) a failed KV ship between the prefill and decode pools falls
back to re-prefilling on the decode pool, again with 100% completion;
(c) an injected training rank death restores a checkpoint whose replayed
state is bit-identical to a never-crashed run, and the Young-Daly interval
computed from the *injected* MTBF sits at the goodput optimum of a
checkpoint-frequency sweep.

Everything is driven by seeded :class:`repro.faults.FaultPlan` schedules,
so reruns reproduce the same crashes at the same simulated timestamps.
"""

import copy

from repro.faults import (
    GPU_CRASH,
    KV_DEGRADED,
    KV_TRANSFER_FAIL,
    RANK_DEATH,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
)
from repro.inference import (
    ContinuousBatchScheduler,
    DisaggEngineFleet,
    ServingEngine,
    TransferModel,
    poisson_workload,
    summarize,
)
from repro.training import (
    ClusterSpec,
    ParallelConfig,
    TrainingRun,
    get_model_spec,
    plan_frequency,
)
from repro.training.checkpoint import CheckpointEngine, make_state, states_equal

from ._util import attach, print_table, run_once

CRASH_RATES = [0.0, 0.1, 0.2, 0.3, 0.4]  # lane crashes per simulated second


def test_e24_serving_crash_recovery(benchmark):
    def experiment():
        base = poisson_workload(rate_rps=6, duration_s=30, seed=24)
        rows = []
        for rate in CRASH_RATES:
            requests = copy.deepcopy(base)
            plan = (
                FaultPlan.empty()
                if rate == 0.0
                else FaultPlan.seeded(
                    seed=24,
                    horizon_s=180.0,
                    rates={GPU_CRASH: rate},
                    mean_duration_s={GPU_CRASH: 0.5},
                )
            )
            engine = ServingEngine(
                ContinuousBatchScheduler(max_batch=32),
                faults=plan,
                retry=RetryPolicy(max_retries=25),
            )
            engine.run(requests)
            report = summarize(requests)
            rows.append(
                {
                    "crash_rate": rate,
                    "crashes": len(engine.fault_log),
                    "completed": report.completed,
                    "rejected": report.rejected,
                    "throughput_rps": report.throughput_rps,
                    "mean_retries": report.mean_retries,
                    "downtime_s": engine.downtime_s,
                }
            )
        return rows

    rows = run_once(benchmark, experiment)
    print_table("E24a: serving lane-crash recovery", rows)
    attach(benchmark, rows)
    total = rows[0]["completed"]
    # 100% completion after recovery at every injected crash rate.
    assert all(r["completed"] == total and r["rejected"] == 0 for r in rows)
    # Faults actually fired and were retried, not silently skipped.
    assert rows[-1]["crashes"] > rows[1]["crashes"] > 0
    assert rows[-1]["mean_retries"] > 0
    # Monotone, non-cliff degradation: throughput never increases with the
    # crash rate, and no single rate step loses more than 75% of it.
    for prev, curr in zip(rows, rows[1:]):
        assert curr["throughput_rps"] <= prev["throughput_rps"] + 1e-9
        assert curr["throughput_rps"] >= 0.25 * prev["throughput_rps"]


def test_e24_disaggregation_transfer_recovery(benchmark):
    def experiment():
        work = poisson_workload(rate_rps=10, duration_s=20, seed=24)
        transfer = TransferModel(bandwidth=5e8, overlap=0.5)

        def serve(**kwargs):
            def engine():
                return ServingEngine(ContinuousBatchScheduler(max_batch=64))

            requests = copy.deepcopy(work)
            DisaggEngineFleet(engine, 2, 2, transfer=transfer, **kwargs).run(requests)
            return summarize(requests)

        clean = serve()
        plan = FaultPlan.seeded(
            seed=24,
            horizon_s=60.0,
            rates={KV_TRANSFER_FAIL: 0.3, KV_DEGRADED: 0.1},
            mean_duration_s={KV_TRANSFER_FAIL: 0.5, KV_DEGRADED: 2.0},
        )
        faulty = serve(faults=plan, retry=RetryPolicy())
        rows = []
        for name, report in [("clean", clean), ("faulty", faulty)]:
            rows.append(
                {
                    "link": name,
                    "completed": report.completed,
                    "throughput_rps": report.throughput_rps,
                    "mean_retries": report.mean_retries,
                    "max_tbt_p99_s": report.max_tbt_p99,
                }
            )
        return rows, len(plan.of_kind(KV_TRANSFER_FAIL)), len(work)

    rows, fail_windows, total = run_once(benchmark, experiment)
    print_table("E24b: KV-transfer failure fallback (re-prefill on decode)", rows)
    attach(benchmark, rows, fail_windows=fail_windows)
    clean, faulty = rows
    assert fail_windows > 0
    # Every request completes despite failed ships (re-prefill fallback).
    assert clean["completed"] == faulty["completed"] == total
    # Failures were actually hit and retried; the stall shows up in the
    # per-request worst token gap, not in a dropped request.
    assert faulty["mean_retries"] > 0
    assert faulty["max_tbt_p99_s"] > clean["max_tbt_p99_s"]


def test_e24_training_rank_death_recovery(benchmark):
    spec = get_model_spec("tiny-125m")
    cluster = ClusterSpec(
        num_nodes=1, gpus_per_node=8, mtbf_hours=10_000, storage_write_bw=2e8
    )
    config = ParallelConfig(strategy="zero2", dp=8)

    def make_run(faults, *, checkpoint_every_steps):
        return TrainingRun(
            spec,
            config,
            cluster,
            checkpoint_engine=CheckpointEngine(mode="sync", storage_write_bw=2e8),
            checkpoint_every_steps=checkpoint_every_steps,
            restart_cost_s=3.0,
            state_tensors=16,
            seed=24,
            faults=faults,
        )

    def experiment():
        # --- bit-exact restore: two injected deaths vs a clean run.
        clean = make_run(FaultPlan.empty(), checkpoint_every_steps=50)
        reference = clean.run(300)
        step_s = clean.step_time_s
        deaths = FaultPlan(
            [
                FaultEvent(at_s=step_s * 90, kind=RANK_DEATH),
                FaultEvent(at_s=step_s * 170 + 7.0, kind=RANK_DEATH),
            ]
        )
        crashed = make_run(deaths, checkpoint_every_steps=50)
        result = crashed.run(300)
        exact = states_equal(clean.state, crashed.state)

        # --- Young-Daly against the *injected* MTBF.
        probe_engine = CheckpointEngine(mode="sync", storage_write_bw=2e8)
        probe_engine.save(0, make_state(num_tensors=16))
        ckpt_cost = probe_engine.records[-1].stall_s
        mtbf_s = 10.0
        plan = plan_frequency(
            step_time_s=step_s,
            checkpoint_cost_s=ckpt_cost,
            mtbf_s=mtbf_s,
            restart_cost_s=3.0,
        )
        yd = plan.steps_between_checkpoints
        seeded = FaultPlan.seeded(
            seed=24, horizon_s=1200.0, rates={RANK_DEATH: 1.0 / mtbf_s}
        )
        rows = []
        for steps in sorted({max(yd // 4, 1), yd, yd * 4, yd * 12}):
            run = make_run(seeded, checkpoint_every_steps=steps)
            sweep_result = run.run(500)
            rows.append(
                {
                    "ckpt_every_steps": steps,
                    "young_daly": "* " if steps == yd else "",
                    "goodput": sweep_result.goodput,
                    "restarts": sweep_result.restarts,
                    "stall_s": sweep_result.checkpoint_stall_s,
                    "lost_s": sweep_result.lost_time_s,
                }
            )
        return rows, yd, result, reference, exact

    rows, yd, result, reference, exact = run_once(benchmark, experiment)
    print_table("E24c: rank-death recovery + Young-Daly vs injected MTBF", rows)
    attach(benchmark, rows, young_daly_steps=yd, restore_exact=exact)
    # Both injected deaths triggered actual checkpoint restores, the run
    # finished all steps, and the replayed state is bit-identical.
    assert result.restarts == 2
    assert result.steps_completed == reference.steps_completed == 300
    assert result.goodput < reference.goodput
    assert exact
    # The Young-Daly interval computed from the injected MTBF is at (or
    # within 3% goodput of) the sweep optimum.
    by_steps = {r["ckpt_every_steps"]: r for r in rows}
    best = max(rows, key=lambda r: r["goodput"])
    assert by_steps[yd]["goodput"] >= best["goodput"] - 0.03
    assert all(r["restarts"] > 0 for r in rows)
