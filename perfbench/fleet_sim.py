"""fleet_sim: whole rounds of independent serving-simulation jobs.

The only workload that puts load on ``inference/``.  A round runs four
jobs for each of two seeded trace variants:

* ``flat``: ``ClusterFleet.run`` without pools, prefix-aware routing over
  64 replicas on the shared-prefix trace (80% of requests carry one of 32
  shared 2,048-token system prompts);
* ``pools``: the pool DES through ``PoolSpec`` with 32 prefill + 32 decode
  replicas under the faulty scenario (replica deaths, KV transfer failures
  and degraded windows, retries, TTFT shedding, hot-spot migration and
  warm-up autoscaling);
* ``engine`` and ``disagg_engine``: the token-level ``EngineFleet`` (four
  engines) and ``DisaggEngineFleet`` (two prefill + two decode engines).

Jobs are small (25-50 ms each on a 2-core machine, as busy as the host
lets it be) and sized so each kind takes a comparable share of the run; a
12-second run holds 15-30 rounds of 16 jobs.  A job's latency is its wall time, and the run ends on
a whole round, so every kind keeps its share of the samples.
``query_p50_ms`` is the median job and ``work_per_s`` simulated requests
over the jobs' summed time, both in quiet-machine time (see ``gauge``).
Each job's simulated outcome is fingerprinted and every repeat of a job
must reproduce it.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Set, Tuple

import numpy as np

from common import Outcome, clock, digest, percentile, report_failure
from repro.faults import KV_DEGRADED, KV_TRANSFER_FAIL, REPLICA_DEATH, FaultPlan, RetryPolicy
from repro.inference import (
    SLO,
    AutoscalePolicy,
    ClusterFleet,
    ContinuousBatchScheduler,
    DisaggEngineFleet,
    EngineFleet,
    FleetWorkload,
    LeastLoadedRouter,
    MigrationPolicy,
    PagedAllocator,
    PoolSpec,
    PrefixAwareRouter,
    ReplicaModel,
    ServingEngine,
    fleet_poisson_workload,
    make_router,
)
from repro.utils import derive_seed

MODEL = ReplicaModel(slots=32, kv_capacity_tokens=131072)
FLAT_REPLICAS = 64
POOL_PREFILL = POOL_DECODE = 32
FLAT_RATE = 125.0 * FLAT_REPLICAS  # requests/s: queues busy but bounded
POOL_RATE = 85.0 * (POOL_PREFILL + POOL_DECODE)
FLAT_REQUESTS = 7_000
POOL_REQUESTS = 2_500
ENGINE_REQUESTS = 240
DISAGG_ENGINE_REQUESTS = 165
ENGINE_RATE = 40.0  # requests/s offered to the token-level fleets
VARIANTS = 4
ANCHOR_REPLICAS = 8
ANCHOR_REQUESTS = 4_000
#: Slope of job time on the gauge's reference time (see ``gauge``): 1.08.
SENSITIVITY = 1.08


def _shared_prefix_trace(n: int, rate: float, replicas: int, seed: int) -> FleetWorkload:
    return fleet_poisson_workload(
        n, rate_rps=rate, prompt_mean=512, output_mean=16,
        num_prefixes=max(replicas // 2, 1), prefix_tokens=2048, prefix_fraction=0.8, seed=seed,
    )


def _engine_trace(n: int, seed: int) -> FleetWorkload:
    return fleet_poisson_workload(
        n, rate_rps=ENGINE_RATE, prompt_mean=256, output_mean=24,
        num_prefixes=4, prefix_tokens=256, prefix_fraction=0.8, seed=seed,
    )


def _engine() -> ServingEngine:
    return ServingEngine(
        ContinuousBatchScheduler(max_batch=16, chunk_tokens=512),
        allocator=PagedAllocator(65_536, block_size=16),
    )


def _fleet_outcome(result) -> Tuple[int, int, str]:
    """(completed, rejected, fingerprint of every column and counter)."""
    h = hashlib.sha256()
    for column in (result.replica, result.start_s, result.first_token_s, result.finish_s,
                   result.retries, result.rejected, result.prefix_hit_tokens,
                   result.served_per_replica):
        h.update(np.ascontiguousarray(column).tobytes())
    counters = (result.completed, result.rejected_total, result.deaths, result.spawns,
                result.drains, result.reroutes, result.handoffs, result.migrations,
                result.reprefills, result.sim_end_s)
    h.update(repr(counters).encode())
    return result.completed, result.rejected_total, h.hexdigest()[:16]


def _requests_outcome(requests) -> Tuple[int, int, str]:
    ordered = sorted(requests, key=lambda r: r.request_id)
    timeline = [(r.request_id, r.first_token_s, r.finished_s, r.retries, r.rejected, r.prefix_hit)
                for r in ordered]
    return sum(r.done for r in ordered), sum(r.rejected for r in ordered), digest(timeline)


@dataclass
class Job:
    kind: str
    variant: int
    workload: FleetWorkload
    simulate: Callable[[object], object]
    token_level: bool

    def inputs(self, count: int = 0) -> object:
        """Fresh inputs: token-level fleets mutate their requests."""
        workload = self.workload.head(count) if count else self.workload
        return workload.to_requests() if self.token_level else workload

    def summarize(self, result: object) -> Tuple[int, int, str]:
        return _requests_outcome(result) if self.token_level else _fleet_outcome(result)


def _flat_job(variant: int, seed: int) -> Job:
    def simulate(trace):
        router = make_router("prefix-aware", seed=seed)
        return ClusterFleet(FLAT_REPLICAS, router, model=MODEL).run(trace)

    trace = _shared_prefix_trace(FLAT_REQUESTS, FLAT_RATE, FLAT_REPLICAS, seed)
    return Job("flat", variant, trace, simulate, False)


def _pools_job(variant: int, seed: int) -> Job:
    replicas = POOL_PREFILL + POOL_DECODE
    trace = _shared_prefix_trace(POOL_REQUESTS, POOL_RATE, replicas, seed)
    horizon = float(trace.arrival_s[-1])
    faults = FaultPlan.seeded(
        seed=seed,
        horizon_s=horizon,
        rates={REPLICA_DEATH: replicas / 8 / horizon, KV_TRANSFER_FAIL: 4.0 / horizon,
               KV_DEGRADED: 4.0 / horizon},
        mean_duration_s={KV_TRANSFER_FAIL: horizon / 16, KV_DEGRADED: horizon / 16},
        degraded_severity=0.5,
    )
    pools = PoolSpec(
        prefill=POOL_PREFILL, decode=POOL_DECODE, warmup_s=max(horizon / 32, 0.25),
        migration=MigrationPolicy(hot_queue_ratio=2.0, min_queue=4),
    )
    autoscale = AutoscalePolicy(
        min_replicas=replicas // 4, max_replicas=replicas + replicas // 4,
        high_queue_per_replica=8.0, low_queue_per_replica=0.25,
        interval_s=max(horizon / 16, 0.5), spawn_delay_s=max(horizon / 8, 1.0),
    )

    def simulate(workload):
        fleet = ClusterFleet(
            replicas, PrefixAwareRouter(block_tokens=MODEL.block_tokens), model=MODEL,
            pools=pools, decode_router=LeastLoadedRouter(), faults=faults,
            retry=RetryPolicy(), shed_slo=SLO(ttft_s=2.0), autoscale=autoscale,
        )
        return fleet.run(workload)

    return Job("pools", variant, trace, simulate, False)


def _engine_job(variant: int, seed: int) -> Job:
    def simulate(requests):
        return EngineFleet(_engine, 4, make_router("prefix-aware", seed=seed)).run(requests)

    return Job("engine", variant, _engine_trace(ENGINE_REQUESTS, seed), simulate, True)


def _disagg_engine_job(variant: int, seed: int) -> Job:
    def simulate(requests):
        return DisaggEngineFleet(_engine, 2, 2).run(requests)

    return Job("disagg_engine", variant, _engine_trace(DISAGG_ENGINE_REQUESTS, seed), simulate, True)


JOB_KINDS = (_flat_job, _pools_job, _engine_job, _disagg_engine_job)


@dataclass
class State:
    jobs: List[Job]
    seed: int


def setup(seed: int, seconds: float) -> State:
    jobs = [
        make(variant, derive_seed(seed, "perfbench", "fleet", make.__name__, variant) % 2**31)
        for variant in range(VARIANTS)
        for make in JOB_KINDS
    ]
    for job in jobs[: len(JOB_KINDS)]:  # warm-up slice: a short run of each kind
        job.simulate(job.inputs(60 if job.token_level else 2_000))
    return State(jobs, seed)


def run(state: State, tracer, gauge, *, seconds=None, ops=None) -> Outcome:
    jobs = state.jobs
    deadline = clock() + seconds if seconds is not None else float("inf")
    outputs: List[Tuple[str, int, int, int, int, object]] = []
    begins: List[float] = []
    times: List[float] = []
    failed = 0
    i = 0
    while True:
        if ops is not None:
            if i >= ops:
                break
        elif i % len(jobs) == 0 and clock() >= deadline:
            break  # only whole rounds, so every job kind keeps its share
        job = jobs[i % len(jobs)]
        inputs = job.inputs()
        gauge.tick()
        begin = clock()
        result = None
        try:
            with tracer.op(job.kind):
                result = job.simulate(inputs)
        except Exception as exc:  # operation boundary: count it and go on
            failed += 1
            report_failure(job.kind, exc)
        begins.append(begin)
        times.append(clock() - begin)
        completed, rejected, fingerprint = (0, 0, None) if result is None else job.summarize(result)
        outputs.append((job.kind, job.variant, job.workload.n, completed, rejected, fingerprint))
        i += 1
    busy = sum(times)
    simulated = sum(out[2] for out in outputs)
    gauge.tick(force=True)
    scaled = gauge.scaled(begins, times)
    prefixed = sum(int((jobs[k % len(jobs)].workload.prefix_code >= 0).sum()) for k in range(i))
    per_kind: Dict[str, List[float]] = {}
    for out, elapsed in zip(outputs, times):
        per_kind.setdefault(out[0], []).append(elapsed)
    return Outcome(
        ops=i,
        failed=failed,
        busy_s=busy,
        outputs=outputs,
        end_to_end={
            "query_p50_ms": percentile(scaled, 50) * 1e3,
            "work_per_s": simulated / float(scaled.sum()),
        },
        info={
            "jobs": i,
            "raw_query_p50_ms": percentile(times, 50) * 1e3,
            "raw_simulated_per_s": simulated / busy,
            "query_p95_ms": percentile(scaled, 95) * 1e3,
            "raw_query_p99_ms": percentile(times, 99) * 1e3,
            "simulated_requests": simulated,
            "shared_prefix_share": prefixed / simulated,
            "job_p50_ms": {k: round(percentile(v, 50) * 1e3, 1) for k, v in per_kind.items()},
            "job_p99_ms": {k: round(percentile(v, 99) * 1e3, 1) for k, v in per_kind.items()},
        },
    )


def _colocated_anchor(seed: int) -> List[str]:
    """PoolSpec(colocated=N) must reproduce the flat loop bit for bit."""
    trace = _shared_prefix_trace(ANCHOR_REQUESTS, 125.0 * ANCHOR_REPLICAS, ANCHOR_REPLICAS, seed)

    def simulate(**pools):
        router = PrefixAwareRouter(block_tokens=MODEL.block_tokens)
        return ClusterFleet(ANCHOR_REPLICAS, router, model=MODEL, **pools).run(trace)

    pooled = simulate(pools=PoolSpec(colocated=ANCHOR_REPLICAS), decode_router=LeastLoadedRouter())
    flat = simulate()
    same = (
        np.array_equal(pooled.replica, flat.replica)
        and all(
            np.array_equal(getattr(pooled, column), getattr(flat, column), equal_nan=True)
            for column in ("start_s", "first_token_s", "finish_s")
        )
        and pooled.completed == flat.completed
        and pooled.handoffs == 0
    )
    return [] if same else ["fleet_sim: PoolSpec(colocated=N) diverges from the flat fleet"]


def finish(state: State, outcome: Outcome) -> List[str]:
    """Conservation per job, stable fingerprints, and the colocated anchor."""
    problems = []
    fingerprints: Dict[Tuple[str, int], Set[object]] = {}
    completed = simulated = 0
    for kind, variant, n, done, rejected, fingerprint in outcome.outputs:
        simulated += n
        completed += done
        if done + rejected != n:
            problems.append(f"fleet_sim {kind}/{variant}: completed {done} + rejected {rejected} != {n}")
        fingerprints.setdefault((kind, variant), set()).add(fingerprint)
    for (kind, variant), seen in sorted(fingerprints.items()):
        print(f"fleet_sim job {kind}/{variant}: outcome {' '.join(sorted(map(str, seen)))}",
              file=sys.stderr)
        if len(seen) != 1 or None in seen:
            problems.append(f"fleet_sim {kind}/{variant}: repeats disagree")
    outcome.end_to_end["output_quality"] = completed / simulated
    return problems + _colocated_anchor(state.seed)
