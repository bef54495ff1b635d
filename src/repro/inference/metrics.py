"""Aggregate serving metrics: throughput, latency percentiles, goodput.

Besides the flat :class:`ServingReport`, this module decomposes a
disaggregated run's latency into its four phases — prefill queueing,
prefill execution, KV transfer (plus decode queueing), and decode — at
p50/p95/p99 each.  The breakdown is what makes pool sizing actionable:
a fat ``queue_wait`` means the prefill pool is short, a fat ``transfer``
means the wire (or the decode queue behind it) is the bottleneck.  Two
entry points cover both simulators: :func:`fleet_phase_breakdown` reads
the columnar :class:`~repro.inference.fleet.FleetResult` of the pool
DES, :func:`phase_breakdown` reads token-level :class:`Request`
timelines from :class:`~repro.inference.pools.DisaggEngineFleet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..utils import percentile
from .request import SLO, Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fleet imports nothing here)
    from .fleet import FleetResult, FleetWorkload


@dataclass
class ServingReport:
    """Fleet-level summary of one simulated serving run."""

    requests: int
    completed: int
    makespan_s: float
    throughput_rps: float
    output_tokens_per_s: float
    ttft_p50: float
    ttft_p95: float
    ttft_p99: float
    tbt_p50: float
    tbt_p95: float
    tbt_p99: float
    max_tbt_p99: float
    slo_attainment: float
    goodput_rps: float
    mean_preemptions: float = 0.0
    prefix_hit_rate: float = 0.0
    rejected: int = 0
    mean_retries: float = 0.0

    def row(self) -> Dict[str, float]:
        """Flat dict for table rendering in benchmarks."""
        return {
            "completed": self.completed,
            "throughput_rps": round(self.throughput_rps, 3),
            "out_tok_per_s": round(self.output_tokens_per_s, 1),
            "ttft_p50_s": round(self.ttft_p50, 4),
            "ttft_p95_s": round(self.ttft_p95, 4),
            "ttft_p99_s": round(self.ttft_p99, 4),
            "tbt_p95_s": round(self.tbt_p95, 4),
            "tbt_p99_s": round(self.tbt_p99, 4),
            "slo_attainment": round(self.slo_attainment, 3),
            "goodput_rps": round(self.goodput_rps, 3),
        }


@dataclass(frozen=True)
class PhaseStats:
    """Percentile summary of one latency phase across a run."""

    phase: str
    count: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float

    def row(self) -> Dict[str, float]:
        return {
            "phase": self.phase,  # type: ignore[dict-item]
            "count": self.count,
            "mean_s": round(self.mean_s, 5),
            "p50_s": round(self.p50_s, 5),
            "p95_s": round(self.p95_s, 5),
            "p99_s": round(self.p99_s, 5),
        }


@dataclass(frozen=True)
class PoolBreakdown:
    """Per-phase latency decomposition of a disaggregated serving run.

    ``queue_wait`` is time from arrival to prefill admission, ``prefill``
    from admission to first token, ``transfer`` from first token to
    decode-side admission (wire delay plus any decode queueing), and
    ``decode`` from decode admission to completion.  Colocated requests
    contribute a zero-width transfer phase.
    """

    queue_wait: PhaseStats
    prefill: PhaseStats
    transfer: PhaseStats
    decode: PhaseStats

    @property
    def phases(self) -> List[PhaseStats]:
        return [self.queue_wait, self.prefill, self.transfer, self.decode]

    def rows(self) -> List[Dict[str, float]]:
        """One flat dict per phase, for table rendering."""
        return [p.row() for p in self.phases]


def _phase_stats(name: str, values: Sequence[float]) -> PhaseStats:
    vals = [v for v in values if not math.isnan(v)]
    if not vals:
        return PhaseStats(name, 0, 0.0, 0.0, 0.0, 0.0)
    return PhaseStats(
        phase=name,
        count=len(vals),
        mean_s=sum(vals) / len(vals),
        p50_s=percentile(vals, 50),
        p95_s=percentile(vals, 95),
        p99_s=percentile(vals, 99),
    )


def fleet_phase_breakdown(
    workload: "FleetWorkload", result: "FleetResult"
) -> PoolBreakdown:
    """Decompose a pool-DES :class:`FleetResult` into latency phases.

    Only requests that finished are counted; the transfer and decode
    phases additionally need the decode columns every ``ClusterFleet``
    run fills (colocated rows show a zero transfer phase; a result
    without decode columns yields empty phases there).
    """
    finish = result.finish_s
    done = ~np.isnan(finish)
    arrival = workload.arrival_s[done]
    start = result.start_s[done]
    first = result.first_token_s[done]
    queue_wait = (start - arrival).tolist()
    prefill = (first - start).tolist()
    transfer: List[float] = []
    decode: List[float] = []
    if result.decode_start_s is not None:
        dstart = result.decode_start_s[done]
        transfer = (dstart - first).tolist()
        decode = (finish[done] - dstart).tolist()
    return PoolBreakdown(
        queue_wait=_phase_stats("queue_wait", queue_wait),
        prefill=_phase_stats("prefill", prefill),
        transfer=_phase_stats("transfer", transfer),
        decode=_phase_stats("decode", decode),
    )


def phase_breakdown(requests: Sequence[Request]) -> PoolBreakdown:
    """Decompose token-level :class:`Request` timelines into phases.

    Works on :class:`~repro.inference.pools.DisaggEngineFleet` output
    (and degenerates gracefully on single-engine runs: transfer is empty
    and decode spans first token to finish).  Requests whose KV ship
    failed re-prefilled on the decode side, so they have no transfer
    phase — their prefill phase is the decode-side one.
    """
    queue_wait: List[float] = []
    prefill: List[float] = []
    transfer: List[float] = []
    decode: List[float] = []
    for r in requests:
        if not r.done or r.finished_s is None:
            continue
        if r.admitted_s is not None:
            queue_wait.append(r.admitted_s - r.arrival_s)
            if r.first_token_s is not None:
                prefill.append(r.first_token_s - r.admitted_s)
        if r.first_token_s is None:
            continue
        if r.kv_shipped and r.decode_admitted_s is not None:
            transfer.append(r.decode_admitted_s - r.first_token_s)
            decode.append(r.finished_s - r.decode_admitted_s)
        else:
            decode.append(r.finished_s - r.first_token_s)
    return PoolBreakdown(
        queue_wait=_phase_stats("queue_wait", queue_wait),
        prefill=_phase_stats("prefill", prefill),
        transfer=_phase_stats("transfer", transfer),
        decode=_phase_stats("decode", decode),
    )


def summarize(
    requests: Sequence[Request], *, slo: Optional[SLO] = None
) -> ServingReport:
    """Build a :class:`ServingReport` from finished request timelines."""
    completed = [r for r in requests if r.done]
    rejected = sum(1 for r in requests if r.rejected)
    if not completed:
        return ServingReport(
            requests=len(requests), completed=0, makespan_s=0.0,
            throughput_rps=0.0, output_tokens_per_s=0.0,
            ttft_p50=float("inf"), ttft_p95=float("inf"), ttft_p99=float("inf"),
            tbt_p50=float("inf"), tbt_p95=float("inf"), tbt_p99=float("inf"),
            max_tbt_p99=float("inf"), slo_attainment=0.0, goodput_rps=0.0,
            rejected=rejected,
        )
    slo = slo or SLO()
    start = min(r.arrival_s for r in completed)
    end = max(r.finished_s for r in completed if r.finished_s is not None)
    makespan = max(end - start, 1e-9)
    ttfts = [r.ttft for r in completed if r.ttft is not None]
    tbts = [gap for r in completed for gap in r.tbt_values]
    max_tbts = [r.max_tbt for r in completed if r.max_tbt is not None]
    out_tokens = sum(len(r.token_times) for r in completed)
    attained = sum(1 for r in completed if slo.attained(r))
    return ServingReport(
        requests=len(requests),
        completed=len(completed),
        makespan_s=makespan,
        throughput_rps=len(completed) / makespan,
        output_tokens_per_s=out_tokens / makespan,
        ttft_p50=percentile(ttfts, 50) if ttfts else float("inf"),
        ttft_p95=percentile(ttfts, 95) if ttfts else float("inf"),
        ttft_p99=percentile(ttfts, 99) if ttfts else float("inf"),
        tbt_p50=percentile(tbts, 50) if tbts else 0.0,
        tbt_p95=percentile(tbts, 95) if tbts else 0.0,
        tbt_p99=percentile(tbts, 99) if tbts else 0.0,
        max_tbt_p99=percentile(max_tbts, 99) if max_tbts else 0.0,
        slo_attainment=attained / len(completed),
        goodput_rps=attained / makespan,
        mean_preemptions=sum(r.preemptions for r in completed) / len(completed),
        prefix_hit_rate=sum(1 for r in completed if r.prefix_hit) / len(completed),
        rejected=rejected,
        mean_retries=sum(r.retries for r in completed) / len(completed),
    )
