"""Prefill/decode disaggregation (DistServe [69], Splitwise [44], Mooncake [45]).

Colocated serving runs both phases on every GPU, so long prefills inflate
running decodes' TBT and decodes steal compute from prefills' TTFT.
Disaggregation dedicates ``prefill_gpus`` to prompt processing and
``decode_gpus`` to token generation, shipping each request's KV cache
across (a per-token transfer cost, overlappable with decode compute).

:func:`simulate_colocated` and :func:`simulate_disaggregated` share the
iteration-cost model so the comparison isolates the architecture change;
E4 sweeps GPU splits and reports per-GPU goodput under joint SLOs.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..faults import KV_DEGRADED, KV_TRANSFER_FAIL, FaultPlan, RetryPolicy
from .metrics import ServingReport, summarize
from .request import SLO, Request
from .scheduler import ContinuousBatchScheduler, IterationCost, ServingEngine
from .transfer import TransferModel

__all__ = [
    "simulate_colocated",
    "simulate_disaggregated",
    "sweep_splits",
]


def _split_round_robin(requests: Sequence[Request], n: int) -> List[List[Request]]:
    lanes: List[List[Request]] = [[] for _ in range(n)]
    for i, request in enumerate(sorted(requests, key=lambda r: r.arrival_s)):
        lanes[i % n].append(request)
    return lanes


def simulate_colocated(
    requests: Sequence[Request],
    *,
    num_gpus: int,
    cost: Optional[IterationCost] = None,
    slo: Optional[SLO] = None,
    max_batch: int = 64,
) -> ServingReport:
    """Each GPU independently serves a round-robin share, both phases."""
    if num_gpus <= 0:
        raise ConfigError("num_gpus must be positive")
    work = copy.deepcopy(list(requests))
    lanes = _split_round_robin(work, num_gpus)
    for lane in lanes:
        engine = ServingEngine(
            ContinuousBatchScheduler(max_batch=max_batch), cost=cost
        )
        engine.run(lane)
    return summarize(work, slo=slo)


def simulate_disaggregated(
    requests: Sequence[Request],
    *,
    prefill_gpus: int,
    decode_gpus: int,
    cost: Optional[IterationCost] = None,
    transfer: Optional[TransferModel] = None,
    slo: Optional[SLO] = None,
    max_batch: int = 64,
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
) -> ServingReport:
    """Two-stage pipeline: prefill pool -> KV transfer -> decode pool.

    Stage one runs prompt-only "requests" (one output token = the first
    token, produced by prefill). Stage two replays each request arriving at
    its first-token time plus transfer delay, decoding the remaining
    tokens with no prefill work (prompt re-entered as already-cached).

    ``faults`` injects interconnect trouble: a KV ship that starts inside a
    :data:`~repro.faults.KV_TRANSFER_FAIL` window pays the full wire time
    before the failure is detected, backs off per ``retry``, and then falls
    back to **re-prefilling the prompt on the decode pool** (the KV is
    gone) instead of silently completing; a ship inside a
    :data:`~repro.faults.KV_DEGRADED` window sees its wire time stretched
    by ``1 / severity``.  An empty plan reproduces the fault-free
    trajectory bit-exactly.
    """
    if prefill_gpus <= 0 or decode_gpus <= 0:
        raise ConfigError("gpu counts must be positive")
    transfer = transfer or TransferModel()
    retry = retry or RetryPolicy()
    originals = sorted(copy.deepcopy(list(requests)), key=lambda r: r.arrival_s)

    # ---- stage 1: prefill pool
    prefill_stubs = [
        Request(
            request_id=r.request_id,
            arrival_s=r.arrival_s,
            prompt_tokens=r.prompt_tokens,
            output_tokens=1,
        )
        for r in originals
    ]
    for lane in _split_round_robin(prefill_stubs, prefill_gpus):
        ServingEngine(ContinuousBatchScheduler(max_batch=max_batch), cost=cost).run(lane)
    first_token_at = {r.request_id: r.finished_s for r in prefill_stubs}

    # ---- stage 2: decode pool
    decode_stubs = []
    for r in originals:
        ready = first_token_at[r.request_id]
        if ready is None:
            continue
        ship_s = ready
        failed = faults.covering(KV_TRANSFER_FAIL, ship_s) if faults is not None else None
        if failed is not None and (failed.target in (None, r.request_id)):
            # The ship was attempted (full wire time burned before the
            # failure surfaces), then backed off; the decode pool rebuilds
            # the KV by re-running the whole prefill locally.
            r.retries += 1
            ready = ship_s + transfer.raw_delay(r.prompt_tokens) + retry.delay_s(r.retries)
            prompt_for_decode = r.prompt_tokens
        else:
            delay = transfer.visible_delay(r.prompt_tokens)
            degraded = (
                faults.covering(KV_DEGRADED, ship_s) if faults is not None else None
            )
            if degraded is not None:
                delay /= degraded.severity
            ready = ship_s + delay
            prompt_for_decode = 1  # KV arrived; no prefill work on this pool
        decode_stubs.append(
            Request(
                request_id=r.request_id,
                arrival_s=ready,
                prompt_tokens=prompt_for_decode,
                output_tokens=max(r.output_tokens - 1, 1),
            )
        )
    for lane in _split_round_robin(decode_stubs, decode_gpus):
        engine = ServingEngine(ContinuousBatchScheduler(max_batch=max_batch), cost=cost)
        # Prompt "prefill" of one token models the KV-attach bookkeeping.
        engine.run(lane)
    decode_by_id = {r.request_id: r for r in decode_stubs}

    # ---- merge timelines back onto the original requests
    for r in originals:
        stub = decode_by_id.get(r.request_id)
        first = first_token_at.get(r.request_id)
        if stub is None or first is None or not stub.done:
            continue
        r.admitted_s = r.arrival_s
        r.first_token_s = first
        # Stub token times: first entry is the attach step; keep the rest.
        r.token_times = [first] + stub.token_times[1:]
        r.finished_s = stub.finished_s
    return summarize(originals, slo=slo)


def sweep_splits(
    requests: Sequence[Request],
    total_gpus: int,
    *,
    cost: Optional[IterationCost] = None,
    slo: Optional[SLO] = None,
) -> List[Tuple[str, ServingReport]]:
    """Colocated vs every prefill/decode split of ``total_gpus``."""
    if total_gpus < 2:
        raise ConfigError("need at least 2 GPUs to disaggregate")
    results: List[Tuple[str, ServingReport]] = [
        ("colocated", simulate_colocated(requests, num_gpus=total_gpus, cost=cost, slo=slo))
    ]
    for prefill in range(1, total_gpus):
        decode = total_gpus - prefill
        report = simulate_disaggregated(
            requests,
            prefill_gpus=prefill,
            decode_gpus=decode,
            cost=cost,
            slo=slo,
        )
        results.append((f"disagg-{prefill}p{decode}d", report))
    return results
