"""Batching schedulers: static, continuous (Orca), chunked prefill (Sarathi).

One discrete-event engine (:class:`ServingEngine`) drives all scheduler
policies over a shared iteration-latency model, so throughput/TTFT/TBT
differences are attributable to scheduling alone:

* :class:`StaticBatchScheduler` — classic request-level batching: collect
  a batch, prefill it, decode until *every* member finishes, repeat.
  Short requests wait for the batch's stragglers;
* :class:`ContinuousBatchScheduler` — Orca's iteration-level scheduling
  [66]: finished requests leave and waiting requests join at every
  iteration. Full prompts prefill in one iteration, which stalls running
  decodes (the TBT spike Sarathi fixes);
* chunked prefill — Sarathi-Serve [4]: ``chunk_tokens`` caps the prefill
  tokens coscheduled with decodes in any iteration, bounding TBT at a
  small TTFT cost.

The engine keeps the simulated trajectory identical to the original
per-iteration-rescan implementation (guarded by
``tests/test_scheduler_golden.py``) while avoiding O(n) work per
iteration: arrivals drain from a deque, the engine maintains incremental
``_prefilling`` / ``_decoding`` sets instead of policies refiltering
``running.values()``, SJF keeps a lazy heap keyed on remaining work, and
all of an iteration's KV appends go to the allocator in one batched call
when no memory pressure is in play.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import CacheError, SchedulerError
from ..faults import GPU_CRASH, FaultEvent, FaultInjector, FaultPlan, RetryPolicy
from .kvcache import PagedAllocator, ReservedAllocator
from .request import SLO, Request

#: :meth:`ServingEngine.step` outcomes (see its docstring).
STEP_RAN = "ran"
STEP_ADVANCED = "advanced"
STEP_IDLE = "idle"
STEP_HANDOFF = "handoff"


def _arrival_time(request: Request) -> float:
    """A request's effective arrival at *this* engine.

    For a disaggregated handoff the request reaches the decode engine when
    its KV ship lands (``handoff_s``), not at its original fleet arrival.
    """
    return request.handoff_s if request.handoff_s is not None else request.arrival_s


@dataclass(frozen=True)
class IterationCost:
    """Per-iteration latency model.

    ``base_s`` is the weight-read / kernel-launch floor every iteration
    pays (decode's memory-bound cost); prefill tokens add compute-bound
    time; each decoding sequence adds a small KV-read cost.
    """

    base_s: float = 0.006
    per_prefill_token_s: float = 0.00011
    per_decode_seq_s: float = 0.00025

    def time(self, prefill_tokens: int, decode_seqs: int) -> float:
        if prefill_tokens == 0 and decode_seqs == 0:
            return 0.0
        return (
            self.base_s
            + prefill_tokens * self.per_prefill_token_s
            + decode_seqs * self.per_decode_seq_s
        )


@dataclass
class _Running:
    request: Request
    prefill_remaining: int
    decoded: int = 0
    # Monotone per-(re)admission ordinal; mirrors the sequence's position in
    # ``engine.running`` so priority ties resolve exactly as the old stable
    # sort over dict order did. Reassigned when a preempted sequence resumes.
    admit_index: int = 0

    @property
    def prefilling(self) -> bool:
        return self.prefill_remaining > 0

    @property
    def finished(self) -> bool:
        return not self.prefilling and self.decoded >= self.request.output_tokens


def _plan_prefill(
    prefilling: Iterable[_Running], chunk_tokens: Optional[int]
) -> List[Tuple[_Running, int]]:
    """Greedy in-order prefill planning, shared by every policy.

    ``chunk_tokens=None`` schedules each waiting prompt whole; otherwise the
    budget is handed out in sequence order (Sarathi's chunk cap).
    """
    prefill_work: List[Tuple[_Running, int]] = []
    if chunk_tokens is None:
        for seq in prefilling:
            prefill_work.append((seq, seq.prefill_remaining))
    else:
        budget = chunk_tokens
        for seq in prefilling:
            if budget <= 0:
                break
            take = min(seq.prefill_remaining, budget)
            prefill_work.append((seq, take))
            budget -= take
    return prefill_work


class SchedulerPolicy:
    """Interface: decide what runs in the next iteration."""

    name = "base"
    # Maximum concurrently running sequences this policy wants; ``None``
    # defers entirely to the engine's ``max_running``.
    admit_cap: Optional[int] = None

    def plan_iteration(
        self, engine: "ServingEngine"
    ) -> Tuple[List[Tuple[_Running, int]], List[_Running]]:
        """Return (prefill work as (seq, tokens) pairs, decode seqs)."""
        raise NotImplementedError

    def may_admit(self, engine: "ServingEngine") -> bool:
        """May new requests join right now?"""
        return True

    def on_decode_ready(self, seq: _Running) -> None:
        """Hook: ``seq`` entered (or continues in) the decode phase."""


class ContinuousBatchScheduler(SchedulerPolicy):
    """Iteration-level batching, optionally with chunked prefill."""

    def __init__(
        self, *, max_batch: int = 64, chunk_tokens: Optional[int] = None
    ) -> None:
        if max_batch <= 0:
            raise SchedulerError("max_batch must be positive")
        if chunk_tokens is not None and chunk_tokens <= 0:
            raise SchedulerError("chunk_tokens must be positive")
        self.max_batch = max_batch
        self.admit_cap = max_batch
        self.chunk_tokens = chunk_tokens
        self.name = "chunked-prefill" if chunk_tokens else "continuous"

    def plan_iteration(
        self, engine: "ServingEngine"
    ) -> Tuple[List[Tuple[_Running, int]], List[_Running]]:
        # ``_decoding`` preserves admission order (prefill budget is granted
        # in admission order, so completions land in admission order too),
        # matching the old filter over ``running.values()``.
        decoding = list(engine._decoding.values())[: self.max_batch]
        prefill_work = _plan_prefill(engine._prefilling.values(), self.chunk_tokens)
        return prefill_work, decoding


class ShortestJobFirstScheduler(ContinuousBatchScheduler):
    """Continuous batching with shortest-remaining-work priority.

    The paper's open-challenges section names "query batching and
    scheduling" as an under-exploited data-level optimization; SJF is the
    classic latency-optimal policy: under saturation, finishing short
    requests first minimizes mean latency (at some tail cost for long
    requests). Prefill admission also prefers short prompts.

    Decode priority lives in a lazy heap keyed on
    ``(remaining_tokens, admit_index)`` — entries go stale when a sequence
    decodes, preempts, or finishes, and are discarded on pop — replacing
    the full re-sort of the running set every iteration.
    """

    def __init__(self, *, max_batch: int = 64, chunk_tokens: Optional[int] = None) -> None:
        super().__init__(max_batch=max_batch, chunk_tokens=chunk_tokens)
        self.name = "sjf"
        self._heap: List[Tuple[int, int, _Running]] = []

    def on_decode_ready(self, seq: _Running) -> None:
        remaining = seq.request.output_tokens - seq.decoded
        heapq.heappush(self._heap, (remaining, seq.admit_index, seq))

    def plan_iteration(
        self, engine: "ServingEngine"
    ) -> Tuple[List[Tuple[_Running, int]], List[_Running]]:
        heap = self._heap
        decoding: List[_Running] = []
        running = engine.running
        while heap and len(decoding) < self.max_batch:
            remaining, admit_index, seq = heapq.heappop(heap)
            if (
                running.get(seq.request.request_id) is not seq
                or seq.admit_index != admit_index
                or seq.prefilling
                or seq.finished
                or seq.request.output_tokens - seq.decoded != remaining
            ):
                continue  # stale entry; the live one carries current keys
            decoding.append(seq)
        prefilling = sorted(
            engine._prefilling.values(), key=lambda s: s.prefill_remaining
        )
        prefill_work = _plan_prefill(prefilling, self.chunk_tokens)
        return prefill_work, decoding


class StaticBatchScheduler(SchedulerPolicy):
    """Request-level batching: the batch drains fully before refilling."""

    def __init__(self, *, batch_size: int = 16) -> None:
        if batch_size <= 0:
            raise SchedulerError("batch_size must be positive")
        self.batch_size = batch_size
        self.admit_cap = batch_size
        self.name = "static"

    def plan_iteration(
        self, engine: "ServingEngine"
    ) -> Tuple[List[Tuple[_Running, int]], List[_Running]]:
        prefill_work = _plan_prefill(engine._prefilling.values(), None)
        decoding = list(engine._decoding.values())
        return prefill_work, decoding

    def may_admit(self, engine: "ServingEngine") -> bool:
        # Only admit when the previous batch has fully drained.
        return not engine.running


class ServingEngine:
    """Discrete-event loop: admission, iteration execution, token accounting.

    Fault tolerance: pass ``faults`` to inject :data:`~repro.faults.GPU_CRASH`
    events.  A crash tears down every in-flight sequence — KV freed, generation
    state lost — and re-queues the requests with capped exponential backoff
    (``retry``), counting each restart in ``Request.retries`` / the engine's
    ``retries`` total.  ``shed_slo`` additionally enables SLO-aware admission
    control: a request whose queueing delay has already blown the TTFT budget
    is rejected instead of served (DistServe-style goodput protection when the
    surviving capacity saturates).  With ``faults=None`` *or* an empty plan,
    every fault branch is dead and trajectories stay bit-identical to the
    fault-free engine (guarded by ``tests/test_scheduler_golden.py``).

    ``handoff_mode=True`` turns the engine into a prefill-pool worker
    (DistServe): sequences retire at their first token into a drain list
    (:meth:`drain_finished`) and ``step`` reports :data:`STEP_HANDOFF`;
    :class:`~repro.inference.pools.DisaggEngineFleet` prices the KV ship
    and forwards each request to a decode engine.
    """

    def __init__(
        self,
        scheduler: SchedulerPolicy,
        *,
        allocator: Optional[Union[ReservedAllocator, PagedAllocator]] = None,
        cost: Optional[IterationCost] = None,
        max_running: int = 256,
        keep_prefix_on_release: bool = False,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        shed_slo: Optional[SLO] = None,
        handoff_mode: bool = False,
    ) -> None:
        self.scheduler = scheduler
        self.allocator = allocator
        self.cost = cost or IterationCost()
        self.max_running = max_running
        self.keep_prefix_on_release = keep_prefix_on_release
        self.retry = retry or RetryPolicy()
        self.shed_slo = shed_slo
        # Prefill-pool mode (DistServe): a sequence retires at its first
        # token instead of decoding locally; the fleet layer drains it via
        # :meth:`drain_finished` and ships its KV to a decode engine.
        self.handoff_mode = handoff_mode
        self.handoffs = 0
        self._handoff_done: List[Request] = []
        self._handoff_release: List[str] = []
        self.running: Dict[str, _Running] = {}
        self.now = 0.0
        self.iterations = 0
        self.busy_s = 0.0
        self.completed_total = 0
        self.retries = 0
        self.rejected = 0
        self.downtime_s = 0.0
        self.fault_log: List[FaultEvent] = []
        self._injector = (
            FaultInjector(faults, kinds=(GPU_CRASH,)) if faults is not None else None
        )
        # (ready_s, seqno, request) min-heap of crash-evicted requests waiting
        # out their retry backoff before full re-admission.
        self._retry_queue: List[Tuple[float, int, Request]] = []
        self._retry_seq = 0
        self._preempted: List[_Running] = []
        # Incrementally maintained views of ``running``, so policies plan an
        # iteration without refiltering/re-sorting the whole running set.
        # Both preserve admission order (insertion-ordered dicts).
        self._prefilling: Dict[str, _Running] = {}
        self._decoding: Dict[str, _Running] = {}
        self._admit_counter = 0

    # ------------------------------------------------------- state tracking
    def _insert_running(self, seq: _Running) -> None:
        seq.admit_index = self._admit_counter
        self._admit_counter += 1
        self.running[seq.request.request_id] = seq
        self._prefilling[seq.request.request_id] = seq

    # ----------------------------------------------------------- preemption
    def _preempt_youngest(self) -> bool:
        """vLLM's all-or-nothing recompute preemption: evict the youngest
        running sequence entirely; it re-prefills when memory frees up."""
        if len(self.running) <= 1:
            return False
        victim_id = max(
            self.running, key=lambda rid: self.running[rid].request.arrival_s
        )
        seq = self.running.pop(victim_id)
        self._prefilling.pop(victim_id, None)
        self._decoding.pop(victim_id, None)
        if self.allocator is not None:
            self.allocator.release(victim_id)
        seq.request.preemptions += 1
        seq.prefill_remaining = seq.request.prompt_tokens + seq.decoded
        self._preempted.append(seq)
        return True

    def _safe_append(self, request_id: str, n_tokens: int = 1) -> None:
        """Append KV entries, preempting under memory pressure."""
        if self.allocator is None or request_id not in self.running:
            return
        while True:
            try:
                self.allocator.append(request_id, n_tokens)
                return
            except CacheError as exc:
                if "unknown request" in str(exc):
                    return  # sequence was preempted earlier this iteration
                if not self._preempt_youngest():
                    raise

    # ------------------------------------------------------- fault recovery
    def _deliver_faults(self) -> None:
        """Absorb every crash whose timestamp the clock has passed."""
        assert self._injector is not None
        for event in self._injector.due(self.now):
            self._absorb_crash(event)

    def _absorb_crash(self, event: FaultEvent) -> None:
        """A lane crash: all in-flight work loses its KV and re-queues.

        Sequences that already finished keep their timelines; everything
        still running (or waiting preempted) restarts from scratch after
        the outage window plus its per-request retry backoff.  Requests
        that have exhausted the retry budget are shed instead.
        """
        self.fault_log.append(event)
        victims = list(self.running.values()) + self._preempted
        for request_id in list(self.running):
            if self.allocator is not None:
                self.allocator.release(request_id)
        self.running.clear()
        self._prefilling.clear()
        self._decoding.clear()
        self._preempted = []
        for seq in victims:
            request = seq.request
            request.retries += 1
            self.retries += 1
            # Generation state is gone: the retry re-prefills and re-decodes.
            request.admitted_s = None
            request.first_token_s = None
            request.token_times = []
            request.prefix_hit = False
            if self.retry.exhausted(request.retries):
                request.rejected = True
                self.rejected += 1
                continue
            ready_s = event.end_s + self.retry.delay_s(request.retries)
            heapq.heappush(self._retry_queue, (ready_s, self._retry_seq, request))
            self._retry_seq += 1
        if event.duration_s > 0.0:
            self.downtime_s += event.duration_s
            self.now = max(self.now, event.end_s)

    def _admit_retries(self, cap: int) -> None:
        """Re-admit crash-evicted requests whose backoff has elapsed."""
        while self._retry_queue and self._retry_queue[0][0] <= self.now:
            if len(self.running) >= cap:
                break
            _, _, request = self._retry_queue[0]
            if self.shed_slo is not None and (
                self.now - request.arrival_s > self.shed_slo.ttft_s
            ):
                heapq.heappop(self._retry_queue)
                request.rejected = True
                self.rejected += 1
                continue
            if self.allocator is not None:
                if not self.allocator.can_admit(
                    request.request_id, request.prompt_tokens
                ):
                    break
                self.allocator.admit(request.request_id, request.prompt_tokens)
            heapq.heappop(self._retry_queue)
            request.admitted_s = self.now
            # The crash wiped any shared prefix blocks this lane held, so the
            # retry re-prefills the full prompt.
            self._insert_running(
                _Running(request=request, prefill_remaining=request.prompt_tokens)
            )

    # ------------------------------------------------------------ admission
    def _complete_on_arrival(self, request: Request) -> None:
        """Finish a shipped request whose whole generation was its first
        token: nothing to decode, so the KV reserved at admission is
        released immediately (this helper owns that release)."""
        request.finished_s = self.now
        self.completed_total += 1
        if self.allocator is not None:
            self.allocator.release(request.request_id)

    def _try_admit(self, queue: Deque[Request]) -> None:
        if not self.scheduler.may_admit(self):
            return
        cap = self.max_running
        if self.scheduler.admit_cap is not None:
            cap = min(cap, self.scheduler.admit_cap)
        # Resume preempted sequences first (they hold completed work).
        still_waiting: List[_Running] = []
        for seq in self._preempted:
            request = seq.request
            total_needed = request.prompt_tokens + seq.decoded
            can = self.allocator is None or self.allocator.can_admit(
                request.request_id, total_needed
            )
            if can and len(self.running) < cap:
                if self.allocator is not None:
                    self.allocator.admit(request.request_id, total_needed)
                self._insert_running(seq)
            else:
                still_waiting.append(seq)
        self._preempted = still_waiting
        if self._retry_queue:
            self._admit_retries(cap)
        while queue and _arrival_time(queue[0]) <= self.now:
            if (
                self.shed_slo is not None
                and queue[0].handoff_s is None
                and self.now - queue[0].arrival_s > self.shed_slo.ttft_s
            ):
                # Already past its TTFT budget in the queue: serving it can
                # only waste surviving capacity, so shed it.  Handed-off
                # requests are exempt: their prefill work is already sunk.
                request = queue.popleft()
                request.rejected = True
                self.rejected += 1
                continue
            if len(self.running) >= cap:
                break
            request = queue[0]
            if request.kv_shipped:
                # Disaggregated arrival: the prompt KV came over the wire,
                # so the sequence enters decode directly — no prefill
                # compute, no prefix-cache interaction.
                if self.allocator is not None:
                    if not self.allocator.can_admit(
                        request.request_id, request.prompt_tokens
                    ):
                        break
                    self.allocator.admit(request.request_id, request.prompt_tokens)
                queue.popleft()
                request.decode_admitted_s = self.now
                seq = _Running(request=request, prefill_remaining=0, decoded=1)
                seq.admit_index = self._admit_counter
                self._admit_counter += 1
                if seq.finished:
                    # Single-token output: the prefill side's first token
                    # was the whole generation.
                    self._complete_on_arrival(request)
                    continue
                self.running[request.request_id] = seq
                self._decoding[request.request_id] = seq
                self.scheduler.on_decode_ready(seq)
                continue
            cached = 0
            if self.allocator is not None:
                if not self.allocator.can_admit(
                    request.request_id,
                    request.prompt_tokens,
                    request.prefix_id,
                    request.prefix_tokens,
                ):
                    break
                cached = self.allocator.admit(
                    request.request_id,
                    request.prompt_tokens,
                    request.prefix_id,
                    request.prefix_tokens,
                )
            queue.popleft()
            request.admitted_s = self.now
            if request.handoff_s is not None:
                # A failed KV ship re-prefilling on the decode side.
                request.decode_admitted_s = self.now
            request.prefix_hit = cached > 0
            self._insert_running(
                _Running(
                    request=request,
                    prefill_remaining=max(request.prompt_tokens - cached, 1),
                )
            )

    # --------------------------------------------------------- phase shifts
    def _finish_prefill(self, seq: _Running) -> None:
        """Move a sequence whose prompt just drained into the decode set."""
        request_id = seq.request.request_id
        self._prefilling.pop(request_id, None)
        if self.handoff_mode:
            # The first token is out; the rest of the generation belongs
            # to a decode engine.  KV release is deferred to the end of
            # the step so this iteration's batched appends still land.
            self.running.pop(request_id, None)
            self.handoffs += 1
            self._handoff_done.append(seq.request)
            self._handoff_release.append(request_id)
            return
        self._decoding[request_id] = seq
        if not seq.finished:
            self.scheduler.on_decode_ready(seq)

    def drain_finished(self) -> List[Request]:
        """Hand over (and clear) the requests whose prefill completed.

        Only meaningful with ``handoff_mode=True``; the caller owns
        shipping their KV to a decode engine and pricing the transfer.
        """
        done = self._handoff_done
        self._handoff_done = []
        return done

    # ------------------------------------------------------------ main loop
    def step(self, pending: Deque[Request]) -> str:
        """One trip through the discrete-event loop.

        ``pending`` is the engine's arrival queue (sorted by ``arrival_s``);
        callers that feed requests incrementally (the fleet layer) own the
        deque and push routed arrivals onto it between steps.  Returns one of

        * :data:`STEP_RAN` — an iteration executed and the clock advanced by
          its latency;
        * :data:`STEP_ADVANCED` — nothing was runnable, so the clock jumped
          to the next arrival / retry-ready time;
        * :data:`STEP_IDLE` — no running, queued, preempted, or retrying
          work remains: the engine is drained.

        ``run`` is exactly a loop over this method, so fleet-driven replicas
        follow bit-identical trajectories to a standalone engine.
        """
        if self._injector is not None:
            self._deliver_faults()
        handoffs_before = self.handoffs
        self._try_admit(pending)
        if not self.running:
            if not pending and not self._preempted and not self._retry_queue:
                return STEP_IDLE
            if pending or self._retry_queue:
                next_times = []
                if pending:
                    next_times.append(_arrival_time(pending[0]))
                if self._retry_queue:
                    next_times.append(self._retry_queue[0][0])
                target = min(next_times)
                if not pending and target <= self.now:
                    raise SchedulerError(
                        "retried sequences can never be re-admitted (KV too small)"
                    )
                self.now = max(self.now, target)
                return STEP_ADVANCED
            raise SchedulerError(
                "preempted sequences can never be re-admitted (KV too small)"
            )
        prefill_work, decoding = self.scheduler.plan_iteration(self)
        prefill_tokens = sum(tokens for _, tokens in prefill_work)
        iter_time = self.cost.time(prefill_tokens, len(decoding))
        if iter_time <= 0:
            raise SchedulerError("scheduler produced an empty iteration")
        self.now += iter_time
        self.busy_s += iter_time
        self.iterations += 1
        if self.allocator is not None:
            self.allocator.stats.observe()
        # This iteration's KV appends: the first token of each completing
        # prefill, then one per decoding sequence. If the allocator can take
        # them all, they land in one call after the loop and no sequence can
        # be preempted mid-iteration. Otherwise each is appended in turn,
        # preempting under pressure, and the membership checks skip victims.
        append_pairs: List[Tuple[str, int]] = [
            (seq.request.request_id, 1)
            for seq, tokens in prefill_work
            if tokens == seq.prefill_remaining and seq.decoded == 0
        ]
        append_pairs.extend((seq.request.request_id, 1) for seq in decoding)
        allocator = self.allocator
        one_by_one = allocator is not None and not allocator.can_append_all(append_pairs)
        running = self.running
        for seq, tokens in prefill_work:
            request_id = seq.request.request_id
            if request_id not in running:
                continue  # preempted earlier in this iteration
            seq.prefill_remaining -= tokens
            if not seq.prefilling:
                if seq.decoded == 0:
                    seq.request.first_token_s = self.now
                    seq.request.token_times.append(self.now)
                    seq.decoded = 1
                    if one_by_one:
                        self._safe_append(request_id, 1)
                if request_id in running:
                    self._finish_prefill(seq)
        for seq in decoding:
            request_id = seq.request.request_id
            if request_id not in running:
                continue  # preempted earlier in this iteration
            seq.decoded += 1
            seq.request.token_times.append(self.now)
            if one_by_one:
                self._safe_append(request_id, 1)
            if request_id in running and not seq.finished:
                self.scheduler.on_decode_ready(seq)
        if allocator is not None and not one_by_one:
            allocator.append_many(append_pairs)
        # Release handed-off sequences' local KV (deferred past the
        # batched appends above; the shipped copy is the decode side's).
        if self._handoff_release:
            for request_id in self._handoff_release:
                if self.allocator is not None:
                    if self.keep_prefix_on_release and isinstance(
                        self.allocator, PagedAllocator
                    ):
                        self.allocator.release(request_id, keep_for_prefix=True)
                    else:
                        self.allocator.release(request_id)
            self._handoff_release = []
        # Retire finished sequences (they all sit in the decode set).
        finished_ids = [
            rid for rid, seq in self._decoding.items() if seq.finished
        ]
        for request_id in finished_ids:
            seq = self._decoding.pop(request_id)
            self.running.pop(request_id, None)
            seq.request.finished_s = self.now
            self.completed_total += 1
            if self.allocator is not None:
                if self.keep_prefix_on_release and isinstance(
                    self.allocator, PagedAllocator
                ):
                    self.allocator.release(request_id, keep_for_prefix=True)
                else:
                    self.allocator.release(request_id)
        if self.handoffs > handoffs_before:
            return STEP_HANDOFF  # signal the fleet layer to drain_finished()
        return STEP_RAN

    def run(self, requests: Sequence[Request]) -> List[Request]:
        """Simulate to completion; returns the requests with timelines filled."""
        pending: Deque[Request] = deque(sorted(requests, key=lambda r: r.arrival_s))
        total = len(pending)
        completed_start = self.completed_total
        rejected_start = self.rejected
        while (
            self.completed_total
            - completed_start
            + (self.rejected - rejected_start)
            < total
        ):
            if self.step(pending) == STEP_IDLE:
                break
        return list(requests)
