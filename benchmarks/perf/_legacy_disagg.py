"""FROZEN naive pool DES: the pre-optimization disaggregated fleet.

This module preserves the straightforward implementation of the
prefill/decode pool simulator that :func:`repro.inference.pools.
run_pool_fleet` replaced, as the perf + parity baseline.  **Do not
edit**: ``benchmarks/perf/harness_disagg.py`` and ``tests/test_pools.py``
assert the optimized loop stays bitwise-identical to this one, the same
contract ``_legacy_fleet.py`` carries for the colocated fleet.

The naive shape, deliberately kept:

* **one global event heap** holding every future arrival (all pushed up
  front), finish, KV-handoff arrival, retry, spawn, death, and autoscale
  tick as ``(time, priority, a, b, c)`` tuples — every pop pays O(log n)
  over a heap that starts at workload size;
* **stale-event tombstones**: deaths and migrations cannot remove finish
  or handoff records from the global heap, so requests carry generation
  tags (``gen`` for finishes, ``seq`` for handoffs) and stale entries are
  skipped on pop;
* **full load rescans**: every routing decision — prefill *and* decode
  side — walks the replica objects computing load keys in Python;
* **per-handoff linear scans**: every KV ship rescans the complete
  KV_TRANSFER_FAIL / KV_DEGRADED window lists from the top.

Event order is identical to the optimized loop by construction — the
priority ladder death(0) < spawn(1) < finish(2) < handoff(3) < retry(4)
< arrival(5) < tick(6) is encoded in the tuple's second field — and
every latency/transfer expression is written token-for-token the same,
so results agree bitwise (``FleetResult.equals``).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ConfigError, SchedulerError
from repro.faults import (
    KV_DEGRADED,
    KV_TRANSFER_FAIL,
    REPLICA_DEATH,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
    pool_target,
)
from repro.inference.fleet import (
    AutoscalePolicy,
    FleetResult,
    FleetWorkload,
    ReplicaModel,
)
from repro.inference.pools import (
    ROLE_COLOCATED,
    ROLE_DECODE,
    ROLE_NAMES,
    ROLE_PREFILL,
    PoolSpec,
)
from repro.inference.request import SLO
from repro.utils import derive_rng

_INF = float("inf")


class _PoolRecord:
    """Mutable per-request state, one Python object per request."""

    def __init__(
        self,
        index: int,
        arrival_s: float,
        prompt_tokens: int,
        output_tokens: int,
        prefix_code: int,
        prefix_tokens: int,
    ) -> None:
        self.index = index
        self.request_id = f"req-{index:07d}"
        self.arrival_s = arrival_s
        self.prompt_tokens = prompt_tokens
        self.output_tokens = output_tokens
        self.prefix_code = prefix_code
        self.prefix_tokens = prefix_tokens
        self.replica = -1
        self.start_s = float("nan")
        self.first_token_s = float("nan")
        self.decode_replica = -1
        self.decode_start_s = float("nan")
        self.finish_s = float("nan")
        self.retries = 0
        self.rejected = False
        self.prefix_hit_tokens = 0
        self.gen = 0  # finish-event generation (tombstones stale entries)
        self.flag = 0  # decode-entry kind: 0 ship, 1 re-prefill, 2 resume
        self.src = -1  # prefill replica pinning the prompt KV
        self.seq = -1  # live handoff sequence number (-1 = not in transfer)
        self.rem = 0.0  # remaining decode seconds for flag-2 entries
        self.next_t = float("nan")  # scheduled finish/first time (sort key)


class _PoolReplica:
    """One replica: queue, in-flight registry, KV ledger, prefix cache."""

    def __init__(self, index: int, role: int) -> None:
        self.index = index
        self.role = role
        self.queue: Deque[_PoolRecord] = deque()
        self.in_flight: Dict[str, _PoolRecord] = {}
        self.incoming: Dict[int, float] = {}  # handoff seq -> arrival time
        self.running = 0
        self.kv_used = 0
        self.prefix: Dict[int, int] = {}
        self.pins: Set[int] = set()
        self.alive = False
        self.draining = False


class LegacyPoolFleet:
    """The naive global-heap disaggregated fleet simulator (frozen)."""

    def __init__(
        self,
        n_replicas: int,
        policy: str,
        decode_policy: str = "least-loaded",
        *,
        router_seed: int = 0,
        decode_seed: int = 0,
        block_tokens: int = 64,
        model: Optional[ReplicaModel] = None,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        shed_slo: Optional[SLO] = None,
        autoscale: Optional[AutoscalePolicy] = None,
        pools: Optional[PoolSpec] = None,
    ) -> None:
        if pools is None:
            raise ConfigError("LegacyPoolFleet needs a pool spec")
        if n_replicas != pools.total:
            raise ConfigError(
                f"pool spec covers {pools.total} replicas but n_replicas={n_replicas}"
            )
        if policy not in ("random", "least-loaded", "prefix-aware"):
            raise ConfigError(f"unknown router {policy!r}")
        if decode_policy not in ("random", "least-loaded"):
            raise ConfigError(f"unknown decode router {decode_policy!r}")
        self.policy = policy
        self.decode_policy = decode_policy
        self.router_seed = router_seed
        self.decode_seed = decode_seed
        self.block_tokens = block_tokens
        self.model = model or ReplicaModel()
        self.retry = retry or RetryPolicy()
        self.shed_slo = shed_slo
        self.autoscale = autoscale
        self.pools = pools
        self.n_replicas = n_replicas
        self.max_replicas = (
            max(n_replicas, autoscale.max_replicas) if autoscale else n_replicas
        )
        self._deaths: List[FaultEvent] = (
            faults.of_kind(REPLICA_DEATH) if faults is not None else []
        )
        self._fail_windows: List[FaultEvent] = (
            faults.of_kind(KV_TRANSFER_FAIL) if faults is not None else []
        )
        self._deg_windows: List[FaultEvent] = (
            faults.of_kind(KV_DEGRADED) if faults is not None else []
        )

    # ------------------------------------------------------ fault windows
    def _fail_covers(self, t: float, request_id: str) -> bool:
        for e in self._fail_windows:  # full rescan, every ship
            if e.at_s > t:
                break
            if e.end_s >= t and (e.target is None or e.target == request_id):
                return True
        return False

    def _degraded_severity(self, t: float) -> float:
        for e in self._deg_windows:  # full rescan, every ship
            if e.at_s > t:
                break
            if e.end_s >= t:
                return e.severity
        return 1.0

    # ----------------------------------------------------------- routing
    def _load_key(self, rep: _PoolReplica) -> int:
        span = self.model.kv_capacity_tokens + 1
        return (len(rep.queue) + rep.running) * span + rep.kv_used

    def _routable_prefill(self) -> List[_PoolReplica]:
        return [
            rep
            for rep in self._replicas
            if rep.alive and not rep.draining and rep.role != ROLE_DECODE
        ]

    def _routable_decode(self) -> List[_PoolReplica]:
        return [
            rep
            for rep in self._replicas
            if rep.alive and not rep.draining and rep.role == ROLE_DECODE
        ]

    def _route_prefill(self, record: _PoolRecord) -> _PoolReplica:
        routable = self._routable_prefill()
        if not routable:
            raise SchedulerError("no routable prefill/colocated replicas")
        if self.policy == "random":
            u = float(self._rng.random())
            k = len(routable)
            j = int(u * k)
            if j >= k:
                j = k - 1
            return routable[j]
        if (
            self.policy == "prefix-aware"
            and record.prefix_code >= 0
            and record.prefix_tokens > 0
        ):
            block = self.block_tokens
            best_hit = 0
            for rep in routable:
                cached = rep.prefix.get(record.prefix_code, 0)
                m = cached if cached < record.prefix_tokens else record.prefix_tokens
                hit = m - m % block
                if hit > best_hit:
                    best_hit = hit
            if best_hit > 0:
                chosen: Optional[_PoolReplica] = None
                chosen_key = 0
                for rep in routable:
                    cached = rep.prefix.get(record.prefix_code, 0)
                    m = cached if cached < record.prefix_tokens else record.prefix_tokens
                    if m - m % block != best_hit:
                        continue
                    key = self._load_key(rep)
                    if chosen is None or key < chosen_key:
                        chosen = rep
                        chosen_key = key
                assert chosen is not None
                return chosen
        # least-loaded (also the prefix-aware fallback)
        chosen = routable[0]
        chosen_key = self._load_key(chosen)
        for rep in routable[1:]:
            key = self._load_key(rep)
            if key < chosen_key:
                chosen = rep
                chosen_key = key
        return chosen

    def _route_decode(self, record: _PoolRecord, excl: int = -1) -> _PoolReplica:
        routable = [rep for rep in self._routable_decode() if rep.index != excl]
        if not routable:
            raise SchedulerError("no routable decode replicas")
        if self.decode_policy == "random":
            u = float(self._drng.random())
            k = len(routable)
            j = int(u * k)
            if j >= k:
                j = k - 1
            return routable[j]
        chosen = routable[0]
        chosen_key = self._load_key(chosen)
        for rep in routable[1:]:
            key = self._load_key(rep)
            if key < chosen_key:
                chosen = rep
                chosen_key = key
        return chosen

    # ---------------------------------------------------------- main loop
    def run(self, workload: FleetWorkload) -> FleetResult:
        model = self.model
        pools = self.pools
        transfer = pools.transfer
        mig = pools.migration
        split = pools.split
        n = workload.n
        need_max = int((workload.prompt_tokens + workload.output_tokens).max())
        if need_max > model.kv_capacity_tokens:
            raise ConfigError(
                "a request needs more KV than one replica holds "
                f"({need_max} > {model.kv_capacity_tokens})"
            )
        self._rng = derive_rng(self.router_seed, "fleet", "router")
        self._drng = derive_rng(self.decode_seed, "fleet", "router-decode")
        records = [
            _PoolRecord(
                i,
                float(workload.arrival_s[i]),
                int(workload.prompt_tokens[i]),
                int(workload.output_tokens[i]),
                int(workload.prefix_code[i]),
                int(workload.prefix_tokens[i]),
            )
            for i in range(n)
        ]
        replicas = [
            _PoolReplica(r, pools.role_of(r) if r < pools.total else -1)
            for r in range(self.max_replicas)
        ]
        self._replicas = replicas
        for r in range(pools.total):
            replicas[r].alive = True
        alive_count = pools.total
        scale = self.autoscale
        shed = self.shed_slo
        retry_policy = self.retry
        slots = model.slots
        kv_cap = model.kv_capacity_tokens
        base = model.base_s
        per_pf = model.per_prefill_token_s
        per_out = model.per_output_token_s
        block = model.block_tokens

        # One heap for everything: (time, priority, a, b, c).
        heap: List[Tuple[float, int, int, int, int]] = []
        for i in range(n):
            heap.append((records[i].arrival_s, 5, i, 0, 0))
        for k, event in enumerate(self._deaths):
            heap.append((event.at_s, 0, k, 0, 0))
        if scale is not None:
            heap.append((scale.interval_s, 6, 0, 0, 0))
        heapq.heapify(heap)
        transfers: List[int] = []  # handoff seq -> request index
        rseq = 0
        sseq = 0
        pending_spawns = 0
        completed = 0
        rejected = 0
        deaths = spawns = drains = reroutes = 0
        handoffs = migrations = shipped_migrations = reprefills = 0
        served = [0] * self.max_replicas
        clock = 0.0

        def push(item: Tuple[float, int, int, int, int]) -> None:
            heapq.heappush(heap, item)

        # ----------------------------------------------------- KV plumbing
        def release_pin(record: _PoolRecord) -> None:
            srep = replicas[record.src]
            srep.kv_used -= record.prompt_tokens
            srep.pins.discard(record.index)
            record.src = -1

        def schedule_arrival(record: _PoolRecord, t_a: float, rep: _PoolReplica) -> None:
            sq = len(transfers)
            transfers.append(record.index)
            record.seq = sq
            rep.incoming[sq] = t_a
            push((t_a, 3, rep.index, sq, 0))

        def ship_kv(record: _PoolRecord, t: float, excl: int = -1) -> None:
            nonlocal handoffs, reprefills
            handoffs += 1
            rep = self._route_decode(record, excl)
            if self._fail_covers(t, record.request_id):
                record.retries += 1
                delay = transfer.raw_delay(record.prompt_tokens) + retry_policy.delay_s(
                    record.retries
                )
                release_pin(record)
                record.flag = 1
                reprefills += 1
            else:
                delay = transfer.visible_delay(record.prompt_tokens)
                sev = self._degraded_severity(t)
                if sev != 1.0:
                    delay /= sev
                record.flag = 0
            schedule_arrival(record, t + delay, rep)

        def ship_resume(record: _PoolRecord, t: float) -> None:
            nonlocal handoffs, reprefills
            handoffs += 1
            rep = self._route_decode(record)
            need = record.prompt_tokens + record.output_tokens
            if self._fail_covers(t, record.request_id):
                record.retries += 1
                delay = transfer.raw_delay(need) + retry_policy.delay_s(record.retries)
                record.flag = 1
                reprefills += 1
            else:
                delay = transfer.visible_delay(need)
                sev = self._degraded_severity(t)
                if sev != 1.0:
                    delay /= sev
            schedule_arrival(record, t + delay, rep)

        # ------------------------------------------------------- admission
        def try_start_colo(rep: _PoolReplica, t: float) -> None:
            nonlocal rejected
            while rep.queue and rep.running < slots:
                record = rep.queue[0]
                if shed is not None and t - record.arrival_s > shed.ttft_s:
                    rep.queue.popleft()
                    record.rejected = True
                    rejected += 1
                    continue
                need = record.prompt_tokens + record.output_tokens
                if rep.kv_used + need > kv_cap:
                    break
                rep.queue.popleft()
                rep.running += 1
                rep.kv_used += need
                hit = 0
                code = record.prefix_code
                if code >= 0:
                    pt = record.prefix_tokens
                    cached = rep.prefix.get(code)
                    if cached is not None:
                        m = cached if cached < pt else pt
                        hit = m - m % block
                    if cached is None or pt > cached:
                        rep.prefix[code] = pt
                eff = record.prompt_tokens - hit
                if eff < 1:
                    eff = 1
                first = t + (base + eff * per_pf)
                fin = first + (record.output_tokens - 1) * per_out
                record.replica = rep.index
                record.start_s = t
                record.prefix_hit_tokens = hit
                record.first_token_s = first
                record.decode_replica = rep.index
                record.decode_start_s = first
                record.finish_s = fin
                record.next_t = fin
                rep.in_flight[record.request_id] = record
                push((fin, 2, rep.index, record.index, record.gen))

        def try_start_prefill(rep: _PoolReplica, t: float) -> None:
            nonlocal rejected
            while rep.queue and rep.running < slots:
                record = rep.queue[0]
                if shed is not None and t - record.arrival_s > shed.ttft_s:
                    rep.queue.popleft()
                    record.rejected = True
                    rejected += 1
                    continue
                need = record.prompt_tokens  # prefill holds prompt KV only
                if rep.kv_used + need > kv_cap:
                    break
                rep.queue.popleft()
                rep.running += 1
                rep.kv_used += need
                hit = 0
                code = record.prefix_code
                if code >= 0:
                    pt = record.prefix_tokens
                    cached = rep.prefix.get(code)
                    if cached is not None:
                        m = cached if cached < pt else pt
                        hit = m - m % block
                    if cached is None or pt > cached:
                        rep.prefix[code] = pt
                eff = record.prompt_tokens - hit
                if eff < 1:
                    eff = 1
                first = t + (base + eff * per_pf)
                record.replica = rep.index
                record.start_s = t
                record.prefix_hit_tokens = hit
                record.first_token_s = first
                record.next_t = first
                rep.in_flight[record.request_id] = record
                push((first, 2, rep.index, record.index, record.gen))

        def try_start_decode(rep: _PoolReplica, t: float) -> None:
            freed: List[int] = []
            while rep.queue and rep.running < slots:
                record = rep.queue[0]
                need = record.prompt_tokens + record.output_tokens
                if rep.kv_used + need > kv_cap:
                    break
                rep.queue.popleft()
                rep.running += 1
                rep.kv_used += need
                flag = record.flag
                if flag == 0:
                    fin = t + (record.output_tokens - 1) * per_out
                    freed.append(record.src)
                    release_pin(record)
                elif flag == 1:
                    fin = (
                        t
                        + (base + record.prompt_tokens * per_pf)
                        + (record.output_tokens - 1) * per_out
                    )
                else:
                    fin = t + record.rem
                record.decode_replica = rep.index
                record.decode_start_s = t
                record.finish_s = fin
                record.next_t = fin
                rep.in_flight[record.request_id] = record
                push((fin, 2, rep.index, record.index, record.gen))
            for src in freed:  # may repeat a source; try_start is idempotent
                srep = replicas[src]
                if srep.queue and srep.running < slots:
                    try_start_prefill(srep, t)
                if (
                    srep.draining
                    and srep.running == 0
                    and not srep.queue
                    and srep.kv_used == 0
                    and not srep.incoming
                ):
                    retire(srep)

        # --------------------------------------------------------- routing
        def route_arrival(record: _PoolRecord, t: float) -> None:
            rep = self._route_prefill(record)
            rep.queue.append(record)
            if rep.running < slots:
                if rep.role == ROLE_COLOCATED:
                    try_start_colo(rep, t)
                else:
                    try_start_prefill(rep, t)

        def requeue_decode(record: _PoolRecord, t: float) -> None:
            nonlocal reprefills
            if record.flag == 0:
                ship_kv(record, t)  # payload must cross the wire again
                return
            if record.flag == 2:
                record.flag = 1  # the shipped snapshot is gone
                reprefills += 1
            rep = self._route_decode(record)
            rep.queue.append(record)
            if rep.running < slots:
                try_start_decode(rep, t)

        def migrate_entry(record: _PoolRecord, t: float, excl: int) -> None:
            nonlocal migrations, shipped_migrations, reprefills
            migrations += 1
            flag = record.flag
            if flag == 0:
                src = record.src
                srep = replicas[src]
                if transfer.ship_wins(
                    record.prompt_tokens, base + record.prompt_tokens * per_pf
                ):
                    shipped_migrations += 1
                    ship_kv(record, t, excl)
                    if record.flag == 1:  # the re-ship failed: source KV freed
                        if srep.queue and srep.running < slots:
                            try_start_prefill(srep, t)
                        if (
                            srep.draining
                            and srep.running == 0
                            and not srep.queue
                            and srep.kv_used == 0
                            and not srep.incoming
                        ):
                            retire(srep)
                    return
                release_pin(record)
                record.flag = 1
                reprefills += 1
                rep = self._route_decode(record, excl)
                rep.queue.append(record)
                if rep.running < slots:
                    try_start_decode(rep, t)
                if srep.queue and srep.running < slots:
                    try_start_prefill(srep, t)
                if (
                    srep.draining
                    and srep.running == 0
                    and not srep.queue
                    and srep.kv_used == 0
                    and not srep.incoming
                ):
                    retire(srep)
                return
            if flag == 2:
                record.flag = 1
                reprefills += 1
            rep = self._route_decode(record, excl)
            rep.queue.append(record)
            if rep.running < slots:
                try_start_decode(rep, t)

        def retire(rep: _PoolReplica) -> None:
            nonlocal alive_count, drains
            rep.alive = False
            rep.draining = False
            rep.prefix = {}
            alive_count -= 1
            drains += 1

        def retry_or_reject(record: _PoolRecord, event: FaultEvent) -> None:
            nonlocal rejected, rseq
            record.retries += 1
            record.replica = -1
            record.start_s = float("nan")
            record.prefix_hit_tokens = 0
            record.first_token_s = float("nan")
            record.decode_replica = -1
            record.decode_start_s = float("nan")
            record.finish_s = float("nan")
            record.src = -1
            record.flag = 0
            record.seq = -1
            record.rem = 0.0
            record.gen += 1  # tombstone any stale finish event
            if retry_policy.exhausted(record.retries):
                record.rejected = True
                rejected += 1
            else:
                ready = event.end_s + retry_policy.delay_s(record.retries)
                push((ready, 4, rseq, record.index, 0))
                rseq += 1

        def drain_decode(rep: _PoolReplica, t: float) -> None:
            nonlocal migrations, shipped_migrations, reprefills
            assert mig is not None
            while rep.queue:
                record = rep.queue.popleft()
                migrate_entry(record, t, -1)
            if rep.in_flight:
                moved = sorted(
                    rep.in_flight.values(), key=lambda q: (q.next_t, q.index)
                )
                for record in moved:
                    record.gen += 1  # tombstone the stale finish event
                    rep.running -= 1
                    rep.kv_used -= record.prompt_tokens + record.output_tokens
                    remaining = record.next_t - t
                    recompute = (base + record.prompt_tokens * per_pf) + (
                        record.output_tokens - 1
                    ) * per_out
                    migrations += 1
                    if transfer.ship_wins(
                        record.prompt_tokens + record.output_tokens,
                        recompute,
                        remaining,
                    ):
                        shipped_migrations += 1
                        record.flag = 2
                        record.rem = remaining
                        record.src = -1
                        ship_resume(record, t)
                    else:
                        reprefills += 1
                        record.flag = 1
                        record.src = -1
                        drep = self._route_decode(record)
                        drep.queue.append(record)
                        if drep.running < slots:
                            try_start_decode(drep, t)
                rep.in_flight = {}

        while completed + rejected < n:
            if not heap:
                raise SchedulerError(
                    "pool fleet stalled: queued work but no runnable event "
                    f"({completed + rejected}/{n} settled)"
                )
            t, prio, a, b, c = heapq.heappop(heap)
            clock = t
            if prio == 5:  # arrival
                route_arrival(records[a], t)
            elif prio == 2:  # finish (maybe stale)
                record = records[b]
                if record.gen != c:
                    continue
                rep = replicas[a]
                role = rep.role
                if role == ROLE_PREFILL:
                    del rep.in_flight[record.request_id]
                    rep.running -= 1
                    served[a] += 1
                    record.src = a
                    rep.pins.add(record.index)
                    ship_kv(record, t)
                    if rep.queue and rep.running < slots:
                        try_start_prefill(rep, t)
                elif role == ROLE_DECODE:
                    del rep.in_flight[record.request_id]
                    rep.running -= 1
                    rep.kv_used -= record.prompt_tokens + record.output_tokens
                    completed += 1
                    served[a] += 1
                    if rep.queue:
                        try_start_decode(rep, t)
                else:
                    del rep.in_flight[record.request_id]
                    rep.running -= 1
                    rep.kv_used -= record.prompt_tokens + record.output_tokens
                    completed += 1
                    served[a] += 1
                    if rep.queue:
                        try_start_colo(rep, t)
                if (
                    rep.draining
                    and rep.running == 0
                    and not rep.queue
                    and rep.kv_used == 0
                    and not rep.incoming
                ):
                    retire(rep)
            elif prio == 3:  # KV handoff arrival (maybe stale)
                record = records[transfers[b]]
                if record.seq != b:
                    continue
                rep = replicas[a]
                del rep.incoming[b]
                record.seq = -1
                rep.queue.append(record)
                if rep.running < slots:
                    try_start_decode(rep, t)
            elif prio == 4:  # retry ready
                route_arrival(records[b], t)
            elif prio == 0:  # replica death
                event = self._deaths[a]
                role_want = pool_target(event.target)
                victim: Optional[_PoolReplica] = None
                if event.target is not None and role_want is None:
                    name = event.target
                    if name.startswith("replica-"):
                        slot = int(name[len("replica-") :])
                        if 0 <= slot < self.max_replicas and replicas[slot].alive:
                            victim = replicas[slot]
                else:
                    want = -1 if role_want is None else ROLE_NAMES.index(role_want)
                    cands = [
                        rep
                        for rep in replicas
                        if rep.alive
                        and not rep.draining
                        and (want < 0 or rep.role == want)
                    ]
                    if not cands:
                        cands = [
                            rep
                            for rep in replicas
                            if rep.alive and (want < 0 or rep.role == want)
                        ]
                    if cands:
                        victim = cands[deaths % len(cands)]
                if victim is None:
                    continue
                deaths += 1
                rep = victim
                role = rep.role
                rep.alive = False
                rep.draining = False
                alive_count -= 1
                # Requests whose prompt KV was pinned on the victim lose
                # it and continue as decode-side re-prefills.
                if rep.pins:
                    for i in sorted(rep.pins):
                        rec = records[i]
                        rec.src = -1
                        rec.flag = 1
                        reprefills += 1
                    rep.pins = set()
                in_flight = sorted(
                    rep.in_flight.values(), key=lambda q: (q.next_t, q.index)
                )
                stranded = list(rep.queue)
                rep.queue.clear()
                incoming = sorted((ta, sq) for sq, ta in rep.incoming.items())
                rep.incoming = {}
                rep.in_flight = {}
                rep.running = 0
                rep.kv_used = 0
                if role != ROLE_DECODE:
                    rep.prefix = {}
                for rec in in_flight:
                    retry_or_reject(rec, event)
                if role == ROLE_DECODE:
                    for rec in stranded:
                        reroutes += 1
                        requeue_decode(rec, event.at_s)
                    for t_a, sq in incoming:
                        rec = records[transfers[sq]]
                        rec.seq = -1
                        reroutes += 1
                        if rec.flag == 0:
                            ship_kv(rec, event.at_s)  # source still pins it
                        else:
                            if rec.flag == 2:
                                rec.flag = 1  # snapshot died with the replica
                                reprefills += 1
                            drep = self._route_decode(rec)
                            schedule_arrival(rec, t_a, drep)  # redirect
                else:
                    for rec in stranded:
                        reroutes += 1
                        route_arrival(rec, event.at_s)
            elif prio == 1:  # spawn ready
                pending_spawns -= 1
                slot: Optional[_PoolReplica] = None
                for rep in replicas:
                    if not rep.alive:
                        slot = rep
                        break
                if slot is not None:
                    slot.alive = True
                    slot.draining = False
                    slot.role = c
                    alive_count += 1
                    spawns += 1
            else:  # autoscale tick
                assert scale is not None
                push((t + scale.interval_s, 6, 0, 0, 0))
                routable_p = self._routable_prefill()
                routable_d = self._routable_decode()
                nr_p = len(routable_p)
                nr_d = len(routable_d)
                if nr_p > 0 or nr_d > 0:
                    wp = sum(len(rep.queue) for rep in routable_p)
                    mp = wp / nr_p if nr_p > 0 else _INF
                    if split:
                        wd = sum(len(rep.queue) for rep in routable_d)
                        md = wd / nr_d if nr_d > 0 else _INF
                        if mp >= md:
                            srole, sper = ROLE_PREFILL, mp
                        else:
                            srole, sper = ROLE_DECODE, md
                    else:
                        srole, sper = ROLE_COLOCATED, mp
                    if (
                        sper > scale.high_queue_per_replica
                        and alive_count + pending_spawns < scale.max_replicas
                    ):
                        push(
                            (t + scale.spawn_delay_s + pools.warmup_s, 1, sseq, 0, srole)
                        )
                        sseq += 1
                        pending_spawns += 1
                    elif not split:
                        if (
                            mp < scale.low_queue_per_replica
                            and nr_p > scale.min_replicas
                        ):
                            rep = routable_p[nr_p - 1]
                            rep.draining = True
                            if (
                                rep.running == 0
                                and not rep.queue
                                and rep.kv_used == 0
                            ):
                                retire(rep)  # colocated: never a handoff target
                    elif (
                        mp < scale.low_queue_per_replica
                        and nr_p > 1
                        and alive_count > scale.min_replicas
                    ):
                        rep = routable_p[nr_p - 1]
                        rep.draining = True
                        if (
                            rep.running == 0
                            and not rep.queue
                            and rep.kv_used == 0
                            and not rep.incoming
                        ):
                            retire(rep)
                    elif (
                        md < scale.low_queue_per_replica
                        and nr_d > 1
                        and alive_count > scale.min_replicas
                    ):
                        rep = routable_d[nr_d - 1]
                        rep.draining = True
                        if mig is not None:
                            drain_decode(rep, t)
                        if (
                            rep.running == 0
                            and not rep.queue
                            and rep.kv_used == 0
                            and not rep.incoming
                        ):
                            retire(rep)
                routable_d = self._routable_decode()
                if mig is not None and len(routable_d) >= 2:
                    wd = sum(len(rep.queue) for rep in routable_d)
                    mean_d = wd / len(routable_d)
                    for rep in routable_d:
                        d = len(rep.queue)
                        if d >= mig.min_queue and d > mig.hot_queue_ratio * mean_d:
                            excess = d - int(mean_d)
                            for _ in range(excess):
                                if not rep.queue:
                                    break
                                record = rep.queue.pop()  # tail waited least
                                migrate_entry(record, t, rep.index)

        bad = [
            rep.index
            for rep in replicas
            if rep.kv_used != 0 or rep.running != 0 or rep.pins
        ]
        if bad:
            raise SchedulerError(f"KV ledger leak after pool run: replicas {bad}")

        return FleetResult(
            replica=np.asarray([q.replica for q in records], dtype=np.int64),
            start_s=np.asarray([q.start_s for q in records], dtype=np.float64),
            first_token_s=np.asarray(
                [q.first_token_s for q in records], dtype=np.float64
            ),
            finish_s=np.asarray([q.finish_s for q in records], dtype=np.float64),
            retries=np.asarray([q.retries for q in records], dtype=np.int64),
            rejected=np.asarray([q.rejected for q in records], dtype=np.bool_),
            prefix_hit_tokens=np.asarray(
                [q.prefix_hit_tokens for q in records], dtype=np.int64
            ),
            completed=completed,
            rejected_total=rejected,
            deaths=deaths,
            spawns=spawns,
            drains=drains,
            reroutes=reroutes,
            served_per_replica=np.asarray(served, dtype=np.int64),
            sim_end_s=clock,
            decode_replica=np.asarray(
                [q.decode_replica for q in records], dtype=np.int64
            ),
            decode_start_s=np.asarray(
                [q.decode_start_s for q in records], dtype=np.float64
            ),
            handoffs=handoffs,
            migrations=migrations,
            shipped_migrations=shipped_migrations,
            reprefills=reprefills,
        )
