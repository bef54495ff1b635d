"""Disaggregated prefill/decode replica pools (DistServe [69], Splitwise
[44], Mooncake [45]), at two fidelities.

* :func:`run_pool_fleet` — the request-level pool DES at fleet scale
  (below);
* :class:`DisaggEngineFleet` — token-level: an
  :class:`~repro.inference.fleet.EngineFleet` whose replicas are a
  prefill pool of real engines shipping KV to a decode pool, run by the
  one token-level loop :func:`~repro.inference.fleet.serve_engines`.
  :func:`sweep_splits` (E4) compares a colocated ``EngineFleet`` against
  every prefill/decode split of the same engines.

In the pool DES :class:`ClusterFleet` replicas carry a **role** —
prefill, decode, or colocated — requests route prefix-aware over the
prefill pool, finished prefills ship their KV to a decode replica chosen
least-loaded, and the ship is priced by the shared
:class:`~repro.inference.transfer.TransferModel` (degraded windows and
transfer failures included).  On top of the handoff sit the ROADMAP
item-1 follow-ons: KV-aware **migration** of queued and running decode
work off hot or draining replicas (ship vs re-prefill decided by
:meth:`TransferModel.ship_wins`), pool-aware :data:`REPLICA_DEATH`
(``"pool-prefill"`` targets), and a **warm-up** delay on autoscale spawn.

Request life cycle (the "pull" KV protocol)::

    arrival --route--> prefill pool: queue, admit (KV = prompt), serve
      |  prefill finish: slot freed, KV stays *pinned* on the source
      +--ship--> decode pool: arrival event after the priced wire delay
            queue at dst, admit (KV = prompt+output); the source pin is
            released only now -- unshipped KV backpressures the prefill
            pool, exactly the failure mode disaggregation papers fight.
      |  decode finish: KV freed, request complete.

Colocated replicas serve end to end with one closed-form interval.
:func:`run_pool_fleet` is the only request-level fleet event loop: a
plain ``ClusterFleet`` (no ``pools``) runs here as
``PoolSpec(colocated=n_replicas)``, and its results stay bitwise equal to
the frozen naive fleet (``benchmarks/perf/_legacy_fleet.py``), which is
the metamorphic anchor for the colocated role.

The loop has one rule per mechanism, shared by every role: one admission
closure for prefill and colocated replicas (they differ only in the KV
they reserve and the heap key: first token vs finish), one decode
admission, one KV ship (the payload size follows the request's decode-entry
kind), one decode enqueue, and one retire-if-idle test.  The per-role table
``role_keys`` picks a replica's load-key array.

perf_opt contract: ``benchmarks/perf/_legacy_disagg.py`` freezes the
naive pool DES — one global event heap over every arrival, finish,
handoff, retry and tick (stale entries lazily invalidated by generation
tags), per-decision full rescans of replica load, and per-handoff linear
scans of the fault windows.  The loop below shards all of that: one
finish heap per replica merged through a ``(top, replica)`` tournament,
one *incoming-handoff* heap per decode replica merged the same way,
packed integer load keys per role maintained incrementally, and
advancing cursors over the time-sorted fault windows.  Both realize the
identical total event order

    death < spawn < finish < handoff-arrival < retry < arrival < tick

(ties at equal time; finishes tie-break on ``(replica, request)``,
handoffs on ``(destination, ship sequence)``), so parity is bitwise
(``FleetResult.equals``) in every timed benchmark case.
"""

from __future__ import annotations

import copy
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ConfigError, SchedulerError
from ..faults import (
    KV_DEGRADED,
    KV_TRANSFER_FAIL,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
    pool_target,
)
from ..utils import check_finite_fields, check_int_fields
from .fleet import (
    ClusterFleet,
    EngineFleet,
    FleetResult,
    FleetWorkload,
    _EngineReplica,
    _death_victim,
    serve_engines,
)
from .metrics import ServingReport, summarize
from .request import SLO, Request
from .router import (
    HUGE_KEY,
    LeastLoadedRouter,
    PrefixAwareRouter,
    Router,
    pick,
    prefix_holder,
    routing_mode,
    uniforms,
)
from .scheduler import ContinuousBatchScheduler, IterationCost, ServingEngine
from .transfer import TransferModel

_INF = float("inf")

#: Replica roles, by slot position in a :class:`PoolSpec`.
ROLE_PREFILL = 0
ROLE_DECODE = 1
ROLE_COLOCATED = 2

ROLE_NAMES: Tuple[str, ...] = ("prefill", "decode", "colocated")


@dataclass(frozen=True)
class MigrationPolicy:
    """When and how queued/running decode work moves between replicas.

    A decode replica is *hot* when its queue exceeds ``hot_queue_ratio``
    times the pool mean (and at least ``min_queue``); each autoscale tick
    migrates its excess tail to the least-loaded other replica.  A
    draining decode replica evacuates its whole backlog and every
    in-flight decode at once; there is no knob to keep either, because a
    backlog left on a replica that moved its running work away is never
    admitted again.  Each request ships its KV only when
    :meth:`TransferModel.ship_wins` says the wire beats a from-scratch
    re-prefill (the explicit break-even rule).
    """

    hot_queue_ratio: float = 3.0
    min_queue: int = 4

    def __post_init__(self) -> None:
        check_finite_fields(self, allow_inf=("hot_queue_ratio",))
        check_int_fields(self, "min_queue")
        if self.hot_queue_ratio <= 1.0:
            raise ConfigError("hot_queue_ratio must exceed 1")
        if self.min_queue < 1:
            raise ConfigError("min_queue must be >= 1")


@dataclass(frozen=True)
class PoolSpec:
    """Role layout of a disaggregated fleet.

    Slot indices are assigned in order: ``[0, prefill)`` prefill,
    ``[prefill, prefill+decode)`` decode, then colocated.  Autoscale
    spawns join the pressured pool and pay ``warmup_s`` (model load +
    cache transfer) on top of the autoscale spawn delay.
    """

    prefill: int = 0
    decode: int = 0
    colocated: int = 0
    transfer: TransferModel = field(default_factory=TransferModel)
    warmup_s: float = 0.0
    migration: Optional[MigrationPolicy] = None

    def __post_init__(self) -> None:
        check_finite_fields(self, "warmup_s")
        check_int_fields(self, "prefill", "decode", "colocated")
        for name in ("prefill", "decode", "colocated"):
            if getattr(self, name) < 0:
                raise ConfigError(f"pool size {name!r} must be non-negative")
        if self.total < 1:
            raise ConfigError("a pool spec needs at least one replica")
        if (self.prefill > 0) != (self.decode > 0):
            raise ConfigError(
                "prefill and decode pools come in pairs: a prefill-only or "
                "decode-only fleet cannot serve a request end to end"
            )
        if self.warmup_s < 0.0:
            raise ConfigError("warmup_s must be non-negative")

    @property
    def total(self) -> int:
        """Total replica slots across all roles."""
        return self.prefill + self.decode + self.colocated

    @property
    def split(self) -> bool:
        """Does the spec actually disaggregate (vs all-colocated)?"""
        return self.prefill > 0

    def role_of(self, slot: int) -> int:
        """The role of an *initial* slot (spawned slots are dynamic)."""
        if slot < self.prefill:
            return ROLE_PREFILL
        if slot < self.prefill + self.decode:
            return ROLE_DECODE
        return ROLE_COLOCATED


def make_pool_routers(*, block_tokens: int = 64) -> Tuple[Router, Router]:
    """The recommended pair: prefix-aware prefill, least-loaded decode.

    Prefix caches only pay on the pool that runs prefills; decode
    placement is pure load balancing (the KV arrives by wire either way).
    """
    return (PrefixAwareRouter(block_tokens=block_tokens), LeastLoadedRouter())


def _tournament_min(heap: List[Tuple[float, int]], tops: List[float]) -> float:
    """Drop stale heads off a lazy ``(top, replica)`` tournament heap.

    An entry is live while it equals its replica's ``tops`` value; returns
    the live minimum (``inf`` once nothing is live).
    """
    while heap:
        t, r = heap[0]
        if tops[r] == t:
            return t
        heapq.heappop(heap)
    return _INF


# The loop below is the optimized counterpart of
# benchmarks/perf/_legacy_disagg.py:LegacyPoolFleet.run and, on plain
# fleets, of benchmarks/perf/_legacy_fleet.py:LegacyClusterFleet.run — any
# change here must preserve bitwise FleetResult parity with both.
def run_pool_fleet(
    fleet: "ClusterFleet", workload: FleetWorkload, pools: PoolSpec
) -> FleetResult:
    """Simulate ``workload`` on ``fleet`` laid out as ``pools`` (sharded pool DES).

    This is the one request-level fleet event loop: a plain
    :class:`ClusterFleet` runs here as ``PoolSpec(colocated=n_replicas)``.
    An empty workload returns an empty result.
    """
    model = fleet.model
    n = workload.n
    need_l: List[int] = (workload.prompt_tokens + workload.output_tokens).tolist()
    need_max = max(need_l, default=0)
    if need_max > model.kv_capacity_tokens:
        raise ConfigError(
            "a request needs more KV than one replica holds "
            f"({need_max} > {model.kv_capacity_tokens})"
        )
    # +inf sentinel past the last arrival: the hot loop reads arr_l[ptr]
    # with no bounds test.
    arr_l: List[float] = workload.arrival_s.tolist() + [_INF]
    prompt_l: List[int] = workload.prompt_tokens.tolist()
    out_l: List[int] = workload.output_tokens.tolist()
    code_l: List[int] = workload.prefix_code.tolist()
    ptok_l: List[int] = workload.prefix_tokens.tolist()

    max_replicas = fleet.max_replicas
    transfer = pools.transfer
    mig = pools.migration
    split = pools.split

    role_l = [pools.role_of(r) for r in range(pools.total)] + [-1] * (
        max_replicas - pools.total
    )

    # Mode 0 random, 1 least-loaded, 2 prefix-aware (router.routing_mode);
    # a decode router is random or least-loaded (the default).
    router = fleet.router
    decode_router = fleet.decode_router
    mode = routing_mode(router)
    if mode == 0:
        route_u = uniforms(router)
    block_route = router.block_tokens if mode == 2 else model.block_tokens
    random_d = decode_router is not None and routing_mode(decode_router, decode=True) == 0
    if random_d:
        droute_u = uniforms(decode_router)

    huge = HUGE_KEY
    span = model.kv_capacity_tokens + 1
    alive = [True] * pools.total + [False] * (max_replicas - pools.total)
    draining = [False] * max_replicas
    routable_f = list(alive)
    alive_count = pools.total
    depth_l = [0] * max_replicas
    running_l = [0] * max_replicas
    kv_l = [0] * max_replicas
    routable_p = [r for r in range(max_replicas) if routable_f[r] and role_l[r] != ROLE_DECODE]
    routable_d = [r for r in range(max_replicas) if routable_f[r] and role_l[r] == ROLE_DECODE]
    # One packed load key per replica, in its pool's array; the other
    # array keeps `huge` so an argmin can never cross pools.
    pkey_l = [0 if r in routable_p else huge for r in range(max_replicas)]
    dkey_l = [0 if r in routable_d else huge for r in range(max_replicas)]
    role_keys = (pkey_l, dkey_l, pkey_l)  # indexed by role
    prefix_tab: Dict[int, List[int]] = {}
    holders: Dict[int, List[int]] = {}

    queues: List[Deque[int]] = [deque() for _ in range(max_replicas)]
    heaps: List[List[Tuple[float, int]]] = [[] for _ in range(max_replicas)]
    tops: List[float] = [_INF] * max_replicas
    fheap: List[Tuple[float, int]] = []
    fin_min = _INF
    # Incoming-handoff heaps: per decode replica, (arrival time, ship seq),
    # merged through the same lazy tournament pattern as the finish heaps.
    inc: List[List[Tuple[float, int]]] = [[] for _ in range(max_replicas)]
    itops: List[float] = [_INF] * max_replicas
    iheap: List[Tuple[float, int]] = []
    inc_min = _INF
    tq_i: List[int] = []  # ship seq -> request index

    # Per-request disaggregation state.  st_src pins the prefill replica
    # still holding the prompt KV (-1 = none); st_flag is the decode-entry
    # kind: 0 = KV ships/shipped (pin live), 1 = re-prefill on the decode
    # replica (KV lost), 2 = migrated mid-decode (st_rem seconds left).
    st_src = [-1] * n
    st_flag = [0] * n
    st_rem = [0.0] * n
    pins: List[Set[int]] = [set() for _ in range(max_replicas)]

    res_rep = [-1] * n
    res_start = [float("nan")] * n
    res_drep = [-1] * n
    res_dstart = [float("nan")] * n
    res_fin = [float("nan")] * n
    res_retry = [0] * n
    res_rej = [False] * n
    res_hit = [0] * n
    served = [0] * max_replicas
    completed = 0
    rejected = 0
    deaths = spawns = drains = reroutes = 0
    handoffs = migrations = shipped_migrations = reprefills = 0

    retry_heap: List[Tuple[float, int, int]] = []
    retry_seq = 0
    spawn_heap: List[Tuple[float, int, int]] = []
    spawn_seq = 0
    death_list = fleet._deaths
    di = 0
    fail_windows: List[FaultEvent] = []
    deg_windows: List[FaultEvent] = []
    if fleet._faults is not None:
        fail_windows = fleet._faults.of_kind(KV_TRANSFER_FAIL)
        deg_windows = fleet._faults.of_kind(KV_DEGRADED)
    fail_lo = 0
    deg_lo = 0
    scale = fleet.autoscale
    tick = scale.interval_s if scale is not None else _INF
    shed = fleet.shed_slo
    shed_ttft = shed.ttft_s if shed is not None else _INF
    retry_policy = fleet.retry
    slots = model.slots
    kv_cap = model.kv_capacity_tokens
    base = model.base_s
    per_pf = model.per_prefill_token_s
    per_out = model.per_output_token_s
    block = model.block_tokens
    clock = 0.0
    ptr = 0
    heappush = heapq.heappush
    heappop = heapq.heappop

    # ----------------------------------------------------- fault windows
    # Ships happen at event times, which never decrease, so both cursors
    # only ever advance (the frozen baseline rescans the full lists).
    def fail_covers(t: float, i: int) -> bool:
        nonlocal fail_lo
        while fail_lo < len(fail_windows) and fail_windows[fail_lo].end_s < t:
            fail_lo += 1
        j = fail_lo
        while j < len(fail_windows) and fail_windows[j].at_s <= t:
            e = fail_windows[j]
            if e.end_s >= t and (e.target is None or e.target == "req-%07d" % i):
                return True
            j += 1
        return False

    def degraded_severity(t: float) -> float:
        nonlocal deg_lo
        while deg_lo < len(deg_windows) and deg_windows[deg_lo].end_s < t:
            deg_lo += 1
        j = deg_lo
        while j < len(deg_windows) and deg_windows[j].at_s <= t:
            if deg_windows[j].end_s >= t:
                return deg_windows[j].severity
            j += 1
        return 1.0

    # ------------------------------------------------------ KV plumbing
    def release_pin(i: int) -> None:
        src = st_src[i]
        kv_l[src] -= prompt_l[i]
        if routable_f[src]:
            pkey_l[src] -= prompt_l[i]
        pins[src].discard(i)
        st_src[i] = -1

    def schedule_arrival(i: int, t_a: float, dst: int) -> None:
        nonlocal inc_min
        sq = len(tq_i)
        tq_i.append(i)
        heappush(inc[dst], (t_a, sq))
        if t_a < itops[dst]:
            itops[dst] = t_a
            heappush(iheap, (t_a, dst))
            if t_a < inc_min:
                inc_min = t_a

    def decode_route(i: int, excl: int = -1) -> int:
        """The decode replica for request ``i``, never ``excl``.

        ``excl`` is a routable replica shedding its hot queue; the
        exclusion only runs on those rare migration events.
        """
        cands = routable_d if excl < 0 else [r2 for r2 in routable_d if r2 != excl]
        if not cands:
            raise SchedulerError("no routable decode replicas")
        if random_d:
            return pick(cands, next(droute_u))
        return dkey_l.index(min(dkey_l)) if excl < 0 else min(cands, key=dkey_l.__getitem__)

    def ship(i: int, t: float, excl: int = -1) -> None:
        """Price and schedule request ``i``'s KV ship to the decode pool.

        The payload is the prompt KV pinned on ``st_src[i]`` or, for a
        mid-decode migration (``st_flag`` 2), the prompt + output KV.  A
        ship starting inside a KV_TRANSFER_FAIL window burns the full wire
        time plus backoff and converts to a decode-side re-prefill; any
        pin is released at once (the payload is gone either way).
        """
        nonlocal handoffs, reprefills
        handoffs += 1
        dst = decode_route(i, excl)
        tokens = need_l[i] if st_flag[i] == 2 else prompt_l[i]
        if fail_covers(t, i):
            res_retry[i] += 1
            delay = transfer.raw_delay(tokens) + retry_policy.delay_s(res_retry[i])
            if st_src[i] >= 0:
                release_pin(i)
            st_flag[i] = 1
            reprefills += 1
        else:
            delay = transfer.visible_delay(tokens) / degraded_severity(t)
        schedule_arrival(i, t + delay, dst)

    def restart_decode(i: int) -> None:
        """A lost mid-decode snapshot (flag 2) restarts as a re-prefill."""
        nonlocal reprefills
        if st_flag[i] == 2:
            st_flag[i] = 1
            reprefills += 1

    # -------------------------------------------------------- admission
    def try_start(r: int, t: float) -> None:
        """Admit queued requests on prefill or colocated replica ``r``.

        A colocated replica reserves prompt + output KV and keys its heap
        on the finish time; a prefill replica reserves the prompt KV only
        and keys on the first token.
        """
        nonlocal rejected, fin_min
        colo = role_l[r] == ROLE_COLOCATED
        kv_need = need_l if colo else prompt_l
        q = queues[r]
        top = tops[r]
        rt = routable_f[r]
        while q and running_l[r] < slots:
            i = q[0]
            if t - arr_l[i] > shed_ttft:
                q.popleft()
                depth_l[r] -= 1
                if rt:
                    pkey_l[r] -= span
                res_rej[i] = True
                rejected += 1
                continue
            need = kv_need[i]
            if kv_l[r] + need > kv_cap:
                break
            q.popleft()
            depth_l[r] -= 1
            running_l[r] += 1
            kv_l[r] += need
            if rt:
                pkey_l[r] += need
            hit = 0
            code = code_l[i]
            if code >= 0:
                pt = ptok_l[i]
                col = prefix_tab.get(code)
                if col is None:
                    col = [0] * max_replicas
                    col[r] = pt
                    prefix_tab[code] = col
                    if pt > 0:
                        holders[code] = [r]
                else:
                    cached = col[r]
                    m = cached if cached < pt else pt
                    hit = m - m % block
                    if pt > cached:
                        col[r] = pt
                        if cached == 0:
                            holders.setdefault(code, []).append(r)
            eff = prompt_l[i] - hit
            if eff < 1:
                eff = 1
            first = t + (base + eff * per_pf)
            key = first + (out_l[i] - 1) * per_out if colo else first
            res_rep[i] = r
            res_start[i] = t
            res_hit[i] = hit
            heappush(heaps[r], (key, i))
            if key < top:
                top = key
        if top != tops[r]:
            tops[r] = top
            heappush(fheap, (top, r))
            if top < fin_min:
                fin_min = top

    def try_start_decode(r: int, t: float) -> None:
        nonlocal fin_min
        q = queues[r]
        top = tops[r]
        rt = routable_f[r]
        freed: List[int] = []
        while q and running_l[r] < slots:
            i = q[0]
            need = need_l[i]
            if kv_l[r] + need > kv_cap:
                break
            q.popleft()
            depth_l[r] -= 1
            running_l[r] += 1
            kv_l[r] += need
            if rt:
                dkey_l[r] += need
            flag = st_flag[i]
            if flag == 0:
                # The pin releases at admission, not at wire arrival:
                # until the receiver owns the KV, the source can't evict.
                fin = t + (out_l[i] - 1) * per_out
                freed.append(st_src[i])
                release_pin(i)
            elif flag == 1:
                fin = t + (base + prompt_l[i] * per_pf) + (out_l[i] - 1) * per_out
            else:
                fin = t + st_rem[i]
            res_drep[i] = r
            res_dstart[i] = t
            res_fin[i] = fin
            heappush(heaps[r], (fin, i))
            if fin < top:
                top = fin
        if top != tops[r]:
            tops[r] = top
            heappush(fheap, (top, r))
            if top < fin_min:
                fin_min = top
        for src in freed:  # may repeat a source; refilling is idempotent
            refill_source(src, t)

    def enqueue_decode(r: int, i: int, t: float) -> None:
        """Queue request ``i`` on decode replica ``r``; admit it if a slot is free."""
        queues[r].append(i)
        depth_l[r] += 1
        if routable_f[r]:
            dkey_l[r] += span
        if running_l[r] < slots:
            try_start_decode(r, t)

    def retire_if_idle(r: int) -> None:
        nonlocal drains
        if draining[r] and running_l[r] == 0 and not queues[r] and kv_l[r] == 0 and not inc[r]:
            drains += 1
            clear_slot(r)

    def refill_source(src: int, t: float) -> None:
        """Prefill replica ``src`` released a KV pin: admit its queue, retire it if idle."""
        if queues[src] and running_l[src] < slots:
            try_start(src, t)
        retire_if_idle(src)

    # ---------------------------------------------------------- routing
    def route_arrival(i: int, t: float) -> None:
        if not routable_p:
            raise SchedulerError("no routable prefill/colocated replicas")
        if mode == 0:
            r = pick(routable_p, next(route_u))
        else:
            r = -1
            code = code_l[i]
            if mode == 2 and code in holders and ptok_l[i] > 0:
                r = prefix_holder(holders[code], prefix_tab[code], pkey_l, ptok_l[i], block_route)
            if r < 0:
                r = pkey_l.index(min(pkey_l))
        queues[r].append(i)
        depth_l[r] += 1
        if routable_f[r]:
            pkey_l[r] += span
        if running_l[r] < slots:
            try_start(r, t)

    def migrate_entry(i: int, t: float, excl: int) -> None:
        """Move one queued decode entry off a hot or draining replica (break-even)."""
        nonlocal migrations, shipped_migrations, reprefills
        migrations += 1
        if st_flag[i] == 0:
            src = st_src[i]
            if transfer.ship_wins(prompt_l[i], base + prompt_l[i] * per_pf):
                shipped_migrations += 1
                ship(i, t, excl)
                if st_flag[i] == 1:  # the re-ship failed: source KV freed
                    refill_source(src, t)
                return
            release_pin(i)
            st_flag[i] = 1
            reprefills += 1
            enqueue_decode(decode_route(i, excl), i, t)
            refill_source(src, t)
            return
        restart_decode(i)
        enqueue_decode(decode_route(i, excl), i, t)

    # ------------------------------------------------------- membership
    def membership_changed() -> None:
        nonlocal routable_p, routable_d
        routable_p = [r for r in range(max_replicas) if routable_f[r] and role_l[r] != ROLE_DECODE]
        routable_d = [r for r in range(max_replicas) if routable_f[r] and role_l[r] == ROLE_DECODE]

    def unroute(r: int) -> None:
        """Take replica ``r`` out of routing (a death or a drain)."""
        routable_f[r] = False
        role_keys[role_l[r]][r] = huge
        membership_changed()

    def clear_slot(r: int) -> None:
        """Free replica ``r``'s slot: ledgers zeroed, prefix caches dropped."""
        nonlocal alive_count
        alive[r] = False
        draining[r] = False
        alive_count -= 1
        depth_l[r] = 0
        running_l[r] = 0
        kv_l[r] = 0
        if role_l[r] != ROLE_DECODE:
            for code, col in prefix_tab.items():
                if col[r]:
                    col[r] = 0
                    holders[code].remove(r)

    def retry_or_reject(i: int, event: FaultEvent) -> None:
        nonlocal rejected, retry_seq
        res_retry[i] += 1
        res_rep[i] = -1
        res_start[i] = float("nan")
        res_hit[i] = 0
        res_drep[i] = -1
        res_dstart[i] = float("nan")
        res_fin[i] = float("nan")
        st_flag[i] = 0
        if retry_policy.exhausted(res_retry[i]):
            res_rej[i] = True
            rejected += 1
        else:
            ready = event.end_s + retry_policy.delay_s(res_retry[i])
            heappush(retry_heap, (ready, retry_seq, i))
            retry_seq += 1

    def drain_decode(r: int, t: float) -> None:
        """KV-aware evacuation of a draining decode replica: queue, then running work."""
        nonlocal migrations, shipped_migrations, reprefills, fin_min
        while queues[r]:
            i = queues[r].popleft()
            depth_l[r] -= 1  # r is already unroutable: no key update
            migrate_entry(i, t, -1)  # r left routable_d when it drained
        for fin, i in sorted(heaps[r]):
            running_l[r] -= 1
            kv_l[r] -= need_l[i]
            remaining = fin - t
            recompute = (base + prompt_l[i] * per_pf) + (out_l[i] - 1) * per_out
            migrations += 1
            if transfer.ship_wins(need_l[i], recompute, remaining):
                shipped_migrations += 1
                st_flag[i] = 2
                st_rem[i] = remaining
                ship(i, t)
            else:
                reprefills += 1
                st_flag[i] = 1
                enqueue_decode(decode_route(i), i, t)
        heaps[r] = []
        tops[r] = _INF
        fin_min = _tournament_min(fheap, tops)

    # -------------------------------------------------------- main loop
    while completed + rejected < n:
        t_death = death_list[di].at_s if di < len(death_list) else _INF
        t_spawn = spawn_heap[0][0] if spawn_heap else _INF
        t_retry = retry_heap[0][0] if retry_heap else _INF
        t_tick = tick
        t_rare_hi = t_death if t_death <= t_spawn else t_spawn
        t_late = t_retry if t_retry <= t_tick else t_tick
        t_rare_arr = t_rare_hi if t_rare_hi <= t_retry else t_retry
        # Hot inner loop: the earliest of finish, handoff arrival and
        # workload arrival (ties per the module-docstring priority ladder)
        # runs while it is ahead of every rare event.  A finish or handoff
        # arrival must precede death/spawn (t_rare_hi) and may tie a retry
        # or tick (t_late); a workload arrival must precede every rare
        # event but the tick (t_rare_arr), which it may tie.
        t_arr = arr_l[ptr]
        while True:
            if fin_min <= t_arr and fin_min <= inc_min:
                if fin_min >= t_rare_hi or fin_min > t_late:
                    break
                r = fheap[0][1]  # head is live: fheap[0][0] == fin_min
                heappop(fheap)
                fin, i = heappop(heaps[r])
                if heaps[r]:
                    top = heaps[r][0][0]
                    tops[r] = top
                    heappush(fheap, (top, r))
                else:
                    tops[r] = _INF
                fin_min = _tournament_min(fheap, tops)
                clock = fin
                role = role_l[r]
                kv_done = 0 if role == ROLE_PREFILL else need_l[i]
                running_l[r] -= 1
                kv_l[r] -= kv_done
                served[r] += 1
                if routable_f[r]:
                    role_keys[role][r] -= span + kv_done
                if role == ROLE_PREFILL:  # the KV stays pinned on r until decode admission
                    st_src[i] = r
                    pins[r].add(i)
                    ship(i, fin)
                else:
                    completed += 1
                if queues[r]:  # direct calls: R007/R010 reach both admission loops from here
                    if role == ROLE_DECODE:
                        try_start_decode(r, fin)
                    else:
                        try_start(r, fin)
                retire_if_idle(r)
                continue
            if inc_min <= t_arr:
                if inc_min >= t_rare_hi or inc_min > t_late:
                    break
                dst = iheap[0][1]
                heappop(iheap)
                t_a, sq = heappop(inc[dst])
                if inc[dst]:
                    top = inc[dst][0][0]
                    itops[dst] = top
                    heappush(iheap, (top, dst))
                else:
                    itops[dst] = _INF
                inc_min = _tournament_min(iheap, itops)
                clock = t_a
                enqueue_decode(dst, tq_i[sq], t_a)
                continue
            if t_arr >= t_rare_arr or t_arr > t_tick:
                break
            clock = t_arr
            route_arrival(ptr, t_arr)
            ptr += 1
            t_arr = arr_l[ptr]
        if completed + rejected >= n:
            break
        # Rare event dispatch: smallest (time, priority).
        best_t = t_death
        best_kind = 0
        if t_spawn < best_t:
            best_t, best_kind = t_spawn, 1
        if t_retry < best_t:
            best_t, best_kind = t_retry, 2
        if t_tick < best_t:
            best_t, best_kind = t_tick, 3
        if best_t == _INF:
            raise SchedulerError(
                "pool fleet stalled: queued work but no runnable event "
                f"({completed + rejected}/{n} settled)"
            )
        clock = best_t
        if best_kind == 0:
            event = death_list[di]
            di += 1
            pool = pool_target(event.target)
            want = -1 if pool is None else ROLE_NAMES.index(pool)
            members = None if pool is None else [role == want for role in role_l]
            r = _death_victim(event, alive, draining, deaths, members)
            if r < 0:
                continue  # nothing to kill (all dead or bad target)
            fleet.fault_log.append(event)
            deaths += 1
            unroute(r)
            clear_slot(r)
            # Requests whose prompt KV was pinned on the victim lose it:
            # wherever they are (on the wire or queued at a decode
            # replica), they continue as decode-side re-prefills.
            for i in sorted(pins[r]):
                st_src[i] = -1
                st_flag[i] = 1
                reprefills += 1
            pins[r].clear()
            in_flight = sorted(heaps[r])
            heaps[r] = []
            tops[r] = _INF
            fin_min = _tournament_min(fheap, tops)
            stranded = queues[r]
            queues[r] = deque()
            incoming = sorted(inc[r])  # only a decode replica has any
            inc[r] = []
            itops[r] = _INF
            inc_min = _tournament_min(iheap, itops)
            for _, i in in_flight:
                retry_or_reject(i, event)
            for i in stranded:
                reroutes += 1
                if role_l[r] != ROLE_DECODE:
                    route_arrival(i, event.at_s)
                elif st_flag[i] == 0:
                    ship(i, event.at_s)  # the payload must cross the wire again
                else:
                    restart_decode(i)
                    enqueue_decode(decode_route(i), i, event.at_s)
            for t_a, sq in incoming:
                i = tq_i[sq]
                reroutes += 1
                if st_flag[i] == 0:
                    ship(i, event.at_s)  # KV still pinned on the source: ship it again
                else:
                    restart_decode(i)
                    schedule_arrival(i, t_a, decode_route(i))  # redirect in flight
        elif best_kind == 1:
            _, _, srole = heappop(spawn_heap)
            slot = alive.index(False) if False in alive else -1
            if slot >= 0:  # a free slot joins the pressured pool, unloaded
                alive[slot] = True
                routable_f[slot] = True
                role_l[slot] = srole
                pkey_l[slot] = dkey_l[slot] = huge
                role_keys[srole][slot] = 0
                alive_count += 1
                spawns += 1
                membership_changed()
        elif best_kind == 2:
            _, _, i = heappop(retry_heap)
            route_arrival(i, best_t)
        else:
            tick = tick + scale.interval_s  # type: ignore[union-attr]
            if scale is not None:
                nr_p = len(routable_p)
                nr_d = len(routable_d)
                if nr_p > 0 or nr_d > 0:
                    mp = sum(depth_l[r] for r in routable_p) / nr_p if nr_p > 0 else _INF
                    if split:
                        md = sum(depth_l[r] for r in routable_d) / nr_d if nr_d > 0 else _INF
                        if mp >= md:
                            srole, sper = ROLE_PREFILL, mp
                        else:
                            srole, sper = ROLE_DECODE, md
                    else:
                        srole, sper = ROLE_COLOCATED, mp
                    victim = -1
                    if (
                        sper > scale.high_queue_per_replica
                        and alive_count + len(spawn_heap) < scale.max_replicas
                    ):
                        ready = best_t + scale.spawn_delay_s + pools.warmup_s
                        heappush(spawn_heap, (ready, spawn_seq, srole))
                        spawn_seq += 1
                    elif not split:
                        if mp < scale.low_queue_per_replica and nr_p > scale.min_replicas:
                            victim = routable_p[-1]
                    elif (
                        mp < scale.low_queue_per_replica
                        and nr_p > 1
                        and alive_count > scale.min_replicas
                    ):
                        victim = routable_p[-1]
                    elif (
                        md < scale.low_queue_per_replica
                        and nr_d > 1
                        and alive_count > scale.min_replicas
                    ):
                        victim = routable_d[-1]
                    if victim >= 0:
                        draining[victim] = True
                        unroute(victim)
                        if role_l[victim] == ROLE_DECODE and mig is not None:
                            drain_decode(victim, best_t)
                        retire_if_idle(victim)
                # Hot-spot rebalancing: the tick also sweeps the decode
                # pool for outlier queues and migrates their excess tail.
                if mig is not None and len(routable_d) >= 2:
                    mean_d = sum(depth_l[r] for r in routable_d) / len(routable_d)
                    for r in routable_d:
                        d = depth_l[r]
                        if d >= mig.min_queue and d > mig.hot_queue_ratio * mean_d:
                            excess = d - int(mean_d)
                            for _ in range(excess):
                                if not queues[r]:
                                    break
                                i = queues[r].pop()  # tail waited least
                                depth_l[r] -= 1
                                dkey_l[r] -= span
                                migrate_entry(i, best_t, r)

    # The conservation invariant behind the death-storm regression tests:
    # every reserved KV token and every pin must have been released.
    bad = [
        r
        for r in range(max_replicas)
        if kv_l[r] != 0 or running_l[r] != 0 or pins[r]
    ]
    if bad:
        raise SchedulerError(
            "KV ledger leak after pool run: replicas "
            + ", ".join(
                f"{r}(kv={kv_l[r]}, running={running_l[r]}, pins={len(pins[r])})"
                for r in bad
            )
        )

    # first_token_s is not tracked per admission: it derives exactly (same
    # IEEE expression order as the admission scalars) from start_s and the
    # hit column.  Colocated-served rows (admitted, never decode-admitted)
    # also derive their decode columns and finish_s the same way.
    rep_col = np.asarray(res_rep, dtype=np.int64)
    start_col = np.asarray(res_start, dtype=np.float64)
    hit_col = np.asarray(res_hit, dtype=np.int64)
    eff_col = np.maximum(workload.prompt_tokens - hit_col, 1)
    first_col = start_col + (base + eff_col * per_pf)
    drep_col = np.asarray(res_drep, dtype=np.int64)
    dstart_col = np.asarray(res_dstart, dtype=np.float64)
    fin_col = np.asarray(res_fin, dtype=np.float64)
    colo = np.logical_and(drep_col < 0, rep_col >= 0)
    drep_col[colo] = rep_col[colo]
    dstart_col[colo] = first_col[colo]
    fin_col[colo] = first_col[colo] + (workload.output_tokens[colo] - 1) * per_out
    return FleetResult(
        replica=rep_col,
        start_s=start_col,
        first_token_s=first_col,
        finish_s=fin_col,
        retries=np.asarray(res_retry, dtype=np.int64),
        rejected=np.asarray(res_rej, dtype=np.bool_),
        prefix_hit_tokens=hit_col,
        completed=completed,
        rejected_total=rejected,
        deaths=deaths,
        spawns=spawns,
        drains=drains,
        reroutes=reroutes,
        served_per_replica=np.asarray(served, dtype=np.int64),
        sim_end_s=clock,
        decode_replica=drep_col,
        decode_start_s=dstart_col,
        handoffs=handoffs,
        migrations=migrations,
        shipped_migrations=shipped_migrations,
        reprefills=reprefills,
    )


# ==================================================== token-level disagg
class DisaggEngineFleet(EngineFleet):
    """Token-level disaggregation: prefill engines feeding decode engines.

    The pool DES above answers fleet-scale questions with an aggregate
    latency model; this class answers *mechanism* questions with real
    :class:`~repro.inference.scheduler.ServingEngine` instances — batching
    policies, chunked prefill, KV allocators, and per-token timelines all
    participate.  It is an :class:`EngineFleet` whose replicas are the
    prefill pool, run in ``handoff_mode`` (a sequence retires at its first
    token), plus a decode pool: the shared loop
    :func:`~repro.inference.fleet.serve_engines` prices each drained
    request's KV ship with the :class:`~repro.inference.transfer.
    TransferModel` (KV_TRANSFER_FAIL windows turn the ship into a
    decode-side re-prefill with backoff, KV_DEGRADED divides the wire
    speed) and delivers it to the decode engine ``decode_router`` picks,
    which admits it straight into decode.  ``decode_router`` is a
    :class:`~repro.inference.router.RandomRouter` or
    :class:`~repro.inference.router.LeastLoadedRouter` (the default) and
    runs through the same routing code as ``router``; any other router
    raises ``ConfigError``.

    With one engine per pool, a zero-visible-delay transfer
    (``overlap=1.0``) and no contention, per-token timelines match a
    single colocated engine exactly (the metamorphic anchor the test
    suite locks).  REPLICA_DEATH / autoscale live at the pool-DES layer,
    not here.
    """

    def __init__(
        self,
        engine_factory: Callable[[], ServingEngine],
        n_prefill: int,
        n_decode: int,
        *,
        router: Optional[Router] = None,
        decode_router: Optional[Router] = None,
        transfer: Optional[TransferModel] = None,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if n_prefill <= 0 or n_decode <= 0:
            raise ConfigError("need at least one prefill and one decode engine")
        self.decode_router = decode_router or LeastLoadedRouter()
        self._mode_d = routing_mode(self.decode_router, decode=True)

        def prefill_engine() -> ServingEngine:
            engine = engine_factory()
            engine.handoff_mode = True
            return engine

        super().__init__(prefill_engine, n_prefill, router or PrefixAwareRouter(), retry=retry)
        self.decode = [_EngineReplica(engine_factory()) for _ in range(n_decode)]
        self._stream_d = uniforms(self.decode_router) if self._mode_d == 0 else None
        self.transfer = transfer or TransferModel()
        self._fail_windows = faults.of_kind(KV_TRANSFER_FAIL) if faults is not None else []
        self._deg_windows = faults.of_kind(KV_DEGRADED) if faults is not None else []

    def run(self, requests: Sequence[Request]) -> List[Request]:
        """Serve ``requests`` through both pools to completion."""
        return serve_engines(self, requests)


def sweep_splits(
    requests: Sequence[Request],
    total_gpus: int,
    *,
    cost: Optional[IterationCost] = None,
    slo: Optional[SLO] = None,
) -> List[Tuple[str, ServingReport]]:
    """Colocated vs every prefill/decode split of ``total_gpus`` engines.

    The colocated arm is a least-loaded :class:`EngineFleet` of
    ``total_gpus`` engines; each split ``p`` is a
    :class:`DisaggEngineFleet` of ``p`` prefill and ``total_gpus - p``
    decode engines.  Every arm serves its own deep copy of ``requests``.
    """
    if total_gpus < 2:
        raise ConfigError("need at least 2 GPUs to disaggregate")

    def engine() -> ServingEngine:
        return ServingEngine(ContinuousBatchScheduler(max_batch=64), cost=cost)

    def serve(fleet: EngineFleet) -> ServingReport:
        work = copy.deepcopy(list(requests))
        fleet.run(work)
        return summarize(work, slo=slo)

    results = [("colocated", serve(EngineFleet(engine, total_gpus, LeastLoadedRouter())))]
    for prefill in range(1, total_gpus):
        decode = total_gpus - prefill
        results.append(
            (f"disagg-{prefill}p{decode}d", serve(DisaggEngineFleet(engine, prefill, decode)))
        )
    return results
