"""Disaggregated prefill/decode replica pools at fleet scale.

The two-lane toy in :mod:`repro.inference.disaggregation` proves the E4
architecture point; this module makes it a *fleet* property (DistServe
[69], Splitwise [44], Mooncake [45]): :class:`ClusterFleet` replicas carry
a **role** — prefill, decode, or colocated — requests route prefix-aware
over the prefill pool, finished prefills ship their KV to a decode replica
chosen least-loaded, and the ship is priced by the shared
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

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ConfigError, SchedulerError
from ..faults import KV_DEGRADED, KV_TRANSFER_FAIL, FaultEvent, FaultPlan, RetryPolicy, pool_target
from ..utils import derive_rng
from .fleet import ClusterFleet, FleetResult, FleetWorkload
from .request import Request
from .router import LeastLoadedRouter, PrefixAwareRouter, RandomRouter, Router, RouterState
from .scheduler import STEP_HANDOFF, STEP_IDLE, ServingEngine
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
    migrates its excess tail to the least-loaded other replica.  On a
    drain, ``drain_queued`` relocates the backlog immediately and
    ``drain_running`` also moves in-flight decodes — each request ships
    its KV only when :meth:`TransferModel.ship_wins` says the wire beats
    a from-scratch re-prefill (the explicit break-even rule).
    """

    hot_queue_ratio: float = 3.0
    min_queue: int = 4
    drain_queued: bool = True
    drain_running: bool = True

    def __post_init__(self) -> None:
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
    """
    model = fleet.model
    n = workload.n
    need_l: List[int] = (workload.prompt_tokens + workload.output_tokens).tolist()
    need_max = max(need_l)
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

    router = fleet.router
    decode_router = fleet.decode_router or LeastLoadedRouter()
    state_p = RouterState(max_replicas, model.kv_capacity_tokens)
    state_d = RouterState(max_replicas, model.kv_capacity_tokens)
    role_l = [pools.role_of(r) for r in range(pools.total)] + [-1] * (
        max_replicas - pools.total
    )
    for r in range(pools.total):
        if role_l[r] == ROLE_DECODE:
            state_d.routable[r] = True
        else:
            state_p.routable[r] = True
    state_p.rebuild_routable()
    state_d.rebuild_routable()
    router.bind(state_p)
    decode_router.bind(state_d)

    if type(router) is RandomRouter:
        mode = 0
        route_rng = derive_rng(router.seed, "fleet", router.stream)
    elif type(router) is LeastLoadedRouter:
        mode = 1
    elif type(router) is PrefixAwareRouter:
        mode = 2
    else:
        mode = 3
    if type(decode_router) is RandomRouter:
        mode_d = 0
        droute_rng = derive_rng(decode_router.seed, "fleet", decode_router.stream)
    elif type(decode_router) is LeastLoadedRouter:
        mode_d = 1
    else:
        mode_d = 3
    generic = mode == 3
    generic_d = mode_d == 3
    block_route = (
        router.block_tokens if isinstance(router, PrefixAwareRouter) else model.block_tokens
    )

    huge = 1 << 62
    span = model.kv_capacity_tokens + 1
    alive = [True] * pools.total + [False] * (max_replicas - pools.total)
    draining = [False] * max_replicas
    routable_f = list(alive)
    alive_count = pools.total
    depth_l = [0] * max_replicas
    running_l = [0] * max_replicas
    kv_l = [0] * max_replicas
    # One packed load key per replica, in its pool's array; the other
    # array keeps `huge` so an argmin can never cross pools.
    pkey_l = [
        0 if routable_f[r] and role_l[r] != ROLE_DECODE else huge
        for r in range(max_replicas)
    ]
    dkey_l = [
        0 if routable_f[r] and role_l[r] == ROLE_DECODE else huge
        for r in range(max_replicas)
    ]
    routable_p = [r for r in range(max_replicas) if routable_f[r] and role_l[r] != ROLE_DECODE]
    routable_d = [r for r in range(max_replicas) if routable_f[r] and role_l[r] == ROLE_DECODE]
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
    st_seq = [-1] * n
    st_rem = [0.0] * n
    res_gen = [0] * n  # bumped on retry/migration; tags naive heap entries
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
    rng_buf: List[float] = []
    rng_ptr = 0
    drng_buf: List[float] = []
    drng_ptr = 0
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
        st_seq[i] = sq
        heappush(inc[dst], (t_a, sq))
        if t_a < itops[dst]:
            itops[dst] = t_a
            heappush(iheap, (t_a, dst))
            if t_a < inc_min:
                inc_min = t_a

    def decode_route(i: int, excl: int = -1) -> int:
        nonlocal drng_buf, drng_ptr
        if excl < 0:
            if not routable_d:
                raise SchedulerError("no routable decode replicas")
            if mode_d == 1:
                return dkey_l.index(min(dkey_l))
            if mode_d == 0:
                if drng_ptr >= len(drng_buf):
                    drng_buf = droute_rng.random(8192).tolist()
                    drng_ptr = 0
                u = drng_buf[drng_ptr]
                drng_ptr += 1
                k = len(routable_d)
                j = int(u * k)
                if j >= k:
                    j = k - 1
                return routable_d[j]
            state_d.queue_depth[:] = depth_l
            state_d.running[:] = running_l
            state_d.kv_used[:] = kv_l
            return decode_router.route(code_l[i], ptok_l[i])
        # Exclusion variants run only on rare migration events.
        cands = [r2 for r2 in routable_d if r2 != excl]
        if not cands:
            raise SchedulerError("no routable decode replicas")
        if mode_d == 1:
            return min(cands, key=lambda r2: dkey_l[r2])
        if mode_d == 0:
            if drng_ptr >= len(drng_buf):
                drng_buf = droute_rng.random(8192).tolist()
                drng_ptr = 0
            u = drng_buf[drng_ptr]
            drng_ptr += 1
            k = len(cands)
            j = int(u * k)
            if j >= k:
                j = k - 1
            return cands[j]
        was = bool(state_d.routable[excl])
        state_d.routable[excl] = False
        state_d.rebuild_routable()
        state_d.queue_depth[:] = depth_l
        state_d.running[:] = running_l
        state_d.kv_used[:] = kv_l
        r2 = decode_router.route(code_l[i], ptok_l[i])
        state_d.routable[excl] = was
        state_d.rebuild_routable()
        return r2

    def ship_kv(i: int, src: int, t: float, excl: int = -1) -> None:
        """Price and schedule the prompt-KV ship ``src -> decode pool``.

        The pin on ``src`` must already be set.  A ship starting inside a
        KV_TRANSFER_FAIL window burns the full wire time plus backoff and
        converts to a decode-side re-prefill — the source KV is released
        immediately (the payload is gone either way).
        """
        nonlocal handoffs, reprefills
        handoffs += 1
        dst = decode_route(i, excl)
        if fail_covers(t, i):
            res_retry[i] += 1
            delay = transfer.raw_delay(prompt_l[i]) + retry_policy.delay_s(res_retry[i])
            release_pin(i)
            st_flag[i] = 1
            reprefills += 1
        else:
            delay = transfer.visible_delay(prompt_l[i])
            sev = degraded_severity(t)
            if sev != 1.0:
                delay /= sev
            st_flag[i] = 0
        schedule_arrival(i, t + delay, dst)

    def ship_resume(i: int, t: float) -> None:
        """Ship a mid-decode migration payload (prompt + output KV)."""
        nonlocal handoffs, reprefills
        handoffs += 1
        dst = decode_route(i)
        if fail_covers(t, i):
            res_retry[i] += 1
            delay = transfer.raw_delay(need_l[i]) + retry_policy.delay_s(res_retry[i])
            st_flag[i] = 1
            reprefills += 1
        else:
            delay = transfer.visible_delay(need_l[i])
            sev = degraded_severity(t)
            if sev != 1.0:
                delay /= sev
        schedule_arrival(i, t + delay, dst)

    # -------------------------------------------------------- admission
    def try_start_colo(r: int, t: float) -> None:
        nonlocal rejected, fin_min
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
            need = need_l[i]
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
                    if generic:
                        state_p.record_prefix(code, r, pt)
                else:
                    cached = col[r]
                    m = cached if cached < pt else pt
                    hit = m - m % block
                    if pt > cached:
                        col[r] = pt
                        if cached == 0:
                            holders.setdefault(code, []).append(r)
                        if generic:
                            state_p.record_prefix(code, r, pt)
            eff = prompt_l[i] - hit
            if eff < 1:
                eff = 1
            first = t + (base + eff * per_pf)
            fin = first + (out_l[i] - 1) * per_out
            res_rep[i] = r
            res_start[i] = t
            res_hit[i] = hit
            heappush(heaps[r], (fin, i))
            if fin < top:
                top = fin
        if top != tops[r]:
            tops[r] = top
            heappush(fheap, (top, r))
            if top < fin_min:
                fin_min = top

    def try_start_prefill(r: int, t: float) -> None:
        nonlocal rejected, fin_min
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
            need = prompt_l[i]  # prefill holds prompt KV only
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
                    if generic:
                        state_p.record_prefix(code, r, pt)
                else:
                    cached = col[r]
                    m = cached if cached < pt else pt
                    hit = m - m % block
                    if pt > cached:
                        col[r] = pt
                        if cached == 0:
                            holders.setdefault(code, []).append(r)
                        if generic:
                            state_p.record_prefix(code, r, pt)
            eff = prompt_l[i] - hit
            if eff < 1:
                eff = 1
            first = t + (base + eff * per_pf)
            res_rep[i] = r
            res_start[i] = t
            res_hit[i] = hit
            heappush(heaps[r], (first, i))
            if first < top:
                top = first
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
        for src in freed:  # may repeat a source; try_start is idempotent
            if queues[src] and running_l[src] < slots:
                try_start_prefill(src, t)
            if (
                draining[src]
                and running_l[src] == 0
                and not queues[src]
                and kv_l[src] == 0
                and not inc[src]
            ):
                retire(src)

    # ---------------------------------------------------------- routing
    def route_arrival(i: int, t: float) -> None:
        nonlocal rng_buf, rng_ptr
        if not routable_p:
            raise SchedulerError("no routable prefill/colocated replicas")
        if mode == 0:
            if rng_ptr >= len(rng_buf):
                rng_buf = route_rng.random(8192).tolist()
                rng_ptr = 0
            u = rng_buf[rng_ptr]
            rng_ptr += 1
            k = len(routable_p)
            j = int(u * k)
            if j >= k:
                j = k - 1
            r = routable_p[j]
        elif mode == 1:
            r = pkey_l.index(min(pkey_l))
        elif mode == 2:
            r = -1
            code = code_l[i]
            pt = ptok_l[i]
            if code >= 0 and pt > 0:
                hl = holders.get(code)
                if hl is not None:
                    col = prefix_tab[code]
                    best = 0
                    bk = 0
                    for r2 in hl:
                        if not routable_f[r2]:
                            continue
                        c = col[r2]
                        m = c if c < pt else pt
                        h = m - m % block_route
                        if h <= 0:
                            continue
                        if h > best:
                            best = h
                            bk = pkey_l[r2]
                            r = r2
                        elif h == best:
                            k2 = pkey_l[r2]
                            if k2 < bk or (k2 == bk and r2 < r):
                                bk = k2
                                r = r2
            if r < 0:
                r = pkey_l.index(min(pkey_l))
        else:
            state_p.queue_depth[:] = depth_l
            state_p.running[:] = running_l
            state_p.kv_used[:] = kv_l
            r = router.route(code_l[i], ptok_l[i])
        queues[r].append(i)
        depth_l[r] += 1
        if routable_f[r]:
            pkey_l[r] += span
        if running_l[r] < slots:
            if role_l[r] == ROLE_COLOCATED:
                try_start_colo(r, t)
            else:
                try_start_prefill(r, t)

    def requeue_decode(i: int, t: float) -> None:
        """Re-place one displaced decode-queue entry at time ``t``."""
        nonlocal reprefills
        flag = st_flag[i]
        if flag == 0:
            ship_kv(i, st_src[i], t)  # payload must cross the wire again
            return
        if flag == 2:
            st_flag[i] = 1  # the shipped snapshot is gone; restart decode
            reprefills += 1
        dst = decode_route(i)
        queues[dst].append(i)
        depth_l[dst] += 1
        if routable_f[dst]:
            dkey_l[dst] += span
        if running_l[dst] < slots:
            try_start_decode(dst, t)

    def migrate_entry(i: int, t: float, excl: int) -> None:
        """Move one queued decode entry off a hot replica (break-even)."""
        nonlocal migrations, shipped_migrations, reprefills
        migrations += 1
        flag = st_flag[i]
        if flag == 0:
            src = st_src[i]
            if transfer.ship_wins(prompt_l[i], base + prompt_l[i] * per_pf):
                shipped_migrations += 1
                ship_kv(i, src, t, excl)
                if st_flag[i] == 1:  # the re-ship failed: source KV freed
                    if queues[src] and running_l[src] < slots:
                        try_start_prefill(src, t)
                    if (
                        draining[src]
                        and running_l[src] == 0
                        and not queues[src]
                        and kv_l[src] == 0
                        and not inc[src]
                    ):
                        retire(src)
                return
            release_pin(i)
            st_flag[i] = 1
            reprefills += 1
            dst = decode_route(i, excl)
            queues[dst].append(i)
            depth_l[dst] += 1
            if routable_f[dst]:
                dkey_l[dst] += span
            if running_l[dst] < slots:
                try_start_decode(dst, t)
            if queues[src] and running_l[src] < slots:
                try_start_prefill(src, t)
            if (
                draining[src]
                and running_l[src] == 0
                and not queues[src]
                and kv_l[src] == 0
                and not inc[src]
            ):
                retire(src)
            return
        if flag == 2:
            st_flag[i] = 1
            reprefills += 1
        dst = decode_route(i, excl)
        queues[dst].append(i)
        depth_l[dst] += 1
        if routable_f[dst]:
            dkey_l[dst] += span
        if running_l[dst] < slots:
            try_start_decode(dst, t)

    # ------------------------------------------------------- membership
    def membership_changed() -> None:
        nonlocal routable_p, routable_d
        routable_p = [
            r for r in range(max_replicas) if routable_f[r] and role_l[r] != ROLE_DECODE
        ]
        routable_d = [
            r for r in range(max_replicas) if routable_f[r] and role_l[r] == ROLE_DECODE
        ]
        state_p.rebuild_routable()
        state_d.rebuild_routable()
        router.on_membership_change()
        decode_router.on_membership_change()

    def drop_prefixes(r: int) -> None:
        for code, col in prefix_tab.items():
            if col[r]:
                col[r] = 0
                holders[code].remove(r)

    def retire(r: int) -> None:
        nonlocal alive_count, drains
        alive[r] = False
        draining[r] = False
        alive_count -= 1
        drains += 1
        depth_l[r] = 0
        running_l[r] = 0
        kv_l[r] = 0
        if role_l[r] != ROLE_DECODE:
            drop_prefixes(r)
        state_p.reset_counters(r)
        state_p.clear_replica(r)
        state_d.reset_counters(r)
        state_d.clear_replica(r)

    def retry_or_reject(i: int, event: FaultEvent) -> None:
        nonlocal rejected, retry_seq
        res_retry[i] += 1
        res_rep[i] = -1
        res_start[i] = float("nan")
        res_hit[i] = 0
        res_drep[i] = -1
        res_dstart[i] = float("nan")
        res_fin[i] = float("nan")
        st_src[i] = -1
        st_flag[i] = 0
        st_seq[i] = -1
        st_rem[i] = 0.0
        res_gen[i] += 1
        if retry_policy.exhausted(res_retry[i]):
            res_rej[i] = True
            rejected += 1
        else:
            ready = event.end_s + retry_policy.delay_s(res_retry[i])
            heappush(retry_heap, (ready, retry_seq, i))
            retry_seq += 1

    def fix_fheap(r: int) -> None:
        """Re-establish fin_min after replica ``r``'s heap was cleared."""
        nonlocal fin_min
        tops[r] = _INF
        while fheap:
            f0, r0 = fheap[0]
            if tops[r0] == f0:
                fin_min = f0
                break
            heappop(fheap)
        else:
            fin_min = _INF

    def fix_iheap(r: int) -> None:
        nonlocal inc_min
        itops[r] = _INF
        while iheap:
            f0, r0 = iheap[0]
            if itops[r0] == f0:
                inc_min = f0
                break
            heappop(iheap)
        else:
            inc_min = _INF

    def drain_decode(r: int, t: float) -> None:
        """KV-aware evacuation of a draining decode replica."""
        nonlocal migrations, shipped_migrations, reprefills
        assert mig is not None
        if mig.drain_queued:
            while queues[r]:
                i = queues[r].popleft()
                depth_l[r] -= 1  # r is already unroutable: no key update
                migrate_entry(i, t, -1)  # r left routable_d when it drained
        if mig.drain_running and heaps[r]:
            # repro-lint: disable=R010 — rare drain event; the sort fixes
            # the (finish, request) processing order before the heap dies
            for fin, i in sorted(heaps[r]):
                res_gen[i] += 1
                running_l[r] -= 1
                kv_l[r] -= need_l[i]
                remaining = fin - t
                recompute = (base + prompt_l[i] * per_pf) + (out_l[i] - 1) * per_out
                migrations += 1
                if transfer.ship_wins(need_l[i], recompute, remaining):
                    shipped_migrations += 1
                    st_flag[i] = 2
                    st_rem[i] = remaining
                    st_src[i] = -1
                    ship_resume(i, t)
                else:
                    reprefills += 1
                    st_flag[i] = 1
                    st_src[i] = -1
                    dst = decode_route(i)
                    queues[dst].append(i)
                    depth_l[dst] += 1
                    if routable_f[dst]:
                        dkey_l[dst] += span
                    if running_l[dst] < slots:
                        try_start_decode(dst, t)
            heaps[r] = []
            fix_fheap(r)

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
                while fheap:  # discard stale entries off the head
                    f0, r0 = fheap[0]
                    if tops[r0] == f0:
                        fin_min = f0
                        break
                    heappop(fheap)
                else:
                    fin_min = _INF
                clock = fin
                role = role_l[r]
                if role == ROLE_PREFILL:
                    running_l[r] -= 1
                    if routable_f[r]:
                        pkey_l[r] -= span
                    served[r] += 1
                    st_src[i] = r
                    pins[r].add(i)
                    ship_kv(i, r, fin)
                    if queues[r] and running_l[r] < slots:
                        try_start_prefill(r, fin)
                    if (
                        draining[r]
                        and running_l[r] == 0
                        and not queues[r]
                        and kv_l[r] == 0
                        and not inc[r]
                    ):
                        retire(r)
                elif role == ROLE_DECODE:
                    running_l[r] -= 1
                    kv_l[r] -= need_l[i]
                    if routable_f[r]:
                        dkey_l[r] -= span + need_l[i]
                    completed += 1
                    served[r] += 1
                    if queues[r]:
                        try_start_decode(r, fin)
                    if (
                        draining[r]
                        and running_l[r] == 0
                        and not queues[r]
                        and kv_l[r] == 0
                        and not inc[r]
                    ):
                        retire(r)
                else:
                    running_l[r] -= 1
                    kv_l[r] -= need_l[i]
                    if routable_f[r]:
                        pkey_l[r] -= span + need_l[i]
                    completed += 1
                    served[r] += 1
                    if queues[r]:
                        try_start_colo(r, fin)
                    if (
                        draining[r]
                        and running_l[r] == 0
                        and not queues[r]
                        and kv_l[r] == 0
                        and not inc[r]
                    ):
                        retire(r)
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
                while iheap:
                    f0, r0 = iheap[0]
                    if itops[r0] == f0:
                        inc_min = f0
                        break
                    heappop(iheap)
                else:
                    inc_min = _INF
                clock = t_a
                i = tq_i[sq]
                st_seq[i] = -1
                queues[dst].append(i)
                depth_l[dst] += 1
                if routable_f[dst]:
                    dkey_l[dst] += span
                if running_l[dst] < slots:
                    try_start_decode(dst, t_a)
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
            role_want = pool_target(event.target)
            victim = -1
            if event.target is not None and role_want is None:
                name = event.target
                if name.startswith("replica-"):
                    slot = int(name[len("replica-") :])
                    if 0 <= slot < max_replicas and alive[slot]:
                        victim = slot
            else:
                want = -1 if role_want is None else ROLE_NAMES.index(role_want)
                cands = [
                    r
                    for r in range(max_replicas)
                    if alive[r]
                    and not draining[r]
                    and (want < 0 or role_l[r] == want)
                ]
                if not cands:
                    cands = [
                        r
                        for r in range(max_replicas)
                        if alive[r] and (want < 0 or role_l[r] == want)
                    ]
                if cands:
                    victim = cands[deaths % len(cands)]
            if victim < 0:
                continue  # nothing to kill (all dead or bad target)
            fleet.fault_log.append(event)
            deaths += 1
            r = victim
            role = role_l[r]
            alive[r] = False
            draining[r] = False
            routable_f[r] = False
            if role == ROLE_DECODE:
                dkey_l[r] = huge
            else:
                pkey_l[r] = huge
            alive_count -= 1
            state_p.routable[r] = False
            state_d.routable[r] = False
            membership_changed()
            # Requests whose prompt KV was pinned on the victim lose it:
            # wherever they are (on the wire or queued at a decode
            # replica), they continue as decode-side re-prefills.
            if pins[r]:
                # repro-lint: disable=R010 — rare death event; sorted()
                # fixes the conversion order for parity with the baseline
                for i in sorted(pins[r]):
                    st_src[i] = -1
                    st_flag[i] = 1
                    reprefills += 1
                pins[r].clear()
            in_flight = sorted(heaps[r])
            heaps[r] = []
            fix_fheap(r)
            # repro-lint: disable=R010 — runs only on rare REPLICA_DEATH
            # fault events, and the copy is required before .clear()
            stranded = list(queues[r])
            queues[r].clear()
            incoming: List[Tuple[float, int]] = []
            if role == ROLE_DECODE:
                incoming = sorted(inc[r])
                inc[r] = []
                fix_iheap(r)
            depth_l[r] = 0
            running_l[r] = 0
            kv_l[r] = 0
            if role != ROLE_DECODE:
                drop_prefixes(r)
            state_p.reset_counters(r)
            state_p.clear_replica(r)
            state_d.reset_counters(r)
            state_d.clear_replica(r)
            for _, i in in_flight:
                retry_or_reject(i, event)
            if role == ROLE_DECODE:
                for i in stranded:
                    reroutes += 1
                    requeue_decode(i, event.at_s)
                for t_a, sq in incoming:
                    i = tq_i[sq]
                    st_seq[i] = -1
                    reroutes += 1
                    if st_flag[i] == 0:
                        # KV still pinned on the source: ship it again.
                        ship_kv(i, st_src[i], event.at_s)
                    else:
                        if st_flag[i] == 2:
                            st_flag[i] = 1  # snapshot died with the replica
                            reprefills += 1
                        dst = decode_route(i)
                        schedule_arrival(i, t_a, dst)  # redirect in flight
            else:
                for i in stranded:
                    reroutes += 1
                    route_arrival(i, event.at_s)
        elif best_kind == 1:
            _, _, srole = heappop(spawn_heap)
            slot = -1
            for r in range(max_replicas):
                if not alive[r]:
                    slot = r
                    break
            if slot >= 0:
                alive[slot] = True
                draining[slot] = False
                routable_f[slot] = True
                role_l[slot] = srole
                if srole == ROLE_DECODE:
                    dkey_l[slot] = 0
                    pkey_l[slot] = huge
                    state_d.routable[slot] = True
                else:
                    pkey_l[slot] = 0
                    dkey_l[slot] = huge
                    state_p.routable[slot] = True
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
                    wp = 0
                    for r in routable_p:
                        wp += depth_l[r]
                    mp = wp / nr_p if nr_p > 0 else _INF
                    if split:
                        wd = 0
                        for r in routable_d:
                            wd += depth_l[r]
                        md = wd / nr_d if nr_d > 0 else _INF
                        if mp >= md:
                            srole, sper = ROLE_PREFILL, mp
                        else:
                            srole, sper = ROLE_DECODE, md
                    else:
                        srole, sper = ROLE_COLOCATED, mp
                    if (
                        sper > scale.high_queue_per_replica
                        and alive_count + len(spawn_heap) < scale.max_replicas
                    ):
                        heappush(
                            spawn_heap,
                            (
                                best_t + scale.spawn_delay_s + pools.warmup_s,
                                spawn_seq,
                                srole,
                            ),
                        )
                        spawn_seq += 1
                    elif not split:
                        if (
                            mp < scale.low_queue_per_replica
                            and nr_p > scale.min_replicas
                        ):
                            r = routable_p[nr_p - 1]
                            draining[r] = True
                            routable_f[r] = False
                            pkey_l[r] = huge
                            state_p.routable[r] = False
                            membership_changed()
                            if running_l[r] == 0 and not queues[r] and kv_l[r] == 0:
                                retire(r)  # colocated: never a handoff target
                    elif (
                        mp < scale.low_queue_per_replica
                        and nr_p > 1
                        and alive_count > scale.min_replicas
                    ):
                        r = routable_p[nr_p - 1]
                        draining[r] = True
                        routable_f[r] = False
                        pkey_l[r] = huge
                        state_p.routable[r] = False
                        membership_changed()
                        if (
                            running_l[r] == 0
                            and not queues[r]
                            and kv_l[r] == 0
                            and not inc[r]
                        ):
                            retire(r)
                    elif (
                        md < scale.low_queue_per_replica
                        and nr_d > 1
                        and alive_count > scale.min_replicas
                    ):
                        r = routable_d[nr_d - 1]
                        draining[r] = True
                        routable_f[r] = False
                        dkey_l[r] = huge
                        state_d.routable[r] = False
                        membership_changed()
                        if mig is not None:
                            drain_decode(r, best_t)
                        if (
                            running_l[r] == 0
                            and not queues[r]
                            and kv_l[r] == 0
                            and not inc[r]
                        ):
                            retire(r)
                # Hot-spot rebalancing: the tick also sweeps the decode
                # pool for outlier queues and migrates their excess tail.
                if mig is not None and len(routable_d) >= 2:
                    nr_d = len(routable_d)
                    wd = 0
                    for r in routable_d:
                        wd += depth_l[r]
                    mean_d = wd / nr_d
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
class _PoolEngine:
    """One token-level pool slot: an engine and its arrival deque."""

    def __init__(self, engine: ServingEngine) -> None:
        self.engine = engine
        self.pending: Deque[Request] = deque()
        self.active = False


class DisaggEngineFleet:
    """Token-level disaggregation: prefill engines feeding decode engines.

    The pool DES above answers fleet-scale questions with an aggregate
    latency model; this class answers *mechanism* questions with real
    :class:`~repro.inference.scheduler.ServingEngine` instances — batching
    policies, chunked prefill, KV allocators, and per-token timelines all
    participate.  Prefill engines run in ``handoff_mode`` (a sequence
    retires at its first token); each drained request's KV ship is priced
    by the shared :class:`~repro.inference.transfer.TransferModel`
    (KV_TRANSFER_FAIL windows convert the ship into a decode-side
    re-prefill with backoff, KV_DEGRADED divides the wire speed) and the
    request is delivered to a decode engine — chosen by ``decode_router``
    at delivery time — which admits it straight into decode.

    With one engine per pool, a zero-visible-delay transfer
    (``overlap=1.0``) and no contention, per-token timelines match a
    single colocated engine exactly (the metamorphic anchor the test
    suite locks).  REPLICA_DEATH / autoscale live at the pool-DES layer,
    not here.
    """

    def __init__(
        self,
        engine_factory: "Callable[[], ServingEngine]",
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
        self.transfer = transfer or TransferModel()
        self.retry = retry or RetryPolicy()
        self.prefill: List[_PoolEngine] = []
        for _ in range(n_prefill):
            engine = engine_factory()
            engine.handoff_mode = True
            self.prefill.append(_PoolEngine(engine))
        self.decode: List[_PoolEngine] = [
            _PoolEngine(engine_factory()) for _ in range(n_decode)
        ]
        sample = self.prefill[0].engine
        capacity = getattr(sample.allocator, "capacity_tokens", None)
        self._kv_proxy = capacity is None
        kv_span = int(capacity) if capacity is not None else max(sample.max_running, 1)
        self.router = router or PrefixAwareRouter()
        self.decode_router = decode_router or LeastLoadedRouter()
        self._state_p = RouterState(n_prefill, kv_span)
        self._state_p.routable[:] = True
        self._state_p.rebuild_routable()
        self.router.bind(self._state_p)
        self._state_d = RouterState(n_decode, kv_span)
        self._state_d.routable[:] = True
        self._state_d.rebuild_routable()
        self.decode_router.bind(self._state_d)
        self._fail_windows: List[FaultEvent] = (
            faults.of_kind(KV_TRANSFER_FAIL) if faults is not None else []
        )
        self._deg_windows: List[FaultEvent] = (
            faults.of_kind(KV_DEGRADED) if faults is not None else []
        )
        self._prefix_codes: Dict[str, int] = {}
        self.handoffs = 0
        self.reprefills = 0
        self.rejected = 0

    # ----------------------------------------------------------- plumbing
    def _code_of(self, request: Request) -> int:
        if request.prefix_id is None or request.prefix_tokens <= 0:
            return -1
        code = self._prefix_codes.get(request.prefix_id)
        if code is None:
            code = len(self._prefix_codes)
            self._prefix_codes[request.prefix_id] = code
        return code

    def _refresh(self, state: RouterState, pool: List[_PoolEngine]) -> None:
        for r, w in enumerate(pool):
            engine = w.engine
            state.queue_depth[r] = len(w.pending)
            state.running[r] = len(engine.running) + len(engine._preempted)
            if self._kv_proxy:
                state.kv_used[r] = len(engine.running)
            else:
                state.kv_used[r] = engine.allocator.stats.reserved_tokens  # type: ignore[union-attr]

    def _covering(self, windows: List[FaultEvent], t: float, rid: str) -> Optional[FaultEvent]:
        for e in windows:
            if e.at_s > t:
                break
            if e.end_s >= t and (e.target is None or e.target == rid):
                return e
        return None

    def _ship(
        self,
        request: Request,
        t: float,
        heap: List[Tuple[float, int, Request]],
        seq: List[int],
    ) -> None:
        """Price the KV handoff leaving the prefill pool at time ``t``."""
        self.handoffs += 1
        fail = self._covering(self._fail_windows, t, request.request_id)
        if fail is not None:
            request.retries += 1
            self.reprefills += 1
            request.admitted_s = None
            request.first_token_s = None
            request.token_times = []
            request.prefix_hit = False
            request.kv_shipped = False
            if self.retry.exhausted(request.retries):
                request.rejected = True
                self.rejected += 1
                return
            delay = self.transfer.raw_delay(request.prompt_tokens) + self.retry.delay_s(
                request.retries
            )
        else:
            delay = self.transfer.visible_delay(request.prompt_tokens)
            deg = self._covering(self._deg_windows, t, request.request_id)
            if deg is not None and deg.severity != 1.0:
                delay /= deg.severity
            request.kv_shipped = True
        request.handoff_s = t + delay
        heapq.heappush(heap, (t + delay, seq[0], request))
        seq[0] += 1

    # ---------------------------------------------------------- main loop
    def run(self, requests: "Sequence[Request]") -> List[Request]:
        """Serve ``requests`` through both pools to completion."""
        order = sorted(requests, key=lambda r: r.arrival_s)
        n = len(order)
        ptr = 0
        handoff_heap: List[Tuple[float, int, Request]] = []
        seq = [0]
        engines = [(w, True) for w in self.prefill] + [(w, False) for w in self.decode]
        while True:
            t_deliver = handoff_heap[0][0] if handoff_heap else _INF
            t_arr = order[ptr].arrival_s if ptr < n else _INF
            t_step = _INF
            step_at = -1
            for k, (w, _) in enumerate(engines):
                if w.active and w.engine.now < t_step:
                    t_step = w.engine.now
                    step_at = k
            # Deterministic order: delivery < arrival < engine step.
            best_t, best_kind = t_deliver, 0
            if t_arr < best_t:
                best_t, best_kind = t_arr, 1
            if t_step < best_t:
                best_t, best_kind = t_step, 2
            if best_t == _INF:
                break
            if best_kind == 0:
                _, _, request = heapq.heappop(handoff_heap)
                self._refresh(self._state_d, self.decode)
                r = self.decode_router.route(-1, 0)
                w = self.decode[r]
                w.pending.append(request)
                w.active = True
            elif best_kind == 1:
                request = order[ptr]
                ptr += 1
                self._refresh(self._state_p, self.prefill)
                code = self._code_of(request)
                r = self.router.route(code, request.prefix_tokens)
                if code >= 0:
                    self._state_p.record_prefix(code, r, request.prefix_tokens)
                w = self.prefill[r]
                w.pending.append(request)
                w.active = True
            else:
                w, is_prefill = engines[step_at]
                status = w.engine.step(w.pending)
                if status == STEP_IDLE:
                    w.active = False
                elif is_prefill and status == STEP_HANDOFF:
                    t = w.engine.now
                    for request in w.engine.drain_finished():
                        self._ship(request, t, handoff_heap, seq)
        return list(requests)
