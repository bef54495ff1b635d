"""Multi-replica fleet serving: cluster simulation with cache-aware routing.

The paper's serving section (§2.3) is about *clusters*, not engines:
Mooncake [55] routes requests to the replica whose KV cache already holds
their prefix, DistServe [69] sheds load to protect goodput, and both scale
replica counts with demand.  This module lifts the repository's
single-engine simulator to that level, twice over:

* :class:`EngineFleet` — N real :class:`~repro.inference.scheduler.
  ServingEngine` replicas driven through :meth:`ServingEngine.step` behind
  a :class:`~repro.inference.router.Router`.  Token-level fidelity: a
  fleet of one replica follows a **bit-identical** trajectory to a bare
  engine (the metamorphic anchor in ``tests/test_fleet.py``).
  :func:`serve_engines` is the one token-level event loop; it also runs
  :class:`~repro.inference.pools.DisaggEngineFleet`, an ``EngineFleet``
  whose replicas are a prefill pool shipping KV to a decode pool.
* :class:`ClusterFleet` — a request-granular fleet model for *scale*:
  each request is one service interval (prefill + decode from the replica
  model's closed-form latency), which keeps the event count at O(1) per
  request and makes million-request router studies tractable.

Both understand :data:`~repro.faults.REPLICA_DEATH` faults (whole-replica
loss: queue re-routed, in-flight work retried with backoff on survivors)
and take exactly the three router policies of
:mod:`repro.inference.router`, whose shared rules (seeded uniform pick,
packed least-loaded key, prefix-holder scan) both apply to their own
per-replica lists; ``ClusterFleet`` also scales its replica count with
queue depth (:class:`AutoscalePolicy`).

``ClusterFleet.run`` delegates to the one request-level fleet event loop,
:func:`repro.inference.pools.run_pool_fleet`: a plain fleet is the
all-colocated pool layout ``PoolSpec(colocated=n_replicas)``.  That loop
shards the event heap (per-replica finish heaps merged by a top-of-heap
tournament, arrivals read straight off the sorted workload columns),
keeps packed integer load keys incrementally, and scans per-prefix
holder lists for prefix-aware routing.  The frozen naive fleet DES
(``benchmarks/perf/_legacy_fleet.py``: one global event heap, epoch
tombstones, per-decision rescans) pins plain fleets bitwise
(``FleetResult.equals``).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from math import log
from typing import TYPE_CHECKING, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, SchedulerError
from ..faults import REPLICA_DEATH, FaultEvent, FaultPlan, RetryPolicy, pool_target, slot_target
from ..utils import check_finite_fields, check_int_fields, derive_rng, percentile
from .request import SLO, Request
from .router import HUGE_KEY, Router, pick, prefix_holder, routing_mode, uniforms
from .scheduler import STEP_HANDOFF, STEP_IDLE, ServingEngine
from .transfer import TransferModel

if TYPE_CHECKING:  # pools imports fleet; the reverse edge is lazy
    from .pools import PoolSpec

_INF = float("inf")


# ============================================================== workloads
@dataclass(frozen=True)
class FleetWorkload:
    """A fleet-scale request trace in structure-of-arrays form.

    One float64/int64 column per field instead of per-request objects:
    million-request traces stay cheap to generate, slice, and feed to the
    vectorized fleet loop.  ``prefix_code`` is an integer prefix family id
    (``-1`` = no shared prefix) and ``prefix_tokens`` the shared length —
    the columnar analogue of :attr:`Request.prefix_id`.
    """

    arrival_s: np.ndarray
    prompt_tokens: np.ndarray
    output_tokens: np.ndarray
    prefix_code: np.ndarray
    prefix_tokens: np.ndarray

    def __post_init__(self) -> None:
        n = self.arrival_s.shape[0]
        if self.arrival_s.ndim != 1 or self.arrival_s.dtype.kind not in "iuf":
            raise ConfigError("arrival_s must be a 1-D real column")
        if not bool(np.isfinite(self.arrival_s).all()):
            raise ConfigError("arrival_s must be finite")
        for name in ("prompt_tokens", "output_tokens", "prefix_code", "prefix_tokens"):
            column = getattr(self, name)
            if column.ndim != 1 or column.dtype.kind not in "iu":
                raise ConfigError(f"workload column {name!r} must be a 1-D integer column")
            if column.shape[0] != n:
                raise ConfigError(f"workload column {name!r} length mismatch")
        if n and bool(np.any(self.arrival_s[1:] < self.arrival_s[:-1])):
            raise ConfigError("arrival_s must be sorted non-decreasing")
        if n and (int(self.prompt_tokens.min()) < 1 or int(self.output_tokens.min()) < 1):
            raise ConfigError("prompt/output token counts must be >= 1")
        if n and int(self.prefix_tokens.min()) < 0:
            raise ConfigError("prefix_tokens must be non-negative")

    @property
    def n(self) -> int:
        """Number of requests in the trace."""
        return int(self.arrival_s.shape[0])

    def head(self, count: int) -> "FleetWorkload":
        """The first ``count`` requests (for smoke-scale runs)."""
        return FleetWorkload(
            arrival_s=self.arrival_s[:count],
            prompt_tokens=self.prompt_tokens[:count],
            output_tokens=self.output_tokens[:count],
            prefix_code=self.prefix_code[:count],
            prefix_tokens=self.prefix_tokens[:count],
        )

    def to_requests(self) -> List[Request]:
        """Materialize :class:`Request` objects (for :class:`EngineFleet`)."""
        out: List[Request] = []
        for i in range(self.n):
            code = int(self.prefix_code[i])
            out.append(
                Request(
                    request_id=f"req-{i:07d}",
                    arrival_s=float(self.arrival_s[i]),
                    prompt_tokens=int(self.prompt_tokens[i]),
                    output_tokens=int(self.output_tokens[i]),
                    prefix_id=None if code < 0 else f"prefix-{code}",
                    prefix_tokens=0 if code < 0 else int(self.prefix_tokens[i]),
                )
            )
        return out


def fleet_poisson_workload(
    num_requests: int,
    *,
    rate_rps: float = 100.0,
    prompt_mean: int = 512,
    prompt_sigma: float = 0.5,
    output_mean: int = 64,
    output_sigma: float = 0.6,
    max_tokens: int = 8192,
    num_prefixes: int = 0,
    prefix_tokens: int = 512,
    prefix_fraction: float = 0.0,
    seed: int = 0,
) -> FleetWorkload:
    """Draw a Poisson-arrival trace with lognormal lengths, fully vectorized.

    A ``prefix_fraction`` share of requests carry one of ``num_prefixes``
    shared system prompts of ``prefix_tokens`` tokens prepended to their
    unique part — the workload shape under which prefix-aware routing pays
    (Mooncake's production traces).  All randomness flows through
    ``derive_rng(seed, "fleet", "workload")``.
    """
    if num_requests <= 0:
        raise ConfigError("num_requests must be positive")
    if rate_rps <= 0.0:
        raise ConfigError("rate_rps must be positive")
    if not 0.0 <= prefix_fraction <= 1.0:
        raise ConfigError("prefix_fraction must be in [0, 1]")
    if prefix_fraction > 0.0 and num_prefixes <= 0:
        raise ConfigError("prefix_fraction > 0 needs num_prefixes > 0")
    rng = derive_rng(seed, "fleet", "workload")
    arrival = np.cumsum(rng.exponential(1.0 / rate_rps, num_requests))
    prompts = np.clip(
        np.rint(np.exp(rng.normal(log(float(prompt_mean)), prompt_sigma, num_requests))),
        1,
        max_tokens,
    ).astype(np.int64)
    outputs = np.clip(
        np.rint(np.exp(rng.normal(log(float(output_mean)), output_sigma, num_requests))),
        1,
        max_tokens,
    ).astype(np.int64)
    codes = np.full(num_requests, -1, dtype=np.int64)
    ptoks = np.zeros(num_requests, dtype=np.int64)
    if prefix_fraction > 0.0:
        shared = rng.random(num_requests) < prefix_fraction
        drawn = rng.integers(0, num_prefixes, num_requests, dtype=np.int64)
        codes = np.where(shared, drawn, codes)
        ptoks = np.where(shared, np.int64(prefix_tokens), ptoks)
        prompts = prompts + ptoks
    return FleetWorkload(
        arrival_s=arrival,
        prompt_tokens=prompts,
        output_tokens=outputs,
        prefix_code=codes,
        prefix_tokens=ptoks,
    )


# ================================================================= config
@dataclass(frozen=True)
class ReplicaModel:
    """Closed-form per-replica service model for :class:`ClusterFleet`.

    A replica serves up to ``slots`` requests concurrently within
    ``kv_capacity_tokens`` of KV budget (a request reserves
    ``prompt + output`` tokens for its lifetime).  Service time is the
    single-engine :class:`~repro.inference.scheduler.IterationCost` shape
    collapsed to one interval per request: prefill pays the compute-bound
    token cost once (minus block-rounded prefix hits), then each output
    token streams at ``per_output_token_s``.
    """

    slots: int = 64
    kv_capacity_tokens: int = 262_144
    base_s: float = 0.006
    per_prefill_token_s: float = 0.00011
    per_output_token_s: float = 0.0095
    block_tokens: int = 64

    def __post_init__(self) -> None:
        check_finite_fields(self, "base_s", "per_prefill_token_s", "per_output_token_s")
        check_int_fields(self, "slots", "kv_capacity_tokens", "block_tokens")
        if self.slots <= 0:
            raise ConfigError("slots must be positive")
        if self.kv_capacity_tokens <= 0:
            raise ConfigError("kv_capacity_tokens must be positive")
        if self.base_s <= 0.0 or self.per_prefill_token_s <= 0.0:
            raise ConfigError("latency coefficients must be positive")
        if self.per_output_token_s <= 0.0:
            raise ConfigError("per_output_token_s must be positive")
        if self.block_tokens <= 0:
            raise ConfigError("block_tokens must be positive")


@dataclass(frozen=True)
class AutoscalePolicy:
    """Queue-depth-driven replica scaling.

    Every ``interval_s`` of simulated time the fleet compares mean queued
    requests per routable replica against the watermarks: above
    ``high_queue_per_replica`` a new replica spawns after ``spawn_delay_s``
    (model load + warmup); below ``low_queue_per_replica`` the
    highest-indexed replica drains (stops taking traffic, finishes its
    backlog, then retires).
    """

    min_replicas: int = 1
    max_replicas: int = 8
    high_queue_per_replica: float = 8.0
    low_queue_per_replica: float = 1.0
    interval_s: float = 5.0
    spawn_delay_s: float = 10.0

    def __post_init__(self) -> None:
        check_finite_fields(
            self,
            "interval_s",
            "spawn_delay_s",
            allow_inf=("high_queue_per_replica", "low_queue_per_replica"),
        )
        check_int_fields(self, "min_replicas", "max_replicas")
        if self.min_replicas <= 0 or self.max_replicas < self.min_replicas:
            raise ConfigError("need 0 < min_replicas <= max_replicas")
        if self.low_queue_per_replica < 0.0 or (
            self.high_queue_per_replica <= self.low_queue_per_replica
        ):
            raise ConfigError("need 0 <= low watermark < high watermark")
        if self.interval_s <= 0.0 or self.spawn_delay_s < 0.0:
            raise ConfigError("interval_s must be positive, spawn_delay_s >= 0")


# ================================================================ results
@dataclass
class FleetResult:
    """Per-request outcome columns plus fleet counters from a cluster run.

    The trailing block is the pool view: which replica ran each request's
    decode, when its decode admission happened, and the pool-level
    counters (KV handoffs, migrations, re-prefills).  ``ClusterFleet.run``
    always fills the decode columns (a colocated row decodes where it
    prefilled, from its first token); only the frozen legacy oracle
    leaves them ``None``, and its counters 0.
    """

    replica: np.ndarray
    start_s: np.ndarray
    first_token_s: np.ndarray
    finish_s: np.ndarray
    retries: np.ndarray
    rejected: np.ndarray
    prefix_hit_tokens: np.ndarray
    completed: int
    rejected_total: int
    deaths: int
    spawns: int
    drains: int
    reroutes: int
    served_per_replica: np.ndarray
    sim_end_s: float
    decode_replica: Optional[np.ndarray] = None
    decode_start_s: Optional[np.ndarray] = None
    handoffs: int = 0
    migrations: int = 0
    shipped_migrations: int = 0
    reprefills: int = 0

    def equals(self, other: "FleetResult") -> bool:
        """Bitwise parity: every column and counter identical."""
        return (
            np.array_equal(self.replica, other.replica)
            and np.array_equal(self.start_s, other.start_s, equal_nan=True)
            and np.array_equal(self.first_token_s, other.first_token_s, equal_nan=True)
            and np.array_equal(self.finish_s, other.finish_s, equal_nan=True)
            and np.array_equal(self.retries, other.retries)
            and np.array_equal(self.rejected, other.rejected)
            and np.array_equal(self.prefix_hit_tokens, other.prefix_hit_tokens)
            and np.array_equal(self.served_per_replica, other.served_per_replica)
            and np.array_equal(self.decode_replica, other.decode_replica)
            and np.array_equal(self.decode_start_s, other.decode_start_s, equal_nan=True)
            and self.completed == other.completed
            and self.rejected_total == other.rejected_total
            and self.deaths == other.deaths
            and self.spawns == other.spawns
            and self.drains == other.drains
            and self.reroutes == other.reroutes
            and self.handoffs == other.handoffs
            and self.migrations == other.migrations
            and self.shipped_migrations == other.shipped_migrations
            and self.reprefills == other.reprefills
            and self.sim_end_s == other.sim_end_s
        )


@dataclass
class FleetReport:
    """Router-policy comparison row: tails, throughput, shedding, balance."""

    policy: str
    requests: int
    completed: int
    rejected: int
    shed_rate: float
    throughput_rps: float
    ttft_p50: float
    ttft_p95: float
    ttft_p99: float
    latency_p50: float
    latency_p99: float
    prefix_hit_rate: float
    mean_retries: float
    imbalance: float
    deaths: int
    spawns: int
    drains: int
    sim_end_s: float

    def row(self) -> Dict[str, float]:
        """Flat dict for table rendering / BENCH JSON."""
        return {
            "completed": self.completed,
            "shed_rate": round(self.shed_rate, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "ttft_p50_s": round(self.ttft_p50, 4),
            "ttft_p95_s": round(self.ttft_p95, 4),
            "ttft_p99_s": round(self.ttft_p99, 4),
            "latency_p99_s": round(self.latency_p99, 4),
            "prefix_hit_rate": round(self.prefix_hit_rate, 4),
            "imbalance": round(self.imbalance, 3),
        }


def summarize_fleet(
    workload: FleetWorkload, result: FleetResult, *, policy: str = ""
) -> FleetReport:
    """Aggregate a :class:`FleetResult` into a policy-comparison row."""
    done = np.logical_and(~result.rejected, np.isfinite(result.finish_s))
    n_done = int(done.sum())
    if n_done == 0:
        raise SchedulerError("fleet run completed zero requests")
    ttft = result.first_token_s[done] - workload.arrival_s[done]
    latency = result.finish_s[done] - workload.arrival_s[done]
    span = float(result.finish_s[done].max() - workload.arrival_s.min())
    served = result.served_per_replica
    active = served[served > 0]
    mean_served = float(active.mean()) if active.shape[0] else 0.0
    imbalance = float(active.max()) / mean_served if mean_served > 0.0 else 0.0
    with_prefix = np.logical_and(done, workload.prefix_code >= 0)
    n_prefix = int(with_prefix.sum())
    hits = int(np.count_nonzero(result.prefix_hit_tokens[with_prefix]))
    return FleetReport(
        policy=policy,
        requests=workload.n,
        completed=n_done,
        rejected=result.rejected_total,
        shed_rate=result.rejected_total / workload.n,
        throughput_rps=n_done / span if span > 0.0 else 0.0,
        ttft_p50=percentile(ttft.tolist(), 50.0),
        ttft_p95=percentile(ttft.tolist(), 95.0),
        ttft_p99=percentile(ttft.tolist(), 99.0),
        latency_p50=percentile(latency.tolist(), 50.0),
        latency_p99=percentile(latency.tolist(), 99.0),
        prefix_hit_rate=hits / n_prefix if n_prefix else 0.0,
        mean_retries=float(result.retries.mean()),
        imbalance=imbalance,
        deaths=result.deaths,
        spawns=result.spawns,
        drains=result.drains,
        sim_end_s=result.sim_end_s,
    )


# ========================================================== cluster fleet
def _death_events(faults: Optional[FaultPlan]) -> List[FaultEvent]:
    """The plan's REPLICA_DEATH events, every target parsed up front.

    A malformed slot or an unknown pool raises ``ConfigError`` here, when
    the fleet is built, not in the middle of a run.
    """
    deaths = faults.of_kind(REPLICA_DEATH) if faults is not None else []
    for event in deaths:
        slot_target(event.target)
        pool_target(event.target)
    return deaths


def _death_victim(
    event: FaultEvent,
    alive: Sequence[bool],
    draining: Sequence[bool],
    deaths: int,
    members: Optional[Sequence[bool]] = None,
) -> int:
    """The slot a REPLICA_DEATH ``event`` kills, or -1 when nothing matches.

    A ``replica-N`` target names slot N.  Otherwise the victim rotates, by
    the ``deaths`` so far, over the live replicas that are not draining
    (over every live one when all drain), limited to the slots
    ``members`` marks when the event names a pool.  Without ``members`` a
    pool target kills nothing.
    """
    target = event.target
    if target is not None and pool_target(target) is None:
        slot = slot_target(target)
        return slot if slot is not None and slot < len(alive) and alive[slot] else -1
    if target is not None and members is None:
        return -1
    live = [r for r in range(len(alive)) if alive[r] and (members is None or members[r])]
    cands = [r for r in live if not draining[r]] or live
    return cands[deaths % len(cands)] if cands else -1


class ClusterFleet:
    """Request-granular fleet DES over sharded per-replica event heaps.

    A plain fleet (``pools=None``) is the all-colocated pool: ``run``
    hands it to :func:`~repro.inference.pools.run_pool_fleet` as
    ``PoolSpec(colocated=n_replicas)``, the same loop that runs every
    disaggregated ``pools`` layout.  ``pools`` itself stays as given.
    Event order is total and deterministic: at equal timestamps, death <
    spawn < finish < retry < arrival < autoscale tick, finishes tie-break
    on (replica, request), and the frozen naive baseline realizes the
    identical order through one global priority heap, which the parity
    suite exploits.

    ``router`` is a :class:`~repro.inference.router.RandomRouter`,
    :class:`~repro.inference.router.LeastLoadedRouter` or
    :class:`~repro.inference.router.PrefixAwareRouter`, and
    ``decode_router`` one of the first two
    (:func:`~repro.inference.router.routing_mode`); the loop applies the
    rules of :mod:`~repro.inference.router` to incrementally maintained
    packed integer load keys.  Any other router raises ``ConfigError``
    here.
    """

    def __init__(
        self,
        n_replicas: int,
        router: Router,
        *,
        model: Optional[ReplicaModel] = None,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        shed_slo: Optional[SLO] = None,
        autoscale: Optional[AutoscalePolicy] = None,
        pools: Optional["PoolSpec"] = None,
        decode_router: Optional[Router] = None,
    ) -> None:
        if n_replicas <= 0:
            raise ConfigError("n_replicas must be positive")
        if pools is not None and pools.total != n_replicas:
            raise ConfigError(
                f"pool spec covers {pools.total} replicas but n_replicas={n_replicas}"
            )
        if pools is None and decode_router is not None:
            raise ConfigError("decode_router needs a pool spec to route over")
        routing_mode(router)
        if decode_router is not None:
            routing_mode(decode_router, decode=True)
        self.router = router
        self.model = model or ReplicaModel()
        self.retry = retry or RetryPolicy()
        self.shed_slo = shed_slo
        self.autoscale = autoscale
        self.pools = pools
        self.decode_router = decode_router
        self.n_replicas = n_replicas
        self.max_replicas = (
            max(n_replicas, autoscale.max_replicas) if autoscale else n_replicas
        )
        self._faults = faults
        self._deaths = _death_events(faults)
        self.fault_log: List[FaultEvent] = []

    def run(self, workload: FleetWorkload) -> FleetResult:
        """Simulate the trace to completion; returns per-request outcomes.

        A plain fleet runs as the all-colocated pool layout; ``self.pools``
        is left as given (``None`` on a plain fleet).
        """
        from .pools import PoolSpec, run_pool_fleet  # lazy: pools imports fleet

        return run_pool_fleet(
            self, workload, self.pools or PoolSpec(colocated=self.n_replicas)
        )


# =========================================================== engine fleet
class _EngineReplica:
    """One fleet slot: a live engine, its arrival deque, and liveness."""

    def __init__(self, engine: ServingEngine) -> None:
        self.engine = engine
        self.pending: Deque[Request] = deque()
        self.active = False


class EngineFleet:
    """N token-level :class:`ServingEngine` replicas behind a router.

    Replicas advance through :meth:`ServingEngine.step`, each on its own
    clock; :func:`serve_engines` interleaves replica steps with routed
    arrivals, replica-death faults and fleet-level retries in
    deterministic (time, priority) order.  The replica count is fixed:
    a dead replica's slot stays empty.  With one replica and no
    fleet faults, the driven engine's trajectory — every timestamp,
    iteration count, and KV decision — is bit-identical to ``engine.run()``
    on the same requests, whatever the router policy (the metamorphic
    invariant).  ``router`` must be exactly one of the three built-in
    policies (:func:`~repro.inference.router.routing_mode`).  Each decision
    applies the rules of :mod:`~repro.inference.router` to packed load
    keys read from the live engines; the per-prefix cached-token lists a
    prefix-aware router reads are optimistic route-time estimates, as in a
    real cluster's routing tier.

    A plain fleet's ``decode`` pool is empty, so nothing ever ships; the
    KV-ship and decode-routing methods serve
    :class:`~repro.inference.pools.DisaggEngineFleet`, whose replicas are
    the prefill pool.
    """

    # Set by DisaggEngineFleet, the only fleet with a decode pool.
    decode_router: Router
    transfer: TransferModel
    _mode_d: int
    _stream_d: Optional[Iterator[float]]
    _fail_windows: List[FaultEvent]
    _deg_windows: List[FaultEvent]

    def __init__(
        self,
        engine_factory: Callable[[], ServingEngine],
        n_replicas: int,
        router: Router,
        *,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if n_replicas <= 0:
            raise ConfigError("n_replicas must be positive")
        self._mode = routing_mode(router)
        self._deaths = _death_events(faults)
        self.router = router
        self.retry = retry or RetryPolicy()
        self.replicas: List[Optional[_EngineReplica]] = [
            _EngineReplica(engine_factory()) for _ in range(n_replicas)
        ]
        sample = self.replicas[0].engine  # type: ignore[union-attr]
        capacity = getattr(sample.allocator, "capacity_tokens", None)
        self._kv_proxy = capacity is None
        # Packed-key span: KV capacity (running count without an allocator) + 1.
        self._span = (int(capacity) if capacity is not None else max(sample.max_running, 1)) + 1
        self._stream = uniforms(router) if self._mode == 0 else None
        # Prefix-aware state, per prefix id as in the pool DES: the prefix
        # tokens each slot caches, and the slots that cache any.
        self._cached: Dict[str, List[int]] = {}
        self._holders: Dict[str, List[int]] = {}
        self.decode: List[_EngineReplica] = []
        self.fault_log: List[FaultEvent] = []
        self.assignments: Dict[str, int] = {}
        self.retries = 0
        self.rejected = 0
        self.deaths = 0
        self.reroutes = 0
        self.handoffs = 0
        self.reprefills = 0

    def run(self, requests: Sequence[Request]) -> List[Request]:
        """Route and serve ``requests`` across the fleet to completion."""
        return serve_engines(self, requests)

    # ------------------------------------------------------------- routing
    def _load_keys(self, pool: Sequence[Optional[_EngineReplica]]) -> List[int]:
        """Each slot's packed ``(queued + running, KV used)`` key; dead = HUGE_KEY."""
        span = self._span
        keys: List[int] = []
        for w in pool:
            if w is None:
                keys.append(HUGE_KEY)
                continue
            engine = w.engine
            if self._kv_proxy:
                kv = len(engine.running)
            else:
                kv = engine.allocator.stats.reserved_tokens  # type: ignore[union-attr]
            keys.append((len(w.pending) + len(engine.running) + len(engine._preempted)) * span + kv)
        return keys

    def _choose(
        self,
        mode: int,
        pool: Sequence[Optional[_EngineReplica]],
        stream: Optional[Iterator[float]],
        request: Optional[Request] = None,
    ) -> int:
        """The slot of ``pool`` that policy ``mode`` routes ``request`` to."""
        if mode == 0:
            assert stream is not None
            return pick([r for r, w in enumerate(pool) if w is not None], next(stream))
        keys = self._load_keys(pool)
        r = -1
        if mode == 2 and request is not None and request.prefix_tokens > 0:
            pid = request.prefix_id
            if pid in self._cached:
                block = self.router.block_tokens
                r = prefix_holder(
                    self._holders[pid], self._cached[pid], keys, request.prefix_tokens, block
                )
        if r < 0:
            r = keys.index(min(keys))
            if keys[r] >= HUGE_KEY:
                raise SchedulerError("no routable replicas")
        return r

    def _route(self, request: Request, count_reroute: bool = False) -> None:
        r = self._choose(self._mode, self.replicas, self._stream, request)
        pid = request.prefix_id
        if self._mode == 2 and pid is not None and request.prefix_tokens > 0:
            cached = self._cached.get(pid)
            if cached is None:
                cached = self._cached[pid] = [0] * len(self.replicas)
                self._holders[pid] = []
            if request.prefix_tokens > cached[r]:
                if cached[r] == 0:
                    self._holders[pid].append(r)
                cached[r] = request.prefix_tokens
        w = self.replicas[r]
        assert w is not None
        w.pending.append(request)
        w.active = True
        self.assignments[request.request_id] = r
        if count_reroute:
            self.reroutes += 1

    def _deliver(self, request: Request) -> None:
        """Queue a request whose KV ship landed on a decode engine."""
        w = self.decode[self._choose(self._mode_d, self.decode, self._stream_d)]
        w.pending.append(request)
        w.active = True

    # ------------------------------------------------------------ KV ship
    @staticmethod
    def _covering(windows: List[FaultEvent], t: float, rid: str) -> Optional[FaultEvent]:
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
        """Price the KV handoff leaving the prefill pool at time ``t``.

        A ship inside a KV_TRANSFER_FAIL window pays the full wire time,
        backs off, and lands as a decode-side re-prefill (the KV is gone);
        a KV_DEGRADED window divides the wire speed by its severity.
        """
        self.handoffs += 1
        fail = self._covering(self._fail_windows, t, request.request_id)
        if fail is not None:
            self.reprefills += 1
            request.kv_shipped = False
            if not self._restart(request):
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

    # ---------------------------------------------------------- membership
    def _restart(self, request: Request) -> bool:
        """Wipe a request's progress for a retry; ``False`` once it is
        out of retries (then it is rejected)."""
        request.retries += 1
        request.admitted_s = None
        request.first_token_s = None
        request.token_times = []
        request.prefix_hit = False
        if self.retry.exhausted(request.retries):
            request.rejected = True
            self.rejected += 1
            return False
        return True

    def _remove(self, r: int) -> None:
        """Empty slot ``r`` for good and drop its prefix-cache entries."""
        self.replicas[r] = None
        for pid, cached in self._cached.items():
            if cached[r]:
                cached[r] = 0
                self._holders[pid].remove(r)

    def _absorb_death(
        self,
        event: FaultEvent,
        retry_heap: List[Tuple[float, int, Request]],
        seq: List[int],
    ) -> None:
        alive = [w is not None for w in self.replicas]
        victim = _death_victim(event, alive, [False] * len(alive), self.deaths)
        if victim < 0:
            return
        self.fault_log.append(event)
        self.deaths += 1
        w = self.replicas[victim]
        assert w is not None
        engine = w.engine
        in_flight = list(engine.running.values()) + engine._preempted
        stranded = list(w.pending)
        carried = sorted(engine._retry_queue)
        self._remove(victim)
        for run_seq in in_flight:
            request = run_seq.request
            self.retries += 1
            if not self._restart(request):
                continue
            ready = event.end_s + self.retry.delay_s(request.retries)
            heapq.heappush(retry_heap, (max(ready, event.at_s), seq[0], request))
            seq[0] += 1
        for ready, _, request in carried:
            heapq.heappush(retry_heap, (max(ready, event.at_s), seq[0], request))
            seq[0] += 1
        if all(w is None for w in self.replicas) and (stranded or retry_heap):
            raise SchedulerError("replica_death left the fleet with no replicas")
        for request in stranded:
            self._route(request, count_reroute=True)


def serve_engines(fleet: EngineFleet, requests: Sequence[Request]) -> List[Request]:
    """The one token-level serving loop, for every :class:`EngineFleet`.

    Picks the earliest event each turn, at equal times in the order death
    < retry < KV delivery < arrival < engine step; engine steps tie-break
    on replica index, then decode index.  A prefill engine reporting
    :data:`STEP_HANDOFF` has its finished prefills shipped
    (:meth:`EngineFleet._ship`); each lands as a delivery on the decode
    pool.  Returns ``requests`` as given, served in place.
    """
    order = sorted(requests, key=lambda r: r.arrival_s)
    n = len(order)
    ptr = 0
    replicas = fleet.replicas
    decode = fleet.decode
    death_list = fleet._deaths
    retry_heap: List[Tuple[float, int, Request]] = []
    handoff_heap: List[Tuple[float, int, Request]] = []
    seq = [0]
    di = 0
    while True:
        t_death = death_list[di].at_s if di < len(death_list) else _INF
        t_retry = retry_heap[0][0] if retry_heap else _INF
        t_deliver = handoff_heap[0][0] if handoff_heap else _INF
        t_arr = order[ptr].arrival_s if ptr < n else _INF
        t_step = _INF
        w_step: Optional[_EngineReplica] = None
        for w in replicas:
            if w is not None and w.active and w.engine.now < t_step:
                t_step = w.engine.now
                w_step = w
        for w in decode:
            if w.active and w.engine.now < t_step:
                t_step = w.engine.now
                w_step = w
        best_t, best_kind = t_death, 0
        if t_retry < best_t:
            best_t, best_kind = t_retry, 1
        if t_deliver < best_t:
            best_t, best_kind = t_deliver, 2
        if t_arr < best_t:
            best_t, best_kind = t_arr, 3
        if t_step < best_t:
            best_t, best_kind = t_step, 4
        if best_t == _INF:
            if di < len(death_list):
                di += 1  # faults scheduled after the fleet drained: no-op
                continue
            break
        if best_kind == 0:
            di += 1
            fleet._absorb_death(death_list[di - 1], retry_heap, seq)
        elif best_kind == 1:
            _, _, request = heapq.heappop(retry_heap)
            fleet._route(request, count_reroute=True)
        elif best_kind == 2:
            _, _, request = heapq.heappop(handoff_heap)
            fleet._deliver(request)
        elif best_kind == 3:
            fleet._route(order[ptr])
            ptr += 1
        else:
            assert w_step is not None
            status = w_step.engine.step(w_step.pending)
            if status == STEP_IDLE:
                w_step.active = False
            elif status == STEP_HANDOFF:
                t = w_step.engine.now
                for request in w_step.engine.drain_finished():
                    fleet._ship(request, t, handoff_heap, seq)
    return list(requests)
