"""Fleet request routers: random, least-loaded, and prefix-cache-aware.

Cluster-level serving (paper §2.3; Mooncake [55] / DistServe [69] style)
hinges on *where* a request lands: a replica that already holds the
request's prompt prefix in its KV cache serves it with a fraction of the
prefill work, while an overloaded replica queues it behind a deep backlog.
This module is the one place that knows the placement rules the fleet
simulators (:mod:`repro.inference.fleet`) apply:

* :class:`RandomRouter` — seeded uniform choice over routable replicas
  (the baseline every serious policy must beat);
* :class:`LeastLoadedRouter` — lexicographic ``(queued + running,
  KV pressure)`` argmin, ties to the lowest replica index;
* :class:`PrefixAwareRouter` — route to the replica whose prefix cache
  holds the longest block-rounded hit for the request's prefix (the same
  block-granular reuse rule as :class:`~repro.inference.prefix.
  PrefixCacheSimulator`), falling back to least-loaded when no replica
  has seen the prefix.

The router classes are policy values: a name plus the parameters the
policy reads.  Both fleet loops (the token-level
:func:`~repro.inference.fleet.serve_engines` and the request-level
:func:`~repro.inference.pools.run_pool_fleet`) keep their own per-replica
bookkeeping as plain lists and apply the rules below to it:

* :func:`routing_mode` — the exact-type check every fleet runs on its
  routers; only the three built-in types route;
* :func:`uniforms` and :func:`pick` — a :class:`RandomRouter`'s seeded
  uniform stream and its clamped choice;
* least-loaded is ``keys.index(min(keys))`` over one packed integer load
  key per replica slot, ``(queued + running) * (kv_capacity + 1) +
  kv_used``, with unroutable slots at :data:`HUGE_KEY`;
* :func:`prefix_holder` — the prefix-aware scan over the replicas that
  cache a prefix.

Everything is deterministic: the only randomness is a
:class:`RandomRouter`'s :func:`~repro.utils.derive_rng` stream, drawn in
blocks that consume it exactly as one scalar draw per decision would,
which the naive-baseline parity suite relies on.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from ..errors import ConfigError, SchedulerError
from ..utils import check_int_fields, derive_rng

#: Policy names accepted by :func:`make_router`.
ROUTER_NAMES: Tuple[str, ...] = ("random", "least-loaded", "prefix-aware")

#: The load key of an unroutable slot: above any real packed key.
HUGE_KEY = 1 << 62


class Router:
    """A routing policy; fleets accept only the three built-in types."""

    name = "base"


class RandomRouter(Router):
    """Seeded uniform routing over the routable replicas."""

    name = "random"

    def __init__(self, seed: int = 0, stream: str = "router") -> None:
        # ``stream`` names the derive_rng sub-stream, so two RandomRouters
        # in one fleet (e.g. prefill + decode pools) can draw from
        # independent sequences off the same seed: pass "router-decode"
        # for the decode-side router (rule R008 naming).
        self.seed = seed
        self.stream = stream


class LeastLoadedRouter(Router):
    """Lexicographic ``(queued + running, KV pressure)`` argmin placement.

    Both components are integers, so the key packs exactly into one
    integer, ``(queued + running) * (kv_capacity + 1) + kv_used``, and ties
    resolve to the lowest replica index.
    """

    name = "least-loaded"


class PrefixAwareRouter(Router):
    """Longest block-rounded prefix hit, then least-loaded, then index.

    The hit length mirrors :class:`~repro.inference.prefix.
    PrefixCacheSimulator`: only whole ``block_tokens`` blocks of the
    cached prefix count (TensorRT-LLM block granularity), so a replica
    must hold at least one full block of the request's prefix to attract
    it.  Requests with no prefix — or a prefix no live replica caches —
    fall back to :class:`LeastLoadedRouter` placement.
    """

    name = "prefix-aware"

    def __init__(self, block_tokens: int = 64) -> None:
        self.block_tokens = block_tokens
        check_int_fields(self, "block_tokens")
        if block_tokens <= 0:
            raise ConfigError("block_tokens must be positive")


_ROUTER_TYPES = (RandomRouter, LeastLoadedRouter, PrefixAwareRouter)


def routing_mode(router: Router, *, decode: bool = False) -> int:
    """The index of ``router``'s policy in :data:`ROUTER_NAMES`.

    Only the exact built-in types route (a subclass could change nothing
    the fleets read); a decode router is random or least-loaded, since no
    prefix cache lives on the decode side.  Anything else raises
    ``ConfigError``.
    """
    kinds = _ROUTER_TYPES[:2] if decode else _ROUTER_TYPES
    if type(router) not in kinds:
        role = "decode_router" if decode else "router"
        allowed = ", ".join(kind.__name__ for kind in kinds)
        raise ConfigError(f"{role} must be one of {allowed}, not {type(router).__name__}")
    return kinds.index(type(router))


def uniforms(router: RandomRouter) -> Iterator[float]:
    """An endless uniform stream off ``router``'s seed and stream name.

    Drawn in blocks of 8192, which consume the generator exactly as one
    scalar draw per decision would.
    """
    rng = derive_rng(router.seed, "fleet", router.stream)
    while True:
        yield from rng.random(8192).tolist()


def pick(cands: Sequence[int], u: float) -> int:
    """The uniform choice ``cands[floor(u * len)]``, clamped to the last one."""
    k = len(cands)
    if not k:
        raise SchedulerError("no routable replicas")
    j = int(u * k)
    return cands[j if j < k else k - 1]


def prefix_holder(
    holders: Sequence[int],
    cached: Sequence[int],
    keys: Sequence[int],
    prefix_tokens: int,
    block_tokens: int,
) -> int:
    """The routable holder with the longest block-rounded hit, or -1.

    ``holders`` lists the slots that cache the prefix, ``cached[r]`` the
    prefix tokens slot ``r`` holds, and ``keys[r]`` its load key
    (:data:`HUGE_KEY` = unroutable).  A hit is capped at the request's
    ``prefix_tokens`` and rounded down to whole blocks; ties go to the
    lower load key, then the lower slot.  -1 means no routable holder has
    a whole block, and the request falls back to least-loaded.
    """
    best = 0
    best_key = 0
    chosen = -1
    for r in holders:
        key = keys[r]
        if key >= HUGE_KEY:
            continue
        c = cached[r]
        m = c if c < prefix_tokens else prefix_tokens
        hit = m - m % block_tokens
        if hit <= 0:
            continue
        if hit > best:
            best = hit
            best_key = key
            chosen = r
        elif hit == best and (key < best_key or (key == best_key and r < chosen)):
            best_key = key
            chosen = r
    return chosen


def make_router(name: str, *, seed: int = 0, block_tokens: int = 64) -> Router:
    """Build a router by policy name (:data:`ROUTER_NAMES`)."""
    if name == "random":
        return RandomRouter(seed=seed)
    if name == "least-loaded":
        return LeastLoadedRouter()
    if name == "prefix-aware":
        return PrefixAwareRouter(block_tokens=block_tokens)
    raise ConfigError(f"unknown router {name!r}; have {ROUTER_NAMES}")

