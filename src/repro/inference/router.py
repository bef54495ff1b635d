"""Fleet request routers: random, least-loaded, and prefix-cache-aware.

Cluster-level serving (paper §2.3; Mooncake [55] / DistServe [69] style)
hinges on *where* a request lands: a replica that already holds the
request's prompt prefix in its KV cache serves it with a fraction of the
prefill work, while an overloaded replica queues it behind a deep backlog.
This module provides the placement policies the fleet simulators
(:mod:`repro.inference.fleet`) drive:

* :class:`RandomRouter` — seeded uniform choice over routable replicas
  (the baseline every serious policy must beat);
* :class:`LeastLoadedRouter` — lexicographic ``(queued + running,
  KV pressure)`` argmin, ties to the lowest replica index;
* :class:`PrefixAwareRouter` — route to the replica whose prefix cache
  holds the longest block-rounded hit for the request's prefix (the same
  block-granular reuse rule as :class:`~repro.inference.prefix.
  PrefixCacheSimulator`), falling back to least-loaded when no replica
  has seen the prefix.

Routers read a :class:`RouterState`: cross-replica bookkeeping kept as
NumPy *columns* (one slot per replica) owned and updated by the
token-level :class:`~repro.inference.fleet.EngineFleet`.  The
request-level pool DES (:func:`~repro.inference.pools.run_pool_fleet`)
does not call ``route``: it realizes these three policies on its own
packed integer load keys, which is why ``ClusterFleet`` takes no other
router type.
Decisions are batched at the C level — uniform draws come from a buffered
seeded stream and the load/hit reductions are single vectorized argmins —
so a routing decision costs O(1) Python operations regardless of fleet
size.  Everything is deterministic: the only randomness is
:class:`RandomRouter`'s :func:`~repro.utils.derive_rng` stream, and its
buffered draws consume the stream exactly as one-at-a-time draws would,
which the naive-baseline parity suite relies on.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigError, SchedulerError
from ..utils import derive_rng

_INT64_MAX = np.iinfo(np.int64).max

#: Policy names accepted by :func:`make_router`.
ROUTER_NAMES: Tuple[str, ...] = ("random", "least-loaded", "prefix-aware")


class RouterState:
    """Live cross-replica columns a router reads (owned by the fleet).

    One slot per replica; ``routable`` masks the slots a router may
    currently pick.  The fleet mutates these arrays in place as requests
    queue, start, finish, and as replicas die — routers never copy them.
    """

    def __init__(self, max_replicas: int, kv_capacity_tokens: int) -> None:
        if max_replicas <= 0:
            raise ConfigError("max_replicas must be positive")
        if kv_capacity_tokens <= 0:
            raise ConfigError("kv_capacity_tokens must be positive")
        self.max_replicas = max_replicas
        self.kv_capacity_tokens = kv_capacity_tokens
        self.routable = np.zeros(max_replicas, dtype=np.bool_)
        self.queue_depth = np.zeros(max_replicas, dtype=np.int64)
        self.running = np.zeros(max_replicas, dtype=np.int64)
        self.kv_used = np.zeros(max_replicas, dtype=np.int64)
        self.routable_indices = np.zeros(0, dtype=np.int64)
        # Per-prefix cached-token columns: code -> int64[max_replicas].
        self._prefix: Dict[int, np.ndarray] = {}

    def rebuild_routable(self) -> None:
        """Refresh the routable index list after a membership change."""
        self.routable_indices = np.flatnonzero(self.routable)

    # ------------------------------------------------------- prefix cache
    def prefix_hit_column(self, code: int) -> Optional[np.ndarray]:
        """Cached prefix tokens per replica for ``code`` (``None`` = unseen)."""
        return self._prefix.get(code)

    def record_prefix(self, code: int, replica: int, tokens: int) -> None:
        """Replica ``replica`` now caches ``tokens`` tokens of ``code``."""
        col = self._prefix.get(code)
        if col is None:
            col = np.zeros(self.max_replicas, dtype=np.int64)
            self._prefix[code] = col
        if tokens > col[replica]:
            col[replica] = tokens

    def clear_replica(self, replica: int) -> None:
        """Drop every cached prefix on ``replica`` (death / retirement)."""
        for col in self._prefix.values():
            col[replica] = 0

    def reset_counters(self, replica: int) -> None:
        """Zero the load columns for a fresh (or torn-down) replica slot."""
        self.queue_depth[replica] = 0
        self.running[replica] = 0
        self.kv_used[replica] = 0


class Router:
    """Interface: pick a replica slot for one request."""

    name = "base"

    def bind(self, state: RouterState) -> None:
        """Attach to a fleet's live state columns before a run."""
        self._state = state
        self._setup()

    def _setup(self) -> None:
        """Hook: allocate per-run scratch after :meth:`bind`."""

    def route(self, prefix_code: int, prefix_tokens: int) -> int:
        """Return the routable replica index for a request.

        ``prefix_code`` is the request's integer prefix id (``-1`` = no
        shared prefix) and ``prefix_tokens`` its shared-prefix length.
        """
        raise NotImplementedError

    def on_membership_change(self) -> None:
        """Hook: the routable set changed (a replica died)."""


class RandomRouter(Router):
    """Seeded uniform routing over the routable replicas.

    Draws are buffered (one vectorized ``rng.random`` call refills many
    decisions) but consume the :func:`~repro.utils.derive_rng` stream
    exactly as sequential scalar draws would, so batched and naive
    implementations stay bit-identical.
    """

    name = "random"
    _BUFFER = 8192

    def __init__(self, seed: int = 0, stream: str = "router") -> None:
        # ``stream`` names the derive_rng sub-stream, so two RandomRouters
        # in one fleet (e.g. prefill + decode pools) can draw from
        # independent sequences off the same seed: pass "router-decode"
        # for the decode-side router (rule R008 naming).
        self.seed = seed
        self.stream = stream

    def _setup(self) -> None:
        self._rng = derive_rng(self.seed, "fleet", self.stream)
        self._buf = np.zeros(0, dtype=np.float64)
        self._ptr = 0

    def _next_uniform(self) -> float:
        if self._ptr >= self._buf.shape[0]:
            self._buf = self._rng.random(self._BUFFER)
            self._ptr = 0
        u = self._buf[self._ptr]
        self._ptr += 1
        return float(u)

    def route(self, prefix_code: int, prefix_tokens: int) -> int:
        idx = self._state.routable_indices
        k = idx.shape[0]
        if k == 0:
            raise SchedulerError("no routable replicas")
        j = int(self._next_uniform() * k)
        if j >= k:  # guard the (measure-zero) top-of-range rounding
            j = k - 1
        return int(idx[j])


class LeastLoadedRouter(Router):
    """Lexicographic ``(queued + running, KV pressure)`` argmin placement.

    Both components are integers, so the key packs exactly into one int64
    column — ``(queue_depth + running) * (kv_capacity + 1) + kv_used`` —
    and the decision is a single C-level argmin with ties resolved to the
    lowest replica index.
    """

    name = "least-loaded"

    def _setup(self) -> None:
        n = self._state.max_replicas
        self._span = np.int64(self._state.kv_capacity_tokens + 1)
        self._key = np.zeros(n, dtype=np.int64)
        self._masked = np.zeros(n, dtype=np.int64)

    def load_key(self) -> np.ndarray:
        """The packed load column, ``int64`` max on unroutable slots."""
        s = self._state
        np.add(s.queue_depth, s.running, out=self._key)
        np.multiply(self._key, self._span, out=self._key)
        np.add(self._key, s.kv_used, out=self._key)
        self._masked.fill(_INT64_MAX)
        np.copyto(self._masked, self._key, where=s.routable)
        return self._masked

    def route(self, prefix_code: int, prefix_tokens: int) -> int:
        if self._state.routable_indices.shape[0] == 0:
            raise SchedulerError("no routable replicas")
        return int(np.argmin(self.load_key()))


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
        if block_tokens <= 0:
            raise ConfigError("block_tokens must be positive")
        self.block_tokens = block_tokens
        self._fallback = LeastLoadedRouter()

    def _setup(self) -> None:
        self._fallback.bind(self._state)
        n = self._state.max_replicas
        self._block = np.int64(self.block_tokens)
        self._hits = np.zeros(n, dtype=np.int64)
        self._hits_masked = np.zeros(n, dtype=np.int64)
        self._selected = np.zeros(n, dtype=np.int64)

    def route(self, prefix_code: int, prefix_tokens: int) -> int:
        state = self._state
        if prefix_code >= 0 and prefix_tokens > 0:
            col = state.prefix_hit_column(prefix_code)
            if col is not None:
                np.minimum(col, np.int64(prefix_tokens), out=self._hits)
                np.floor_divide(self._hits, self._block, out=self._hits)
                np.multiply(self._hits, self._block, out=self._hits)
                self._hits_masked.fill(-1)
                np.copyto(self._hits_masked, self._hits, where=state.routable)
                best = int(self._hits_masked.max())
                if best > 0:
                    self._selected.fill(_INT64_MAX)
                    np.copyto(
                        self._selected,
                        self._fallback.load_key(),
                        where=self._hits_masked == best,
                    )
                    return int(np.argmin(self._selected))
        return self._fallback.route(prefix_code, prefix_tokens)


def make_router(name: str, *, seed: int = 0, block_tokens: int = 64) -> Router:
    """Build a router by policy name (:data:`ROUTER_NAMES`)."""
    if name == "random":
        return RandomRouter(seed=seed)
    if name == "least-loaded":
        return LeastLoadedRouter()
    if name == "prefix-aware":
        return PrefixAwareRouter(block_tokens=block_tokens)
    raise ConfigError(f"unknown router {name!r}; have {ROUTER_NAMES}")
