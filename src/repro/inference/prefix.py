"""Prefix / prompt caching (vLLM shared prefix, Prompt Cache, TensorRT-LLM).

:class:`PrefixCacheSimulator` replays a workload against a
:class:`~repro.inference.eviction.KVEntryCache` of precomputed prompt
prefixes and reports, per request, how many prompt tokens were served from
cache vs recomputed — then converts the saving into TTFT using the shared
iteration-cost model. Block-granular reuse (TensorRT's configurable block
size) rounds hits *down* to block boundaries, so smaller blocks reuse more
of a partially-matching prefix.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ConfigError
from .eviction import EvictionPolicy, KVEntryCache, LRUPolicy
from .request import Request
from .scheduler import IterationCost


@dataclass
class PrefixReport:
    """Aggregate outcome of a prefix-cache replay."""

    requests: int
    hit_rate: float
    tokens_from_cache: int
    tokens_recomputed: int
    mean_ttft_s: float
    mean_ttft_no_cache_s: float
    evictions: int

    @property
    def ttft_speedup(self) -> float:
        if self.mean_ttft_s <= 0:
            return 1.0
        return self.mean_ttft_no_cache_s / self.mean_ttft_s

    @property
    def cached_token_fraction(self) -> float:
        total = self.tokens_from_cache + self.tokens_recomputed
        return self.tokens_from_cache / total if total else 0.0


class PrefixCacheSimulator:
    """Replay requests against a prefix cache; measure TTFT deltas."""

    def __init__(
        self,
        *,
        capacity_tokens: int = 65_536,
        policy: Optional[EvictionPolicy] = None,
        block_tokens: int = 64,
        cost: Optional[IterationCost] = None,
    ) -> None:
        if block_tokens <= 0:
            raise ConfigError("block_tokens must be positive")
        self.cache = KVEntryCache(capacity_tokens, policy or LRUPolicy())
        self.block_tokens = block_tokens
        self.cost = cost or IterationCost()

    def _prefill_time(self, tokens: int) -> float:
        if tokens <= 0:
            return self.cost.base_s
        return self.cost.time(tokens, 0)

    def replay(self, requests: Sequence[Request]) -> PrefixReport:
        """Process requests in arrival order; populate caches as we go."""
        # Shallow per-request clones (only the mutable timeline list needs
        # copying) keep the caller's requests untouched without paying for a
        # deepcopy of the whole workload.
        work = sorted(
            (
                dataclasses.replace(r, token_times=list(r.token_times))
                for r in requests
            ),
            key=lambda r: r.arrival_s,
        )
        ttfts: List[float] = []
        ttfts_baseline: List[float] = []
        for request in work:
            baseline = self._prefill_time(request.prompt_tokens)
            ttfts_baseline.append(baseline)
            cached_tokens = 0
            if request.prefix_id is not None and request.prefix_tokens > 0:
                entry = self.cache.lookup(request.prefix_id, now=request.arrival_s)
                if entry is not None:
                    usable = min(entry.size_tokens, request.prefix_tokens)
                    # Reuse only whole blocks (TensorRT-LLM block granularity).
                    cached_tokens = (usable // self.block_tokens) * self.block_tokens
            remaining = request.prompt_tokens - cached_tokens
            self.cache.record_recompute(remaining)
            ttfts.append(self._prefill_time(remaining))
            request.prefix_hit = cached_tokens > 0
            # The request's own prefix becomes (re)cacheable at full length.
            if request.prefix_id is not None and request.prefix_tokens > 0:
                self.cache.insert(
                    request.prefix_id,
                    request.prefix_tokens,
                    now=request.arrival_s,
                )
        return PrefixReport(
            requests=len(work),
            hit_rate=self.cache.metrics.hit_rate,
            tokens_from_cache=self.cache.metrics.tokens_served_from_cache,
            tokens_recomputed=self.cache.metrics.tokens_recomputed,
            mean_ttft_s=sum(ttfts) / len(ttfts) if ttfts else 0.0,
            mean_ttft_no_cache_s=(
                sum(ttfts_baseline) / len(ttfts_baseline) if ttfts_baseline else 0.0
            ),
            evictions=self.cache.metrics.evictions,
        )
