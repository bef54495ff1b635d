"""Hierarchical KV-cache storage for multi-turn serving (AttentionStore [19],
Mooncake [45]).

Between conversation turns the session's KV cache is either discarded
(recompute next turn), or demoted through a memory hierarchy —
HBM -> DRAM -> SSD — and fetched back when the next turn arrives. The two
AttentionStore optimizations are modeled explicitly:

* **scheduler-aware prefetch** — when the next turn's arrival is known a
  little in advance (the request sits in the queue), fetching starts
  early, hiding transfer behind the wait;
* **transfer/compute overlap** — fetch of later layers overlaps prefill
  of earlier ones, hiding a configurable fraction of transfer time.

:func:`simulate_multiturn` replays a conversation workload under a chosen
strategy and reports per-turn TTFT and recompute volumes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from .request import Request
from .scheduler import IterationCost


@dataclass(frozen=True)
class Tier:
    """One level of the KV storage hierarchy."""

    name: str
    capacity_tokens: int
    read_bw_tokens_s: float  # tokens/s when loading back to HBM
    write_bw_tokens_s: float


@dataclass
class StoredSession:
    """A conversation's saved KV with its current tier."""

    conversation_id: str
    tokens: int
    tier_index: int
    saved_at: float


DEFAULT_TIERS = (
    Tier("hbm", capacity_tokens=60_000, read_bw_tokens_s=2_000_000, write_bw_tokens_s=2_000_000),
    Tier("dram", capacity_tokens=400_000, read_bw_tokens_s=300_000, write_bw_tokens_s=300_000),
    Tier("ssd", capacity_tokens=4_000_000, read_bw_tokens_s=40_000, write_bw_tokens_s=60_000),
)


@dataclass
class MultiTurnReport:
    """Aggregate outcome of a multi-turn replay."""

    turns: int
    first_turns: int
    mean_ttft_s: float
    followup_mean_ttft_s: float
    tokens_recomputed: int
    tokens_fetched: int
    fetch_hidden_s: float
    hit_rate: float


class AttentionStore:
    """Hierarchical session-KV store with LRU demotion."""

    def __init__(self, tiers: Sequence[Tier] = DEFAULT_TIERS) -> None:
        if not tiers:
            raise ConfigError("need at least one tier")
        self.tiers = list(tiers)
        self._sessions: Dict[str, StoredSession] = {}
        self._tier_used = [0 for _ in self.tiers]

    # ------------------------------------------------------------- storage
    def save(self, conversation_id: str, tokens: int, now: float) -> None:
        """Store a session's KV in the highest tier with room (demoting LRU)."""
        self.drop(conversation_id)
        tier_index = 0
        while tier_index < len(self.tiers):
            if self._tier_used[tier_index] + tokens <= self.tiers[tier_index].capacity_tokens:
                break
            self._demote_lru(tier_index, now)
            if self._tier_used[tier_index] + tokens <= self.tiers[tier_index].capacity_tokens:
                break
            tier_index += 1
        if tier_index >= len(self.tiers):
            return  # does not fit anywhere: drop (recompute later)
        self._sessions[conversation_id] = StoredSession(
            conversation_id=conversation_id,
            tokens=tokens,
            tier_index=tier_index,
            saved_at=now,
        )
        self._tier_used[tier_index] += tokens

    def _demote_lru(self, tier_index: int, now: float) -> None:
        """Move the least-recently-saved session of a tier one level down."""
        candidates = [
            s for s in self._sessions.values() if s.tier_index == tier_index
        ]
        if not candidates:
            return
        victim = min(candidates, key=lambda s: (s.saved_at, s.conversation_id))
        self._tier_used[tier_index] -= victim.tokens
        next_tier = tier_index + 1
        while next_tier < len(self.tiers):
            if self._tier_used[next_tier] + victim.tokens <= self.tiers[next_tier].capacity_tokens:
                victim.tier_index = next_tier
                self._tier_used[next_tier] += victim.tokens
                return
            next_tier += 1
        del self._sessions[victim.conversation_id]  # fell off the hierarchy

    def drop(self, conversation_id: str) -> None:
        session = self._sessions.pop(conversation_id, None)
        if session is not None:
            self._tier_used[session.tier_index] -= session.tokens

    def fetch(self, conversation_id: str) -> Optional[Tuple[int, float]]:
        """(tokens, transfer_seconds) to bring a session back to HBM."""
        session = self._sessions.get(conversation_id)
        if session is None:
            return None
        tier = self.tiers[session.tier_index]
        transfer_s = session.tokens / tier.read_bw_tokens_s
        return session.tokens, transfer_s


def simulate_multiturn(
    requests: Sequence[Request],
    *,
    strategy: str = "store",
    tiers: Sequence[Tier] = DEFAULT_TIERS,
    cost: Optional[IterationCost] = None,
    prefetch_lead_s: float = 0.0,
    overlap: float = 0.0,
) -> MultiTurnReport:
    """Replay a multi-turn workload under one KV-reuse strategy.

    Strategies: ``"recompute"`` (no store — every turn re-prefills its full
    history), ``"store"`` (hierarchical store), with ``prefetch_lead_s``
    and ``overlap`` enabling the two AttentionStore optimizations.
    """
    if strategy not in {"recompute", "store"}:
        raise ConfigError("strategy must be 'recompute' or 'store'")
    if not 0.0 <= overlap <= 1.0:
        raise ConfigError("overlap must be in [0, 1]")
    cost = cost or IterationCost()
    store = AttentionStore(tiers)
    work = sorted(copy.deepcopy(list(requests)), key=lambda r: r.arrival_s)
    ttfts: List[float] = []
    followup_ttfts: List[float] = []
    recomputed = 0
    fetched = 0
    hidden = 0.0
    hits = 0
    followups = 0
    for request in work:
        conv = request.conversation_id or request.request_id
        cached_tokens = 0
        transfer_visible = 0.0
        if request.turn_index > 0:
            followups += 1
        if strategy == "store" and request.turn_index > 0:
            result = store.fetch(conv)
            if result is not None:
                cached_tokens, transfer_s = result
                cached_tokens = min(cached_tokens, request.prefix_tokens)
                hits += 1
                fetched += cached_tokens
                # Overlap with compute, then hide behind prefetch lead.
                transfer_visible = transfer_s * (1.0 - overlap)
                hidden_here = min(transfer_visible, prefetch_lead_s)
                hidden += transfer_s - transfer_visible + hidden_here
                transfer_visible -= hidden_here
        new_tokens = request.prompt_tokens - cached_tokens
        recomputed += max(new_tokens, 0)
        ttft = cost.time(max(new_tokens, 1), 0) + transfer_visible
        ttfts.append(ttft)
        if request.turn_index > 0:
            followup_ttfts.append(ttft)
        if strategy == "store":
            store.drop(conv)
            store.save(conv, request.prompt_tokens + request.output_tokens, request.arrival_s)
    return MultiTurnReport(
        turns=len(work),
        first_turns=len(work) - followups,
        mean_ttft_s=sum(ttfts) / len(ttfts) if ttfts else 0.0,
        followup_mean_ttft_s=(
            sum(followup_ttfts) / len(followup_ttfts) if followup_ttfts else 0.0
        ),
        tokens_recomputed=recomputed,
        tokens_fetched=fetched,
        fetch_hidden_s=hidden,
        hit_rate=hits / followups if followups else 0.0,
    )
