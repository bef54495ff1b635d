"""KV-cache memory management: reservation baseline vs paged blocks (vLLM).

Two allocators with one interface (``can_admit`` / ``admit`` / ``append`` /
``release``):

* :class:`ReservedAllocator` — the pre-vLLM baseline the paper describes:
  every request reserves ``max_seq_len`` worth of KV up front, wasting the
  unused tail (internal fragmentation) and capping batch size;
* :class:`PagedAllocator` — vLLM's PagedAttention: fixed-size blocks
  allocated on demand, with **reference-counted sharing** so a common
  prefix's blocks are stored once across requests (the shared-prefix
  optimization).

Both report utilization and waste so E2 can chart the memory story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..errors import CacheError


@dataclass
class KVStats:
    """Allocator accounting (token-slot granularity)."""

    capacity_tokens: int
    reserved_tokens: int = 0  # slots claimed
    used_tokens: int = 0  # slots actually holding KV entries
    peak_reserved: int = 0
    shared_saved_tokens: int = 0  # slots avoided via prefix sharing

    sum_reserved: float = 0.0
    sum_used: float = 0.0
    samples: int = 0

    def observe(self) -> None:
        """Record one time sample for mean-occupancy accounting."""
        self.sum_reserved += self.reserved_tokens
        self.sum_used += self.used_tokens
        self.samples += 1

    @property
    def mean_waste_fraction(self) -> float:
        """Time-averaged claimed-but-unused fraction."""
        if self.sum_reserved == 0:
            return 0.0
        return 1.0 - self.sum_used / self.sum_reserved

    @property
    def mean_utilization(self) -> float:
        """Time-averaged used fraction of total capacity."""
        if not self.samples or not self.capacity_tokens:
            return 0.0
        return self.sum_used / (self.samples * self.capacity_tokens)

    @property
    def utilization(self) -> float:
        return self.used_tokens / self.capacity_tokens if self.capacity_tokens else 0.0


class ReservedAllocator:
    """Reserve ``max_seq_len`` token slots per request up front."""

    def __init__(self, capacity_tokens: int, *, max_seq_len: int = 4096) -> None:
        if capacity_tokens <= 0 or max_seq_len <= 0:
            raise CacheError("capacity and max_seq_len must be positive")
        self.capacity_tokens = capacity_tokens
        self.max_seq_len = max_seq_len
        self._used: Dict[str, int] = {}  # request -> tokens actually written
        self.stats = KVStats(capacity_tokens=capacity_tokens)

    def can_admit(
        self,
        request_id: str,
        prompt_tokens: int,
        prefix_id: Optional[str] = None,
        prefix_tokens: int = 0,
    ) -> bool:
        return self.stats.reserved_tokens + self.max_seq_len <= self.capacity_tokens

    def admit(
        self,
        request_id: str,
        prompt_tokens: int,
        prefix_id: Optional[str] = None,
        prefix_tokens: int = 0,
    ) -> int:
        """Returns the number of prompt tokens already cached (always 0 here)."""
        if not self.can_admit(request_id, prompt_tokens):
            raise CacheError("out of KV memory (reservation)")
        if prompt_tokens > self.max_seq_len:
            raise CacheError(
                f"prompt of {prompt_tokens} exceeds max_seq_len {self.max_seq_len}"
            )
        self._used[request_id] = prompt_tokens
        self.stats.reserved_tokens += self.max_seq_len
        self.stats.used_tokens += prompt_tokens
        self.stats.peak_reserved = max(self.stats.peak_reserved, self.stats.reserved_tokens)
        return 0

    def append(self, request_id: str, n_tokens: int = 1) -> None:
        if request_id not in self._used:
            raise CacheError(f"unknown request {request_id!r}")
        if self._used[request_id] + n_tokens > self.max_seq_len:
            raise CacheError("sequence exceeded its reservation")
        self._used[request_id] += n_tokens
        self.stats.used_tokens += n_tokens

    def append_batch(self, request_ids: Sequence[str]) -> bool:
        """Append one token to each sequence, or to none of them: returns
        False, with nothing changed, when any reservation is full."""
        for request_id in request_ids:
            if request_id not in self._used:
                raise CacheError(f"unknown request {request_id!r}")
            if self._used[request_id] >= self.max_seq_len:
                return False
        for request_id in request_ids:
            self.append(request_id)
        return True

    def release(self, request_id: str, *, keep_for_prefix: bool = False) -> None:
        used = self._used.pop(request_id, None)
        if used is None:
            return
        self.stats.reserved_tokens -= self.max_seq_len
        self.stats.used_tokens -= used


@dataclass
class _Sequence:
    request_id: str
    blocks: List[int] = field(default_factory=list)
    tokens: int = 0
    tokens_in_last_block: int = 0


class PagedAllocator:
    """vLLM-style block allocator with ref-counted prefix sharing."""

    def __init__(
        self,
        capacity_tokens: int,
        *,
        block_size: int = 16,
    ) -> None:
        if capacity_tokens <= 0 or block_size <= 0:
            raise CacheError("capacity and block_size must be positive")
        self.block_size = block_size
        self.num_blocks = capacity_tokens // block_size
        self.capacity_tokens = self.num_blocks * block_size
        self._free: List[int] = list(range(self.num_blocks))
        self._refcount: Dict[int, int] = {}
        self._sequences: Dict[str, _Sequence] = {}
        # prefix_id -> (block list, cached token count)
        self._prefix_blocks: Dict[str, List[int]] = {}
        self._prefix_tokens: Dict[str, int] = {}
        self.stats = KVStats(capacity_tokens=self.capacity_tokens)

    # ------------------------------------------------------------ internals
    def _blocks_needed(self, tokens: int) -> int:
        return math.ceil(tokens / self.block_size)

    def _alloc_blocks(self, count: int) -> List[int]:
        if count > len(self._free):
            raise CacheError("out of KV blocks")
        blocks = [self._free.pop() for _ in range(count)]
        for b in blocks:
            self._refcount[b] = 1
        return blocks

    def _drop_ref(self, block: int) -> None:
        self._refcount[block] -= 1
        if self._refcount[block] == 0:
            del self._refcount[block]
            self._free.append(block)

    def free_blocks(self) -> int:
        return len(self._free)

    # ------------------------------------------------------------ interface
    def can_admit(
        self,
        request_id: str,
        prompt_tokens: int,
        prefix_id: Optional[str] = None,
        prefix_tokens: int = 0,
    ) -> bool:
        cached = self.cached_prefix_tokens(prefix_id, prefix_tokens)
        needed = self._blocks_needed(max(prompt_tokens - cached, 0) + 1)
        return needed <= len(self._free)

    def cached_prefix_tokens(self, prefix_id: Optional[str], prefix_tokens: int) -> int:
        """How many of this request's prefix tokens are already resident."""
        if prefix_id is None or prefix_id not in self._prefix_blocks:
            return 0
        return min(self._prefix_tokens[prefix_id], prefix_tokens)

    def admit(
        self,
        request_id: str,
        prompt_tokens: int,
        prefix_id: Optional[str] = None,
        prefix_tokens: int = 0,
    ) -> int:
        """Allocate for a prompt; returns prompt tokens served from shared cache."""
        if request_id in self._sequences:
            raise CacheError(f"request {request_id!r} already admitted")
        cached = self.cached_prefix_tokens(prefix_id, prefix_tokens)
        seq = _Sequence(request_id=request_id)
        if cached:
            shared = self._prefix_blocks[prefix_id][: self._blocks_needed(cached)]
            for b in shared:
                self._refcount[b] += 1
            seq.blocks.extend(shared)
            seq.tokens = cached
            seq.tokens_in_last_block = cached - (len(shared) - 1) * self.block_size
            self.stats.shared_saved_tokens += cached
        remaining = prompt_tokens - cached
        if remaining > 0:
            # Never append into a shared block: open fresh blocks.
            new_blocks = self._alloc_blocks(self._blocks_needed(remaining))
            seq.blocks.extend(new_blocks)
            seq.tokens += remaining
            seq.tokens_in_last_block = remaining - (len(new_blocks) - 1) * self.block_size
        self._sequences[request_id] = seq
        if cached:
            # Shared blocks shift which occurrence _recount attributes them
            # to; only a full recount is exact here.
            self._recount()
        else:
            # All blocks are fresh (nowhere else in the pool), so the new
            # sequence contributes exactly its prompt tokens.
            stats = self.stats
            stats.reserved_tokens = (self.num_blocks - len(self._free)) * self.block_size
            stats.used_tokens += prompt_tokens
            if stats.reserved_tokens > stats.peak_reserved:
                stats.peak_reserved = stats.reserved_tokens
        return cached

    def append(self, request_id: str, n_tokens: int = 1) -> None:
        """Append ``n_tokens`` KV entries to one sequence, one at a time."""
        for _ in range(n_tokens):
            if not self.append_batch([request_id]):
                raise CacheError("out of KV blocks")

    def append_batch(self, request_ids: Sequence[str]) -> bool:
        """Append one token to each sequence, or to none of them.

        One iteration's appends in a single call, in ``request_ids`` order.
        Returns False, with nothing changed, when the fresh blocks they
        would open do not fit in the free list (frees never happen
        mid-batch, so that count is exact); the caller then appends one by
        one under its own pressure policy. A batch no longer than the free
        list always fits, since one token opens at most one block.

        Stats stay O(1): appends only grow an unshared last block or open
        fresh blocks, so ``used_tokens`` advances by exactly one per token
        and ``reserved_tokens`` follows the free list. The one exception is
        writing past a *shared* last block (a fully cached prompt), where
        the old block's contribution to ``used`` depends on sharing
        structure; that rare case recounts exactly.
        """
        sequences = self._sequences
        try:
            seqs = [sequences[request_id] for request_id in request_ids]
        except KeyError as exc:
            raise CacheError(f"unknown request {exc.args[0]!r}") from None
        size = self.block_size
        refcount = self._refcount
        free = self._free
        if len(seqs) > len(free):
            fresh = 0
            for seq in seqs:
                blocks = seq.blocks
                if (
                    not blocks
                    or seq.tokens_in_last_block >= size
                    or refcount[blocks[-1]] > 1
                ):
                    fresh += 1
            if fresh > len(free):
                return False
        shared_transition = False
        for seq in seqs:
            blocks = seq.blocks
            if blocks and seq.tokens_in_last_block < size and refcount[blocks[-1]] == 1:
                seq.tokens_in_last_block += 1
            else:
                if blocks and refcount[blocks[-1]] > 1:
                    shared_transition = True
                block = free.pop()
                refcount[block] = 1
                blocks.append(block)
                seq.tokens_in_last_block = 1
            seq.tokens += 1
        if shared_transition:
            self._recount()
            return True
        stats = self.stats
        stats.reserved_tokens = (self.num_blocks - len(free)) * size
        stats.used_tokens += len(seqs)
        if stats.reserved_tokens > stats.peak_reserved:
            stats.peak_reserved = stats.reserved_tokens
        return True

    def release(self, request_id: str, *, keep_for_prefix: bool = False) -> None:
        """Free a sequence; optionally register its blocks as a reusable prefix."""
        seq = self._sequences.pop(request_id, None)
        if seq is None:
            return
        if keep_for_prefix:
            prefix_id = request_id if isinstance(request_id, str) else str(request_id)
            self.register_prefix(prefix_id, seq.blocks, seq.tokens)
        # Sole holder of every block iff every drop frees its block.
        exclusive = not keep_for_prefix
        refcount = self._refcount
        free = self._free
        for b in seq.blocks:
            held = refcount[b] - 1
            if held:
                refcount[b] = held
                exclusive = False
            else:
                del refcount[b]
                free.append(b)
        if exclusive:
            # Sole holder of every block: _recount attributed exactly
            # (full blocks + last partial) to this sequence, so subtract it.
            stats = self.stats
            if seq.blocks:
                stats.used_tokens -= (
                    len(seq.blocks) - 1
                ) * self.block_size + seq.tokens_in_last_block
            stats.reserved_tokens = (self.num_blocks - len(self._free)) * self.block_size
        else:
            self._recount()

    def register_prefix(self, prefix_id: str, blocks: List[int], tokens: int) -> None:
        """Pin blocks as a named shared prefix (takes a reference)."""
        self.drop_prefix(prefix_id)
        for b in blocks:
            self._refcount[b] += 1
        self._prefix_blocks[prefix_id] = list(blocks)
        self._prefix_tokens[prefix_id] = tokens
        self._recount()

    def drop_prefix(self, prefix_id: str) -> None:
        blocks = self._prefix_blocks.pop(prefix_id, None)
        self._prefix_tokens.pop(prefix_id, None)
        if blocks:
            for b in blocks:
                self._drop_ref(b)
        self._recount()

    def prefix_ids(self) -> List[str]:
        return sorted(self._prefix_blocks)

    def _recount(self) -> None:
        allocated_blocks = self.num_blocks - len(self._free)
        self.stats.reserved_tokens = allocated_blocks * self.block_size
        used = 0
        counted: Set[int] = set()
        for seq in self._sequences.values():
            for i, b in enumerate(seq.blocks):
                if b in counted:
                    continue
                counted.add(b)
                if i == len(seq.blocks) - 1:
                    used += seq.tokens_in_last_block
                else:
                    used += self.block_size
        for prefix_id, blocks in self._prefix_blocks.items():
            tokens = self._prefix_tokens[prefix_id]
            for i, b in enumerate(blocks):
                if b in counted:
                    continue
                counted.add(b)
                remaining = tokens - i * self.block_size
                used += min(max(remaining, 0), self.block_size)
        self.stats.used_tokens = used
        self.stats.peak_reserved = max(self.stats.peak_reserved, self.stats.reserved_tokens)
