"""Checkpoint resharding: change world size / layout without losing state.

The problem UCP [33], ByteCheckpoint [56] and PyTorch DCP [51] solve: a
run saved under one parallel configuration must resume under another. The
universal-checkpoint approach is implemented literally:

1. each rank's shard holds a contiguous slice of every tensor's flattened
   value range (:func:`shard_state`);
2. resharding consolidates shards into the atomic (unsharded) state
   (:func:`consolidate`) and re-slices for the target layout
   (:func:`reshard`);
3. round-trips are bit-identical (verified by tests and benchmark E14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ...errors import CheckpointError
from .formats import State


@dataclass
class Shard:
    """One rank's slice of the global state."""

    rank: int
    world_size: int
    # name -> (start, stop) in the tensor's flattened range, plus the values
    slices: Dict[str, Tuple[int, int, np.ndarray]] = field(default_factory=dict)


@dataclass
class ShardedState:
    """A complete sharded checkpoint: manifest + all ranks' shards."""

    world_size: int
    shapes: Dict[str, Tuple[int, ...]]
    dtypes: Dict[str, str]
    shards: List[Shard]


def shard_state(state: State, world_size: int) -> ShardedState:
    """Split every tensor's flattened range evenly across ``world_size`` ranks."""
    if world_size <= 0:
        raise CheckpointError("world_size must be positive")
    shards = [Shard(rank=r, world_size=world_size) for r in range(world_size)]
    shapes: Dict[str, Tuple[int, ...]] = {}
    dtypes: Dict[str, str] = {}
    for name, array in state.items():
        shapes[name] = tuple(array.shape)
        dtypes[name] = str(array.dtype)
        flat = np.ascontiguousarray(array).reshape(-1)
        per_rank = -(-flat.size // world_size)
        for rank in range(world_size):
            start = min(rank * per_rank, flat.size)
            stop = min(start + per_rank, flat.size)
            shards[rank].slices[name] = (start, stop, flat[start:stop].copy())
    return ShardedState(
        world_size=world_size, shapes=shapes, dtypes=dtypes, shards=shards
    )


def consolidate(sharded: ShardedState) -> State:
    """Reassemble the atomic (unsharded) state from all shards."""
    if len(sharded.shards) != sharded.world_size:
        raise CheckpointError(
            f"expected {sharded.world_size} shards, got {len(sharded.shards)}"
        )
    state: State = {}
    for name, shape in sharded.shapes.items():
        dtype = np.dtype(sharded.dtypes[name])
        size = int(np.prod(shape)) if shape else 1
        flat = np.zeros(size, dtype=dtype)
        covered = np.zeros(size, dtype=bool)
        for shard in sharded.shards:
            if name not in shard.slices:
                raise CheckpointError(f"rank {shard.rank} missing tensor {name!r}")
            start, stop, values = shard.slices[name]
            if stop - start != values.size:
                raise CheckpointError(f"corrupt slice for {name!r} on rank {shard.rank}")
            flat[start:stop] = values
            covered[start:stop] = True
        if not covered.all():
            raise CheckpointError(f"tensor {name!r} has uncovered ranges")
        state[name] = flat.reshape(shape)
    return state


def reshard(sharded: ShardedState, new_world_size: int) -> ShardedState:
    """Re-slice a sharded checkpoint for a different world size."""
    return shard_state(consolidate(sharded), new_world_size)


def shard_bytes(sharded: ShardedState) -> List[int]:
    """Per-rank payload bytes (for write-parallelism time models)."""
    return [
        int(sum(values.nbytes for _, _, values in shard.slices.values()))
        for shard in sharded.shards
    ]
