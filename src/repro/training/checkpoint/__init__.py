"""Checkpointing: formats, save/restore engine, resharding, frequency."""

from .engine import MODES, CheckpointEngine, CheckpointRecord, CheckpointStats
from .formats import ArrayFormat, DisaggregatedFormat, FileFormat, State, make_state, state_bytes, states_equal
from .frequency import FrequencyPlan, expected_overhead_fraction, plan_frequency, young_daly_interval
from .resharding import Shard, ShardedState, consolidate, reshard, shard_bytes, shard_state

__all__ = [
    "MODES", "CheckpointEngine", "CheckpointRecord", "CheckpointStats",
    "ArrayFormat", "DisaggregatedFormat", "FileFormat", "State", "make_state",
    "state_bytes", "states_equal",
    "FrequencyPlan", "expected_overhead_fraction", "plan_frequency", "young_daly_interval",
    "Shard", "ShardedState", "consolidate", "reshard", "shard_bytes", "shard_state",
]
