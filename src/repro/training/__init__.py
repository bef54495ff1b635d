"""Simulated distributed LLM training: parallelism, checkpointing, recovery."""

from .checkpoint import (
    ArrayFormat,
    CheckpointEngine,
    CheckpointRecord,
    DisaggregatedFormat,
    FileFormat,
    FrequencyPlan,
    consolidate,
    expected_overhead_fraction,
    make_state,
    plan_frequency,
    reshard,
    shard_state,
    states_equal,
    young_daly_interval,
)
from .cluster import ClusterSpec, FailureModel, GPUSpec
from .model_spec import MODEL_ZOO, TrainModelSpec, get_model_spec
from .parallelism import (
    ParallelConfig,
    StepTimeBreakdown,
    activation_bytes_per_gpu,
    fits,
    max_trainable_params,
    model_state_bytes_per_gpu,
    plan_parallelism,
    step_time,
    total_bytes_per_gpu,
)
from .trainer import RunResult, TrainingRun, loss_at_tokens

__all__ = [
    "ArrayFormat", "CheckpointEngine", "CheckpointRecord", "DisaggregatedFormat",
    "FileFormat", "FrequencyPlan", "consolidate", "expected_overhead_fraction",
    "make_state", "plan_frequency", "reshard", "shard_state", "states_equal",
    "young_daly_interval",
    "ClusterSpec", "FailureModel", "GPUSpec",
    "MODEL_ZOO", "TrainModelSpec", "get_model_spec",
    "ParallelConfig", "StepTimeBreakdown", "activation_bytes_per_gpu", "fits",
    "max_trainable_params", "model_state_bytes_per_gpu", "plan_parallelism",
    "step_time", "total_bytes_per_gpu",
    "RunResult", "TrainingRun", "loss_at_tokens",
]
