"""Parallel training strategies: memory and step-time models.

Implements the published per-GPU memory formulas the tutorial points at
(§2.3.2 Data Parallelism):

=============  =======================================================
strategy       per-GPU model-state bytes (P params, N data-parallel)
=============  =======================================================
ddp            (2 + 2 + 12) * P
zero1          (2 + 2) * P + 12 * P / N
zero2          2 * P + (2 + 12) * P / N
zero3 / fsdp   (2 + 2 + 12) * P / N
=============  =======================================================

combined with tensor parallelism (divide by TP degree) and pipeline
parallelism (layers divided across PP stages), plus a step-time model with
the per-strategy communication volumes (DDP: one 2P-byte gradient
all-reduce; ZeRO-3 adds weight all-gathers in forward and backward) and
the GPipe bubble term for pipeline schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..errors import ConfigError
from .cluster import GIB, ClusterSpec
from .model_spec import (
    BYTES_PER_PARAM_GRADS,
    BYTES_PER_PARAM_OPTIMIZER,
    BYTES_PER_PARAM_WEIGHTS,
    TrainModelSpec,
)

STRATEGIES = ("ddp", "zero1", "zero2", "zero3", "fsdp")


@dataclass(frozen=True)
class ParallelConfig:
    """A (data, tensor, pipeline) decomposition of the world."""

    strategy: str = "ddp"
    dp: int = 1
    tp: int = 1
    pp: int = 1
    micro_batch: int = 1
    micro_batches_per_step: int = 8
    checkpoint_activations: bool = True

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; have {STRATEGIES}")
        if min(self.dp, self.tp, self.pp, self.micro_batch, self.micro_batches_per_step) < 1:
            raise ConfigError("parallel degrees must be >= 1")

    @property
    def world_size(self) -> int:
        return self.dp * self.tp * self.pp

    @property
    def global_batch(self) -> int:
        return self.dp * self.micro_batch * self.micro_batches_per_step


def model_state_bytes_per_gpu(spec: TrainModelSpec, config: ParallelConfig) -> float:
    """Per-GPU model-state memory under the published sharding formulas."""
    # TP and PP both shard the parameter tensor itself.
    local_params = spec.params / (config.tp * config.pp)
    w, g, o = (
        BYTES_PER_PARAM_WEIGHTS,
        BYTES_PER_PARAM_GRADS,
        BYTES_PER_PARAM_OPTIMIZER,
    )
    n = config.dp
    if config.strategy == "ddp":
        per_param = w + g + o
    elif config.strategy == "zero1":
        per_param = w + g + o / n
    elif config.strategy == "zero2":
        per_param = w + (g + o) / n
    else:  # zero3 / fsdp
        per_param = (w + g + o) / n
    return local_params * per_param


def activation_bytes_per_gpu(spec: TrainModelSpec, config: ParallelConfig) -> float:
    """Per-GPU activation memory (TP shards activations; PP shards layers)."""
    full = spec.activation_bytes(
        config.micro_batch, checkpoint_activations=config.checkpoint_activations
    )
    return full / (config.tp * config.pp)


def total_bytes_per_gpu(spec: TrainModelSpec, config: ParallelConfig) -> float:
    return model_state_bytes_per_gpu(spec, config) + activation_bytes_per_gpu(spec, config)


def fits(
    spec: TrainModelSpec, config: ParallelConfig, cluster: ClusterSpec, *, headroom: float = 0.9
) -> bool:
    """Does the configuration fit in GPU memory (with fragmentation headroom)?"""
    return total_bytes_per_gpu(spec, config) <= cluster.gpu.memory_bytes * headroom


def max_trainable_params(
    strategy: str,
    dp: int,
    gpu_memory_bytes: float,
    *,
    activation_budget: float = 0.2,
) -> float:
    """Largest parameter count trainable per the memory formula alone.

    ``activation_budget`` reserves a fraction of memory for activations.
    """
    budget = gpu_memory_bytes * (1.0 - activation_budget)
    w, g, o = (
        BYTES_PER_PARAM_WEIGHTS,
        BYTES_PER_PARAM_GRADS,
        BYTES_PER_PARAM_OPTIMIZER,
    )
    if strategy == "ddp":
        per_param = w + g + o
    elif strategy == "zero1":
        per_param = w + g + o / dp
    elif strategy == "zero2":
        per_param = w + (g + o) / dp
    elif strategy in {"zero3", "fsdp"}:
        per_param = (w + g + o) / dp
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")
    return budget / per_param


@dataclass
class StepTimeBreakdown:
    """Where one optimizer step's time goes (seconds)."""

    compute: float
    dp_communication: float
    tp_communication: float
    pipeline_bubble: float

    @property
    def total(self) -> float:
        return self.compute + self.dp_communication + self.tp_communication + self.pipeline_bubble


def step_time(
    spec: TrainModelSpec, config: ParallelConfig, cluster: ClusterSpec
) -> StepTimeBreakdown:
    """One-step wall time under the analytic model."""
    if config.world_size > cluster.world_size:
        raise ConfigError(
            f"config needs {config.world_size} GPUs, cluster has {cluster.world_size}"
        )
    tokens_per_gpu = (
        config.micro_batch * config.micro_batches_per_step * spec.seq_len
    ) / (config.tp * config.pp) * 1.0
    # Activation recomputation adds ~1/3 extra forward compute.
    recompute_factor = 4.0 / 3.0 if config.checkpoint_activations else 1.0
    compute = (
        spec.flops_per_token() * tokens_per_gpu * recompute_factor
    ) / cluster.gpu.effective_flops

    local_params = spec.params / (config.tp * config.pp)
    grad_bytes = local_params * BYTES_PER_PARAM_GRADS
    if config.strategy == "ddp":
        dp_comm = cluster.allreduce_time(grad_bytes, config.dp)
    elif config.strategy in {"zero1", "zero2"}:
        # reduce-scatter + all-gather of updated weights ~ one all-reduce.
        dp_comm = cluster.allreduce_time(grad_bytes, config.dp)
    else:  # zero3/fsdp: per-step weight all-gathers (fwd + bwd) + grad reduce-scatter
        weight_bytes = local_params * BYTES_PER_PARAM_WEIGHTS
        dp_comm = 2.0 * cluster.allgather_time(
            weight_bytes, config.dp
        ) + cluster.allreduce_time(grad_bytes, config.dp)

    # TP: two all-reduces of activations per layer (fwd) and two (bwd).
    if config.tp > 1:
        act_bytes = spec.seq_len * config.micro_batch * spec.hidden_size * 2.0
        per_layer = 4.0 * cluster.allreduce_time(act_bytes, config.tp)
        tp_comm = per_layer * spec.num_layers / config.pp * config.micro_batches_per_step
    else:
        tp_comm = 0.0

    # GPipe bubble: (pp - 1) / (m + pp - 1) of the pipeline is idle.
    if config.pp > 1:
        m = config.micro_batches_per_step
        bubble_fraction = (config.pp - 1) / (m + config.pp - 1)
        pipeline_bubble = compute * bubble_fraction / max(1.0 - bubble_fraction, 1e-9)
    else:
        pipeline_bubble = 0.0

    return StepTimeBreakdown(
        compute=compute,
        dp_communication=dp_comm,
        tp_communication=tp_comm,
        pipeline_bubble=pipeline_bubble,
    )


def plan_parallelism(
    spec: TrainModelSpec,
    cluster: ClusterSpec,
    *,
    strategies: Iterable[str] = STRATEGIES,
    micro_batch: int = 1,
    micro_batches_per_step: int = 8,
) -> List[Dict[str, object]]:
    """Search (strategy, dp, tp, pp) configs that fit; rank by step time.

    Returns feasible configurations sorted fastest-first, each with its
    memory and time breakdown — the auto-parallelism planner's core loop.
    """
    world = cluster.world_size
    results: List[Dict[str, object]] = []
    degrees = [d for d in (1, 2, 4, 8, 16, 32, 64) if d <= world]
    for strategy in strategies:
        for tp in degrees:
            if tp > cluster.gpus_per_node:
                continue  # TP across nodes is impractical
            for pp in degrees:
                if tp * pp > world or world % (tp * pp):
                    continue
                dp = world // (tp * pp)
                config = ParallelConfig(
                    strategy=strategy,
                    dp=dp,
                    tp=tp,
                    pp=pp,
                    micro_batch=micro_batch,
                    micro_batches_per_step=micro_batches_per_step,
                )
                if not fits(spec, config, cluster):
                    continue
                breakdown = step_time(spec, config, cluster)
                results.append(
                    {
                        "config": config,
                        "step_time_s": breakdown.total,
                        "memory_gb": total_bytes_per_gpu(spec, config) / GIB,
                        "breakdown": breakdown,
                    }
                )
    results.sort(key=lambda r: r["step_time_s"])
    return results
