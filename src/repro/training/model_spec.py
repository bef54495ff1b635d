"""Transformer training-footprint arithmetic.

The memory and FLOPs formulas that ZeRO [47], FSDP [68] and Megatron [40]
results are built on:

* mixed-precision training state per parameter: 2 bytes weights (fp16),
  2 bytes gradients, and K = 12 bytes optimizer state (fp32 master copy +
  Adam momentum + variance) — so 16 bytes/param unsharded;
* activation memory per layer ~ s*b*h*(34 + 5*a*s/h) bytes (Megatron-LM
  recomputation paper), with checkpointed-activation variants;
* training compute ~ 6 * params * tokens FLOPs (forward 2, backward 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import ConfigError

BYTES_PER_PARAM_WEIGHTS = 2.0  # fp16/bf16
BYTES_PER_PARAM_GRADS = 2.0
BYTES_PER_PARAM_OPTIMIZER = 12.0  # fp32 master + Adam m + v
GIB = 1024.0**3


@dataclass(frozen=True)
class TrainModelSpec:
    """Architecture of a model being trained."""

    name: str
    num_layers: int
    hidden_size: int
    num_heads: int
    vocab_size: int = 50_000
    seq_len: int = 2048

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads:
            raise ConfigError("hidden_size must be divisible by num_heads")
        if min(self.num_layers, self.hidden_size, self.num_heads) <= 0:
            raise ConfigError("architecture dims must be positive")

    # ------------------------------------------------------------ parameters
    @property
    def params(self) -> float:
        """Approximate parameter count: 12*l*h^2 + 2*V*h (embeddings tied)."""
        transformer = 12.0 * self.num_layers * self.hidden_size**2
        embeddings = 2.0 * self.vocab_size * self.hidden_size
        return transformer + embeddings

    @property
    def params_b(self) -> float:
        return self.params / 1e9

    # --------------------------------------------------------------- memory
    def state_bytes(self) -> Dict[str, float]:
        """Unsharded training-state bytes by component."""
        p = self.params
        return {
            "weights": p * BYTES_PER_PARAM_WEIGHTS,
            "gradients": p * BYTES_PER_PARAM_GRADS,
            "optimizer": p * BYTES_PER_PARAM_OPTIMIZER,
        }

    def activation_bytes(
        self, micro_batch: int, *, checkpoint_activations: bool = True
    ) -> float:
        """Activation memory for one micro-batch across all local layers.

        With activation checkpointing only the per-layer boundary
        activations are retained (s*b*h*2 bytes each) plus one layer's full
        working set; without it, the full 34*s*b*h + 5*a*s^2*b term per
        layer is resident.
        """
        s, b, h, a = self.seq_len, micro_batch, self.hidden_size, self.num_heads
        full_per_layer = s * b * h * 34.0 + 5.0 * a * s * s * b
        if checkpoint_activations:
            boundary = s * b * h * 2.0 * self.num_layers
            return boundary + full_per_layer
        return full_per_layer * self.num_layers

    # -------------------------------------------------------------- compute
    def flops_per_token(self) -> float:
        """Training FLOPs per token (the 6N rule)."""
        return 6.0 * self.params


# Reference sizes used across benchmarks and docs.
MODEL_ZOO: Dict[str, TrainModelSpec] = {
    "tiny-125m": TrainModelSpec("tiny-125m", num_layers=12, hidden_size=768, num_heads=12),
    "small-1b": TrainModelSpec("small-1b", num_layers=24, hidden_size=2048, num_heads=16),
    "base-7b": TrainModelSpec("base-7b", num_layers=32, hidden_size=4096, num_heads=32),
    "large-13b": TrainModelSpec("large-13b", num_layers=40, hidden_size=5120, num_heads=40),
    "xl-70b": TrainModelSpec("xl-70b", num_layers=80, hidden_size=8192, num_heads=64),
}


def get_model_spec(name: str) -> TrainModelSpec:
    try:
        return MODEL_ZOO[name]
    except KeyError:
        raise ConfigError(f"unknown model {name!r}; have {sorted(MODEL_ZOO)}") from None
