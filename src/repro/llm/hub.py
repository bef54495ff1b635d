"""Model hub: the registry of simulated model tiers (Figure 1 "LLM Hub").

Tiers mirror the small/medium/large frontier the tutorial's cost arguments
rely on: larger models are more accurate and hallucinate less, but cost more
per token and decode slower — which is precisely what makes cascades,
caching, and call-minimizing operators worthwhile.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from ..errors import ConfigError
from .cost import CostModel


@dataclass(frozen=True)
class ModelSpec:
    """Static description of one simulated model."""

    name: str
    tier: str  # "small" | "medium" | "large"
    params_b: float
    base_accuracy: float
    hallucination_rate: float
    knowledge_coverage: float
    reasoning_depth: int
    context_window: int
    cost: CostModel

    def __post_init__(self) -> None:
        if not 0.0 < self.base_accuracy <= 1.0:
            raise ConfigError(f"base_accuracy out of range: {self.base_accuracy}")
        if not 0.0 <= self.hallucination_rate <= 1.0:
            raise ConfigError("hallucination_rate out of range")
        if not 0.0 <= self.knowledge_coverage <= 1.0:
            raise ConfigError("knowledge_coverage out of range")
        if self.context_window < 256:
            raise ConfigError("context_window too small")

    def scaled(self, **overrides: object) -> "ModelSpec":
        """Copy with overrides (for ablations sweeping accuracy etc.)."""
        return replace(self, **overrides)


_BUILTIN_SPECS: List[ModelSpec] = [
    ModelSpec(
        name="sim-small",
        tier="small",
        params_b=1.3,
        base_accuracy=0.66,
        hallucination_rate=0.55,
        knowledge_coverage=0.25,
        reasoning_depth=1,
        context_window=4096,
        cost=CostModel(
            prefill_tps=24_000,
            decode_tps=160,
            usd_per_1k_input=0.05,
            usd_per_1k_output=0.15,
            fixed_overhead_s=0.02,
        ),
    ),
    ModelSpec(
        name="sim-base",
        tier="medium",
        params_b=13.0,
        base_accuracy=0.80,
        hallucination_rate=0.40,
        knowledge_coverage=0.45,
        reasoning_depth=2,
        context_window=16_384,
        cost=CostModel(
            prefill_tps=10_000,
            decode_tps=80,
            usd_per_1k_input=0.25,
            usd_per_1k_output=0.75,
            fixed_overhead_s=0.04,
        ),
    ),
    ModelSpec(
        name="sim-large",
        tier="large",
        params_b=70.0,
        base_accuracy=0.92,
        hallucination_rate=0.25,
        knowledge_coverage=0.65,
        reasoning_depth=2,
        context_window=131_072,
        cost=CostModel(
            prefill_tps=4_000,
            decode_tps=35,
            usd_per_1k_input=1.0,
            usd_per_1k_output=3.0,
            fixed_overhead_s=0.08,
        ),
    ),
]


class ModelHub:
    """Named registry of :class:`ModelSpec` instances."""

    def __init__(self, include_builtin: bool = True) -> None:
        self._specs: Dict[str, ModelSpec] = {}
        if include_builtin:
            for spec in _BUILTIN_SPECS:
                self._specs[spec.name] = spec

    def register(self, spec: ModelSpec, *, overwrite: bool = False) -> None:
        if spec.name in self._specs and not overwrite:
            raise ConfigError(f"model {spec.name!r} already registered")
        self._specs[spec.name] = spec

    def get(self, name: str) -> ModelSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise ConfigError(
                f"unknown model {name!r}; available: {sorted(self._specs)}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._specs)


_DEFAULT_HUB = ModelHub()


def default_hub() -> ModelHub:
    """Process-wide default hub with the builtin tiers."""
    return _DEFAULT_HUB
