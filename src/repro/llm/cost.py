"""Cost and latency accounting for simulated LLM calls.

Every call to a :class:`~repro.llm.model.SimLLM` produces a :class:`Usage`
record; :class:`UsageLedger` aggregates them. Latency follows the standard
two-phase serving model the paper describes (§2.3.2 LLM Inference): a
compute-bound *prefill* over all input tokens, then a sequential,
bandwidth-bound *decode* of one output token at a time — so time-to-first-
token scales with input length and total time adds per-output-token cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..errors import BudgetExceededError, ConfigError


@dataclass(frozen=True)
class Usage:
    """Resource usage of one (or an aggregate of) LLM call(s)."""

    input_tokens: int = 0
    output_tokens: int = 0
    latency_s: float = 0.0
    usd: float = 0.0
    calls: int = 0

    def __add__(self, other: "Usage") -> "Usage":
        return Usage(
            input_tokens=self.input_tokens + other.input_tokens,
            output_tokens=self.output_tokens + other.output_tokens,
            latency_s=self.latency_s + other.latency_s,
            usd=self.usd + other.usd,
            calls=self.calls + other.calls,
        )

    def __sub__(self, other: "Usage") -> "Usage":
        """Delta between two cumulative snapshots (for per-tag attribution)."""
        return Usage(
            input_tokens=self.input_tokens - other.input_tokens,
            output_tokens=self.output_tokens - other.output_tokens,
            latency_s=self.latency_s - other.latency_s,
            usd=self.usd - other.usd,
            calls=self.calls - other.calls,
        )

    @property
    def total_tokens(self) -> int:
        return self.input_tokens + self.output_tokens


@dataclass
class CostModel:
    """Latency and dollar model for one model tier.

    ``prefill_tps`` / ``decode_tps`` are tokens-per-second throughputs of
    the two phases; dollar rates follow the per-1k-token convention of
    hosted APIs.
    """

    prefill_tps: float = 8000.0
    decode_tps: float = 60.0
    usd_per_1k_input: float = 0.5
    usd_per_1k_output: float = 1.5
    fixed_overhead_s: float = 0.05

    def __post_init__(self) -> None:
        if self.prefill_tps <= 0 or self.decode_tps <= 0:
            raise ConfigError("throughputs must be positive")

    def ttft(self, input_tokens: int) -> float:
        """Time to first token: overhead + full prefill."""
        return self.fixed_overhead_s + input_tokens / self.prefill_tps

    def usage(self, input_tokens: int, output_tokens: int) -> Usage:
        """Usage record for one call."""
        latency = self.ttft(input_tokens) + output_tokens / self.decode_tps
        usd = (
            input_tokens / 1000.0 * self.usd_per_1k_input
            + output_tokens / 1000.0 * self.usd_per_1k_output
        )
        return Usage(
            input_tokens=input_tokens,
            output_tokens=output_tokens,
            latency_s=latency,
            usd=usd,
            calls=1,
        )


_NO_USAGE = Usage()


def _fields(usage: Usage) -> Tuple[int, int, float, float, int]:
    return usage.input_tokens, usage.output_tokens, usage.latency_s, usage.usd, usage.calls


@dataclass
class UsageLedger:
    """Aggregates call usage, optionally enforcing a budget.

    Set ``max_usd`` or ``max_calls`` to make over-budget calls raise
    :class:`~repro.errors.BudgetExceededError` — used by cost-bounded
    pipelines (Evaporate-style extraction, cascades).

    Charging is in call order: :meth:`charge_many` adds each call's tokens,
    latency and dollars to the running sums one call at a time, checking
    the budget before each, so its sums are bitwise those of one
    :meth:`charge` per call, and a budget trips at the same call. Every
    charge of at least one call replaces ``total`` and the tag's
    ``by_tag`` entry with new :class:`Usage` objects (never mutated), so an
    entry that is still the object a caller snapshotted has not moved.
    """

    max_usd: Optional[float] = None
    max_calls: Optional[int] = None
    total: Usage = field(default_factory=Usage)
    by_tag: Dict[str, Usage] = field(default_factory=dict)

    def charge(self, usage: Usage, *, tag: str = "default") -> None:
        """Record ``usage``; raises if a budget would be exceeded."""
        self.charge_many((usage,), tag=tag)

    def charge_many(self, usages: Sequence[Usage], *, tag: str) -> None:
        """Record ``usages`` in order under one tag, each checked against
        the budget first; a call over budget raises with every call before
        it recorded."""
        if not usages:
            return
        t_in, t_out, t_lat, t_usd, t_calls = _fields(self.total)
        g_in, g_out, g_lat, g_usd, g_calls = _fields(self.by_tag.get(tag, _NO_USAGE))
        max_usd, max_calls = self.max_usd, self.max_calls
        charged = 0
        error: Optional[BudgetExceededError] = None
        for usage in usages:
            if max_usd is not None and t_usd + usage.usd > max_usd:
                error = BudgetExceededError(
                    f"budget {max_usd:.4f} USD exceeded "
                    f"(spent {t_usd:.4f}, next call {usage.usd:.4f})"
                )
                break
            if max_calls is not None and t_calls + usage.calls > max_calls:
                error = BudgetExceededError(f"call budget {max_calls} exceeded")
                break
            t_in += usage.input_tokens
            t_out += usage.output_tokens
            t_lat += usage.latency_s
            t_usd += usage.usd
            t_calls += usage.calls
            g_in += usage.input_tokens
            g_out += usage.output_tokens
            g_lat += usage.latency_s
            g_usd += usage.usd
            g_calls += usage.calls
            charged += 1
        if charged:
            self.total = Usage(t_in, t_out, t_lat, t_usd, t_calls)
            self.by_tag[tag] = Usage(g_in, g_out, g_lat, g_usd, g_calls)
        if error is not None:
            raise error

    def reset(self) -> None:
        self.total = Usage()
        self.by_tag.clear()
