"""Capped-exponential-backoff retry policy shared by the recovery hooks.

Every consumer of the fault framework retries failed work the same way:
attempt ``k`` (1-based) waits ``min(base * multiplier**(k-1), cap)``
simulated seconds before re-entering the queue, and work that has already
burned ``max_retries`` attempts is shed instead of retried forever.  The
policy is pure arithmetic — no RNG, no jitter — so retry timing can never
perturb the golden trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..utils import check_finite_fields


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with a retry budget."""

    max_retries: int = 8
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0

    def __post_init__(self) -> None:
        check_finite_fields(self, "base_delay_s", "multiplier", "max_delay_s")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if self.base_delay_s < 0.0:
            raise ConfigError("base_delay_s must be non-negative")
        if self.multiplier < 1.0:
            raise ConfigError("multiplier must be >= 1")
        if self.max_delay_s < self.base_delay_s:
            raise ConfigError("max_delay_s must be >= base_delay_s")

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1 = first retry)."""
        if attempt <= 0:
            raise ConfigError("retry attempt numbers are 1-based")
        return min(self.base_delay_s * self.multiplier ** (attempt - 1), self.max_delay_s)

    def exhausted(self, retries: int) -> bool:
        """Has work that already retried ``retries`` times run out of budget?"""
        return retries > self.max_retries
