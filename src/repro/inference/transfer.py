"""Shared KV-transfer cost model for disaggregated serving.

Prefill/decode disaggregation (DistServe [69], Splitwise [44], Mooncake
[45]) ships each request's KV cache from the prefill pool to the decode
pool.  :class:`TransferModel` prices that ship: ``raw_delay`` is the wire
time of the full payload and ``visible_delay`` the fraction not hidden
behind decode compute (both Mooncake and AttentionStore overlap
transmission with computation).

It prices both disaggregated simulators: the token-level ships of
:class:`~repro.inference.pools.DisaggEngineFleet` and the fleet-scale pool
DES in :mod:`repro.inference.pools` — handoffs between role-typed replica
pools, re-pricing after a destination death, and the KV-aware migration
break-even rule :meth:`TransferModel.ship_wins`: move a request's KV only
when shipping it beats rebuilding it with a local re-prefill.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..utils import check_finite_fields


@dataclass(frozen=True)
class TransferModel:
    """KV shipping cost between prefill and decode pools.

    ``overlap`` is the fraction hidden behind decode compute (both
    Mooncake and AttentionStore overlap transmission with computation).
    ``overlap=1.0`` makes the visible delay exactly ``0.0`` — the
    degenerate "free transfer" configuration the metamorphic anchors use.
    """

    bytes_per_token: float = 160_000.0  # 2 * layers * hidden * 2B for a 7B-class model
    bandwidth: float = 50e9  # NVLink/IB bytes/s
    overlap: float = 0.8

    def __post_init__(self) -> None:
        # overlap > 1 yields *negative* visible delay and non-positive
        # bandwidth/bytes_per_token yields infinite or negative wire time —
        # all of which silently corrupt goodput numbers downstream.
        check_finite_fields(self, "bytes_per_token", "bandwidth")
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigError("overlap must be in [0, 1]")
        if self.bandwidth <= 0.0:
            raise ConfigError("bandwidth must be positive")
        if self.bytes_per_token <= 0.0:
            raise ConfigError("bytes_per_token must be positive")

    def raw_delay(self, prompt_tokens: int) -> float:
        """Wire time of the full KV payload, before any compute overlap."""
        return prompt_tokens * self.bytes_per_token / self.bandwidth

    def visible_delay(self, prompt_tokens: int) -> float:
        return self.raw_delay(prompt_tokens) * (1.0 - self.overlap)

    def ship_wins(
        self, ship_tokens: int, recompute_s: float, extra_ship_s: float = 0.0
    ) -> bool:
        """The migration break-even rule: ship the KV iff it beats recompute.

        ``ship_tokens`` is the KV payload to move, ``recompute_s`` the cost
        of rebuilding the same state on the destination (a re-prefill, plus
        any lost decode progress), and ``extra_ship_s`` additional time the
        ship path pays beyond the wire (e.g. resuming the remaining decode).
        Ties go to shipping, so a zero-cost transfer always migrates KV.
        """
        return self.visible_delay(ship_tokens) + extra_ship_s <= recompute_s
