"""Request model and SLOs for the serving simulator (§2.3.2 LLM Inference).

A request arrives with a prompt length and a target output length; the
simulator fills in its timeline (admission, first token, per-token times).
The paper's two SLO metrics are first-class: **TTFT** (time to first
token, the prefill-side SLO) and **TBT** (time between tokens, the
decode-side SLO).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import WorkloadError


@dataclass
class Request:
    """One inference request and its measured timeline."""

    request_id: str
    arrival_s: float
    prompt_tokens: int
    output_tokens: int
    conversation_id: Optional[str] = None
    turn_index: int = 0
    prefix_id: Optional[str] = None
    prefix_tokens: int = 0

    # Filled by the simulator:
    admitted_s: Optional[float] = None
    first_token_s: Optional[float] = None
    finished_s: Optional[float] = None
    token_times: List[float] = field(default_factory=list)
    preemptions: int = 0
    prefix_hit: bool = False
    # Fault-recovery accounting: ``retries`` counts full restarts forced by
    # injected faults (lane crash, failed KV ship); ``rejected`` marks a
    # request shed by SLO-aware admission control instead of served.
    retries: int = 0
    rejected: bool = False
    # Disaggregated-serving timeline (filled by DisaggEngineFleet):
    # ``handoff_s`` is when the prompt KV landed on the decode side (it
    # doubles as the request's effective arrival time at the decode
    # engine), ``kv_shipped`` whether the ship succeeded (False = the
    # decode engine re-prefills from scratch), and ``decode_admitted_s``
    # when the decode engine actually admitted the request.
    handoff_s: Optional[float] = None
    kv_shipped: bool = False
    decode_admitted_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.prompt_tokens <= 0 or self.output_tokens <= 0:
            raise WorkloadError("prompt and output token counts must be positive")
        if self.prefix_tokens > self.prompt_tokens:
            raise WorkloadError("prefix_tokens cannot exceed prompt_tokens")

    # ------------------------------------------------------------ metrics
    @property
    def done(self) -> bool:
        return self.finished_s is not None

    @property
    def ttft(self) -> Optional[float]:
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def tbt_values(self) -> List[float]:
        """Gaps between consecutive output tokens."""
        times = self.token_times
        return [times[i] - times[i - 1] for i in range(1, len(times))]

    @property
    def max_tbt(self) -> Optional[float]:
        gaps = self.tbt_values
        return max(gaps) if gaps else None

    @property
    def latency(self) -> Optional[float]:
        if self.finished_s is None:
            return None
        return self.finished_s - self.arrival_s

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.output_tokens


@dataclass(frozen=True)
class SLO:
    """Service-level objectives on the two phase metrics."""

    ttft_s: float = 1.0
    tbt_s: float = 0.1

    def attained(self, request: Request) -> bool:
        """Did the request meet both its TTFT and worst-case TBT targets?"""
        if not request.done or request.ttft is None:
            return False
        if request.ttft > self.ttft_s:
            return False
        worst = request.max_tbt
        return worst is None or worst <= self.tbt_s
