"""Deterministic fault injection & recovery (CheckFreq [38], DistServe [69]).

The Data4LLM half of the paper motivates checkpointing and disaggregated
serving as *failure-survival* machinery; this package makes those failures
actually happen inside the simulators, reproducibly:

* :class:`FaultPlan` / :class:`FaultEvent` — a seeded, time-sorted schedule
  of typed faults (:data:`GPU_CRASH`, :data:`KV_TRANSFER_FAIL`,
  :data:`KV_DEGRADED`, :data:`RANK_DEATH`, :data:`REPLICA_DEATH`);
* :class:`FaultInjector` — a deliver-once cursor simulators poll as their
  clock advances;
* :class:`RetryPolicy` — the shared capped-exponential-backoff rule for
  re-queued work.

Recovery hooks live with their consumers: ``inference.scheduler`` absorbs
lane crashes by re-queuing in-flight requests (KV freed, ``retries``
counted, optional SLO-aware load shedding), ``inference.fleet`` falls
back to re-prefill on the decode pool when a KV ship fails, and
``training.trainer`` restores bit-exactly from the last checkpoint on a
rank death.  The invariant throughout: an **empty plan changes nothing**
(bit-identical trajectories, enforced by the golden tests), and a seeded
plan is fully reproducible.
"""

from .plan import (
    FAULT_KINDS,
    GPU_CRASH,
    KV_DEGRADED,
    KV_TRANSFER_FAIL,
    POOL_TARGET_PREFIX,
    POOL_TARGET_ROLES,
    RANK_DEATH,
    REPLICA_DEATH,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    pool_target,
    slot_target,
)
from .retry import RetryPolicy

__all__ = [
    "FAULT_KINDS",
    "GPU_CRASH",
    "KV_DEGRADED",
    "KV_TRANSFER_FAIL",
    "POOL_TARGET_PREFIX",
    "POOL_TARGET_ROLES",
    "RANK_DEATH",
    "REPLICA_DEATH",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "pool_target",
    "slot_target",
]
