"""Deterministic fault schedules for the serving and training simulators.

The repository's failure story used to be entirely closed-form: CheckFreq's
Young-Daly interval (E12) *assumed* an MTBF, and the DistServe-style pools
(E4) assumed every KV ship succeeds.  A :class:`FaultPlan` makes failures
first-class simulation inputs instead: typed :class:`FaultEvent` records
(GPU lane crash, KV-transfer failure, degraded-bandwidth window, training
rank death) scheduled at simulated timestamps, either hand-written or drawn
from seeded Poisson processes via :meth:`FaultPlan.seeded`.

Everything is deterministic (repro-lint R001): randomness flows through
:func:`repro.utils.derive_rng` with a per-kind stream name, so the same
seed always yields the same schedule and adding a fault kind never perturbs
another kind's arrivals.  An **empty plan injects nothing** — consumers
must keep their trajectories bit-identical to the fault-free path (guarded
by ``tests/test_scheduler_golden.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..utils import derive_rng

#: A serving lane (one simulated GPU / engine) crashes: in-flight requests
#: lose their KV and generation state and must be re-queued.
GPU_CRASH = "gpu_crash"
#: A KV ship between the prefill and decode pools fails outright; the
#: decode pool must re-prefill the prompt from scratch.
KV_TRANSFER_FAIL = "kv_transfer_fail"
#: The interconnect runs degraded for ``duration_s``; ships started inside
#: the window see ``1 / severity`` of the normal wire time.
KV_DEGRADED = "kv_degraded"
#: A training rank dies mid-step; the run restores from the last checkpoint.
RANK_DEATH = "rank_death"
#: A whole serving replica drops out of the fleet: its queue, KV, and prefix
#: caches are lost and every in-flight request must be re-routed to a
#: surviving replica (see ``inference.fleet``).  The ``target`` may name a
#: slot (``"replica-3"``, see :func:`slot_target`) or, in a pool fleet
#: (``inference.pools``), a role pool (``"pool-prefill"`` /
#: ``"pool-decode"`` / ``"pool-colocated"``, see :func:`pool_target`): the
#: victim is then drawn round-robin from that pool's live replicas only.
REPLICA_DEATH = "replica_death"

#: Prefix a :data:`REPLICA_DEATH` target with this to kill one fixed slot.
SLOT_TARGET_PREFIX = "replica-"

#: Prefix a :data:`REPLICA_DEATH` target with this to kill a replica from a
#: specific role pool instead of a fixed slot.
POOL_TARGET_PREFIX = "pool-"

#: Role names accepted after :data:`POOL_TARGET_PREFIX`.
POOL_TARGET_ROLES: Tuple[str, ...] = ("prefill", "decode", "colocated")


def pool_target(target: Optional[str]) -> Optional[str]:
    """The role pool a :data:`REPLICA_DEATH` target names, or ``None``.

    ``"pool-decode"`` -> ``"decode"``; slot targets (``"replica-3"``) and
    ``None`` return ``None``.  Unknown pool names raise ``ConfigError`` so a
    typo cannot silently turn a targeted death into a no-op.
    """
    if target is None or not target.startswith(POOL_TARGET_PREFIX):
        return None
    role = target[len(POOL_TARGET_PREFIX):]
    if role not in POOL_TARGET_ROLES:
        raise ConfigError(
            f"unknown pool target {target!r}; have "
            + ", ".join(POOL_TARGET_PREFIX + r for r in POOL_TARGET_ROLES)
        )
    return role


def slot_target(target: Optional[str]) -> Optional[int]:
    """The fleet slot a :data:`REPLICA_DEATH` target names, or ``None``.

    ``"replica-3"`` -> ``3``; pool targets and ``None`` return ``None``.  A
    slot that is not a non-negative decimal integer (``"replica-x"``)
    raises ``ConfigError`` instead of a bare ``ValueError`` mid-run.
    """
    if target is None or not target.startswith(SLOT_TARGET_PREFIX):
        return None
    slot = target[len(SLOT_TARGET_PREFIX):]
    if not (slot.isascii() and slot.isdigit()):
        raise ConfigError(
            f"bad slot target {target!r}; want {SLOT_TARGET_PREFIX}<non-negative int>"
        )
    return int(slot)


FAULT_KINDS: Tuple[str, ...] = (
    GPU_CRASH,
    KV_TRANSFER_FAIL,
    KV_DEGRADED,
    RANK_DEATH,
    REPLICA_DEATH,
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``duration_s`` gives window-style faults (outages, degraded links) an
    extent; point faults leave it 0.  ``severity`` is the surviving-capacity
    fraction for :data:`KV_DEGRADED` windows (0.5 = half bandwidth) and 1.0
    otherwise.  ``target`` optionally pins the fault to one lane / rank /
    request id; ``None`` means "whatever is exposed at that time".
    """

    at_s: float
    kind: str
    target: Optional[str] = None
    duration_s: float = 0.0
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}; have {FAULT_KINDS}")
        if self.at_s < 0.0:
            raise ConfigError("fault timestamps must be non-negative")
        if self.duration_s < 0.0:
            raise ConfigError("fault duration_s must be non-negative")
        if not 0.0 < self.severity <= 1.0:
            raise ConfigError("fault severity must be in (0, 1]")

    @property
    def end_s(self) -> float:
        """When the fault's effect window closes."""
        return self.at_s + self.duration_s

    def covers(self, t: float) -> bool:
        """Does the fault's [at_s, end_s] window contain time ``t``?"""
        return self.at_s <= t <= self.end_s


class FaultPlan:
    """An immutable, time-sorted schedule of :class:`FaultEvent` records.

    Plans are plain data: they carry no consumer state, so one plan can be
    handed to several simulators (each consumes its own kinds through a
    :class:`FaultInjector` cursor).
    """

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.at_s, e.kind, e.target or ""))
        )

    @classmethod
    def empty(cls) -> "FaultPlan":
        """The inject-nothing plan (trajectories must not move one bit)."""
        return cls()

    @classmethod
    def seeded(
        cls,
        *,
        seed: int,
        horizon_s: float,
        rates: Dict[str, float],
        mean_duration_s: Optional[Dict[str, float]] = None,
        degraded_severity: float = 0.5,
    ) -> "FaultPlan":
        """Draw Poisson fault arrivals per kind over ``[0, horizon_s)``.

        ``rates`` maps fault kinds to arrival rates (faults per simulated
        second — 1/MTBF).  Each kind draws from its own
        ``derive_rng(seed, "faults", kind)`` stream, so schedules for
        different kinds are independent and individually reproducible.
        """
        if horizon_s <= 0.0:
            raise ConfigError("horizon_s must be positive")
        if not 0.0 < degraded_severity <= 1.0:
            raise ConfigError("degraded_severity must be in (0, 1]")
        durations = mean_duration_s or {}
        events: List[FaultEvent] = []
        for kind in FAULT_KINDS:  # fixed order: iteration never depends on dict order
            rate = rates.get(kind, 0.0)
            if rate < 0.0:
                raise ConfigError(f"rate for {kind!r} must be non-negative")
            if rate == 0.0:
                continue
            mean_duration = durations.get(kind, 0.0)
            if mean_duration < 0.0:
                raise ConfigError(f"mean_duration_s for {kind!r} must be non-negative")
            rng = derive_rng(seed, "faults", kind)
            t = 0.0
            while True:
                t += float(rng.exponential(1.0 / rate))
                if t >= horizon_s:
                    break
                duration = float(rng.exponential(mean_duration)) if mean_duration else 0.0
                events.append(
                    FaultEvent(
                        at_s=t,
                        kind=kind,
                        duration_s=duration,
                        severity=degraded_severity if kind == KV_DEGRADED else 1.0,
                    )
                )
        return cls(events)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, *kinds: str) -> List[FaultEvent]:
        """The plan's events of the given kinds, in time order."""
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ConfigError(f"unknown fault kind {kind!r}; have {FAULT_KINDS}")
        return [e for e in self.events if e.kind in kinds]

    def covering(self, kind: str, t: float) -> Optional[FaultEvent]:
        """The first ``kind`` event whose window contains ``t``, if any."""
        for event in self.of_kind(kind):
            if event.covers(t):
                return event
            if event.at_s > t:
                break
        return None


class FaultInjector:
    """A stateful cursor over one consumer's slice of a plan.

    Simulators poll :meth:`due` as their clock advances; each event is
    delivered exactly once, in timestamp order.  The cursor never rewinds,
    so an event whose time falls inside an idle period is still delivered
    (as a no-op teardown) rather than leaking into later busy work.
    """

    def __init__(
        self, plan: FaultPlan, *, kinds: Optional[Sequence[str]] = None
    ) -> None:
        wanted = FAULT_KINDS if kinds is None else tuple(kinds)
        for kind in wanted:
            if kind not in FAULT_KINDS:
                raise ConfigError(f"unknown fault kind {kind!r}; have {FAULT_KINDS}")
        self._events: Tuple[FaultEvent, ...] = tuple(
            e for e in plan.events if e.kind in wanted
        )
        self._cursor = 0

    def due(self, now: float) -> List[FaultEvent]:
        """Deliver (once) every undelivered event with ``at_s <= now``."""
        delivered: List[FaultEvent] = []
        while self._cursor < len(self._events) and self._events[self._cursor].at_s <= now:
            delivered.append(self._events[self._cursor])
            self._cursor += 1
        return delivered

    @property
    def pending(self) -> int:
        """How many events have not been delivered yet."""
        return len(self._events) - self._cursor
