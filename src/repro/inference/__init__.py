"""LLM serving simulator: batching, paged KV, disaggregation, caches (§2.3.2)."""

from .attention_store import (
    DEFAULT_TIERS,
    AttentionStore,
    MultiTurnReport,
    Tier,
    simulate_multiturn,
)
from .eviction import (
    POLICIES,
    AllOrNothingPolicy,
    CacheEntry,
    DependencyTreePolicy,
    EvictionPolicy,
    KVEntryCache,
    LFUPolicy,
    LRUPolicy,
)
from .fleet import (
    AutoscalePolicy,
    ClusterFleet,
    EngineFleet,
    FleetReport,
    FleetResult,
    FleetWorkload,
    ReplicaModel,
    fleet_poisson_workload,
    summarize_fleet,
)
from .kvcache import KVStats, PagedAllocator, ReservedAllocator
from .metrics import (
    PhaseStats,
    PoolBreakdown,
    ServingReport,
    fleet_phase_breakdown,
    phase_breakdown,
    summarize,
)
from .pools import (
    ROLE_NAMES,
    DisaggEngineFleet,
    MigrationPolicy,
    PoolSpec,
    make_pool_routers,
    sweep_splits,
)
from .prefix import PrefixCacheSimulator, PrefixReport
from .request import SLO, Request
from .router import (
    ROUTER_NAMES,
    LeastLoadedRouter,
    PrefixAwareRouter,
    RandomRouter,
    Router,
    make_router,
)
from .scheduler import (
    STEP_HANDOFF,
    ContinuousBatchScheduler,
    ShortestJobFirstScheduler,
    IterationCost,
    ServingEngine,
    StaticBatchScheduler,
)
from .transfer import TransferModel
from .workload import (
    LengthDistribution,
    multi_turn_workload,
    poisson_workload,
    shared_prefix_workload,
)

__all__ = [
    "DEFAULT_TIERS", "AttentionStore", "MultiTurnReport", "Tier", "simulate_multiturn",
    "TransferModel",
    "POLICIES", "AllOrNothingPolicy", "CacheEntry", "DependencyTreePolicy",
    "EvictionPolicy", "KVEntryCache", "LFUPolicy", "LRUPolicy",
    "AutoscalePolicy", "ClusterFleet", "EngineFleet", "FleetReport", "FleetResult",
    "FleetWorkload", "ReplicaModel", "fleet_poisson_workload", "summarize_fleet",
    "KVStats", "PagedAllocator", "ReservedAllocator",
    "PhaseStats", "PoolBreakdown", "ServingReport",
    "fleet_phase_breakdown", "phase_breakdown", "summarize",
    "PrefixCacheSimulator", "PrefixReport",
    "ROLE_NAMES", "DisaggEngineFleet", "MigrationPolicy", "PoolSpec", "make_pool_routers",
    "sweep_splits",
    "SLO", "Request",
    "ROUTER_NAMES", "LeastLoadedRouter", "PrefixAwareRouter", "RandomRouter",
    "Router", "make_router",
    "STEP_HANDOFF", "ContinuousBatchScheduler", "ShortestJobFirstScheduler", "IterationCost", "ServingEngine", "StaticBatchScheduler",
    "LengthDistribution", "multi_turn_workload", "poisson_workload", "shared_prefix_workload",
]
