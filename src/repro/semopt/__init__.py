"""Cost-based optimizer for semantic-operator pipelines (LLM4Data §3).

Plans pipelines of LLM-powered operators the way a database optimizes
relational queries — predicate reordering by estimated selectivity and
per-row cost, filter pushdown past maps, map fusion into batched model
rounds, and one exact-only :class:`~repro.llm.cache.CachedLLM` per run
shared by every operator — with one hard rule: every transformation is
**answer-preserving at the bit level** against naive in-order execution
(the parity the perf harness asserts inside every timed case).
"""

from .costmodel import FilterEstimate, SemCostModel, records_all_have_text
from .executor import PipelineResult, SemExecutor, StepReport
from .optimizer import PhysicalPlan, PhysicalStage, SemOptimizer
from .plan import (
    BARRIER_STEPS,
    SemFilter,
    SemGroupCount,
    SemJoin,
    SemMap,
    SemPipeline,
    SemStep,
    SemTopK,
    pipeline,
    step_kind,
)

__all__ = [
    "BARRIER_STEPS",
    "FilterEstimate",
    "PhysicalPlan",
    "PhysicalStage",
    "PipelineResult",
    "SemCostModel",
    "SemExecutor",
    "SemFilter",
    "SemGroupCount",
    "SemJoin",
    "SemMap",
    "SemOptimizer",
    "SemPipeline",
    "SemStep",
    "SemTopK",
    "StepReport",
    "pipeline",
    "records_all_have_text",
    "step_kind",
]
