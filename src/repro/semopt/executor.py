"""Optimized execution of semantic-operator pipelines.

:class:`SemExecutor` is the runtime half of the optimizer: it plans a
:class:`~repro.semopt.plan.SemPipeline` over the concrete input records,
wraps the model in a per-run exact-only :class:`~repro.llm.cache.CachedLLM`
(answer-preserving by determinism: operators that render the same prompt
share one model call), and executes the resulting stages through the batched
:class:`~repro.unstructured.operators.SemanticOperators` kernels.

Accounting is ledger-native: every stage charges under its own tag
(``<prefix>.s<i>.<kind>``), each :class:`StepReport` carries the OpStats
measured as that tag's ledger delta, and :class:`PipelineResult.usage` is
the whole-run delta of the ledger total — so per-step numbers always sum
to the run total (the conservation property the tests pin down).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..llm.cache import CachedLLM, CacheStats
from ..llm.cost import Usage
from ..unstructured.operators import OpStats, SemanticOperators
from .optimizer import PhysicalStage, SemOptimizer
from .plan import (
    Record,
    SemFilter,
    SemGroupCount,
    SemJoin,
    SemMap,
    SemPipeline,
    SemStep,
    SemTopK,
)


@dataclass
class StepReport:
    """Execution record of one physical stage."""

    kind: str
    detail: str
    tag: str
    rows_in: int
    rows_out: int
    stats: OpStats


@dataclass
class PipelineResult:
    """Everything a pipeline run produced: data, counts, and accounting."""

    records: List[Record]
    group_counts: Optional[Dict[str, int]]
    steps: List[StepReport] = field(default_factory=list)
    decisions: List[str] = field(default_factory=list)
    usage: Usage = field(default_factory=Usage)
    cache: CacheStats = field(default_factory=CacheStats)

    @property
    def llm_calls(self) -> int:
        return self.usage.calls

    @property
    def usd(self) -> float:
        return self.usage.usd


class SemExecutor:
    """Plan-then-execute driver for semantic pipelines.

    Parameters
    ----------
    operators:
        Operator suite (model + proxy thresholds) pipelines run on.
    optimizer:
        Planner; defaults to a :class:`SemOptimizer` over ``operators``.
    tag_prefix:
        Ledger-tag namespace for this executor's stages.
    """

    def __init__(
        self,
        operators: SemanticOperators,
        *,
        optimizer: Optional[SemOptimizer] = None,
        tag_prefix: str = "semopt",
    ) -> None:
        if not tag_prefix:
            raise ExecutionError("tag_prefix must be non-empty")
        self.operators = operators
        self.optimizer = optimizer or SemOptimizer(operators)
        self.tag_prefix = tag_prefix

    # ------------------------------------------------------------------ run
    def run(
        self, records: Sequence[Record], pipeline: SemPipeline
    ) -> PipelineResult:
        """Optimize and execute ``pipeline`` over ``records``."""
        plan = self.optimizer.optimize(records, pipeline)
        base_llm = self.operators.llm
        run_llm = CachedLLM(base_llm, semantic_threshold=None, max_entries=None)
        ops = SemanticOperators(
            run_llm,
            embedder=self.operators.embedder,
            proxy_low=self.operators.proxy_low,
            proxy_high=self.operators.proxy_high,
        )
        total_before = base_llm.ledger.total
        rows = list(records)
        group_counts: Optional[Dict[str, int]] = None
        reports: List[StepReport] = []
        for index, stage in enumerate(plan.stages):
            tag = f"{self.tag_prefix}.s{index}.{stage.kind}"
            rows_in = len(rows)
            rows, group_counts, detail, stats = self._run_stage(
                ops, stage, rows, tag
            )
            reports.append(
                StepReport(
                    kind=stage.kind,
                    detail=detail,
                    tag=tag,
                    rows_in=rows_in,
                    rows_out=len(rows),
                    stats=stats,
                )
            )
        return PipelineResult(
            records=rows,
            group_counts=group_counts,
            steps=reports,
            decisions=list(plan.decisions),
            usage=base_llm.ledger.total - total_before,
            cache=run_llm.stats,
        )

    def _run_stage(
        self,
        ops: SemanticOperators,
        stage: PhysicalStage,
        rows: List[Record],
        tag: str,
    ) -> Tuple[List[Record], Optional[Dict[str, int]], str, OpStats]:
        step = stage.step
        if isinstance(step, SemFilter):
            kept, stats = ops.sem_filter(
                rows, step.predicate, cascade=step.cascade, tag=tag
            )
            return kept, None, step.predicate, stats
        if isinstance(step, SemMap):
            if len(stage.steps) > 1:
                return self._run_fused_maps(ops, rows, stage.steps, tag)
            mapped, stats = ops.sem_map(
                rows, step.instruction, output_field=step.output_field, tag=tag
            )
            return mapped, None, step.instruction, stats
        if isinstance(step, SemJoin):
            pairs, stats = ops.sem_join(
                rows,
                list(step.right),
                left_key=step.left_key,
                right_key=step.right_key,
                blocking=step.blocking,
                blocking_threshold=step.blocking_threshold,
                tag=tag,
            )
            merged = [
                {
                    **left_rec,
                    **{
                        f"{step.right_prefix}{key}": value
                        for key, value in right_rec.items()
                    },
                }
                for left_rec, right_rec in pairs
            ]
            detail = f"join on {step.left_key}~{step.right_key}"
            return merged, None, detail, stats
        if isinstance(step, SemTopK):
            top, stats = ops.sem_topk(
                rows, step.query, step.k, group_size=step.group_size, tag=tag
            )
            return top, None, f"topk k={step.k}: {step.query}", stats
        if isinstance(step, SemGroupCount):
            counts, stats = ops.sem_group_count(
                rows, list(step.classes), tag=tag
            )
            detail = f"group_count over {len(step.classes)} classes"
            return rows, counts, detail, stats
        raise ExecutionError(f"unknown stage kind: {stage.kind}")

    def _run_fused_maps(
        self,
        ops: SemanticOperators,
        rows: List[Record],
        steps: Sequence[SemStep],
        tag: str,
    ) -> Tuple[List[Record], Optional[Dict[str, int]], str, OpStats]:
        """Execute several independence-proven maps as one batched round.

        Prompt order is per-map then per-row — exactly the sequential
        execution order — so charges, call log, and (deterministic)
        responses match running the maps one after another.
        """
        maps = [step for step in steps if isinstance(step, SemMap)]
        usage_before = ops._ledger_usage(tag)
        cache_before = ops._cache_counters()
        prompts: List[str] = []
        for mstep in maps:
            prompts.extend(ops.map_prompts(rows, mstep.instruction))
        responses = ops.llm.generate_many(prompts, tag=tag)
        out = [dict(row) for row in rows]
        cursor = 0
        for mstep in maps:
            for row in out:
                row[mstep.output_field] = responses[cursor].text
                cursor += 1
        stats = ops._finish(OpStats(), tag, usage_before, cache_before)
        detail = " + ".join(mstep.instruction for mstep in maps)
        return out, None, detail, stats
