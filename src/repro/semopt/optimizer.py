"""Cost-based planner for semantic-operator pipelines.

Turns a logical :class:`~repro.semopt.plan.SemPipeline` into a
:class:`PhysicalPlan` by applying **exact** transformations only — every
rewrite provably preserves the bit-level output of naive in-order
execution, because per-record operator decisions are deterministic
functions of the record (and the bound predicate/instruction), never of
stream position or of other records:

* **Predicate reordering** — adjacent filters commute (a record survives
  the conjunction regardless of evaluation order, and survivor order is
  input order either way), so runs of filters are sorted by the cost
  model's rank: cheapest eliminated-row first.
* **Filter pushdown past maps** — a filter hops before a map when it
  provably never reads what the map writes: topical filters read only
  ``text`` (legal when every input record has non-empty text and no map
  writes ``text``); rule filters additionally require the full-scan
  decidability check, because an undecidable row would fall back to an
  LLM prompt that serializes the whole record, mapped field included.
* **Map fusion** — adjacent maps whose prompts are provably independent
  (each reads only ``text``) merge into one batched LLM round.

Transformations apply to the leading barrier-free prefix of the pipeline
(joins, top-k, and group-count are barriers: they read the whole stream
or rewrite record identity, and legality conditions are only established
against the pipeline's input records).  Every decision — applied or
declined — is recorded in the plan's decision log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..llm.skills import predicate_field
from ..unstructured.operators import SemanticOperators, _is_topical
from .costmodel import FilterEstimate, SemCostModel, records_all_have_text
from .plan import (
    BARRIER_STEPS,
    Record,
    SemFilter,
    SemMap,
    SemPipeline,
    SemStep,
    step_kind,
)


@dataclass
class PhysicalStage:
    """One execution unit: a step, or several fused maps batched together."""

    kind: str
    steps: List[SemStep]

    @property
    def step(self) -> SemStep:
        return self.steps[0]


@dataclass
class PhysicalPlan:
    """Ordered stages plus the planner's reasoning trail."""

    stages: List[PhysicalStage] = field(default_factory=list)
    decisions: List[str] = field(default_factory=list)

    def describe(self) -> List[str]:
        lines = [
            f"{i}: {stage.kind} x{len(stage.steps)}"
            for i, stage in enumerate(self.stages)
        ]
        return lines + [f"  - {d}" for d in self.decisions]


class SemOptimizer:
    """Plans a pipeline over concrete input records.

    Parameters
    ----------
    operators:
        The operator suite the plan will run on (supplies the proxy layer
        the cost model samples through).
    cost_model:
        Calibrated estimator; defaults to one built on the operators' LLM.
    """

    def __init__(
        self,
        operators: SemanticOperators,
        *,
        cost_model: Optional[SemCostModel] = None,
    ) -> None:
        self.operators = operators
        self.cost_model = cost_model or SemCostModel(operators.llm)

    # ------------------------------------------------------------ planning
    def optimize(
        self, records: Sequence[Record], pipeline: SemPipeline
    ) -> PhysicalPlan:
        """Produce a physical plan for ``pipeline`` over ``records``."""
        steps = list(pipeline.steps)
        decisions: List[str] = []
        prefix_end = self._barrier_index(steps)
        all_text = records_all_have_text(records)
        maps_preserve_text = all(
            not isinstance(s, SemMap) or s.output_field != "text" for s in steps
        )
        text_safe = all_text and maps_preserve_text
        if not text_safe:
            decisions.append(
                "text-reading rewrites disabled: "
                + (
                    "a map writes 'text'"
                    if all_text
                    else "some input records lack a 'text' field"
                )
            )
        prefix = steps[:prefix_end]
        prefix = self._push_down_filters(prefix, records, text_safe, decisions)
        prefix = self._reorder_filters(prefix, records, decisions)
        steps = prefix + steps[prefix_end:]
        if prefix_end < len(steps):
            decisions.append(
                f"steps {prefix_end}..{len(steps) - 1} follow a barrier "
                f"({step_kind(steps[prefix_end])}): left in written order"
            )
        stages = self._fuse_maps(steps, text_safe, decisions)
        return PhysicalPlan(stages=stages, decisions=decisions)

    @staticmethod
    def _barrier_index(steps: List[SemStep]) -> int:
        for i, step in enumerate(steps):
            if isinstance(step, BARRIER_STEPS):
                return i
        return len(steps)

    # ------------------------------------------------------------ pushdown
    def _push_down_filters(
        self,
        steps: List[SemStep],
        records: Sequence[Record],
        text_safe: bool,
        decisions: List[str],
    ) -> List[SemStep]:
        """Bubble filters before maps wherever the swap is provably exact."""
        steps = list(steps)
        rule_scan_cache: Dict[str, bool] = {}
        logged: set = set()
        changed = True
        while changed:
            changed = False
            for i in range(len(steps) - 1):
                left, right = steps[i], steps[i + 1]
                if not (isinstance(left, SemMap) and isinstance(right, SemFilter)):
                    continue
                reason = self._pushdown_legal(
                    left, right, records, text_safe, rule_scan_cache
                )
                pair = (left.instruction, right.predicate)
                if reason is None:
                    steps[i], steps[i + 1] = right, left
                    changed = True
                    decisions.append(
                        f"pushed filter '{right.predicate}' before map "
                        f"'{left.instruction}' (exact: filter never reads "
                        f"'{left.output_field}')"
                    )
                elif pair not in logged:
                    logged.add(pair)
                    decisions.append(
                        f"kept filter '{right.predicate}' after map "
                        f"'{left.instruction}': {reason}"
                    )
        return steps

    def _pushdown_legal(
        self,
        mapped: SemMap,
        filt: SemFilter,
        records: Sequence[Record],
        text_safe: bool,
        rule_scan_cache: Dict[str, bool],
    ) -> Optional[str]:
        """``None`` when the swap is exact, else the reason it is not."""
        if _is_topical(filt.predicate):
            if not text_safe:
                return "topical filter may fall back to whole-record text"
            return None
        pred_field = predicate_field(filt.predicate)
        if pred_field is None:
            return "predicate is not rule-parseable (pure LLM judge)"
        if pred_field == mapped.output_field:
            return f"predicate reads the mapped field '{pred_field}'"
        if not filt.cascade:
            return "full-LLM filter serializes the whole record per row"
        key = filt.predicate
        if key not in rule_scan_cache:
            rule_scan_cache[key] = self.cost_model.rule_decidable_everywhere(
                records, filt.predicate
            )
        if not rule_scan_cache[key]:
            return "rule leaves undecidable rows for the record-serializing judge"
        return None

    # ----------------------------------------------------------- reordering
    def _reorder_filters(
        self,
        steps: List[SemStep],
        records: Sequence[Record],
        decisions: List[str],
    ) -> List[SemStep]:
        """Sort each contiguous run of filters by cost-model rank (stable)."""
        out: List[SemStep] = []
        i = 0
        while i < len(steps):
            if not isinstance(steps[i], SemFilter):
                out.append(steps[i])
                i += 1
                continue
            j = i
            while j < len(steps) and isinstance(steps[j], SemFilter):
                j += 1
            run = [s for s in steps[i:j] if isinstance(s, SemFilter)]
            if len(run) > 1:
                estimates = {
                    pos: self.cost_model.estimate_filter(
                        records, f, self.operators
                    )
                    for pos, f in enumerate(run)
                }
                order = sorted(
                    range(len(run)), key=lambda p: (estimates[p].rank, p)
                )
                if order != list(range(len(run))):
                    decisions.append(
                        "reordered filter run "
                        + " -> ".join(f"'{run[p].predicate}'" for p in order)
                        + " (exact: independent per-record predicates commute)"
                    )
                    decisions.extend(self.cost_model.describe(estimates))
                run = [run[p] for p in order]
            out.extend(run)
            i = j
        return out

    # --------------------------------------------------------------- fusion
    def _fuse_maps(
        self,
        steps: List[SemStep],
        text_safe: bool,
        decisions: List[str],
    ) -> List[PhysicalStage]:
        """Group steps into stages, merging provably independent map chains."""
        stages: List[PhysicalStage] = []
        for step in steps:
            if (
                isinstance(step, SemMap)
                and stages
                and stages[-1].kind == "map"
                and self._fusable(stages[-1].steps, step, text_safe)
            ):
                stages[-1].steps.append(step)
                decisions.append(
                    f"fused map '{step.instruction}' into the previous map "
                    "stage (exact: both prompts read only 'text')"
                )
                continue
            stages.append(PhysicalStage(kind=step_kind(step), steps=[step]))
        return stages

    @staticmethod
    def _fusable(
        previous: List[SemStep], candidate: SemMap, text_safe: bool
    ) -> bool:
        """True when ``candidate``'s prompts cannot see the fused outputs.

        A map's prompt reads only ``text`` when its instruction does not
        request the record serialization (no ``field`` keyword) and the
        text fallback cannot trigger; earlier fused maps must not write a
        field the candidate would read, which under the text-only
        condition reduces to: nobody writes ``text`` (already guaranteed
        by ``text_safe``) and instructions are serialization-free.
        """
        if not text_safe:
            return False
        if "field" in candidate.instruction:
            return False
        return all(
            isinstance(m, SemMap) and "field" not in m.instruction
            for m in previous
        )


__all__ = [
    "FilterEstimate",
    "PhysicalPlan",
    "PhysicalStage",
    "SemOptimizer",
]
