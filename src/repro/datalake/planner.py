"""Query planning for multi-modal lake analytics (SYMPHONY / CAESURA /
iDataLake).

Pipeline per query:

1. **Parse** the analytics question into a :class:`LakeQuery` AST (the NL
   grammar below mirrors the sub-query decomposition SYMPHONY performs via
   prompting — here the decomposition itself is deterministic, while the
   error-prone decisions are the *grounding* choices).
2. **Ground** each entity type onto a lake asset via schema linking — this
   is where plans go wrong: the planner takes the linker's best guess, and
   a bad guess produces a plan that fails or returns garbage.
3. **Emit** an operator DAG (:class:`~repro.datalake.plan.Plan`).

The planner also supports *reflection* (§2.2.1 self-reflection): when the
executor reports a failure, :meth:`LakePlanner.replan` re-grounds the
failing entity type onto the next-best linked asset and re-emits the plan.

Grammar (benchmark-generable; see ``repro.datalake.workload``)::

    <agg> [<attribute> of] <etypeA>
        [whose <relation> is in <etypeB> where <field> <op> <value>]
        [where <field> <op> <value>]
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PlanError
from .catalog import DataLake, LakeAsset
from .linking import EmbeddingLinker, singularize
from .plan import Plan

_LAKE_QUERY_RE = re.compile(
    r"^(?P<agg>count|how many|average|avg|max|min|sum)\s+"
    r"(?:(?P<attribute>\w+)\s+of\s+)?(?P<etype_a>\w+)"
    r"(?:\s+whose\s+(?P<relation>\w+)\s+is\s+in\s+(?P<etype_b>\w+)"
    r"\s+where\s+(?P<bfield>\w+)\s*(?P<bop>==|!=|>=|<=|>|<|contains)\s*(?P<bvalue>[^,]+?))?"
    r"(?:\s+where\s+(?P<afield>\w+)\s*(?P<aop>==|!=|>=|<=|>|<|contains)\s*(?P<avalue>.+))?$",
    re.IGNORECASE,
)

_AGG_CANON = {
    "count": "count",
    "how many": "count",
    "average": "avg",
    "avg": "avg",
    "max": "max",
    "min": "min",
    "sum": "sum",
}


@dataclass
class LakeQuery:
    """Parsed analytics query AST."""

    agg: str
    attribute: Optional[str]
    etype_a: str
    filter_a: Optional[Tuple[str, str, str]] = None
    relation: Optional[str] = None
    etype_b: Optional[str] = None
    filter_b: Optional[Tuple[str, str, str]] = None

    @property
    def is_join(self) -> bool:
        return self.etype_b is not None


def parse_lake_query(question: str) -> Optional[LakeQuery]:
    """Parse the lake-analytics grammar; None if not an analytics query."""
    match = _LAKE_QUERY_RE.match(question.strip().rstrip("?").strip())
    if match is None:
        return None
    agg, attribute, etype_a, relation, etype_b, bfield, bop, bvalue, afield, aop, avalue = (
        match.groups()
    )
    return LakeQuery(
        _AGG_CANON[agg.lower()],
        attribute,
        singularize(etype_a),
        (afield, aop, avalue.strip().strip("'\"")) if afield else None,
        relation.lower() if relation else None,
        singularize(etype_b) if etype_b else None,
        (bfield, bop, bvalue.strip().strip("'\"")) if bfield else None,
    )


@dataclass
class GroundingDecision:
    """Which asset was chosen for an entity type, with alternatives kept for
    reflection-driven replanning."""

    etype: str
    chosen: LakeAsset
    alternatives: List[LakeAsset] = field(default_factory=list)


class LakePlanner:
    """Grounds parsed queries onto lake assets and emits operator plans."""

    def __init__(
        self,
        lake: DataLake,
        linker: EmbeddingLinker,
        *,
        candidates_per_type: int = 3,
        doc_attributes: Optional[Dict[str, List[str]]] = None,
    ) -> None:
        """``doc_attributes`` maps entity type -> attributes extractable from
        its document collection (the schema the extractor will target)."""
        self.lake = lake
        self.linker = linker
        self.candidates_per_type = candidates_per_type
        self.doc_attributes = doc_attributes or {}

    # ------------------------------------------------------------ grounding
    def ground(self, etype: str, *, exclude: Sequence[str] = ()) -> GroundingDecision:
        """Pick the asset for an entity type by linking on the type word."""
        singular = singularize(etype)
        linked = self.linker.link(f"{singular} {singular}s", k=self.candidates_per_type)
        ranked = [la.asset for la in linked if la.asset.asset_id not in exclude]
        if not ranked:
            raise PlanError(f"no asset candidates for entity type {etype!r}")
        return GroundingDecision(etype=etype, chosen=ranked[0], alternatives=ranked[1:])

    # --------------------------------------------------------------- planning
    def plan(
        self, question: str, *, grounding_overrides: Optional[Dict[str, str]] = None
    ) -> Tuple[Plan, Dict[str, GroundingDecision]]:
        """Emit a plan for ``question``; raises PlanError if unparseable."""
        query = parse_lake_query(question)
        if query is None:
            raise PlanError(f"cannot parse lake query: {question!r}")
        overrides = grounding_overrides or {}
        groundings: Dict[str, GroundingDecision] = {}
        plan = Plan(description=question)
        asset_a = self._grounded(query.etype_a, overrides, groundings)
        a_step = self._emit_source(plan, asset_a, query.etype_a, query)
        if query.filter_a is not None:
            f, op, v = query.filter_a
            a_step = plan.add("filter", inputs=[a_step], field=f, op=op, value=v)
        if query.etype_b is not None:
            asset_b = self._grounded(query.etype_b, overrides, groundings)
            b_step = self._emit_source(plan, asset_b, query.etype_b, query)
            if query.filter_b is not None:
                f, op, v = query.filter_b
                b_step = plan.add("filter", inputs=[b_step], field=f, op=op, value=v)
            a_step = plan.add(
                "join", inputs=[a_step, b_step], left_on=query.relation, right_on="name"
            )
        plan.add("aggregate", inputs=[a_step], fn=query.agg, column=query.attribute or "name")
        # No validate() here: every input is an id ``add`` returned, and the
        # executor validates each plan it runs.
        return plan, groundings

    def _grounded(
        self, etype: str, overrides: Dict[str, str], groundings: Dict[str, GroundingDecision]
    ) -> LakeAsset:
        """The asset ``etype`` reads: an override, else the linker's best."""
        if etype in overrides:
            asset = self.lake.get(overrides[etype])
            groundings[etype] = GroundingDecision(etype, asset)
            return asset
        decision = self.ground(etype)
        groundings[etype] = decision
        return decision.chosen

    def _emit_source(
        self, plan: Plan, asset: LakeAsset, etype: str, query: LakeQuery
    ) -> str:
        """Scan structured assets; extract from document/image assets."""
        if asset.modality in {"document", "image"}:
            needed = self._needed_attributes(etype, query)
            return plan.add(
                "extract", asset_id=asset.asset_id, etype=etype, attributes=needed
            )
        return plan.add("scan", asset_id=asset.asset_id)

    def _needed_attributes(self, etype: str, query: LakeQuery) -> List[str]:
        """Attributes the plan actually touches — extraction is not free, so
        the planner requests only what downstream steps need."""
        known = list(self.doc_attributes.get(etype, []))
        needed = set()
        if query.etype_a == etype:
            if query.attribute:
                needed.add(query.attribute)
            if query.filter_a:
                needed.add(query.filter_a[0])
            if query.is_join and query.relation:
                needed.add(query.relation)
        if query.etype_b == etype and query.filter_b:
            needed.add(query.filter_b[0])
        picked = [a for a in known if a in needed] or known
        return picked

    # ------------------------------------------------------------ reflection
    def replan(
        self,
        question: str,
        groundings: Dict[str, GroundingDecision],
        failed_etype: str,
    ) -> Tuple[Plan, Dict[str, GroundingDecision]]:
        """Re-ground the failing entity type onto its next-best candidate."""
        decision = groundings.get(failed_etype)
        if decision is None or not decision.alternatives:
            raise PlanError(
                f"no alternative grounding for {failed_etype!r}; plan unrecoverable"
            )
        overrides = {
            etype: d.chosen.asset_id
            for etype, d in groundings.items()
            if etype != failed_etype
        }
        overrides[failed_etype] = decision.alternatives[0].asset_id
        new_plan, new_groundings = self.plan(question, grounding_overrides=overrides)
        # Carry remaining alternatives forward for further reflection rounds.
        new_groundings[failed_etype] = GroundingDecision(
            etype=failed_etype,
            chosen=decision.alternatives[0],
            alternatives=decision.alternatives[1:],
        )
        return new_plan, new_groundings
