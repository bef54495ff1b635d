"""Plan executor for multi-modal lake queries.

Interprets :class:`~repro.datalake.plan.Plan` DAGs against a
:class:`~repro.datalake.catalog.DataLake`. Steps pass
:class:`~repro.data.table.Table` views, which read stored columns through
row-id selections, so no step copies a row.

* ``scan`` — a table asset's own table, or the catalog's once-flattened
  JSON table;
* ``extract`` — document collections materialized into tables via an
  extraction strategy (Evaporate by default; views are cached so repeated
  queries amortize, as in ZENDB);
* ``filter`` / ``join`` — narrow selections through indexes that each
  stored column builds on first use and keeps for its life;
* ``project`` / ``aggregate`` — read columns through the selection;
* ``lookup`` — point RAG question over a document asset.

A scan reads the asset's table as it is now: an insert gives the table new
columns, so a later plan sees the row and earlier views do not. Row dicts
are built only for ``sem_filter``'s records.

Execution failures raise :class:`~repro.errors.ExecutionError` with the
offending entity type attached, which is exactly the feedback the planner's
reflection loop consumes. :class:`LakeAnalytics` packages the full
plan → execute → reflect loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..data.multimodal import VisualQAModel
from ..data.table import Column, Schema, Table
from ..errors import ExecutionError, PlanError, SchemaError
from ..llm.cost import Usage
from ..llm.model import SimLLM
from ..rag.pipeline import RAGPipeline
from ..semopt import SemExecutor, SemFilter, SemPipeline
from ..unstructured.operators import SemanticOperators
from ..unstructured.query import aggregate_floats
from ..unstructured.schema_extract import EvaporateExtractor
from .catalog import DataLake, LakeAsset
from .linking import EmbeddingLinker
from .plan import Plan, PlanStep
from .planner import GroundingDecision, LakePlanner

Value = Union[Table, str]


@dataclass
class ExecutionTrace:
    """Per-query execution record.

    ``llm_calls``/``usd`` are deltas of the model's usage ledger over the
    whole ask; ``usage_by_tag`` breaks the same window down per ledger tag
    (planner, executor ops, RAG, ...), so the parts provably sum to the
    totals.
    """

    question: str
    answer: str
    plan: Plan
    attempts: int = 1
    llm_calls: int = 0
    usd: float = 0.0
    failed: bool = False
    failure: str = ""
    usage_by_tag: Dict[str, Usage] = field(default_factory=dict)


class PlanExecutor:
    """Stateless interpreter over one lake, with per-lake caches of
    extraction views and RAG pipelines."""

    def __init__(
        self,
        lake: DataLake,
        llm: SimLLM,
        *,
        extractor: Optional[EvaporateExtractor] = None,
    ) -> None:
        self.lake = lake
        self.llm = llm
        self.extractor = extractor or EvaporateExtractor(llm)
        self.sem_executor = SemExecutor(
            SemanticOperators(llm), tag_prefix="lake.semopt"
        )
        self._view_cache: Dict[Tuple[str, Tuple[str, ...]], Table] = {}
        self._rag_cache: Dict[str, RAGPipeline] = {}

    def execute(self, plan: Plan) -> str:
        """Run a plan; returns the final step's scalar rendered as text."""
        plan.validate()
        values: Dict[str, Value] = {}
        for step in plan.steps:
            values[step.step_id] = self._run_step(step, values)
        final = values[plan.final_step.step_id]
        if isinstance(final, Table):
            return str(len(final))
        return str(final)

    # --------------------------------------------------------------- steps
    def _run_step(self, step: PlanStep, values: Dict[str, Value]) -> Value:
        handler = getattr(self, f"_op_{step.op}", None)
        if handler is None:
            raise ExecutionError(f"no handler for op {step.op!r}")
        return handler(step, values)

    def _input_table(self, step: PlanStep, values: Dict[str, Value], idx: int) -> Table:
        value = values[step.inputs[idx]]
        if not isinstance(value, Table):
            raise ExecutionError(
                f"step {step.step_id!r} expected a table input, got {type(value).__name__}"
            )
        return value

    def _op_scan(self, step: PlanStep, values: Dict[str, Value]) -> Table:
        asset = self.lake.get(str(step.params["asset_id"]))
        if asset.modality == "table":
            assert asset.table is not None
            return asset.table
        if asset.modality == "json":
            return self.lake.json_as_table(asset.asset_id)
        raise ExecutionError(
            f"cannot scan document asset {asset.asset_id!r}; use extract",
        )

    def _op_extract(self, step: PlanStep, values: Dict[str, Value]) -> Table:
        asset = self.lake.get(str(step.params["asset_id"]))
        if asset.modality == "image":
            return self._extract_images(asset, step)
        if asset.modality != "document":
            raise ExecutionError(
                f"extract requires a document or image asset, got {asset.modality}"
            )
        etype = str(step.params["etype"])
        attributes = tuple(str(a) for a in step.params["attributes"])  # type: ignore[index]
        cache_key = (asset.asset_id, attributes)
        if cache_key not in self._view_cache:
            table = self.extractor.extract(asset.documents, etype, list(attributes)).table
            if "subject" in table.schema and "name" not in table.schema:
                # Expose "subject" as "name" so joins against entity names work.
                schema = Schema(
                    (Column("name"),) + tuple(table.schema.column(a) for a in attributes)
                )
                rows = [{**row, "name": row["subject"]} for row in table.rows]
                table = Table(table.name, schema, rows)
            self._view_cache[cache_key] = table
        return self._view_cache[cache_key]

    def _extract_images(self, asset: LakeAsset, step: PlanStep) -> Table:
        """Materialize an image collection via the VisualQA tool (CAESURA)."""
        attributes = tuple(str(a) for a in step.params["attributes"])  # type: ignore[index]
        cache_key = (asset.asset_id, attributes)
        if cache_key not in self._view_cache:
            categories = sorted(
                {p.attributes["category"] for p in self.lake.world.products}
            )
            rows = VisualQAModel(categories).extract_rows(asset.images, list(attributes))
            schema = Schema((Column("name"),) + tuple(Column(a) for a in attributes))
            self._view_cache[cache_key] = Table(asset.name, schema, rows)
        return self._view_cache[cache_key]

    def _op_filter(self, step: PlanStep, values: Dict[str, Value]) -> Table:
        table = self._input_table(step, values, 0)
        f = str(step.params["field"])
        if f not in table.schema:
            raise ExecutionError(f"filter field {f!r} not in {table.schema.names()}")
        kept = table.matching(f, str(step.params["op"]), str(step.params["value"]))
        return table.take(kept, f"{table.name}_sel")

    def _op_sem_filter(self, step: PlanStep, values: Dict[str, Value]) -> Table:
        """Natural-language predicate filter, routed through the optimizer.

        Rows become string records and run as a one-step semantic pipeline:
        the :mod:`repro.semopt` executor supplies the batched proxy/judge
        kernels and its per-run exact :class:`~repro.llm.cache.CachedLLM`
        (duplicate rows charge one judge call), so lake-scale semantic filters pay per *unique*
        uncertain row instead of per row.
        """
        table = self._input_table(step, values, 0)
        predicate = str(step.params["predicate"])
        cascade = bool(step.params.get("cascade", True))
        records = table.records()
        result = self.sem_executor.run(
            records, SemPipeline([SemFilter(predicate, cascade=cascade)])
        )
        kept_records = {id(record) for record in result.records}
        kept = [p for p, record in enumerate(records) if id(record) in kept_records]
        return table.take(kept, table.name)

    def _op_join(self, step: PlanStep, values: Dict[str, Value]) -> Table:
        left = self._input_table(step, values, 0)
        right = self._input_table(step, values, 1)
        left_on = str(step.params["left_on"])
        right_on = str(step.params["right_on"])
        if left_on not in left.schema:
            raise ExecutionError(
                f"join key {left_on!r} not in left table {left.schema.names()}"
            )
        if right_on not in right.schema:
            raise ExecutionError(
                f"join key {right_on!r} not in right table {right.schema.names()}"
            )
        try:
            return left.join(right, left_on=left_on, right_on=right_on)
        except SchemaError as exc:  # a prefixed right column name is still taken
            raise ExecutionError(str(exc)) from exc

    def _op_project(self, step: PlanStep, values: Dict[str, Value]) -> Table:
        table = self._input_table(step, values, 0)
        columns = [str(c) for c in step.params["columns"]]  # type: ignore[index]
        for column in columns:
            if column not in table.schema:
                raise ExecutionError(
                    f"project column {column!r} not in {table.schema.names()}"
                )
        if len(set(columns)) != len(columns):
            raise ExecutionError(f"project repeats a column in {columns}")
        return table.project(columns)

    def _op_aggregate(self, step: PlanStep, values: Dict[str, Value]) -> str:
        table = self._input_table(step, values, 0)
        fn = str(step.params["fn"])
        column = str(step.params["column"])
        if fn == "count":
            return str(len(table))
        if column not in table.schema:
            raise ExecutionError(
                f"aggregate column {column!r} not in {table.schema.names()}"
            )
        return aggregate_floats(table.floats(column), fn)

    def _op_lookup(self, step: PlanStep, values: Dict[str, Value]) -> str:
        asset = self.lake.get(str(step.params["asset_id"]))
        if asset.modality != "document":
            raise ExecutionError("lookup requires a document asset")
        if asset.asset_id not in self._rag_cache:
            self._rag_cache[asset.asset_id] = RAGPipeline.from_documents(
                self.llm, asset.documents
            )
        return self._rag_cache[asset.asset_id].answer(str(step.params["question"])).text


class LakeAnalytics:
    """Plan → execute → reflect loop over a data lake (the E20 system)."""

    def __init__(
        self,
        lake: DataLake,
        llm: SimLLM,
        *,
        linker: Optional[EmbeddingLinker] = None,
        planner: Optional[LakePlanner] = None,
        executor: Optional[PlanExecutor] = None,
        max_reflections: int = 2,
        doc_attributes: Optional[Dict[str, List[str]]] = None,
    ) -> None:
        self.lake = lake
        self.llm = llm
        self.linker = linker or EmbeddingLinker(lake, llm.embedder)
        self.planner = planner or LakePlanner(
            lake, self.linker, doc_attributes=doc_attributes
        )
        self.executor = executor or PlanExecutor(lake, llm)
        self.max_reflections = max_reflections

    def ask(self, question: str, *, reflect: bool = True) -> ExecutionTrace:
        """Answer one analytics question with reflection-on-failure."""
        ledger = self.llm.ledger
        total_before = ledger.total
        tags_before = dict(ledger.by_tag)
        plan, groundings = self.planner.plan(question)
        attempts = 1
        last_error = ""
        for _ in range(self.max_reflections + 1):
            try:
                answer = self.executor.execute(plan)
                total = ledger.total
                return ExecutionTrace(
                    question,
                    answer,
                    plan,
                    attempts,
                    total.calls - total_before.calls,
                    total.usd - total_before.usd,
                    usage_by_tag=self._tag_deltas(tags_before),
                )
            except ExecutionError as exc:
                last_error = str(exc)
                if not reflect:
                    break
                failed_etype = self._failing_etype(plan, groundings, last_error)
                if failed_etype is None:
                    break
                try:
                    plan, groundings = self.planner.replan(
                        question, groundings, failed_etype
                    )
                except PlanError:
                    break
                attempts += 1
        usage = self.llm.ledger.total - total_before
        return ExecutionTrace(
            question=question,
            answer="unknown",
            plan=plan,
            attempts=attempts,
            llm_calls=usage.calls,
            usd=usage.usd,
            failed=True,
            failure=last_error,
            usage_by_tag=self._tag_deltas(tags_before),
        )

    def _tag_deltas(self, tags_before: Dict[str, Usage]) -> Dict[str, Usage]:
        """Non-zero per-tag usage charged since the ``tags_before`` snapshot.

        The ledger replaces a tag's :class:`Usage` on every charge, so a tag
        whose entry is still the snapshotted object charged nothing.
        """
        deltas: Dict[str, Usage] = {}
        for tag, after in self.llm.ledger.by_tag.items():
            before = tags_before.get(tag)
            if after is before:
                continue
            delta = after - (Usage() if before is None else before)
            if delta.calls or delta.usd:
                deltas[tag] = delta
        return deltas

    @staticmethod
    def _failing_etype(
        plan: Plan, groundings: Dict[str, GroundingDecision], error: str
    ) -> Optional[str]:
        """Heuristic blame assignment: the grounded type whose chosen asset's
        columns are implicated by the error, else the first with alternatives."""
        for etype, decision in groundings.items():
            asset = decision.chosen
            if asset.name in error or asset.asset_id in error:
                return etype
        for etype, decision in groundings.items():
            if decision.alternatives:
                return etype
        return None
