"""Plan executor for multi-modal lake queries.

Interprets :class:`~repro.datalake.plan.Plan` DAGs against a
:class:`~repro.datalake.catalog.DataLake`. Steps pass *relations*: a schema
whose columns read cached base columns through row-id selections, so no
step copies a row.

* ``scan`` — tables and the catalog's once-flattened JSON relations become
  base relations, built once per asset;
* ``extract`` — document collections materialized into base relations via
  an extraction strategy (Evaporate by default; views are cached so
  repeated queries amortize, as in ZENDB);
* ``filter`` / ``join`` — narrow selections through indexes that each base
  column builds on first use and keeps for every later plan;
* ``project`` / ``aggregate`` — read columns through the selection;
* ``lookup`` — point RAG question over a document asset.

Base relations are read-only once built, which is what lets their indexes
live as long as they do. Row dicts are built only for ``sem_filter``'s
records.

Execution failures raise :class:`~repro.errors.ExecutionError` with the
offending entity type attached, which is exactly the feedback the planner's
reflection loop consumes. :class:`LakeAnalytics` packages the full
plan → execute → reflect loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..data.multimodal import VisualQAModel
from ..data.table import Column, Schema, Table
from ..errors import ExecutionError, PlanError
from ..llm.cost import Usage
from ..llm.model import SimLLM
from ..rag.pipeline import RAGPipeline
from ..semopt import SemExecutor, SemFilter, SemPipeline
from ..unstructured.operators import SemanticOperators
from ..unstructured.query import _order_op, aggregate_cells
from ..unstructured.schema_extract import EvaporateExtractor
from .catalog import DataLake, LakeAsset
from .linking import EmbeddingLinker
from .plan import Plan, PlanStep
from .planner import GroundingDecision, LakePlanner

#: Base row ids in relation order; ``None`` selects every row in base order.
#: Selections are shared between relations and never mutated.
Selection = Optional[List[int]]


def _as_float(cell: object) -> Optional[float]:
    try:  # a missing cell reads "None", which is not numeric either
        return float(str(cell))
    except (TypeError, ValueError):
        return None


def _group(values: List) -> Dict[object, List[int]]:
    """Value -> the ascending positions that hold it."""
    index: Dict[object, List[int]] = {}
    for position, value in enumerate(values):
        index.setdefault(value, []).append(position)
    return index


def _through(values: List, rows: Selection) -> List:
    return values if rows is None else [values[i] for i in rows]


def _narrow(selections: Tuple[Selection, ...], positions: List[int]) -> Tuple[Selection, ...]:
    """The selections of the rows at ``positions``."""
    return tuple(positions if rows is None else [rows[p] for p in positions] for rows in selections)


class _Column:
    """One cached base column: its cells plus indexes built on first use."""

    def __init__(self, cells: List[object]) -> None:
        self.cells = cells

    @cached_property
    def floats(self) -> List[Optional[float]]:
        """Each cell as ``float(str(cell))``, None where that fails: the order ops."""
        return [_as_float(cell) for cell in self.cells]

    @cached_property
    def folded(self) -> List[Optional[str]]:
        """Each cell's stripped, lowered text (None stays None): ``==``/``!=``."""
        return [None if cell is None else str(cell).strip().lower() for cell in self.cells]

    @cached_property
    def equal(self) -> Dict[object, List[int]]:
        """Folded text -> ascending row ids."""
        return _group(self.folded)

    @cached_property
    def lowered(self) -> List[Optional[str]]:
        """Each cell's lowered text: ``contains``."""
        return [None if cell is None else str(cell).lower() for cell in self.cells]

    @cached_property
    def keys(self) -> Dict[object, List[int]]:
        """Cell value -> ascending row ids: the join index."""
        return _group(self.cells)


@dataclass(eq=False)
class _Relation:
    """A schema over cached base columns, each read through a selection.

    ``columns`` maps a column name to the index of its selection and its
    base column. Columns of one base relation share one selection, so a
    join output holds its left input's selections, then its right input's.
    """

    name: str
    schema: Schema
    columns: Dict[str, Tuple[int, _Column]]
    selections: Tuple[Selection, ...]
    length: int

    @classmethod
    def base(
        cls, name: str, schema: Schema, rows: Sequence[Dict[str, object]],
        sources: Optional[Sequence[str]] = None,
    ) -> "_Relation":
        """Columns built once from ``rows``; ``sources`` names the row key
        each schema column reads (default: the column's own name)."""
        keys = sources or schema.names()
        columns = {
            col.name: (0, _Column([row.get(key) for row in rows]))
            for col, key in zip(schema.columns, keys)
        }
        return cls(name, schema, columns, (None,), len(rows))

    def __len__(self) -> int:
        return self.length

    def _read(self, name: str) -> Tuple[_Column, Selection]:
        part, column = self.columns[name]
        return column, self.selections[part]

    def cells(self, name: str) -> List[object]:
        """One column's cells in row order (read-only)."""
        column, rows = self._read(name)
        return _through(column.cells, rows)

    def take(self, positions: List[int], name: str) -> "_Relation":
        """The rows at ``positions`` (row numbers of this relation), in order."""
        selections = _narrow(self.selections, positions)
        return _Relation(name, self.schema, self.columns, selections, len(positions))

    def matching(self, name: str, op: str, literal: str) -> List[int]:
        """Row numbers whose ``name`` cell passes the filter, in order.

        The verdicts of :func:`repro.unstructured.query._string_predicate`:
        a missing cell never matches; ``==``/``!=`` compare stripped, lowered
        text with the lowered literal; ``contains`` is a lowered substring
        test; the order ops compare floats and fail on a non-numeric side.
        """
        column, rows = self._read(name)
        needle = literal.lower()
        if op == "contains":
            texts = _through(column.lowered, rows)
            return [p for p, text in enumerate(texts) if text is not None and needle in text]
        if op == "==" and rows is None:
            return column.equal.get(needle, [])
        if op in ("==", "!="):
            want = op == "=="
            texts = _through(column.folded, rows)
            return [p for p, text in enumerate(texts) if text is not None and (text == needle) == want]
        compare = _order_op(op)
        try:
            bound = float(literal)
        except ValueError:
            return []
        numbers = _through(column.floats, rows)
        return [p for p, x in enumerate(numbers) if x is not None and compare(x, bound)]

    def project(self, names: List[str]) -> "_Relation":
        schema = Schema(tuple(self.schema.column(name) for name in names))
        columns = {name: self.columns[name] for name in names}
        return _Relation(f"{self.name}_proj", schema, columns, self.selections, self.length)

    def join(self, other: "_Relation", left_on: str, right_on: str) -> "_Relation":
        """Inner equi-join in nested hash-join order: left rows in order,
        each one's matches in right order. A right column whose name is
        taken on the left is prefixed with the right relation's name; a
        prefixed name that is still taken raises ExecutionError."""
        left_names = set(self.schema.names())
        renamed = {
            c.name: (f"{other.name}.{c.name}" if c.name in left_names else c.name)
            for c in other.schema.columns
        }
        names = self.schema.names() + list(renamed.values())
        if len(set(names)) != len(names):
            raise ExecutionError(
                f"join of {self.name!r} and {other.name!r} repeats a column in {names}"
            )
        schema = Schema(
            tuple(self.schema.columns)
            + tuple(Column(renamed[c.name], c.dtype) for c in other.schema.columns)
        )
        # Walk the side with fewer rows; probe the other side's key index.
        if len(other) <= len(self):
            index = self._key_index(left_on)
            pairs = sorted(
                (left, right)
                for right, key in enumerate(other.cells(right_on))
                for left in index.get(key, ())
            )
        else:
            index = other._key_index(right_on)
            pairs = [
                (left, right)
                for left, key in enumerate(self.cells(left_on))
                for right in index.get(key, ())
            ]
        columns = dict(self.columns)
        for name, (part, column) in other.columns.items():
            columns[renamed[name]] = (len(self.selections) + part, column)
        selections = _narrow(self.selections, [left for left, _ in pairs]) + _narrow(
            other.selections, [right for _, right in pairs]
        )
        return _Relation(f"{self.name}_{other.name}", schema, columns, selections, len(pairs))

    def _key_index(self, name: str) -> Dict[object, List[int]]:
        """Cell value -> ascending row numbers: the base column's cached
        index when the column is read whole."""
        column, rows = self._read(name)
        return column.keys if rows is None else _group(_through(column.cells, rows))

    def records(self) -> List[Dict[str, str]]:
        """Each row as a string record without its missing cells."""
        columns = [(name, self.cells(name)) for name in self.schema.names()]
        return [
            {name: str(cells[p]) for name, cells in columns if cells[p] is not None}
            for p in range(self.length)
        ]


Value = Union[_Relation, str]


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
    """Stateless interpreter over one lake, with per-lake caches of scanned
    relations and extraction views."""

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
        # asset id -> (the table scanned, its base relation)
        self._scans: Dict[str, Tuple[Table, _Relation]] = {}
        self._view_cache: Dict[Tuple[str, Tuple[str, ...]], _Relation] = {}
        self._rag_cache: Dict[str, RAGPipeline] = {}

    def execute(self, plan: Plan) -> str:
        """Run a plan; returns the final step's scalar rendered as text."""
        plan.validate()
        values: Dict[str, Value] = {}
        for step in plan.steps:
            values[step.step_id] = self._run_step(step, values)
        final = values[plan.final_step.step_id]
        if isinstance(final, _Relation):
            return str(len(final))
        return str(final)

    # --------------------------------------------------------------- steps
    def _run_step(self, step: PlanStep, values: Dict[str, Value]) -> Value:
        handler = getattr(self, f"_op_{step.op}", None)
        if handler is None:
            raise ExecutionError(f"no handler for op {step.op!r}")
        return handler(step, values)

    def _input_table(self, step: PlanStep, values: Dict[str, Value], idx: int) -> _Relation:
        value = values[step.inputs[idx]]
        if not isinstance(value, _Relation):
            raise ExecutionError(
                f"step {step.step_id!r} expected a table input, got {type(value).__name__}"
            )
        return value

    def _op_scan(self, step: PlanStep, values: Dict[str, Value]) -> _Relation:
        asset = self.lake.get(str(step.params["asset_id"]))
        if asset.modality == "table":
            assert asset.table is not None
            table = asset.table
        elif asset.modality == "json":
            table = self.lake.json_as_table(asset.asset_id)
        else:
            raise ExecutionError(
                f"cannot scan document asset {asset.asset_id!r}; use extract",
            )
        scanned = self._scans.get(asset.asset_id)
        if scanned is None or scanned[0] is not table:
            scanned = (table, _Relation.base(table.name, table.schema, table.rows))
            self._scans[asset.asset_id] = scanned
        return scanned[1]

    def _op_extract(self, step: PlanStep, values: Dict[str, Value]) -> _Relation:
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
            schema, sources = table.schema, None
            if "subject" in table.schema and "name" not in table.schema:
                # Expose "subject" as "name" so joins against entity names work.
                schema = Schema(
                    (Column("name"),) + tuple(table.schema.column(a) for a in attributes)
                )
                sources = ["subject", *attributes]
            self._view_cache[cache_key] = _Relation.base(table.name, schema, table.rows, sources)
        return self._view_cache[cache_key]

    def _extract_images(self, asset: LakeAsset, step: PlanStep) -> _Relation:
        """Materialize an image collection via the VisualQA tool (CAESURA)."""
        attributes = tuple(str(a) for a in step.params["attributes"])  # type: ignore[index]
        cache_key = (asset.asset_id, attributes)
        if cache_key not in self._view_cache:
            categories = sorted(
                {p.attributes["category"] for p in self.lake.world.products}
            )
            rows = VisualQAModel(categories).extract_rows(asset.images, list(attributes))
            schema = Schema((Column("name"),) + tuple(Column(a) for a in attributes))
            self._view_cache[cache_key] = _Relation.base(asset.name, schema, rows)
        return self._view_cache[cache_key]

    def _op_filter(self, step: PlanStep, values: Dict[str, Value]) -> _Relation:
        table = self._input_table(step, values, 0)
        f = str(step.params["field"])
        if f not in table.schema:
            raise ExecutionError(f"filter field {f!r} not in {table.schema.names()}")
        kept = table.matching(f, str(step.params["op"]), str(step.params["value"]))
        return table.take(kept, f"{table.name}_sel")

    def _op_sem_filter(self, step: PlanStep, values: Dict[str, Value]) -> _Relation:
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

    def _op_join(self, step: PlanStep, values: Dict[str, Value]) -> _Relation:
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
        return left.join(right, left_on, right_on)

    def _op_project(self, step: PlanStep, values: Dict[str, Value]) -> _Relation:
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
        return aggregate_cells(table.cells(column), fn)

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
        total_before = self.llm.ledger.total
        tags_before = dict(self.llm.ledger.by_tag)
        plan, groundings = self.planner.plan(question)
        attempts = 1
        last_error = ""
        for _ in range(self.max_reflections + 1):
            try:
                answer = self.executor.execute(plan)
                usage = self.llm.ledger.total - total_before
                return ExecutionTrace(
                    question=question,
                    answer=answer,
                    plan=plan,
                    attempts=attempts,
                    llm_calls=usage.calls,
                    usd=usage.usd,
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
        """Non-zero per-tag usage charged since the ``tags_before`` snapshot."""
        deltas: Dict[str, Usage] = {}
        for tag, after in self.llm.ledger.by_tag.items():
            delta = after - tags_before.get(tag, Usage())
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
