"""Unstructured document analytics: point vs aggregation queries (§2.2.2).

The tutorial splits unstructured analytics into (1) *point queries* that
need a look-up of relevant data — served by RAG — and (2) *aggregation
queries* that combine many documents — served by extract-then-aggregate
(ZENDB/Unify style): extract a structured view once, then run relational
aggregation over it.

:class:`DocumentAnalytics` routes incoming natural-language queries between
the two paths and reports per-query cost, making the crossover measurable:
RAG is cheap for point look-ups, extraction amortizes for aggregates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..data.documents import Document
from ..data.table import Table
from ..errors import ExecutionError
from ..llm.model import SimLLM
from ..rag.pipeline import RAGPipeline
from .operators import Record, SemanticOperators
from .schema_extract import EvaporateExtractor, ExtractionResult

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..semopt.executor import PipelineResult
    from ..semopt.plan import SemPipeline

# Aggregation grammar: "<agg> <attribute> of <etype>s [where <field> <op> <value>]"
_AGG_RE = re.compile(
    r"^(?P<agg>count|how many|average|avg|max|maximum|min|minimum|sum|total)\s+"
    r"(?:(?P<attribute>\w+)\s+of\s+)?(?P<etype>\w+?)s?"
    r"(?:\s+where\s+(?P<field>\w+)\s*(?P<op>==|!=|>=|<=|>|<|contains)\s*(?P<value>.+))?$",
    re.IGNORECASE,
)

_AGG_CANON = {
    "count": "count",
    "how many": "count",
    "average": "avg",
    "avg": "avg",
    "max": "max",
    "maximum": "max",
    "min": "min",
    "minimum": "min",
    "sum": "sum",
    "total": "sum",
}


@dataclass
class AnalyticsAnswer:
    """Result of one analytics query."""

    question: str
    answer: str
    kind: str  # "point" | "aggregate"
    llm_calls: int
    usd: float
    rows_considered: int = 0


@dataclass
class AggregateQuery:
    """Parsed aggregation query."""

    agg: str
    attribute: Optional[str]
    etype: str
    where: Optional[Tuple[str, str, str]] = None


def parse_aggregate(question: str) -> Optional[AggregateQuery]:
    """Parse the aggregation grammar; None means it's a point query."""
    match = _AGG_RE.match(question.strip().rstrip("?").strip())
    if match is None:
        return None
    agg = _AGG_CANON[match.group("agg").lower()]
    where = None
    if match.group("field"):
        where = (
            match.group("field"),
            match.group("op"),
            match.group("value").strip().strip("'\""),
        )
    return AggregateQuery(
        agg=agg,
        attribute=match.group("attribute"),
        etype=match.group("etype").lower(),
        where=where,
    )


class DocumentAnalytics:
    """Routes NL queries over a document corpus to RAG or extract+aggregate.

    The corpus is fixed at construction: the extracted views and the corpus
    records that pipelines run over are each built once and kept, so a
    caller must not change ``docs`` afterwards. Pipelines read the kept
    records and hand back copies, so nothing a caller does to a result
    reaches them.
    """

    def __init__(
        self,
        llm: SimLLM,
        docs: Sequence[Document],
        *,
        schema: Dict[str, List[str]],
        extractor: Optional[EvaporateExtractor] = None,
        rag: Optional[RAGPipeline] = None,
    ) -> None:
        """``schema`` maps entity type -> extractable attribute names."""
        self.llm = llm
        self.docs = list(docs)
        self.schema = schema
        self.extractor = extractor or EvaporateExtractor(llm)
        self.rag = rag or RAGPipeline.from_documents(llm, self.docs)
        self._views: Dict[str, ExtractionResult] = {}
        self._records: Optional[Sequence[Record]] = None

    # ------------------------------------------------------------ extraction
    def _resolve_etype(self, raw: str) -> str:
        """Map a (possibly plural-mangled) type word onto a schema key."""
        candidates = [raw, raw + "s", raw.rstrip("s"), raw + "y"]
        if raw.endswith("ie"):
            candidates.append(raw[:-2] + "y")
        for candidate in candidates:
            if candidate in self.schema:
                return candidate
        raise ExecutionError(
            f"no schema for entity type {raw!r}; have {sorted(self.schema)}"
        )

    def materialize_view(self, etype: str) -> ExtractionResult:
        """Extract (once) the structured view for one entity type."""
        etype = self._resolve_etype(etype)
        if etype not in self._views:
            docs = [d for d in self.docs if d.meta.get("etype") == etype]
            self._views[etype] = self.extractor.extract(
                docs, etype, self.schema[etype]
            )
        return self._views[etype]

    # --------------------------------------------------------------- queries
    def ask(self, question: str) -> AnalyticsAnswer:
        """Answer a point or aggregation query."""
        calls_before = self.llm.usage.calls
        usd_before = self.llm.usage.usd
        agg = parse_aggregate(question)
        if agg is None:
            answer = self.rag.answer(question)
            return AnalyticsAnswer(
                question=question,
                answer=answer.text,
                kind="point",
                llm_calls=self.llm.usage.calls - calls_before,
                usd=self.llm.usage.usd - usd_before,
            )
        value, rows = self._aggregate(agg)
        return AnalyticsAnswer(
            question=question,
            answer=value,
            kind="aggregate",
            llm_calls=self.llm.usage.calls - calls_before,
            usd=self.llm.usage.usd - usd_before,
            rows_considered=rows,
        )

    # ------------------------------------------------------------- pipelines
    def _corpus_records(self) -> Sequence[Record]:
        """The corpus as semantic-operator records (text + string metadata),
        built on first use and kept; never handed out."""
        from ..semopt.costmodel import Corpus

        if self._records is None:
            self._records = Corpus(
                {
                    "name": doc.doc_id,
                    "title": doc.title,
                    "text": doc.text,
                    **{key: str(value) for key, value in doc.meta.items()},
                }
                for doc in self.docs
            )
        return self._records

    def run_pipeline(self, pipeline: "SemPipeline") -> "PipelineResult":
        """Run a semantic-operator pipeline over the corpus, optimized.

        Routes through :class:`repro.semopt.SemExecutor`: the pipeline is
        planned against the corpus (filter reordering, pushdown, map
        fusion) and executed on the batched kernels behind one exact-only
        :class:`~repro.llm.cache.CachedLLM` shared by every operator —
        answers are identical to naive in-order execution, the cost is not.
        The pipeline reads the kept corpus records (operators never change
        their input records), and the result's records are copies.
        """
        from ..semopt.executor import SemExecutor

        executor = SemExecutor(
            SemanticOperators(self.llm), tag_prefix="docs.semopt"
        )
        result = executor.run(self._corpus_records(), pipeline)
        result.records = [dict(record) for record in result.records]
        return result

    def _aggregate(self, query: AggregateQuery) -> Tuple[str, int]:
        view = self.materialize_view(query.etype)
        table: Table = view.table
        if query.where is not None:
            f, op, v = query.where
            if f not in table.schema:
                raise ExecutionError(f"filter field {f!r} not in extracted view")
            # Extracted cells are strings; numeric comparisons coerce lazily.
            table = table.take(table.matching(f, op, v), f"{table.name}_sel")
        rows = len(table)
        if query.agg == "count":
            return str(rows), rows
        if query.attribute is None or query.attribute not in table.schema:
            raise ExecutionError(
                f"aggregate {query.agg!r} needs a numeric attribute column"
            )
        return aggregate_floats(table.floats(query.attribute), query.agg), rows


_AGGREGATE_FNS: Dict[str, Callable[[List[float]], float]] = {
    "avg": lambda xs: sum(xs) / len(xs),
    "sum": sum,
    "max": max,
    "min": min,
}


def aggregate_floats(values: Iterable[Optional[float]], fn: str) -> str:
    """``avg``/``sum``/``max``/``min`` over a column's cached floats
    (:meth:`Table.floats <repro.data.table.Table.floats>`), as ``%.1f``.

    ``None`` (a missing or non-numeric cell) is skipped; with nothing left
    the answer is ``"unknown"``. The rest are summed left to right in row
    order. An unknown ``fn`` raises :class:`ExecutionError` before any value
    is read.
    """
    if fn not in _AGGREGATE_FNS:
        raise ExecutionError(f"unknown aggregate {fn!r}")
    numeric = [x for x in values if x is not None]
    if not numeric:
        return "unknown"
    return f"{_AGGREGATE_FNS[fn](numeric):.1f}"
