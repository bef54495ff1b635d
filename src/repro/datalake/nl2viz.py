"""NL2Viz: natural language to chart specifications (Figure 1 "NL2Viz").

Translates analyst questions into validated chart specs over lake tables
and renders them (ASCII, so the pipeline is end-to-end testable offline):

1. **translate** — an LLM ``viz`` skill maps the NL request onto a
   :class:`VizSpec` (chart type, x, y, aggregate), with the usual failure
   mode of referencing a wrong column;
2. **validate** — specs are checked against the schema and the chart-type
   grammar (bar needs a categorical x; scatter needs two numerics), and
   invalid specs trigger a temperature-shifted retry (the same
   execution-guided verification loop as NL2SQL);
3. **render** — the spec executes through the relational engine and
   renders as an ASCII chart.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..data.table import Table
from ..errors import ExecutionError
from ..llm.model import SimLLM
from ..llm.protocol import Prompt
from ..llm.skills import SkillContext

CHART_TYPES = ("bar", "line", "scatter")

_VIZ_RE = re.compile(
    r"^(?:plot|chart|show|draw)\s+"
    r"(?:(?P<agg>average|avg|total|sum|count|max|min)\s+)?"
    r"(?P<y>\w+)\s+(?:of\s+)?(?P<table>\w+)"
    r"(?:\s+(?:by|per|against|vs)\s+(?P<x>\w+))?$",
    re.IGNORECASE,
)

_AGG_CANON = {
    "average": "avg",
    "avg": "avg",
    "total": "sum",
    "sum": "sum",
    "count": "count",
    "max": "max",
    "min": "min",
}


@dataclass(frozen=True)
class VizSpec:
    """A validated chart specification."""

    chart: str
    table: str
    x: str
    y: str
    agg: Optional[str] = None

    def render_spec(self) -> str:
        agg = f"{self.agg}(" + self.y + ")" if self.agg else self.y
        return f"VIZ chart={self.chart} table={self.table} x={self.x} y={agg}"

    @classmethod
    def parse(cls, text: str) -> Optional["VizSpec"]:
        match = re.match(
            r"^VIZ chart=(?P<chart>\w+) table=(?P<table>\w+) x=(?P<x>\w+) "
            r"y=(?:(?P<agg>\w+)\()?(?P<y>\w+)\)?$",
            text.strip(),
        )
        if match is None:
            return None
        return cls(
            chart=match.group("chart"),
            table=match.group("table"),
            x=match.group("x"),
            y=match.group("y"),
            agg=match.group("agg"),
        )


def translate_viz(question: str, schema: Dict[str, List[str]]) -> Optional[VizSpec]:
    """Deterministic gold translation of the viz grammar."""
    match = _VIZ_RE.match(question.strip().rstrip("?").strip())
    if match is None:
        return None
    raw_table = match.group("table").lower()
    table = None
    for name in schema:
        if raw_table in {name, name.rstrip("s"), name + "s"} or name.startswith(raw_table):
            table = name
            break
    if table is None:
        return None
    y = match.group("y")
    x = match.group("x") or "name"
    agg = _AGG_CANON.get((match.group("agg") or "").lower())
    if x != "name" and agg is None:
        agg = "avg"  # grouped numeric defaults to the mean
    chart = "bar"
    if x in {"founded", "released", "year"}:
        chart = "line"
    elif agg is None and x != "name":
        chart = "scatter"
    return VizSpec(chart=chart, table=table, x=x, y=y, agg=agg)


def validate_spec(spec: VizSpec, tables: Dict[str, Table]) -> None:
    """Raise :class:`ExecutionError` unless the spec can execute."""
    if spec.chart not in CHART_TYPES:
        raise ExecutionError(f"unknown chart type {spec.chart!r}")
    table = tables.get(spec.table)
    if table is None:
        raise ExecutionError(f"unknown table {spec.table!r}")
    for column in (spec.x, spec.y):
        if column not in table.schema:
            raise ExecutionError(
                f"column {column!r} not in {table.schema.names()}"
            )
    y_dtype = table.schema.column(spec.y).dtype
    if spec.agg in {"avg", "sum", "max", "min"} and y_dtype not in {"int", "float"}:
        raise ExecutionError(f"aggregate {spec.agg!r} needs numeric y, got {y_dtype}")
    if spec.chart == "scatter":
        x_dtype = table.schema.column(spec.x).dtype
        if x_dtype not in {"int", "float"} or y_dtype not in {"int", "float"}:
            raise ExecutionError("scatter requires numeric x and y")


def execute_spec(spec: VizSpec, tables: Dict[str, Table]) -> List[Tuple[str, float]]:
    """Evaluate the spec into (x, y) series points."""
    validate_spec(spec, tables)
    table = tables[spec.table]
    if spec.agg:
        grouped = table.group_by(
            [spec.x],
            {"value": ("count", "") if spec.agg == "count" else (spec.agg, spec.y)},
        )
        points = [(str(r[spec.x]), float(r["value"])) for r in grouped.rows]
    else:
        points = [
            (str(r[spec.x]), float(r[spec.y]))
            for r in table.rows
            if r.get(spec.y) is not None
        ]
    if spec.chart == "line":
        points.sort(key=lambda p: p[0])
    else:
        points.sort(key=lambda p: -p[1])
    return points


def render_ascii(spec: VizSpec, points: List[Tuple[str, float]], *, width: int = 40) -> str:
    """Render the series as an ASCII chart."""
    if not points:
        return f"(empty {spec.chart} chart)"
    top = max(abs(v) for _, v in points) or 1.0
    lines = [f"{spec.render_spec()}"]
    for label, value in points[:15]:
        bar = "#" * max(int(round(abs(value) / top * width)), 1)
        lines.append(f"{label[:18]:<18} | {bar} {value:g}")
    if len(points) > 15:
        lines.append(f"... ({len(points) - 15} more)")
    return "\n".join(lines)


def make_viz_skill(schema: Dict[str, List[str]]):
    """LLM ``viz`` skill: gold translation with a wrong-column error channel."""

    def skill_viz(ctx: SkillContext):
        gold = translate_viz(ctx.prompt.input, schema)
        if gold is None:
            return "VIZ chart=bar table=unknown x=name y=value", {"reason": "unparseable"}
        if ctx.draw_correct(grounded=bool(ctx.prompt.fields.get("schema"))):
            return gold.render_spec(), {}
        columns = schema.get(gold.table, [])
        wrong_y = columns[(columns.index(gold.y) + 1) % len(columns)] if gold.y in columns and columns else "ghost"
        corrupted = VizSpec(gold.chart, gold.table, gold.x, wrong_y, gold.agg)
        return corrupted.render_spec(), {"reason": "schema-mismatch"}

    return skill_viz


@dataclass
class VizResult:
    """Outcome of one NL2Viz round trip."""

    question: str
    spec: Optional[VizSpec]
    points: List[Tuple[str, float]]
    chart: str
    attempts: int
    error: str = ""


class NL2VizEngine:
    """NL -> validated chart with execution-guided retry."""

    def __init__(
        self, llm: SimLLM, tables: Dict[str, Table], *, max_retries: int = 2
    ) -> None:
        self.llm = llm
        self.tables = tables
        self.schema = {name: t.schema.names() for name, t in tables.items()}
        self.max_retries = max_retries
        llm.register_skill("viz", make_viz_skill(self.schema))

    def ask(self, question: str) -> VizResult:
        schema_text = "; ".join(
            f"{name}({', '.join(cols)})" for name, cols in sorted(self.schema.items())
        )
        attempts = 0
        temperature = 0.0
        last_error = ""
        last_spec: Optional[VizSpec] = None
        while attempts <= self.max_retries:
            attempts += 1
            response = self.llm.generate(
                Prompt(
                    task="viz",
                    instruction="Translate the request into a chart spec.",
                    input=question,
                    fields={"schema": schema_text},
                ).render(),
                temperature=temperature,
                tag="nl2viz",
            )
            spec = VizSpec.parse(response.text)
            last_spec = spec
            if spec is None:
                last_error = f"unparseable spec: {response.text!r}"
            else:
                try:
                    points = execute_spec(spec, self.tables)
                    return VizResult(
                        question=question,
                        spec=spec,
                        points=points,
                        chart=render_ascii(spec, points),
                        attempts=attempts,
                    )
                except ExecutionError as exc:
                    last_error = str(exc)
            temperature += 0.5
        return VizResult(
            question=question,
            spec=last_spec,
            points=[],
            chart="",
            attempts=attempts,
            error=last_error,
        )
