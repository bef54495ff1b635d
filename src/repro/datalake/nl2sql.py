"""NL2SQL over lake tables (Figure 1 "NL2SQL" box).

Three pieces:

* :func:`parse_sql` / :func:`execute_sql` — a small SQL subset (SELECT with
  aggregates, one JOIN, WHERE conjunctions, GROUP BY, ORDER BY, LIMIT)
  executed against :class:`~repro.data.table.Table` relations;
* :func:`make_sql_skill` — the LLM side: a ``sql`` task skill that
  translates grammar questions into SQL with the classic NL2SQL failure
  mode, schema mismatch (on an error draw the emitted SQL references a
  plausible-but-wrong column);
* :class:`NL2SQLEngine` — generation + *execution-guided verification*
  (§2.2.1 "Verification and Reliability"): invalid SQL triggers a
  temperature-shifted retry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..data.table import Table
from ..errors import ExecutionError, SchemaError
from ..llm.model import SimLLM
from ..llm.protocol import Prompt
from ..llm.skills import SkillContext

_SQL_RE = re.compile(
    r"^SELECT\s+(?P<select>.+?)\s+FROM\s+(?P<table>\w+)"
    r"(?:\s+JOIN\s+(?P<join_table>\w+)\s+ON\s+(?P<left_col>[\w.]+)\s*=\s*(?P<right_col>[\w.]+))?"
    r"(?:\s+WHERE\s+(?P<where>.+?))?"
    r"(?:\s+GROUP\s+BY\s+(?P<group>\w+))?"
    r"(?:\s+ORDER\s+BY\s+(?P<order>\w+)(?P<desc>\s+DESC)?)?"
    r"(?:\s+LIMIT\s+(?P<limit>\d+))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)

_AGG_RE = re.compile(r"^(?P<fn>COUNT|SUM|AVG|MIN|MAX)\s*\(\s*(?P<col>\*|[\w.]+)\s*\)$", re.IGNORECASE)
_COND_RE = re.compile(
    r"^(?P<col>[\w.]+)\s*(?P<op>=|!=|>=|<=|>|<|LIKE)\s*(?P<val>.+)$", re.IGNORECASE
)


@dataclass
class SQLQuery:
    """Parsed SQL AST for the supported subset."""

    select: List[str]
    table: str
    join_table: Optional[str] = None
    join_on: Optional[Tuple[str, str]] = None
    where: List[Tuple[str, str, str]] = field(default_factory=list)
    group_by: Optional[str] = None
    order_by: Optional[str] = None
    order_desc: bool = False
    limit: Optional[int] = None


def parse_sql(sql: str) -> SQLQuery:
    """Parse the SQL subset; raises :class:`ExecutionError` on bad syntax."""
    match = _SQL_RE.match(sql.strip())
    if match is None:
        raise ExecutionError(f"cannot parse SQL: {sql!r}")
    select = [part.strip() for part in match.group("select").split(",")]
    where: List[Tuple[str, str, str]] = []
    if match.group("where"):
        for cond in re.split(r"\s+AND\s+", match.group("where"), flags=re.IGNORECASE):
            cmatch = _COND_RE.match(cond.strip())
            if cmatch is None:
                raise ExecutionError(f"cannot parse condition: {cond!r}")
            where.append(
                (
                    cmatch.group("col"),
                    cmatch.group("op").upper(),
                    cmatch.group("val").strip().strip("'\""),
                )
            )
    join_on = None
    if match.group("join_table"):
        join_on = (match.group("left_col"), match.group("right_col"))
    return SQLQuery(
        select=select,
        table=match.group("table"),
        join_table=match.group("join_table"),
        join_on=join_on,
        where=where,
        group_by=match.group("group"),
        order_by=match.group("order"),
        order_desc=bool(match.group("desc")),
        limit=int(match.group("limit")) if match.group("limit") else None,
    )


def _strip_qualifier(col: str) -> str:
    return col.split(".")[-1]


def execute_sql(sql: str, tables: Dict[str, Table]) -> Table:
    """Execute a SQL string against named tables."""
    query = parse_sql(sql)
    if query.table not in tables:
        raise ExecutionError(f"unknown table {query.table!r}; have {sorted(tables)}")
    current = tables[query.table]
    if query.join_table:
        if query.join_table not in tables:
            raise ExecutionError(f"unknown join table {query.join_table!r}")
        assert query.join_on is not None
        left_col = _strip_qualifier(query.join_on[0])
        right_col = _strip_qualifier(query.join_on[1])
        try:
            current = current.join(
                tables[query.join_table], left_on=left_col, right_on=right_col
            )
        except SchemaError as exc:
            raise ExecutionError(str(exc)) from exc
    for col, op, val in query.where:
        col = _strip_qualifier(col)
        if col.lstrip("-").isdigit():
            # Constant predicate (e.g. ORM-generated "1 = 1"): fold it.
            try:
                left, right = float(col), float(val)
            except ValueError as exc:
                raise ExecutionError(f"non-numeric constant predicate {col} {op} {val}") from exc
            truth = {
                "=": left == right,
                "!=": left != right,
                ">": left > right,
                "<": left < right,
                ">=": left >= right,
                "<=": left <= right,
            }.get(op)
            if truth is None:
                raise ExecutionError(f"unsupported constant predicate {col} {op} {val}")
            if not truth:
                current = current.limit(0)
            continue
        if col not in current.schema:
            raise ExecutionError(f"unknown column {col!r} in WHERE")
        table_op = {"=": "==", "LIKE": "contains"}.get(op, op.lower())
        try:
            current = current.where(col, table_op, val)
        except SchemaError as exc:
            raise ExecutionError(str(exc)) from exc

    aggregates: Dict[str, Tuple[str, str]] = {}
    plain_cols: List[str] = []
    for item in query.select:
        amatch = _AGG_RE.match(item)
        if amatch:
            fn = amatch.group("fn").lower()
            col = _strip_qualifier(amatch.group("col"))
            out_name = f"{fn}_{col}".replace("*", "all")
            aggregates[out_name] = (fn, col if col != "*" else "")
        elif item == "*":
            plain_cols = current.schema.names()
        else:
            plain_cols.append(_strip_qualifier(item))

    if aggregates:
        keys = [query.group_by] if query.group_by else []
        try:
            current = current.group_by(keys, aggregates)
        except SchemaError as exc:
            raise ExecutionError(str(exc)) from exc
    elif plain_cols:
        missing = [c for c in plain_cols if c not in current.schema]
        if missing:
            raise ExecutionError(f"unknown columns {missing} in SELECT")
        current = current.project(plain_cols)

    if query.order_by:
        if query.order_by not in current.schema:
            raise ExecutionError(f"unknown ORDER BY column {query.order_by!r}")
        current = current.order_by(query.order_by, desc=query.order_desc)
    if query.limit is not None:
        current = current.limit(query.limit)
    return current


# --------------------------------------------------------------- LLM side
_NL_SQL_RE = re.compile(
    r"^(?P<agg>count|how many|average|avg|max|min|sum|list)\s+"
    r"(?:(?P<attribute>\w+)\s+of\s+)?(?P<table>\w+)"
    r"(?:\s+where\s+(?P<field>\w+)\s*(?P<op>==|!=|>=|<=|>|<|contains)\s*(?P<value>.+))?$",
    re.IGNORECASE,
)

_SQL_AGG = {
    "count": "COUNT(*)",
    "how many": "COUNT(*)",
    "average": "AVG",
    "avg": "AVG",
    "max": "MAX",
    "min": "MIN",
    "sum": "SUM",
}


def translate_question(question: str, schema: Dict[str, List[str]]) -> Optional[str]:
    """Deterministic gold translation of the NL grammar into SQL."""
    match = _NL_SQL_RE.match(question.strip().rstrip("?").strip())
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
    agg_word = match.group("agg").lower()
    attribute = match.group("attribute")
    if agg_word == "list":
        select = attribute or "*"
    elif agg_word in {"count", "how many"}:
        select = "COUNT(*)"
    else:
        if attribute is None:
            return None
        select = f"{_SQL_AGG[agg_word]}({attribute})"
    sql = f"SELECT {select} FROM {table}"
    if match.group("field"):
        op = {"==": "=", "contains": "LIKE"}.get(match.group("op"), match.group("op"))
        value = match.group("value").strip().strip("'\"")
        sql += f" WHERE {match.group('field')} {op} '{value}'"
    return sql


def make_sql_skill(schema: Dict[str, List[str]]):
    """Build a ``sql`` skill closure for :meth:`SimLLM.register_skill`.

    On a failed correctness draw the emitted SQL references a wrong column
    of the same table — the schema-mismatch hallucination the paper calls
    out ("strict correspondence with actual schema in NL2SQL").
    """

    def skill_sql(ctx: SkillContext):
        gold = translate_question(ctx.prompt.input, schema)
        if gold is None:
            return "SELECT * FROM unknown_table", {"reason": "unparseable"}
        if ctx.draw_correct(grounded=bool(ctx.prompt.fields.get("schema"))):
            return gold, {}
        # Corrupt a column reference.
        for table, columns in schema.items():
            if f"FROM {table}" in gold and columns:
                for col in columns:
                    if col in gold:
                        wrong = columns[(columns.index(col) + 1) % len(columns)]
                        return gold.replace(col, wrong, 1), {"reason": "schema-mismatch"}
        return gold.replace("FROM", "FROM wrong_", 1), {"reason": "schema-mismatch"}

    return skill_sql


@dataclass
class NL2SQLResult:
    """Outcome of one NL2SQL round trip."""

    question: str
    sql: str
    table: Optional[Table]
    attempts: int
    error: str = ""

    @property
    def scalar(self) -> Optional[str]:
        """The single-cell answer, when the result is 1x1."""
        if self.table is None or len(self.table) != 1:
            return None
        row = self.table.rows[0]
        if len(row) != 1:
            return None
        value = next(iter(row.values()))
        if isinstance(value, float):
            return f"{value:.1f}"
        return str(value)


class NL2SQLEngine:
    """LLM SQL generation with execution-guided retry."""

    def __init__(
        self, llm: SimLLM, tables: Dict[str, Table], *, max_retries: int = 2
    ) -> None:
        self.llm = llm
        self.tables = tables
        self.schema = {name: t.schema.names() for name, t in tables.items()}
        self.max_retries = max_retries
        llm.register_skill("sql", make_sql_skill(self.schema))

    def ask(self, question: str, *, verify: bool = True) -> NL2SQLResult:
        schema_text = "; ".join(
            f"{name}({', '.join(cols)})" for name, cols in sorted(self.schema.items())
        )
        attempts = 0
        last_sql, last_error = "", ""
        temperature = 0.0
        while attempts <= (self.max_retries if verify else 0):
            attempts += 1
            prompt = Prompt(
                task="sql",
                instruction="Translate the question into SQL over the given schema.",
                input=question,
                fields={"schema": schema_text},
            )
            response = self.llm.generate(
                prompt.render(), temperature=temperature, tag="nl2sql"
            )
            last_sql = response.text
            try:
                table = execute_sql(last_sql, self.tables)
                return NL2SQLResult(
                    question=question, sql=last_sql, table=table, attempts=attempts
                )
            except ExecutionError as exc:
                last_error = str(exc)
                temperature += 0.5  # shift the sampling seed for the retry
        return NL2SQLResult(
            question=question,
            sql=last_sql,
            table=None,
            attempts=attempts,
            error=last_error,
        )
