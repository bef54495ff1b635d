"""Minimal typed relational engine.

The structured leg of the multi-modal data lake (Figure 1 "Structured
Tables") and the execution substrate for NL2SQL; lake plans read these
tables through the plan executor's column cache. Supports select / project
/ join / group-by aggregation / order / limit over typed columns, with
schema validation on construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from ..errors import SchemaError

Row = Dict[str, Any]
Predicate = Callable[[Row], bool]

_TYPES: Dict[str, type] = {"str": str, "int": int, "float": float, "bool": bool}


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    dtype: str = "str"

    def __post_init__(self) -> None:
        if self.dtype not in _TYPES:
            raise SchemaError(f"unknown dtype {self.dtype!r}; choose from {sorted(_TYPES)}")

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this column's type (None passes through)."""
        if value is None:
            return None
        target = _TYPES[self.dtype]
        if isinstance(value, target) and not (target is int and isinstance(value, bool)):
            return value
        try:
            if target is bool:
                return str(value).strip().lower() in {"1", "true", "yes"}
            return target(value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"cannot coerce {value!r} to {self.dtype} for column {self.name!r}"
            ) from exc


@dataclass(frozen=True)
class Schema:
    """Ordered column list with name uniqueness."""

    columns: Tuple[Column, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")

    @classmethod
    def of(cls, **dtypes: str) -> "Schema":
        return cls(tuple(Column(name, dtype) for name, dtype in dtypes.items()))

    def names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"no column {name!r}; have {self.names()}")

    def __contains__(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)


_AGGREGATES: Dict[str, Callable[[List[Any]], Any]] = {
    "count": len,
    "sum": lambda vs: sum(vs) if vs else 0,
    "avg": lambda vs: (sum(vs) / len(vs)) if vs else None,
    "min": lambda vs: min(vs) if vs else None,
    "max": lambda vs: max(vs) if vs else None,
}


class Table:
    """An immutable-by-convention relation: every operator returns a new Table."""

    def __init__(self, name: str, schema: Schema, rows: Iterable[Row] = ()) -> None:
        self.name = name
        self.schema = schema
        self.rows: List[Row] = []
        for row in rows:
            self.rows.append(self._validate(row))

    def _validate(self, row: Row) -> Row:
        clean: Row = {}
        for col in self.schema.columns:
            clean[col.name] = col.coerce(row.get(col.name))
        return clean

    # ----------------------------------------------------------- mutation
    def insert(self, row: Row) -> None:
        self.rows.append(self._validate(row))

    # ---------------------------------------------------------- operators
    def select(self, predicate: Predicate) -> "Table":
        out = Table(f"{self.name}_sel", self.schema)
        out.rows = [dict(r) for r in self.rows if predicate(r)]
        return out

    def where(self, column: str, op: str, value: Any) -> "Table":
        """Convenience select on one column (ops: == != > < >= <= contains)."""
        col = self.schema.column(column)
        value = col.coerce(value) if op not in {"contains"} else value

        def predicate(row: Row) -> bool:
            actual = row.get(column)
            if actual is None:
                return False
            if op == "==":
                return actual == value
            if op == "!=":
                return actual != value
            if op == ">":
                return actual > value
            if op == "<":
                return actual < value
            if op == ">=":
                return actual >= value
            if op == "<=":
                return actual <= value
            if op == "contains":
                return str(value).lower() in str(actual).lower()
            raise SchemaError(f"unknown operator {op!r}")

        return self.select(predicate)

    def project(self, columns: Sequence[str]) -> "Table":
        cols = tuple(self.schema.column(c) for c in columns)
        out = Table(f"{self.name}_proj", Schema(cols))
        out.rows = [{c: row[c] for c in columns} for row in self.rows]
        return out

    def join(
        self,
        other: "Table",
        *,
        left_on: str,
        right_on: str,
        how: str = "inner",
    ) -> "Table":
        """Hash join; right columns are prefixed on name collisions."""
        self.schema.column(left_on)
        other.schema.column(right_on)
        if how not in {"inner", "left"}:
            raise SchemaError(f"unsupported join type {how!r}")
        left_names = set(self.schema.names())
        renamed = {
            c.name: (f"{other.name}.{c.name}" if c.name in left_names else c.name)
            for c in other.schema.columns
        }
        out_cols = tuple(self.schema.columns) + tuple(
            Column(renamed[c.name], c.dtype) for c in other.schema.columns
        )
        out = Table(f"{self.name}_{other.name}", Schema(out_cols))
        build: Dict[Any, List[Row]] = {}
        for row in other.rows:
            build.setdefault(row.get(right_on), []).append(row)
        for row in self.rows:
            matches = build.get(row.get(left_on), [])
            if matches:
                for match in matches:
                    merged = dict(row)
                    for key, value in match.items():
                        merged[renamed[key]] = value
                    out.rows.append(merged)
            elif how == "left":
                merged = dict(row)
                for key in renamed.values():
                    merged[key] = None
                out.rows.append(merged)
        return out

    def group_by(
        self,
        keys: Sequence[str],
        aggregates: Dict[str, Tuple[str, str]],
    ) -> "Table":
        """Group and aggregate.

        ``aggregates`` maps output column -> (function, input column); the
        input column is ignored for ``count``. Functions: count, sum, avg,
        min, max.
        """
        for key in keys:
            self.schema.column(key)
        for out_name, (fn, col) in aggregates.items():
            if fn not in _AGGREGATES:
                raise SchemaError(f"unknown aggregate {fn!r}")
            if fn != "count":
                self.schema.column(col)
        groups: Dict[Tuple, List[Row]] = {}
        for row in self.rows:
            groups.setdefault(tuple(row.get(k) for k in keys), []).append(row)
        out_cols = [self.schema.column(k) for k in keys]
        for out_name, (fn, _col) in aggregates.items():
            dtype = "int" if fn == "count" else "float"
            out_cols.append(Column(out_name, dtype))
        out = Table(f"{self.name}_agg", Schema(tuple(out_cols)))
        for key_values, rows in sorted(groups.items(), key=lambda kv: str(kv[0])):
            agg_row: Row = dict(zip(keys, key_values))
            for out_name, (fn, col) in aggregates.items():
                if fn == "count":
                    agg_row[out_name] = len(rows)
                else:
                    values = [r[col] for r in rows if r.get(col) is not None]
                    try:
                        result = _AGGREGATES[fn](values)
                        agg_row[out_name] = (
                            float(result) if result is not None else None
                        )
                    except (TypeError, ValueError) as exc:
                        raise SchemaError(
                            f"aggregate {fn!r} needs numeric column {col!r}"
                        ) from exc
            out.rows.append(out._validate(agg_row))
        return out

    def order_by(self, column: str, *, desc: bool = False) -> "Table":
        self.schema.column(column)
        out = Table(self.name, self.schema)
        out.rows = sorted(
            (dict(r) for r in self.rows),
            key=lambda r: (r.get(column) is None, r.get(column)),
            reverse=desc,
        )
        return out

    def limit(self, n: int) -> "Table":
        out = Table(self.name, self.schema)
        out.rows = [dict(r) for r in self.rows[: max(n, 0)]]
        return out

    def distinct(self) -> "Table":
        out = Table(self.name, self.schema)
        seen = set()
        for row in self.rows:
            key = tuple(sorted(row.items()))
            if key not in seen:
                seen.add(key)
                out.rows.append(dict(row))
        return out

    # -------------------------------------------------------------- access
    def column_values(self, column: str) -> List[Any]:
        self.schema.column(column)
        return [row.get(column) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, cols={self.schema.names()}, rows={len(self)})"
