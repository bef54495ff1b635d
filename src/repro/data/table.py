"""Minimal typed relational engine: the one relation type.

The structured leg of the multi-modal data lake (Figure 1 "Structured
Tables"). NL2SQL, NL2Viz, query rewriting, plan selection, document
analytics and the lake plan executor all run on :class:`Table`.

A table stores typed columns and reads them through row-id selections, so
every operator returns a view that shares its input's columns instead of
copying rows. Each stored column builds its indexes (floats, a float64
array with NaN for the cells that are not numeric, folded text, lowered
text, value -> row ids) on first use and keeps them for its life; columns
are never mutated, so an :meth:`Table.insert` builds new ones and a view
made before it keeps its rows. Supports where / project / join / group-by
aggregation / order / limit / distinct over typed columns and the lake's
string-filter verdicts (:meth:`Table.matching`), with schema validation on
construction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError, SchemaError

Row = Dict[str, Any]

#: Stored row ids in table order; ``None`` reads every stored cell in order.
#: Selections are shared between views and never mutated.
Selection = Optional[List[int]]

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
        """Coerce ``value`` to this column's type (None passes through). An
        int column takes an integral float (``3.0``) but refuses a
        fractional, infinite or NaN one rather than truncate it."""
        if value is None:
            return None
        target = _TYPES[self.dtype]
        if isinstance(value, target) and not (target is int and isinstance(value, bool)):
            return value
        if target is int and isinstance(value, (float, np.floating)):
            if not float(value).is_integer():
                raise SchemaError(f"cannot coerce {value!r} to int for column {self.name!r}")
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
    """Ordered column list with name uniqueness; columns are found by name
    through a dict built once."""

    columns: Tuple[Column, ...]
    _by_name: Dict[str, Column] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name = {c.name: c for c in self.columns}
        if len(by_name) != len(self.columns):
            raise SchemaError(f"duplicate column names in {[c.name for c in self.columns]}")
        object.__setattr__(self, "_by_name", by_name)

    @classmethod
    def of(cls, **dtypes: str) -> "Schema":
        return cls(tuple(Column(name, dtype) for name, dtype in dtypes.items()))

    def names(self) -> List[str]:
        return list(self._by_name)

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no column {name!r}; have {self.names()}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


_AGGREGATES: Dict[str, Callable[[List[Any]], Any]] = {
    "count": len,
    "sum": lambda vs: sum(vs) if vs else 0,
    "avg": lambda vs: (sum(vs) / len(vs)) if vs else None,
    "min": lambda vs: min(vs) if vs else None,
    "max": lambda vs: max(vs) if vs else None,
}

_COMPARE: Dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    "<": operator.lt,
    ">=": operator.ge,
    "<=": operator.le,
}


def _order_op(op: str) -> Callable[[float, float], bool]:
    """The comparison behind a string-filter order op (the string filter
    resolves ``contains``, ``==`` and ``!=`` before asking); any other op
    raises :class:`~repro.errors.ExecutionError` naming the filter ops."""
    compare = _COMPARE.get(op)
    if compare is None:
        raise ExecutionError(
            f"unknown filter op {op!r}; expected one of == != < > <= >= contains"
        )
    return compare


def _as_float(cell: object) -> Optional[float]:
    try:  # a missing cell reads "None", which is not numeric either
        return float(str(cell))
    except (TypeError, ValueError):
        return None


def _bound(col: Column, value: Any) -> Any:
    """The literal ``where`` compares ``col``'s cells with: coerced to the
    column's dtype, except that an int column compares a float, or a
    numeric text that is not an int, as a float (``2.5``, ``"2.5"``,
    ``"2.0"``), as SQL compares numbers; anything else that does not
    coerce raises :class:`~repro.errors.SchemaError`."""
    if col.dtype == "int" and isinstance(value, float):
        return value
    try:
        return col.coerce(value)
    except SchemaError:
        number = _as_float(value) if col.dtype == "int" else None
        if number is None:
            raise
        return number


def _group(values: List[Any]) -> Dict[Any, List[int]]:
    """Value -> the ascending positions that hold it."""
    index: Dict[Any, List[int]] = {}
    for position, value in enumerate(values):
        index.setdefault(value, []).append(position)
    return index


def _through(values: List[Any], rows: Selection) -> List[Any]:
    return values if rows is None else [values[i] for i in rows]


class _Column:
    """One stored column: its cells plus indexes built on first use."""

    def __init__(self, cells: List[Any]) -> None:
        self.cells = cells

    @cached_property
    def floats(self) -> List[Optional[float]]:
        """Each cell as ``float(str(cell))``, None where that fails: the aggregates."""
        return [_as_float(cell) for cell in self.cells]

    @cached_property
    def numbers(self) -> np.ndarray:
        """:attr:`floats` as float64, NaN for None: the order ops, under
        which a NaN never compares true, as a missing cell never matches."""
        return np.array([np.nan if x is None else x for x in self.floats], dtype=np.float64)

    @cached_property
    def folded(self) -> List[Optional[str]]:
        """Each cell's stripped, lowered text (None stays None): ``==``/``!=``."""
        return [None if cell is None else str(cell).strip().lower() for cell in self.cells]

    @cached_property
    def equal(self) -> Dict[Any, List[int]]:
        """Folded text -> ascending row ids."""
        return _group(self.folded)

    @cached_property
    def lowered(self) -> List[Optional[str]]:
        """Each cell's lowered text: ``contains``."""
        return [None if cell is None else str(cell).lower() for cell in self.cells]

    @cached_property
    def keys(self) -> Dict[Any, List[int]]:
        """Cell value -> ascending row ids: the join index."""
        return _group(self.cells)

    @cached_property
    def code_of(self) -> Dict[Any, int]:
        """Cell value -> its code: the value's position among :attr:`keys`."""
        return {value: code for code, value in enumerate(self.keys)}

    @cached_property
    def codes(self) -> np.ndarray:
        """Each cell's code as an intp array: the inner join's probe side."""
        return np.fromiter(map(self.code_of.__getitem__, self.cells), np.intp, len(self.cells))


class Table:
    """A relation over typed columns; every operator returns a new view.

    ``_columns`` maps a column name to the index of its selection and its
    stored column. Columns stored together share one selection, so a join
    output holds its left input's selections, then its right input's.

    Numeric reads go through each stored column's cached floats: the
    aggregates read them as a list (None where a cell is not numeric), and
    :meth:`matching`'s order ops are one numpy mask over them as a float64
    array, NaN where a cell is not numeric, indexed by the view's selection.
    """

    def __init__(self, name: str, schema: Schema, rows: Iterable[Row] = ()) -> None:
        clean = [self._validate(schema, row) for row in rows]
        cells = zip(*clean) if clean else [()] * len(schema.columns)
        self.name = name
        self.schema = schema
        self._columns = {
            col.name: (0, _Column(list(column))) for col, column in zip(schema.columns, cells)
        }
        self._selections: Tuple[Selection, ...] = (None,)
        self._length = len(clean)

    @classmethod
    def _view(
        cls,
        name: str,
        schema: Schema,
        columns: Dict[str, Tuple[int, _Column]],
        selections: Tuple[Selection, ...],
        length: int,
    ) -> "Table":
        view = cls.__new__(cls)
        view.name, view.schema = name, schema
        view._columns, view._selections, view._length = columns, selections, length
        return view

    @staticmethod
    def _validate(schema: Schema, row: Row) -> List[Any]:
        return [col.coerce(row.get(col.name)) for col in schema.columns]

    # ----------------------------------------------------------- mutation
    def insert(self, row: Row) -> None:
        """Append one validated row. Copy-on-write: the table gets new
        columns, so views made before the insert never see the row."""
        clean = self._validate(self.schema, row)
        self._columns = {
            col.name: (0, _Column(self.cells(col.name) + [value]))
            for col, value in zip(self.schema.columns, clean)
        }
        self._selections = (None,)
        self._length += 1

    # ---------------------------------------------------------- operators
    def where(self, column: str, op: str, value: Any) -> "Table":
        """Select on one column (ops: == != > < >= <= contains); a missing
        cell never matches. An unknown op raises, even on an empty table."""
        col = self.schema.column(column)
        compare = _COMPARE.get(op)
        if op == "contains":
            needle = str(value).lower()
            stored, rows = self._read(column)
            texts = _through(stored.lowered, rows)
            kept = [p for p, text in enumerate(texts) if text is not None and needle in text]
        elif compare is None:
            raise SchemaError(f"unknown operator {op!r}")
        else:
            value = _bound(col, value)
            cells = self.cells(column)
            kept = [p for p, cell in enumerate(cells) if cell is not None and compare(cell, value)]
        return self.take(kept, f"{self.name}_sel")

    def matching(self, name: str, op: str, literal: str) -> List[int]:
        """Row numbers whose ``name`` cell passes the lake's string filter,
        in order.

        A missing cell never matches; ``==``/``!=`` compare stripped,
        lowered text with the lowered literal; ``contains`` is a lowered
        substring test; the order ops compare floats and fail on a
        non-numeric side. Any other op raises
        :class:`~repro.errors.ExecutionError`, and an unknown column
        :class:`~repro.errors.SchemaError`.
        """
        column, rows = self._read(name)
        needle = literal.lower()
        if op == "contains":
            texts = _through(column.lowered, rows)
            return [p for p, text in enumerate(texts) if text is not None and needle in text]
        if op == "==" and rows is None:
            return list(column.equal.get(needle, ()))
        if op in ("==", "!="):
            want = op == "=="
            texts = _through(column.folded, rows)
            return [p for p, text in enumerate(texts) if text is not None and (text == needle) == want]
        compare = _order_op(op)
        try:
            bound = float(literal)
        except ValueError:
            return []
        numbers = column.numbers if rows is None else column.numbers[rows]
        return np.flatnonzero(compare(numbers, bound)).tolist()

    def take(self, positions: List[int], name: str) -> "Table":
        """The rows at ``positions`` (row numbers of this table), in order."""
        return self._view(name, self.schema, self._columns, self._narrow(positions), len(positions))

    def project(self, columns: Sequence[str]) -> "Table":
        schema = Schema(tuple(self.schema.column(c) for c in columns))
        picked = {c: self._columns[c] for c in columns}
        return self._view(f"{self.name}_proj", schema, picked, self._selections, self._length)

    def join(
        self,
        other: "Table",
        *,
        left_on: str,
        right_on: str,
        how: str = "inner",
    ) -> "Table":
        """Hash equi-join: left rows in order, each one's matches in right
        order; ``left`` also keeps unmatched left rows with missing right
        cells. A right column whose name is taken on the left is prefixed
        with the right table's name; a prefixed name still taken raises."""
        self.schema.column(left_on)
        other.schema.column(right_on)
        if how not in {"inner", "left"}:
            raise SchemaError(f"unsupported join type {how!r}")
        right_columns = tuple(
            Column(f"{other.name}.{c.name}", c.dtype) if c.name in self.schema else c
            for c in other.schema.columns
        )
        try:
            schema = Schema(self.schema.columns + right_columns)
        except SchemaError:
            names = self.schema.names() + [c.name for c in right_columns]
            raise SchemaError(
                f"join of {self.name!r} and {other.name!r} repeats a column in {names}"
            ) from None
        # An inner join probes the side with more rows through its cached
        # codes (see _inner_pairs); otherwise each left row probes the right
        # side's key index.
        if how == "inner" and len(other) <= len(self):
            lefts, rights = self._inner_pairs(left_on, other, right_on)
        else:
            index = other._key_index(right_on)
            unmatched: Sequence[int] = ()
            if how == "left":  # an unmatched left row reads an appended all-missing row
                unmatched = (len(other),)
                other = other.take(list(range(len(other))), other.name)
                other.insert({})
            lefts, rights = [], []
            for left, key in enumerate(self.cells(left_on)):
                matches = index.get(key, unmatched)
                lefts += [left] * len(matches)
                rights += matches
        columns = dict(self._columns)
        selections = self._narrow(lefts)
        for c, out in zip(other.schema.columns, right_columns):
            part, column = other._columns[c.name]
            columns[out.name] = (len(selections) + part, column)
        selections += other._narrow(rights)
        return self._view(f"{self.name}_{other.name}", schema, columns, selections, len(lefts))

    def _inner_pairs(
        self, left_on: str, other: "Table", right_on: str
    ) -> Tuple[List[int], List[int]]:
        """Row numbers of every (left, right) pair with equal keys, left-major
        and each left row's matches in right order.

        When no two right rows share a key, the left column's value codes
        pair them without a Python object per pair: each right row's key is
        coded by the left column, and one gather through the left rows'
        codes finds each one's match. Otherwise the pairs come from the left
        column's key index, sorted stably on the left row.
        """
        keys = other.cells(right_on)
        if len(set(keys)) < len(keys):
            index = self._key_index(left_on)
            pairs = [(left, right) for right, key in enumerate(keys) for left in index.get(key, ())]
            pairs.sort(key=operator.itemgetter(0))
            return [left for left, _ in pairs], [right for _, right in pairs]
        column, rows = self._read(left_on)
        right_of = np.full(len(column.code_of) + 1, -1, dtype=np.intp)
        # A key the left lacks is coded -1 and writes the spare last slot,
        # which no left code reads.
        codes = np.fromiter(map(column.code_of.get, keys, repeat(-1)), np.intp, len(keys))
        right_of[codes] = np.arange(len(keys))
        hits = right_of[column.codes if rows is None else column.codes[rows]]
        lefts = np.flatnonzero(hits >= 0)
        return lefts.tolist(), hits[lefts].tolist()

    def group_by(
        self,
        keys: Sequence[str],
        aggregates: Dict[str, Tuple[str, str]],
    ) -> "Table":
        """Group and aggregate.

        ``aggregates`` maps output column -> (function, input column).
        Functions: count, sum, avg, min, max; all but ``count`` skip missing
        cells. ``count`` with an empty input column counts rows (SQL's
        ``COUNT(*)``), and with a named one its non-missing cells
        (``COUNT(col)``). With no keys the output is one row, also over zero
        rows (``count`` 0, ``sum`` 0.0, the others None), as SQL answers an
        aggregate without GROUP BY.
        """
        for key in keys:
            self.schema.column(key)
        for fn, col in aggregates.values():
            if fn not in _AGGREGATES:
                raise SchemaError(f"unknown aggregate {fn!r}")
            if fn != "count" or col:
                self.schema.column(col)
        out_cols = [self.schema.column(k) for k in keys]
        for out_name, (fn, _col) in aggregates.items():
            out_cols.append(Column(out_name, "int" if fn == "count" else "float"))
        schema = Schema(tuple(out_cols))
        key_cells = [self.cells(k) for k in keys]
        groups: Dict[Tuple, List[int]] = {}
        for p in range(self._length):
            groups.setdefault(tuple(cells[p] for cells in key_cells), []).append(p)
        if not keys and not groups:
            groups[()] = []
        inputs = {col: self.cells(col) for _fn, col in aggregates.values() if col}
        out_rows = []
        for key_values, members in sorted(groups.items(), key=lambda kv: str(kv[0])):
            agg_row: Row = dict(zip(keys, key_values))
            for out_name, (fn, col) in aggregates.items():
                if fn == "count" and not col:
                    agg_row[out_name] = len(members)
                    continue
                cells = inputs[col]
                values = [cells[p] for p in members if cells[p] is not None]
                if fn == "count":
                    agg_row[out_name] = len(values)
                    continue
                try:
                    result = _AGGREGATES[fn](values)
                    agg_row[out_name] = float(result) if result is not None else None
                except (TypeError, ValueError) as exc:
                    raise SchemaError(
                        f"aggregate {fn!r} needs numeric column {col!r}"
                    ) from exc
            out_rows.append(agg_row)
        return Table(f"{self.name}_agg", schema, out_rows)

    def order_by(self, column: str, *, desc: bool = False) -> "Table":
        """Stable sort on one column; missing cells sort after every value
        (before them with ``desc``)."""
        self.schema.column(column)
        cells = self.cells(column)
        order = sorted(
            range(self._length), key=lambda p: (cells[p] is None, cells[p]), reverse=desc
        )
        return self.take(order, self.name)

    def limit(self, n: int) -> "Table":
        return self.take(list(range(min(max(n, 0), self._length))), self.name)

    def distinct(self) -> "Table":
        columns = [self.cells(c) for c in self.schema.names()]
        seen = set()
        kept = []
        for p in range(self._length):
            key = tuple(cells[p] for cells in columns)
            if key not in seen:
                seen.add(key)
                kept.append(p)
        return self.take(kept, self.name)

    # -------------------------------------------------------------- access
    @property
    def rows(self) -> List[Row]:
        """Each row as a fresh dict in schema order (edits are not stored)."""
        columns = [(c, self.cells(c)) for c in self.schema.names()]
        return [{c: cells[p] for c, cells in columns} for p in range(self._length)]

    def records(self) -> List[Dict[str, str]]:
        """Each row as a string record without its missing cells."""
        return [{k: str(v) for k, v in row.items() if v is not None} for row in self.rows]

    def cells(self, name: str) -> List[Any]:
        """One column's cells in row order (read-only: may be the stored list)."""
        column, rows = self._read(name)
        return _through(column.cells, rows)

    def floats(self, name: str) -> List[Optional[float]]:
        """One column's cells as ``float(str(cell))`` in row order, None
        where that fails (read-only: may be the stored column's cache)."""
        column, rows = self._read(name)
        return _through(column.floats, rows)

    def column_values(self, column: str) -> List[Any]:
        self.schema.column(column)
        return list(self.cells(column))

    def _read(self, name: str) -> Tuple[_Column, Selection]:
        try:
            part, column = self._columns[name]
        except KeyError:
            raise SchemaError(f"no column {name!r}; have {self.schema.names()}") from None
        return column, self._selections[part]

    def _key_index(self, name: str) -> Dict[Any, List[int]]:
        """Cell value -> ascending row numbers: the stored column's cached
        index when the column is read whole."""
        column, rows = self._read(name)
        return column.keys if rows is None else _group(_through(column.cells, rows))

    def _narrow(self, positions: List[int]) -> Tuple[Selection, ...]:
        """The selections of the rows at ``positions``."""
        return tuple(
            positions if rows is None else list(map(rows.__getitem__, positions))
            for rows in self._selections
        )

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        return f"Table({self.name!r}, cols={self.schema.names()}, rows={len(self)})"
