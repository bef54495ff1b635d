"""FROZEN naive semantic-pipeline executor — perf baseline, do not optimize.

This is the pre-optimizer execution strategy, inlined and pinned: operators
run in the written order, every per-row decision pays its own embedding /
predicate parse / model call, nothing is batched, nothing is cached, and
no planning happens.  The decision *procedures* are byte-for-byte the same
ones ``repro.semopt`` executes (same prompts, same thresholds, same
tie-breaks), so the optimized path must reproduce this executor's output
exactly — the harness asserts it inside every timed case.

Determinism note: per-text ``embed`` is bitwise-equal to the matching
``embed_batch`` row, and ``np.stack`` of per-row embeddings feeds the same
same-shape GEMM the batched join uses, so blocking candidate sets agree to
the last ulp.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.llm.model import SimLLM
from repro.llm.protocol import Prompt
from repro.semopt.plan import (
    Record,
    SemFilter,
    SemGroupCount,
    SemJoin,
    SemMap,
    SemPipeline,
    SemTopK,
)


# Frozen copy of the rule-predicate evaluator the naive side decides with;
# tests/test_semopt.py also holds ``compile_predicate`` equal to it.
_NUMERIC_RE = re.compile(r"^-?\d+(\.\d+)?$")

_PREDICATE_RE = re.compile(
    r"^(?P<field>[\w.]+)\s*(?P<op>==|!=|>=|<=|>|<|contains|in)\s*(?P<value>.+)$"
)


def evaluate_predicate(predicate: str, record: Dict[str, str]) -> Optional[bool]:
    """Ground-truth evaluation of ``field op literal`` over a record.

    Returns None when the predicate is unparseable or references a missing
    field — callers treat that as "model must guess".
    """
    match = _PREDICATE_RE.match(predicate.strip())
    if match is None:
        return None
    field = match.group("field")
    op = match.group("op")
    literal = match.group("value").strip().strip("'\"")
    actual = record.get(field)
    if actual is None:
        return None
    if op in {">", "<", ">=", "<="}:
        if not (_NUMERIC_RE.match(actual) and _NUMERIC_RE.match(literal)):
            return None
        a, b = float(actual), float(literal)
        return {"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b}[op]
    if op == "==":
        return actual.strip().lower() == literal.lower()
    if op == "!=":
        return actual.strip().lower() != literal.lower()
    if op == "contains":
        return literal.lower() in actual.lower()
    if op == "in":
        options = [part.strip().strip("'\"").lower() for part in literal.split(",")]
        return actual.strip().lower() in options
    return None


def _record_text(record: Record) -> str:
    return str(record.get("text") or json.dumps(record, sort_keys=True))


class NaiveSemExecutor:
    """One-call-per-decision reference executor (frozen baseline)."""

    def __init__(
        self,
        llm: SimLLM,
        *,
        proxy_low: float = 0.08,
        proxy_high: float = 0.30,
        tag: str = "naive",
    ) -> None:
        self.llm = llm
        self.embedder = llm.embedder
        self.proxy_low = proxy_low
        self.proxy_high = proxy_high
        self.tag = tag

    # ------------------------------------------------------------------ run
    def run(
        self, records: List[Record], pipeline: SemPipeline
    ) -> Tuple[List[Record], Optional[Dict[str, int]]]:
        rows = list(records)
        group_counts: Optional[Dict[str, int]] = None
        for step in pipeline.steps:
            if isinstance(step, SemFilter):
                rows = self._filter(rows, step)
            elif isinstance(step, SemMap):
                rows = self._map(rows, step)
            elif isinstance(step, SemJoin):
                rows = self._join(rows, step)
            elif isinstance(step, SemTopK):
                rows = self._topk(rows, step)
            elif isinstance(step, SemGroupCount):
                group_counts = self._group_count(rows, step)
        return rows, group_counts

    # ---------------------------------------------------------------- filter
    def _filter(self, rows: List[Record], step: SemFilter) -> List[Record]:
        predicate = step.predicate
        is_topical = predicate.strip().lower().startswith("is_about")
        topic = (
            predicate.strip()[len("is_about") :].strip().strip("'\"")
            if is_topical
            else ""
        )
        topic_vec = self.embedder.embed(topic) if is_topical else None
        kept: List[Record] = []
        for record in rows:
            decision: Optional[bool] = None
            if step.cascade:
                if is_topical and topic_vec is not None:
                    sim = float(
                        np.dot(topic_vec, self.embedder.embed(_record_text(record)))
                    )
                    if sim >= self.proxy_high:
                        decision = True
                    elif sim <= self.proxy_low:
                        decision = False
                else:
                    decision = evaluate_predicate(predicate, record)
            if decision is None:
                prompt = Prompt(
                    task="judge",
                    instruction="Decide whether the item satisfies the predicate.",
                    input=_record_text(record)
                    if is_topical
                    else json.dumps(record, sort_keys=True),
                    fields={"predicate": predicate},
                )
                response = self.llm.generate(prompt.render(), tag=self.tag)
                decision = response.text.strip().lower().startswith("y")
            if decision:
                kept.append(record)
        return kept

    # ------------------------------------------------------------------- map
    def _map(self, rows: List[Record], step: SemMap) -> List[Record]:
        out: List[Record] = []
        for record in rows:
            prompt = Prompt(
                task="map",
                instruction=step.instruction,
                input=json.dumps(record, sort_keys=True)
                if "field" in step.instruction
                else _record_text(record),
            )
            response = self.llm.generate(prompt.render(), tag=self.tag)
            merged = dict(record)
            merged[step.output_field] = response.text
            out.append(merged)
        return out

    # ------------------------------------------------------------------ join
    def _join(self, rows: List[Record], step: SemJoin) -> List[Record]:
        right = list(step.right)
        if not rows or not right:
            return []
        if step.blocking:
            left_vecs = np.stack(
                [self.embedder.embed(str(r.get(step.left_key, ""))) for r in rows]
            )
            right_vecs = np.stack(
                [self.embedder.embed(str(r.get(step.right_key, ""))) for r in right]
            )
            sims = left_vecs @ right_vecs.T
            candidates = [
                (i, j)
                for i in range(len(rows))
                for j in range(len(right))
                if sims[i, j] >= step.blocking_threshold
            ]
        else:
            candidates = [
                (i, j) for i in range(len(rows)) for j in range(len(right))
            ]
        merged: List[Record] = []
        for i, j in candidates:
            prompt = Prompt(
                task="join",
                instruction="Do these records refer to the same entity?",
                input=json.dumps(rows[i], sort_keys=True)
                + "\n---\n"
                + json.dumps(right[j], sort_keys=True),
                fields={"left_key": step.left_key, "right_key": step.right_key},
            )
            response = self.llm.generate(prompt.render(), tag=self.tag)
            if response.text.strip().lower().startswith("y"):
                merged.append(
                    {
                        **dict(rows[i]),
                        **{
                            f"{step.right_prefix}{key}": value
                            for key, value in right[j].items()
                        },
                    }
                )
        return merged

    # ------------------------------------------------------------------ topk
    def _topk(self, rows: List[Record], step: SemTopK) -> List[Record]:
        pool = list(rows)
        while len(pool) > step.group_size:
            next_pool: List[Record] = []
            for start in range(0, len(pool), step.group_size):
                group = pool[start : start + step.group_size]
                ranked = self._rank_group(group, step.query)
                next_pool.extend(ranked[: max(step.k, 1)])
            if len(next_pool) >= len(pool):
                pool = next_pool[: max(len(pool) - 1, step.k)]
            else:
                pool = next_pool
        final = self._rank_group(pool, step.query)
        return final[: step.k]

    def _rank_group(self, group: List[Record], query: str) -> List[Record]:
        if len(group) <= 1:
            return list(group)
        context = "\n".join(f"[{i}] {_record_text(r)}" for i, r in enumerate(group))
        prompt = Prompt(task="rank", context=context, input=query)
        response = self.llm.generate(prompt.render(), tag=self.tag)
        order: List[int] = []
        for part in response.text.split(","):
            part = part.strip()
            if part.isdigit() and int(part) < len(group) and int(part) not in order:
                order.append(int(part))
        for i in range(len(group)):
            if i not in order:
                order.append(i)
        return [group[i] for i in order]

    # ----------------------------------------------------------- group_count
    def _group_count(
        self, rows: List[Record], step: SemGroupCount
    ) -> Dict[str, int]:
        counts: Dict[str, int] = {c: 0 for c in step.classes}
        for record in rows:
            prompt = Prompt(
                task="label",
                instruction="Classify the item.",
                input=_record_text(record),
                fields={"classes": " | ".join(step.classes)},
            )
            response = self.llm.generate(prompt.render(), tag=self.tag)
            label = response.text.strip()
            if label in counts:
                counts[label] += 1
        return counts
