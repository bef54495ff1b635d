"""Semantic operators over unstructured records (LOTUS [43] / PALIMPZEST [35]).

Operators take lists of records (``dict`` with string fields, usually
including ``text``) and apply LLM-powered relational semantics:

* :meth:`SemanticOperators.sem_filter` — keep records satisfying a natural
  predicate; optional **cascade** optimization decides confident cases with
  a free proxy (structured-field rule evaluation, or an embedding
  double-threshold for topical predicates) and reserves LLM calls for the
  uncertain band — the central cost optimization of the cited systems;
* :meth:`SemanticOperators.sem_map` — per-record transformation;
* :meth:`SemanticOperators.sem_join` — semantic equi-join with embedding
  **blocking** so only plausible pairs pay an LLM call (vs. the naive
  |L|x|R| cross product);
* :meth:`SemanticOperators.sem_topk` — tournament top-k ranking;
* :meth:`SemanticOperators.sem_group_count` — classify-and-count
  aggregation.

Every operator returns an :class:`OpStats` documenting LLM calls saved.

All operators run on **batched kernels**: proxy embeddings go through
one ``embed_batch`` over the record texts (the embedder's memo embeds each
distinct text once), rule predicates are compiled once per operator
(:func:`repro.llm.skills.compile_predicate`), and every LLM round is a
single :meth:`~repro.llm.model.SimLLM.generate_many` call.  The per-record
decisions are bit-identical to the historical one-call-per-record loop —
the batching only amortizes tokenizer/parse/RNG overhead.

``llm_calls``/``usd`` in :class:`OpStats` are **ledger deltas**: each
operator snapshots the shared :class:`~repro.llm.cost.UsageLedger` entry
for its ``tag`` before and after, so the numbers reflect what was actually
charged (a cache hit that charges nothing is *not* an LLM call) and the
per-operator sum always reconciles with the ledger total.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..llm.cache import CachedLLM
from ..llm.cost import Usage
from ..llm.embedding import EmbeddingModel
from ..llm.model import SimLLM
from ..llm.protocol import Prompt
from ..llm.skills import compile_predicate

Record = Dict[str, str]


@dataclass
class OpStats:
    """Per-operator accounting: where did decisions come from?

    ``llm_calls`` and ``usd`` are measured as deltas of the model's usage
    ledger under the operator's tag — charged calls only.  ``cache_hits``
    and ``cache_misses`` report cache-layer traffic when the operator runs
    over a :class:`~repro.llm.cache.CachedLLM`; both stay 0 over a bare
    model.
    """

    llm_calls: int = 0
    proxy_decisions: int = 0
    rule_decisions: int = 0
    candidates_considered: int = 0
    usd: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0


#: float32 unit roundoff.
_UNIT_ROUNDOFF = 2.0**-24


def _proxy_guard(dim: int) -> float:
    """Half-width of the band around ``proxy_low``/``proxy_high`` inside
    which the topical proxy recomputes a row's similarity per row.

    For float32 vectors ``x``, ``y`` of length ``n``, a computed dot product
    in any summation order is within ``gamma_n * sum|x_i * y_i|`` of the
    exact one, ``gamma_n = n*u / (1 - n*u)``, ``u = 2**-24`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, section 3.1); one more
    rounding to float32 at the end, or a wider accumulator, stays inside
    it. The embedder's vectors are unit norm up to one rounding per
    component, so ``sum|x_i * y_i| <= |x| |y| <= (1 + u)**2``. The matvec
    entry and the per-row ``np.dot`` are both that close to the exact
    value, so they differ by at most twice the bound: outside the band
    both sit on the same side of each threshold. The bound grows with the
    dimension, so the band is derived from the vectors' length (0.0000153
    at the embedder's default 128), not set.
    """
    u = _UNIT_ROUNDOFF
    return 2.0 * (dim * u / (1.0 - dim * u)) * (1.0 + u) ** 2


def _record_text(record: Record) -> str:
    return str(record.get("text") or json.dumps(record, sort_keys=True))


def _prompt_head(task: str, instruction: str, fields: Dict[str, str]) -> str:
    """The rendered prompt up to its input: a :class:`Prompt` with no
    context or examples renders as this head followed by its input."""
    return Prompt(task=task, instruction=instruction, fields=fields).render()


def _is_topical(predicate: str) -> bool:
    return predicate.strip().lower().startswith("is_about")


def _topic_of(predicate: str) -> str:
    return predicate.strip()[len("is_about") :].strip().strip("'\"")


def _judge_prompts(rows: Sequence[Record], predicate: str) -> List[str]:
    """Each row's judge prompt: one rendered head plus the row's input."""
    head = _prompt_head(
        "judge", "Decide whether the item satisfies the predicate.", {"predicate": predicate}
    )
    if _is_topical(predicate):
        return [head + _record_text(row) for row in rows]
    return [head + json.dumps(row, sort_keys=True) for row in rows]


class SemanticOperators:
    """LLM-powered relational operators with cost optimizations."""

    def __init__(
        self,
        llm: SimLLM,
        *,
        embedder: Optional[EmbeddingModel] = None,
        proxy_low: float = 0.08,
        proxy_high: float = 0.30,
    ) -> None:
        if proxy_low > proxy_high:
            raise ConfigError("proxy_low must be <= proxy_high")
        self.llm = llm
        self.embedder = embedder or llm.embedder
        self.proxy_low = proxy_low
        self.proxy_high = proxy_high

    # --------------------------------------------------------- accounting
    def _ledger_usage(self, tag: str) -> Usage:
        return self.llm.ledger.by_tag.get(tag, Usage())

    def _cache_counters(self) -> Tuple[int, int]:
        """(hits, misses) of a :class:`CachedLLM`, or (0, 0) over a bare model."""
        if not isinstance(self.llm, CachedLLM):
            return 0, 0
        return self.llm.stats.hits, self.llm.stats.misses

    def _finish(
        self,
        stats: OpStats,
        tag: str,
        usage_before: Usage,
        cache_before: Tuple[int, int],
    ) -> OpStats:
        delta = self._ledger_usage(tag) - usage_before
        stats.llm_calls = delta.calls
        stats.usd = delta.usd
        hits_after, misses_after = self._cache_counters()
        stats.cache_hits = hits_after - cache_before[0]
        stats.cache_misses = misses_after - cache_before[1]
        return stats

    # --------------------------------------------------------- sem_filter
    def sem_filter(
        self,
        records: Sequence[Record],
        predicate: str,
        *,
        cascade: bool = False,
        tag: str = "sem_filter",
    ) -> Tuple[List[Record], OpStats]:
        """Keep records satisfying ``predicate``.

        Predicate forms: ``field op literal`` (see
        :func:`repro.llm.skills.compile_predicate`) or ``is_about <topic>``.
        With ``cascade=True``, confident cases are decided without the LLM.
        """
        rows = list(records)
        stats = OpStats(candidates_considered=len(rows))
        usage_before = self._ledger_usage(tag)
        cache_before = self._cache_counters()
        decisions = self.filter_decisions(rows, predicate, cascade=cascade, stats=stats)
        pending = [i for i, decision in enumerate(decisions) if decision is None]
        if pending:
            prompts = _judge_prompts([rows[i] for i in pending], predicate)
            responses = self.llm.generate_many(prompts, tag=tag)
            for i, response in zip(pending, responses):
                decisions[i] = response.text.strip().lower().startswith("y")
        kept = [row for row, decision in zip(rows, decisions) if decision]
        return kept, self._finish(stats, tag, usage_before, cache_before)

    def filter_decisions(
        self,
        rows: Sequence[Record],
        predicate: str,
        *,
        cascade: bool,
        stats: Optional[OpStats] = None,
    ) -> List[Optional[bool]]:
        """Proxy-layer verdict per row: True/False decided, ``None`` -> LLM.

        Without ``cascade`` every entry is ``None``.  Topical predicates use
        one ``embed_batch`` over the row texts (the embedder's memo embeds
        each distinct text once) and one float32 matvec against the topic
        vector; a row whose matvec similarity lies within the guard band
        (:func:`_proxy_guard`) of ``proxy_low`` or ``proxy_high`` is
        recomputed with the per-row ``float(np.dot(topic, row))`` the
        verdicts were defined on, so every verdict equals that per-row
        evaluation.  Rule predicates run a closure compiled once.
        """
        decisions: List[Optional[bool]] = [None] * len(rows)
        if not cascade or not rows:
            return decisions
        stats = stats if stats is not None else OpStats()
        if _is_topical(predicate):
            topic_vec = self.embedder.embed(_topic_of(predicate))
            vectors = self.embedder.embed_batch([_record_text(row) for row in rows])
            low, high = self.proxy_low, self.proxy_high
            sims = (vectors @ topic_vec).astype(np.float64)
            guard = _proxy_guard(len(topic_vec))
            near = (np.abs(sims - low) <= guard) | (np.abs(sims - high) <= guard)
            for idx in np.flatnonzero(near).tolist():
                sims[idx] = float(np.dot(topic_vec, vectors[idx]))
            keep = sims >= high
            drop = ~keep & (sims <= low)  # the rest is the uncertain band -> LLM
            for idx in np.flatnonzero(keep).tolist():
                decisions[idx] = True
            for idx in np.flatnonzero(drop).tolist():
                decisions[idx] = False
            stats.proxy_decisions += int(keep.sum()) + int(drop.sum())
        else:
            check = compile_predicate(predicate)
            if check is None:
                # Not rule-decidable for any record: leave all pending.
                return decisions
            decisions = list(map(check, rows))
            stats.rule_decisions += len(decisions) - decisions.count(None)
        return decisions

    # ------------------------------------------------------------ sem_map
    def sem_map(
        self,
        records: Sequence[Record],
        instruction: str,
        *,
        output_field: str = "mapped",
        tag: str = "sem_map",
    ) -> Tuple[List[Record], OpStats]:
        """Apply ``instruction`` to each record; result in ``output_field``."""
        rows = list(records)
        stats = OpStats()
        usage_before = self._ledger_usage(tag)
        cache_before = self._cache_counters()
        responses = self.llm.generate_many(self.map_prompts(rows, instruction), tag=tag)
        out: List[Record] = []
        for row, response in zip(rows, responses):
            merged = dict(row)
            merged[output_field] = response.text
            out.append(merged)
        return out, self._finish(stats, tag, usage_before, cache_before)

    @staticmethod
    def map_prompts(records: Sequence[Record], instruction: str) -> List[str]:
        """Rendered prompt text of each record's map call (shared with the
        fused-map stage)."""
        head = _prompt_head("map", instruction, {})
        if "field" in instruction:
            return [head + json.dumps(record, sort_keys=True) for record in records]
        return [head + _record_text(record) for record in records]

    # ----------------------------------------------------------- sem_join
    def sem_join(
        self,
        left: Sequence[Record],
        right: Sequence[Record],
        *,
        left_key: str = "name",
        right_key: str = "name",
        blocking: bool = True,
        blocking_threshold: float = 0.60,
        tag: str = "sem_join",
    ) -> Tuple[List[Tuple[Record, Record]], OpStats]:
        """Semantic equi-join: LLM confirms pairs whose keys should match.

        With ``blocking``, only pairs whose key embeddings clear
        ``blocking_threshold`` are sent to the model; without it every pair
        costs a call (the naive quadratic baseline).
        """
        stats = OpStats()
        pairs: List[Tuple[Record, Record]] = []
        if not left or not right:
            return pairs, stats
        usage_before = self._ledger_usage(tag)
        cache_before = self._cache_counters()
        if blocking:
            left_vecs = self.embedder.embed_batch(
                [str(r.get(left_key, "")) for r in left]
            )
            right_vecs = self.embedder.embed_batch(
                [str(r.get(right_key, "")) for r in right]
            )
            sims = left_vecs @ right_vecs.T
            candidates = [
                (i, j)
                for i in range(len(left))
                for j in range(len(right))
                if sims[i, j] >= blocking_threshold
            ]
        else:
            candidates = [(i, j) for i in range(len(left)) for j in range(len(right))]
        stats.candidates_considered = len(candidates)
        prompts = [
            Prompt(
                task="join",
                instruction="Do these records refer to the same entity?",
                input=json.dumps(left[i], sort_keys=True)
                + "\n---\n"
                + json.dumps(right[j], sort_keys=True),
                fields={"left_key": left_key, "right_key": right_key},
            ).render()
            for i, j in candidates
        ]
        responses = self.llm.generate_many(prompts, tag=tag)
        for (i, j), response in zip(candidates, responses):
            if response.text.strip().lower().startswith("y"):
                pairs.append((dict(left[i]), dict(right[j])))
        return pairs, self._finish(stats, tag, usage_before, cache_before)

    # ----------------------------------------------------------- sem_topk
    def sem_topk(
        self,
        records: Sequence[Record],
        query: str,
        k: int,
        *,
        group_size: int = 8,
        tag: str = "sem_topk",
    ) -> Tuple[List[Record], OpStats]:
        """Tournament top-k by relevance to ``query``.

        Records are ranked in groups of ``group_size`` (one LLM call per
        group, all groups of a round batched together); group winners
        advance until one group of at most ``max(group_size, k)`` remains.
        """
        if k <= 0:
            return [], OpStats()
        stats = OpStats()
        usage_before = self._ledger_usage(tag)
        cache_before = self._cache_counters()
        pool = list(records)
        while len(pool) > max(group_size, k):
            groups = [
                pool[start : start + group_size]
                for start in range(0, len(pool), group_size)
            ]
            next_pool: List[Record] = []
            for ranked in self._rank_groups(groups, query, tag):
                next_pool.extend(ranked[: max(k, 1)])
            if len(next_pool) >= len(pool):
                pool = next_pool[: max(len(pool) - 1, k)]
            else:
                pool = next_pool
        final = self._rank_groups([pool], query, tag)[0]
        return final[:k], self._finish(stats, tag, usage_before, cache_before)

    def _rank_groups(
        self, groups: List[List[Record]], query: str, tag: str
    ) -> List[List[Record]]:
        """Rank every group of one tournament round in a single batch."""
        need_llm = [g for g in groups if len(g) > 1]
        prompts = [
            Prompt(
                task="rank",
                context="\n".join(
                    f"[{i}] {_record_text(r)}" for i, r in enumerate(group)
                ),
                input=query,
            ).render()
            for group in need_llm
        ]
        responses = iter(self.llm.generate_many(prompts, tag=tag))
        ranked: List[List[Record]] = []
        for group in groups:
            if len(group) <= 1:
                ranked.append(list(group))
            else:
                ranked.append(self._apply_rank(group, next(responses).text))
        return ranked

    @staticmethod
    def _apply_rank(group: List[Record], reply: str) -> List[Record]:
        order: List[int] = []
        for part in reply.split(","):
            part = part.strip()
            if part.isdigit() and int(part) < len(group) and int(part) not in order:
                order.append(int(part))
        for i in range(len(group)):
            if i not in order:
                order.append(i)
        return [group[i] for i in order]

    # ---------------------------------------------------- sem_group_count
    def sem_group_count(
        self,
        records: Sequence[Record],
        classes: Sequence[str],
        *,
        tag: str = "sem_group_count",
    ) -> Tuple[Dict[str, int], OpStats]:
        """Classify each record into ``classes`` and count per class."""
        if not classes:
            raise ConfigError("classes must be non-empty")
        stats = OpStats()
        usage_before = self._ledger_usage(tag)
        cache_before = self._cache_counters()
        counts: Dict[str, int] = {c: 0 for c in classes}
        prompts = [
            Prompt(
                task="label",
                instruction="Classify the item.",
                input=_record_text(record),
                fields={"classes": " | ".join(classes)},
            ).render()
            for record in records
        ]
        for response in self.llm.generate_many(prompts, tag=tag):
            label = response.text.strip()
            if label in counts:
                counts[label] += 1
        return counts, self._finish(stats, tag, usage_before, cache_before)
