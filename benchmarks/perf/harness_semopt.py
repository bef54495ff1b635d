"""Measurement harness for the semantic-operator optimizer benchmarks.

Every case times the frozen naive executor (:mod:`._legacy_semopt`) against
the optimized :class:`~repro.semopt.SemExecutor` through
:func:`.harness.time_pairs`, on *identical* inputs with a fresh same-seed
model per call, and asserts on every pair, before any speedup is reported,
that the two paths produced **identical** output records (survivor sets,
mapped fields, join merges, top-k order, group counts).  The simulated
model is a deterministic function of the prompt, so any divergence is an
optimizer bug, not noise.

The headline workload is a zipf-skewed synthetic lake: rows draw their
``text`` from a bounded pool of unique documents (heavy head, long tail)
while ``price``/``name`` vary per row.  That shape is what makes the
optimizer's wins representative: rule predicates run before embedding
proxies, proxy verdicts broadcast across duplicate texts, and the
cross-operator cache collapses repeated judge/map prompts to one charged
call each.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.llm import make_llm
from repro.semopt import (
    SemExecutor,
    SemFilter,
    SemGroupCount,
    SemJoin,
    SemMap,
    SemPipeline,
    SemTopK,
)
from repro.unstructured import SemanticOperators

from ._legacy_semopt import NaiveSemExecutor, Record
from .harness import time_pairs

_CATEGORIES = (
    "storage",
    "indexing",
    "transactions",
    "replication",
    "analytics",
    "networking",
    "vision",
    "robotics",
    "gardening",
    "cooking",
    "travel",
    "fitness",
)

# Text templates by topical affinity to the bench predicate "is_about
# database": *strong* texts clear the upper proxy threshold, *off* texts
# fall below the lower one, *mid* texts land in the uncertain band and pay
# an LLM judge call.  Pool indices cycle strong/off/mid 10/9/1 per 20, so
# roughly 5% of rows land in the band regardless of the zipf skew.
_STRONG = (
    "database {cat} report {i}: the database engine tunes {cat} and "
    "database query plans for {cat} workloads"
)
_OFF = "{cat} field notes {i}: weekly {cat} observations and practical advice"
_MID = (
    "survey {i} of mixed systems covering {cat} material with one database "
    "section among many {cat} topics"
)


def _pool_text(index: int) -> str:
    cat = _CATEGORIES[index % len(_CATEGORIES)]
    slot = index % 20
    if slot < 10:
        return _STRONG.format(cat=cat, i=index)
    if slot < 19:
        return _OFF.format(cat=cat, i=index)
    return _MID.format(cat=cat, i=index)


def semopt_lake(
    num_rows: int, *, pool_size: int = 8_000, seed: int = 7
) -> List[Record]:
    """Zipf-skewed synthetic lake: bounded text pool, per-row price/name."""
    pool_size = min(pool_size, max(num_rows, 1))
    pool = [_pool_text(i) for i in range(pool_size)]
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, pool_size + 1, dtype=np.float64)
    weights = 1.0 / ranks**1.1
    weights /= weights.sum()
    choices = rng.choice(pool_size, size=num_rows, p=weights)
    prices = rng.integers(0, 1_000, size=num_rows)
    return [
        {
            "name": f"item-{i}",
            "text": pool[int(choices[i])],
            "category": _CATEGORIES[int(choices[i]) % len(_CATEGORIES)],
            "price": str(int(prices[i])),
        }
        for i in range(num_rows)
    ]


def cascade_pipeline() -> SemPipeline:
    """The headline pipeline, deliberately in a suboptimal written order.

    The topical filter (per-row embedding + judge band) is written before
    the cheap highly-selective price rule, and the two maps are written
    separately; the optimizer must reorder, fuse, and cache its way to the
    same answers.
    """
    return SemPipeline(
        [
            SemFilter("is_about database", cascade=True),
            SemFilter("price < 100", cascade=True),
            SemMap("Summarize the item", output_field="summary"),
            SemMap("Give a short title", output_field="title"),
        ]
    )


def catalog_rows() -> List[Record]:
    """Small right-hand side for the mixed case's semantic join."""
    return [
        {
            "name": f"catalog-{cat}",
            "category": cat,
            "owner": f"team-{cat[:4]}",
        }
        for cat in _CATEGORIES
    ]


def mixed_pipeline() -> SemPipeline:
    """Barrier-heavy pipeline: join, top-k, and terminal group count."""
    return SemPipeline(
        [
            SemFilter("is_about database", cascade=True),
            SemFilter("price < 50", cascade=True),
            SemJoin(
                right=tuple(catalog_rows()),
                left_key="category",
                right_key="category",
            ),
            SemTopK("most detailed database engineering report", k=5, group_size=16),
            SemGroupCount(classes=tuple(_CATEGORIES[:6])),
        ]
    )


def run_semopt_case(
    num_rows: int,
    *,
    pipeline_kind: str = "cascade",
    pool_size: int = 8_000,
    seed: int = 7,
    tier: str = "sim-base",
) -> Dict[str, object]:
    """Naive vs optimized execution of one pipeline; outputs must match."""
    records = semopt_lake(num_rows, pool_size=pool_size, seed=seed)
    pipeline = cascade_pipeline() if pipeline_kind == "cascade" else mixed_pipeline()

    def naive() -> Tuple[object, int]:
        llm = make_llm(tier, seed=seed)
        return NaiveSemExecutor(llm).run(records, pipeline), llm.usage.calls

    def optimized() -> Tuple[object, int]:
        llm = make_llm(tier, seed=seed)
        return SemExecutor(SemanticOperators(llm)).run(records, pipeline), llm.usage.calls

    def check(legacy: Tuple, current: Tuple) -> None:
        # Bit-level answer parity: identical surviving records (fields
        # included), identical aggregates.
        (naive_rows, naive_counts), _ = legacy
        result, _ = current
        assert result.records == naive_rows, (
            f"survivor drift: optimized {len(result.records)} rows vs "
            f"naive {len(naive_rows)}"
        )
        assert result.group_counts == naive_counts, "group-count drift"

    timing, (_, naive_calls), (result, opt_calls) = time_pairs(naive, optimized, check)
    return {
        "workload": {
            "pipeline": pipeline_kind,
            "num_rows": num_rows,
            "pool_size": pool_size,
            "tier": tier,
            "seed": seed,
        },
        **timing,
        "detail": {
            "rows_out": len(result.records),
            "legacy_llm_calls": naive_calls,
            "llm_calls": opt_calls,
            "call_reduction": naive_calls / opt_calls if opt_calls else float("inf"),
            "cache_hits": result.cache.hits if result.cache else 0,
            "decisions": result.decisions,
        },
    }
