"""Pieces every workload shares: the world, the outcome record, helpers."""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.core.engine import DataAIConfig
from repro.data.world import WorldConfig

clock = time.perf_counter

#: Per-layer numbers only a workload's client loop can measure (the
#: stream's waits, lag and freshness); workloads without them report 0.
CLIENT_LAYER_METRICS = (
    "stream.ingest_wait_ms",
    "stream.query_wait_ms",
    "stream.generator_lag_ms",
    "stream.backlog_ops",
    "stream.freshness_p50_s",
    "stream.freshness_p95_s",
)

#: The world behind rag_qa and lake_analytics: 2,025 rendered documents.
WORLD_SIZE = dict(num_cities=200, num_companies=175, num_people=650, num_products=1000)


def engine_config(world_seed: int, engine_seed: int = 0) -> DataAIConfig:
    """DataAI over a world drawn from ``world_seed``.

    The engine seed (model identity, document rendering, the lake's split
    of entity types into tables, JSON and documents) stays 0 for
    lake_analytics: it decides how much catalog work a question costs, and
    letting it vary moved lake_analytics' throughput 2.5x from seed to seed.
    """
    return DataAIConfig(seed=engine_seed, world=WorldConfig(seed=world_seed, **WORLD_SIZE))


@dataclass
class Outcome:
    """What one timed pass of a workload produced.

    ``outputs`` are the program's results in operation order; a traced pass
    must reproduce them exactly.  ``end_to_end`` holds the workload's
    user-facing metrics other than set-up time and memory, ``layer_extras``
    the :data:`CLIENT_LAYER_METRICS` it measures, and ``info`` descriptive
    facts such as the measured share of shared work.
    """

    ops: int
    failed: int
    busy_s: float
    outputs: List[object]
    end_to_end: Dict[str, float]
    layer_extras: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def digest(value: object) -> str:
    """Short fingerprint of a result's repr."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def report_failure(kind: str, exc: BaseException) -> None:
    print(f"perfbench: {kind} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)
