"""Logical plans for semantic-operator pipelines.

A :class:`SemPipeline` is an ordered list of logical operator descriptions
over one record stream.  It carries *what* to compute; the optimizer
(:mod:`repro.semopt.optimizer`) decides *how* — order, batching, caching —
under the constraint that the answer must be bit-identical to executing
the steps naively in the written order.

Operators mirror :class:`~repro.unstructured.operators.SemanticOperators`:
filter, map, join (against a bound right side), top-k, and the terminal
group-count aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from ..errors import PlanError

Record = Dict[str, str]


@dataclass(frozen=True)
class SemFilter:
    """Keep records satisfying ``predicate`` (rule, topical, or LLM judge)."""

    predicate: str
    cascade: bool = True


@dataclass(frozen=True)
class SemMap:
    """Per-record transformation; the reply lands in ``output_field``."""

    instruction: str
    output_field: str = "mapped"


@dataclass(frozen=True)
class SemJoin:
    """Semantic join against a bound right-hand side.

    Matched pairs merge into one record: the left record's fields plus the
    right record's fields under ``right_prefix``.
    """

    right: Tuple[Record, ...]
    left_key: str = "name"
    right_key: str = "name"
    blocking: bool = True
    blocking_threshold: float = 0.60
    right_prefix: str = "right_"

    def __post_init__(self) -> None:
        if not self.right_prefix:
            raise PlanError("right_prefix must be non-empty")


@dataclass(frozen=True)
class SemTopK:
    """Tournament top-k by relevance to ``query``."""

    query: str
    k: int
    group_size: int = 8

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise PlanError(f"k must be positive, got {self.k}")


@dataclass(frozen=True)
class SemGroupCount:
    """Terminal classify-and-count aggregation over ``classes``."""

    classes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.classes:
            raise PlanError("classes must be non-empty")


SemStep = Union[SemFilter, SemMap, SemJoin, SemTopK, SemGroupCount]

#: Steps the optimizer never reorders across: they read the whole stream
#: (top-k), rewrite record identity (join), or aggregate (group count).
BARRIER_STEPS = (SemJoin, SemTopK, SemGroupCount)


def step_kind(step: SemStep) -> str:
    """Short lower-case kind name of a step (``filter``, ``map``, ...)."""
    return {
        SemFilter: "filter",
        SemMap: "map",
        SemJoin: "join",
        SemTopK: "topk",
        SemGroupCount: "group_count",
    }[type(step)]


@dataclass
class SemPipeline:
    """A validated sequence of semantic-operator steps."""

    steps: List[SemStep] = field(default_factory=list)

    def __post_init__(self) -> None:
        for position, step in enumerate(self.steps):
            if not isinstance(
                step, (SemFilter, SemMap, SemJoin, SemTopK, SemGroupCount)
            ):
                raise PlanError(f"unknown semantic step: {step!r}")
            if isinstance(step, SemGroupCount) and position != len(self.steps) - 1:
                raise PlanError("group_count must be the terminal step")

    def __len__(self) -> int:
        return len(self.steps)

    def describe(self) -> List[str]:
        """One human-readable line per step, in order."""
        lines: List[str] = []
        for step in self.steps:
            if isinstance(step, SemFilter):
                cascade = "cascade" if step.cascade else "full-llm"
                lines.append(f"filter[{cascade}]: {step.predicate}")
            elif isinstance(step, SemMap):
                lines.append(f"map -> {step.output_field}: {step.instruction}")
            elif isinstance(step, SemJoin):
                lines.append(
                    f"join |right|={len(step.right)} on "
                    f"{step.left_key}~{step.right_key}"
                )
            elif isinstance(step, SemTopK):
                lines.append(f"topk k={step.k}: {step.query}")
            else:
                lines.append(f"group_count over {len(step.classes)} classes")
        return lines


def pipeline(steps: Sequence[SemStep]) -> SemPipeline:
    """Convenience constructor: validate ``steps`` into a :class:`SemPipeline`."""
    return SemPipeline(list(steps))
