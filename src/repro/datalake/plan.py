"""Plan representation for data-lake analytics queries.

A :class:`Plan` is a small DAG of typed operator steps (scan, extract,
filter, sem_filter, join, aggregate, lookup) — the "predefined semantic
operators" orchestration style of iDataLake [60] / CAESURA [53]. Plans are
produced by ``repro.datalake.planner`` and interpreted by
``repro.datalake.executor``; ``sem_filter`` rows route through the
cost-based :mod:`repro.semopt` executor (batched judges, exact cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import PlanError

OPS = {
    "scan",
    "extract",
    "filter",
    "sem_filter",
    "join",
    "aggregate",
    "lookup",
    "project",
}


@dataclass
class PlanStep:
    """One operator node.

    ``params`` are operator-specific; ``inputs`` name earlier steps whose
    outputs feed this one.
    """

    step_id: str
    op: str
    params: Dict[str, object] = field(default_factory=dict)
    inputs: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise PlanError(f"unknown operator {self.op!r}; choose from {sorted(OPS)}")


@dataclass
class Plan:
    """An ordered list of steps forming a DAG (inputs must precede use)."""

    steps: List[PlanStep] = field(default_factory=list)
    description: str = ""

    def add(self, op_name: str, *, inputs: Optional[List[str]] = None, **params: object) -> str:
        """Append a step; named ``op_name`` so operator params may use ``op``."""
        step_id = f"s{len(self.steps)}"
        self.steps.append(PlanStep(step_id, op_name, params, list(inputs) if inputs else []))
        return step_id

    def validate(self) -> None:
        """Check DAG well-formedness: unique ids, inputs defined before use."""
        seen = set()
        for step in self.steps:
            if step.step_id in seen:
                raise PlanError(f"duplicate step id {step.step_id!r}")
            for dep in step.inputs:
                if dep not in seen:
                    raise PlanError(
                        f"step {step.step_id!r} uses undefined input {dep!r}"
                    )
            seen.add(step.step_id)
        if not self.steps:
            raise PlanError("empty plan")

    @property
    def final_step(self) -> PlanStep:
        if not self.steps:
            raise PlanError("empty plan")
        return self.steps[-1]

    def render(self) -> str:
        """Human-readable plan listing (for traces and docs)."""
        lines = [f"plan: {self.description}"] if self.description else []
        for step in self.steps:
            params = ", ".join(f"{k}={v}" for k, v in sorted(step.params.items()))
            inputs = f" <- [{', '.join(step.inputs)}]" if step.inputs else ""
            lines.append(f"  {step.step_id}: {step.op}({params}){inputs}")
        return "\n".join(lines)
