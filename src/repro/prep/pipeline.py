"""Composable data-preparation pipeline with per-stage tracing (Data-Juicer).

Data-Juicer's contribution [13] is not any single operator but the
*composable, observable pipeline*: stages chain, and every stage reports
what it consumed, produced, and dropped. :class:`PrepPipeline` provides
that: stages are named callables over document lists; :meth:`run` returns
the final corpus plus a :class:`PipelineReport` with per-stage token/doc
deltas and timings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..data.ngram import NGramLM
from ..data.synth import TrainingDocument
from ..errors import PipelineError
from ..llm.tokenizer import default_tokenizer

Stage = Callable[[List[TrainingDocument]], List[TrainingDocument]]


@dataclass
class StageReport:
    """One stage's accounting."""

    name: str
    docs_in: int
    docs_out: int
    tokens_in: int
    tokens_out: int
    seconds: float

    @property
    def token_reduction(self) -> float:
        if self.tokens_in == 0:
            return 0.0
        return 1.0 - self.tokens_out / self.tokens_in


@dataclass
class PipelineReport:
    """Full-run accounting."""

    stages: List[StageReport] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"{'stage':<24}{'docs in':>9}{'docs out':>9}{'tok in':>10}"
            f"{'tok out':>10}{'tok -%':>8}{'sec':>8}"
        ]
        for s in self.stages:
            lines.append(
                f"{s.name:<24}{s.docs_in:>9}{s.docs_out:>9}{s.tokens_in:>10}"
                f"{s.tokens_out:>10}{s.token_reduction * 100:>7.1f}%{s.seconds:>8.2f}"
            )
        return "\n".join(lines)


class PrepPipeline:
    """An ordered chain of named preparation stages."""

    def __init__(self) -> None:
        self._stages: List[Tuple[str, Stage]] = []

    def add_stage(self, name: str, stage: Stage) -> "PrepPipeline":
        """Append a stage; returns self for chaining."""
        if any(existing == name for existing, _ in self._stages):
            raise PipelineError(f"duplicate stage name {name!r}")
        self._stages.append((name, stage))
        return self

    def run(
        self, docs: Sequence[TrainingDocument]
    ) -> Tuple[List[TrainingDocument], PipelineReport]:
        """Execute all stages; raises :class:`PipelineError` on stage failure."""
        if not self._stages:
            raise PipelineError("pipeline has no stages")
        tok = default_tokenizer()

        def token_total(items: Sequence[TrainingDocument]) -> int:
            # One batched tokenizer pass per stage boundary; equals summing
            # tok.count(d.text) per document.
            return sum(tok.count_many([d.text for d in items]))

        current = list(docs)
        report = PipelineReport()
        for name, stage in self._stages:
            docs_in = len(current)
            tokens_in = token_total(current)
            started = time.perf_counter()
            try:
                current = list(stage(current))
            except Exception as exc:
                raise PipelineError(f"stage {name!r} failed: {exc}") from exc
            report.stages.append(
                StageReport(
                    name=name,
                    docs_in=docs_in,
                    docs_out=len(current),
                    tokens_in=tokens_in,
                    tokens_out=token_total(current),
                    seconds=time.perf_counter() - started,
                )
            )
        return current, report


def standard_pipeline(
    *,
    reference_lm: "Optional[NGramLM]" = None,
    max_perplexity: Optional[float] = None,
    dedup: bool = True,
    toxicity: bool = True,
    quality_rules: bool = True,
    line_level: bool = True,
) -> PrepPipeline:
    """The canonical cleaning chain: toxicity -> rules -> [ppl] -> line -> dedup.

    Order follows practice: cheap filters first (they shrink what the more
    expensive near-dup pass must shingle).
    """
    from .cleaning import PerplexityFilter, RuleBasedQualityFilter, ToxicityFilter
    from .dedup import MinHashDeduper, line_dedup

    pipeline = PrepPipeline()
    if toxicity:
        tox = ToxicityFilter()
        pipeline.add_stage("toxicity_filter", lambda docs: tox.filter(docs)[0])
    if quality_rules:
        rules = RuleBasedQualityFilter()
        pipeline.add_stage("quality_rules", lambda docs: rules.filter(docs)[0])
    if reference_lm is not None and max_perplexity is not None:
        ppl = PerplexityFilter(reference_lm, max_perplexity=max_perplexity)
        pipeline.add_stage("perplexity_filter", lambda docs: ppl.filter(docs)[0])
    if line_level:
        pipeline.add_stage("line_dedup", lambda docs: line_dedup(docs)[0])
    if dedup:
        deduper = MinHashDeduper()
        pipeline.add_stage("minhash_dedup", lambda docs: deduper.dedup(docs).kept)
    return pipeline
