"""Cost model for semantic-operator planning.

The planner needs two numbers per filter: how much of the stream it
removes (**selectivity** of the predicate, in the "fraction kept" sense)
and what one row costs to decide.  Both are estimated from a small
**deterministic stride sample** of the input — ``np.linspace`` index
selection, no RNG, so planning is reproducible row-for-row (R001) — and
per-call dollar cost is calibrated from the model tier's own
:class:`~repro.llm.cost.CostModel` on a representative rendered prompt.

The ranking objective is the classic predicate-ordering rule: run the
filter with the lowest ``cost_per_row / (1 - keep_fraction)`` first — the
cheapest way to kill a row goes up front, so expensive judges see the
fewest survivors.  Estimates steer *order only*; correctness never
depends on them (every applied transformation is exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..llm.model import SimLLM
from ..llm.skills import compile_predicate
from ..unstructured.operators import SemanticOperators, _judge_prompts
from .plan import Record, SemFilter

#: Relative per-row cost units, expressed in *simulated dollars* so rule /
#: proxy work is comparable with LLM calls.  A CPU rule check is ~1e2x
#: cheaper than an embedding, which is itself orders of magnitude cheaper
#: than a model call; the exact constants only matter relative to each
#: other and to ``usd_per_call``.
RULE_ROW_USD = 1e-8
EMBED_ROW_USD = 1e-6


@dataclass(frozen=True)
class FilterEstimate:
    """Planning estimate for one :class:`~repro.semopt.plan.SemFilter`."""

    keep_fraction: float
    llm_fraction: float
    usd_per_row: float
    usd_per_call: float
    sampled_rows: int

    @property
    def rank(self) -> float:
        """Cost per unit of eliminated stream — lower runs earlier."""
        return self.usd_per_row / max(1.0 - self.keep_fraction, 1e-6)


class SemCostModel:
    """Stride-sampled selectivity and cost estimation for filters.

    Parameters
    ----------
    llm:
        The model the pipeline will run on — its tier's cost model prices
        the LLM-call component.
    sample_size:
        Upper bound on sampled rows per estimate.
    """

    def __init__(self, llm: SimLLM, *, sample_size: int = 256) -> None:
        if sample_size <= 0:
            raise ConfigError(f"sample_size must be positive, got {sample_size}")
        self.llm = llm
        self.sample_size = sample_size

    def sample_rows(self, records: Sequence[Record]) -> List[Record]:
        """Deterministic stride sample: evenly spaced indices, no RNG."""
        n = len(records)
        if n <= self.sample_size:
            return list(records)
        indices = np.unique(
            np.linspace(0, n - 1, num=self.sample_size).astype(np.int64)
        )
        return [records[int(i)] for i in indices]

    def judge_call_usd(self, example: Record, predicate: str) -> float:
        """Dollar price of one judge call on a representative prompt."""
        prompt = _judge_prompts([example], predicate)[0]
        input_tokens = self.llm.tokenizer.count(prompt)
        return self.llm.spec.cost.usage(input_tokens, 1).usd

    def estimate_filter(
        self,
        records: Sequence[Record],
        step: SemFilter,
        operators: SemanticOperators,
    ) -> FilterEstimate:
        """Estimate keep fraction and per-row cost of ``step`` on ``records``.

        The sample is pushed through the *same* proxy layer the executor
        uses (:meth:`SemanticOperators.filter_decisions`), so the estimate
        prices exactly the cascade that will run: decided rows cost proxy
        work only, band rows additionally cost one judge call.
        """
        rows = self.sample_rows(records)
        if not rows:
            return FilterEstimate(
                keep_fraction=1.0,
                llm_fraction=1.0,
                usd_per_row=0.0,
                usd_per_call=0.0,
                sampled_rows=0,
            )
        usd_per_call = self.judge_call_usd(rows[0], step.predicate)
        topical = step.predicate.strip().lower().startswith("is_about")
        if not step.cascade:
            # Every row pays a judge call; assume it filters aggressively
            # enough to be worth considering (estimated keep = 1/2).
            return FilterEstimate(
                keep_fraction=0.5,
                llm_fraction=1.0,
                usd_per_row=usd_per_call,
                usd_per_call=usd_per_call,
                sampled_rows=len(rows),
            )
        decisions = operators.filter_decisions(rows, step.predicate, cascade=True)
        decided = [d for d in decisions if d is not None]
        llm_fraction = 1.0 - len(decided) / len(rows)
        # Band rows are judged by the model; count them as half kept since
        # the sample cannot see the judge's verdicts without paying calls.
        kept_estimate = sum(1.0 for d in decided if d) + 0.5 * (
            len(rows) - len(decided)
        )
        keep_fraction = kept_estimate / len(rows)
        proxy_usd = EMBED_ROW_USD if topical else RULE_ROW_USD
        usd_per_row = proxy_usd + llm_fraction * usd_per_call
        return FilterEstimate(
            keep_fraction=keep_fraction,
            llm_fraction=llm_fraction,
            usd_per_row=usd_per_row,
            usd_per_call=usd_per_call,
            sampled_rows=len(rows),
        )

    def rule_decidable_everywhere(
        self, records: Sequence[Record], predicate: str
    ) -> bool:
        """True iff the rule decides **every** record (full scan, exact).

        Used as a pushdown legality check: when no row can fall through to
        the LLM fallback, moving the rule filter cannot change any prompt
        the model would see.  This is a full scan rather than a sample —
        legality must hold on all rows, not probably-most rows.
        """
        check = compile_predicate(predicate)
        if check is None:
            return False
        return all(check(record) is not None for record in records)

    def describe(self, estimates: Dict[int, FilterEstimate]) -> List[str]:
        """Render per-step estimates as decision-log lines."""
        lines: List[str] = []
        for position in sorted(estimates):
            est = estimates[position]
            lines.append(
                f"step {position}: keep~{est.keep_fraction:.2f} "
                f"llm~{est.llm_fraction:.2f} usd/row~{est.usd_per_row:.2e} "
                f"rank~{est.rank:.2e} (n={est.sampled_rows})"
            )
        return lines


class Corpus(Tuple[Record, ...]):
    """Records that stay as they are, with :func:`records_all_have_text`
    checked once when built instead of on every pipeline run. The tuple
    cannot grow or shrink; its owner must not edit the records."""

    all_have_text: bool

    def __new__(cls, records: Iterable[Record]) -> "Corpus":
        corpus = super().__new__(cls, records)
        corpus.all_have_text = all(record.get("text") for record in corpus)
        return corpus


def records_all_have_text(records: Sequence[Record]) -> bool:
    """True iff every record carries a non-empty ``text`` field (a
    :class:`Corpus` answers from its check at construction).

    When this holds, ``_record_text`` never falls back to the
    ``json.dumps`` serialization, so text-reading operators (topical
    filters, text-input maps) are provably independent of fields other
    operators add — the key legality condition for reordering them.
    """
    if isinstance(records, Corpus):
        return records.all_have_text
    return all(record.get("text") for record in records)
