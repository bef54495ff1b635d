"""Prompt engineering: templates, few-shot selection, compression (§2.2.1)."""

from .compression import (
    CompressionResult,
    PromptCompressor,
    budget_truncate,
    dedup_sentences,
    relevance_filter,
)
from .fewshot import (
    SELECTORS,
    DiversitySelector,
    ExamplePool,
    RandomSelector,
    SimilaritySelector,
)
from .templates import (
    AutoPrompter,
    Demonstration,
    PromptTemplate,
    TemplateLibrary,
)

__all__ = [
    "CompressionResult",
    "PromptCompressor",
    "budget_truncate",
    "dedup_sentences",
    "relevance_filter",
    "SELECTORS",
    "DiversitySelector",
    "ExamplePool",
    "RandomSelector",
    "SimilaritySelector",
    "AutoPrompter",
    "Demonstration",
    "PromptTemplate",
    "TemplateLibrary",
]
