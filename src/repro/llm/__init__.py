"""Simulated-LLM substrate: tokenizer, embeddings, model hub, cost model.

See DESIGN.md §1 for why a deterministic simulated oracle is a faithful
substitute for a hosted LLM in every LLM4Data experiment.
"""

from .cache import CachedLLM, CacheStats
from .cost import CostModel, Usage, UsageLedger
from .embedding import EmbeddingModel
from .hub import ModelHub, ModelSpec, default_hub
from .knowledge import KnowledgeBase
from .model import LLMResponse, SimLLM, make_llm
from .protocol import ParsedPrompt, Prompt, parse_prompt
from .reasoning import ReasoningResult, best_of_n_grounded, chain_of_questions, self_consistency
from .tokenizer import Tokenizer, count_tokens, default_tokenizer
from .transformer import KVCache, PagedKVCache, TinyTransformer, TransformerConfig

__all__ = [
    "CachedLLM",
    "CacheStats",
    "ReasoningResult",
    "best_of_n_grounded",
    "chain_of_questions",
    "self_consistency",
    "CostModel",
    "Usage",
    "UsageLedger",
    "EmbeddingModel",
    "ModelHub",
    "ModelSpec",
    "default_hub",
    "KnowledgeBase",
    "LLMResponse",
    "SimLLM",
    "make_llm",
    "ParsedPrompt",
    "Prompt",
    "parse_prompt",
    "Tokenizer",
    "count_tokens",
    "default_tokenizer",
    "KVCache",
    "PagedKVCache",
    "TinyTransformer",
    "TransformerConfig",
]
