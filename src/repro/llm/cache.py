"""LLM response caching: exact and semantic (the §2.2.1 cost principle).

"Cost-Efficiency Optimization ... can be achieved through caching and
reducing unnecessary model invocations." Two cache layers wrap a
:class:`~repro.llm.model.SimLLM` behind the same ``generate`` interface:

* **exact** — keyed by the ``(prompt, max_tokens, temperature)`` value,
  the full functional input of the deterministic model, so a hit is
  bit-identical to the response a fresh call would produce.  Every
  temperature-0 call is stored, whatever its task;
* **semantic** — embedding lookup of the prompt's *input* section against
  previously answered prompts of the same task; a hit above the
  similarity threshold reuses the stored answer. Semantic hits trade a
  controlled risk of staleness/mismatch for large savings on paraphrase-
  heavy traffic (the GPTCache design), so only ``cacheable_tasks`` use it.

:class:`CachedLLM` is a drop-in: components that accept a ``SimLLM`` can
take a ``CachedLLM`` unchanged.  The semantic optimizer
(:class:`~repro.semopt.executor.SemExecutor`) wraps each pipeline run in
an exact-only, unbounded one, so operators that render the same prompt
share one model call — an answer-preserving optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from .cost import Usage, UsageLedger
from .embedding import EmbeddingModel
from .hub import ModelSpec
from .knowledge import KnowledgeBase
from .model import LLMResponse, SimLLM, SkillFn
from .protocol import parse_prompt
from .tokenizer import Tokenizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.world import Fact


@dataclass
class CacheStats:
    """Hit/miss accounting plus the spend the cache avoided."""

    exact_hits: int = 0
    semantic_hits: int = 0
    misses: int = 0
    saved_usd: float = 0.0

    @property
    def hits(self) -> int:
        return self.exact_hits + self.semantic_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


#: The exact layer's key: the full functional input of one call.
ExactKey = Tuple[str, int, float]


@dataclass
class _Entry:
    key: ExactKey  # the exact-layer key stored with it, for FIFO eviction
    input_vector: np.ndarray
    response: LLMResponse
    # A semantic hit is only valid when the caller asked for the same cap
    # (a response generated with a larger max_tokens may exceed the caller's).
    max_tokens: int


def _key(prompt: str, max_tokens: int, temperature: float) -> ExactKey:
    return (prompt, max_tokens, temperature)


class CachedLLM:
    """Exact + semantic response cache in front of a simulated LLM.

    Parameters
    ----------
    llm:
        The backing model.
    semantic_threshold:
        Cosine similarity above which a same-task cached input is reused;
        ``None`` disables the semantic layer (exact-only).
    max_entries:
        FIFO capacity bound of the exact store (the semantic store holds a
        subset of its entries); ``None`` keeps every response.
    cacheable_tasks:
        Only these prompt tasks use the semantic layer (stateful/creative
        tasks like ``decompose`` with substitution slots are excluded by
        default: a near match on them would be wrong).
    """

    def __init__(
        self,
        llm: SimLLM,
        *,
        semantic_threshold: Optional[float] = 0.9,
        max_entries: Optional[int] = 10_000,
        cacheable_tasks: Tuple[str, ...] = ("qa", "judge", "label", "extract", "map"),
    ) -> None:
        if semantic_threshold is not None and not 0.0 < semantic_threshold <= 1.0:
            raise ConfigError("semantic_threshold must be in (0, 1]")
        if max_entries is not None and max_entries <= 0:
            raise ConfigError("max_entries must be positive")
        self.llm = llm
        self.semantic_threshold = semantic_threshold
        self.max_entries = max_entries
        self.cacheable_tasks = set(cacheable_tasks)
        self.stats = CacheStats()
        self._exact: Dict[ExactKey, LLMResponse] = {}  # insertion order is the FIFO
        self._by_task: Dict[str, List[_Entry]] = {}

    # ---------------------------------------------------------- delegation
    @property
    def embedder(self) -> EmbeddingModel:
        return self.llm.embedder

    @property
    def knowledge(self) -> KnowledgeBase:
        return self.llm.knowledge

    @property
    def usage(self) -> Usage:
        return self.llm.usage

    @property
    def ledger(self) -> UsageLedger:
        return self.llm.ledger

    @property
    def spec(self) -> ModelSpec:
        return self.llm.spec

    @property
    def tokenizer(self) -> Tokenizer:
        return self.llm.tokenizer

    def register_skill(self, task: str, fn: SkillFn) -> None:
        self.invalidate()
        self.llm.register_skill(task, fn)

    def fine_tune(self, facts: "List[Fact]") -> int:
        self.invalidate()
        return self.llm.fine_tune(facts)

    # ------------------------------------------------------------ generate
    def generate(
        self,
        prompt: str,
        *,
        max_tokens: int = 256,
        temperature: float = 0.0,
        tag: str = "default",
    ) -> LLMResponse:
        """Serve from cache when possible; otherwise call through and store."""
        key = _key(prompt, max_tokens, temperature)
        cached = self._exact.get(key)
        if cached is not None:
            self.stats.exact_hits += 1
            self.stats.saved_usd += cached.usage.usd
            return cached
        semantic: Optional[Tuple[str, np.ndarray]] = None
        threshold = self.semantic_threshold
        if threshold is not None and temperature == 0.0:
            parsed = parse_prompt(prompt)
            if parsed.task in self.cacheable_tasks:
                vector = self.llm.embedder.embed(parsed.input)
                hit = self._semantic_lookup(parsed.task, vector, max_tokens, threshold)
                if hit is not None:
                    self.stats.semantic_hits += 1
                    self.stats.saved_usd += hit.usage.usd
                    return hit
                semantic = (parsed.task, vector)
        response = self.llm.generate(
            prompt, max_tokens=max_tokens, temperature=temperature, tag=tag
        )
        self.stats.misses += 1
        if temperature == 0.0:
            self._exact[key] = response
            if semantic is not None:
                task, vector = semantic
                self._by_task.setdefault(task, []).append(
                    _Entry(key=key, input_vector=vector, response=response, max_tokens=max_tokens)
                )
            self._evict_if_needed()
        return response

    def generate_many(
        self,
        prompts: Sequence[str],
        *,
        max_tokens: int = 256,
        temperature: float = 0.0,
        tag: str = "default",
    ) -> List[LLMResponse]:
        """Batched lookup with exactly the looped :meth:`generate` semantics.

        Exact-only at temperature 0, the unique misses go to one backing
        ``generate_many`` call in first-occurrence order; duplicates within
        the batch count as a miss on first occurrence and hits afterwards,
        so responses, ledger charges and stats equal the loop's.  Prompts go
        through :meth:`generate` one at a time instead when the loop could
        differ: with the semantic layer on (an early miss may serve a later
        prompt semantically), at nonzero temperature (nothing is stored),
        or when the misses would overflow ``max_entries`` (an eviction
        inside the batch could turn a later duplicate into a miss).
        """
        prompt_list = list(prompts)
        if self.semantic_threshold is None and temperature == 0.0:
            exact = self._exact
            keys = [(prompt, max_tokens, temperature) for prompt in prompt_list]
            missing: Dict[ExactKey, str] = {}
            for key in keys:
                if key not in exact:
                    missing.setdefault(key, key[0])
            if self.max_entries is None or len(exact) + len(missing) <= self.max_entries:
                if missing:
                    fetched = self.llm.generate_many(
                        list(missing.values()),
                        max_tokens=max_tokens,
                        temperature=temperature,
                        tag=tag,
                    )
                    exact.update(zip(missing, fetched))
                responses = [exact[key] for key in keys]
                stats = self.stats
                stats.misses += len(missing)
                stats.exact_hits += len(keys) - len(missing)
                saved = stats.saved_usd  # hits add their dollars in call order
                for key, response in zip(keys, responses):
                    if missing.pop(key, None) is None:
                        saved += response.usage.usd
                stats.saved_usd = saved
                return responses
        return [
            self.generate(prompt, max_tokens=max_tokens, temperature=temperature, tag=tag)
            for prompt in prompt_list
        ]

    def _semantic_lookup(
        self, task: str, query: np.ndarray, max_tokens: int, threshold: float
    ) -> Optional[LLMResponse]:
        best_score = -1.0
        best: Optional[_Entry] = None
        for entry in self._by_task.get(task, ()):
            if entry.max_tokens != max_tokens:
                continue  # generated under a different cap than requested
            score = float(np.dot(query, entry.input_vector))
            if score > best_score:
                best_score, best = score, entry
        if best is not None and best_score >= threshold:
            return best.response
        return None

    def _evict_if_needed(self) -> None:
        while self.max_entries is not None and len(self._exact) > self.max_entries:
            key = next(iter(self._exact))
            del self._exact[key]
            # A semantic entry, if the evicted key has one, is the oldest
            # of its task's list.
            for entries in self._by_task.values():
                if entries and entries[0].key == key:
                    entries.pop(0)
                    break

    # ---------------------------------------------------------- management
    def invalidate(self) -> None:
        """Drop everything (e.g. after fine-tuning changes the model)."""
        self._exact.clear()
        self._by_task.clear()

    def __len__(self) -> int:
        return len(self._exact)
