"""The simulated LLM: a deterministic oracle with a realistic failure model.

:class:`SimLLM` is the drop-in stand-in for a hosted model. Components send
rendered prompt *text* (see ``repro.llm.protocol``); the model parses the
text, dispatches to a task skill (``repro.llm.skills``), applies its error
channel, and returns an :class:`LLMResponse` with full usage accounting.

Why this substitution preserves the paper's behaviour: LLM4Data techniques
are control flow *around* an LLM — their value depends on the oracle's
accuracy/cost/hallucination envelope, not its weights. SimLLM exposes those
three dials explicitly (per tier, see ``repro.llm.hub``), so every benchmark
can sweep them.

Determinism contract: a built-in skill (``repro.llm.skills.SKILLS`` and the
chat fallback) is a pure function of the prompt, the temperature (to the
thousandth) and the model state it reads — the knowledge base, the
embedder's IDF snapshot, the tokenizer, the spec and the seed. So each
model keeps one bounded **reply memo**:

* **key** — ``(prompt, int(temperature * 1000), max_tokens)``; the value is
  the input token count, the (truncated) reply text, its output token
  count, the skill's metadata and the parsed task;
* **invalidation** — a stamp of that state (the identity of each object,
  ``KnowledgeBase.version``, ``EmbeddingModel.generation``, the seed) is
  checked once per call batch, and a change clears the memo; so does
  :meth:`SimLLM.register_skill`;
* **extra skills** — a prompt whose task resolves to a registered skill is
  never stored: such skills close over tables their owner may mutate;
* **bound** — at most ``MEMO_REPLIES`` replies, evicted first in, first out;
* **charges** — the memo saves computation only. Every prompt is still
  charged to the ledger, logged and answered with its own
  :class:`LLMResponse`, so usage, budgets and outputs are those of a cold
  model. A deployment cache that *saves* charged calls is
  :class:`repro.llm.cache.CachedLLM`, a separate wrapper.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..data.ngram import NGramLM
    from ..data.world import Fact, World

from ..errors import ModelError
from ..utils import derive_rng, stable_hash
from .cost import Usage, UsageLedger
from .embedding import EmbeddingModel
from .hub import ModelSpec, default_hub
from .knowledge import KnowledgeBase
from .protocol import ParsedPrompt, parse_prompt
from .skills import SKILLS, SkillContext
from .tokenizer import Tokenizer, default_tokenizer

SkillFn = Callable[[SkillContext], Tuple[str, Dict[str, object]]]
#: (prompt, temperature in thousandths, max_tokens) -> (input tokens, text,
#: output tokens, meta, task): the deterministic work of one call.
ReplyKey = Tuple[str, int, int]
Reply = Tuple[int, str, int, Dict[str, object], str]

#: Replies the per-model reply memo holds before evicting the oldest.
MEMO_REPLIES = 1024
#: Most recent calls :attr:`SimLLM.call_log` keeps.
CALL_LOG_ROWS = 1024


@dataclass(frozen=True)
class LLMResponse:
    """One model reply plus its resource usage and debug metadata."""

    text: str
    usage: Usage
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def abstained(self) -> bool:
        return self.text.strip().lower() == "unknown"


class SimLLM:
    """A simulated large language model.

    Parameters
    ----------
    spec:
        Model tier (accuracy, hallucination, cost). Defaults to ``sim-base``.
    world:
        If given, the model "pretrained on" a ``spec.knowledge_coverage``
        fraction of the world's facts.
    knowledge:
        Explicit knowledge base (overrides ``world`` sampling).
    seed:
        Model identity seed; drives all stochastic draws.
    ledger:
        Optional shared :class:`UsageLedger` for budget enforcement.
    """

    def __init__(
        self,
        spec: Optional[ModelSpec] = None,
        *,
        world: "Optional[World]" = None,
        knowledge: Optional[KnowledgeBase] = None,
        seed: int = 0,
        embedder: Optional[EmbeddingModel] = None,
        tokenizer: Optional[Tokenizer] = None,
        ledger: Optional[UsageLedger] = None,
    ) -> None:
        self.spec = spec or default_hub().get("sim-base")
        self.seed = seed
        self.tokenizer = tokenizer or default_tokenizer()
        self.embedder = embedder or EmbeddingModel(seed=seed)
        if knowledge is not None:
            self.knowledge = knowledge
        elif world is not None:
            self.knowledge = KnowledgeBase.from_world(
                world, coverage=self.spec.knowledge_coverage, seed=seed
            )
        else:
            self.knowledge = KnowledgeBase()
        self.ledger = ledger or UsageLedger()
        self._extra_skills: Dict[str, SkillFn] = {}
        self._scorer = None
        self._call_log: Deque[Tuple[str, str, int]] = deque(maxlen=CALL_LOG_ROWS)
        self._memo: Dict[ReplyKey, Reply] = {}
        self._memo_owners: Tuple[object, ...] = ()
        self._memo_counters: Tuple[int, ...] = ()

    # ----------------------------------------------------------- extension
    def register_skill(self, task: str, fn: SkillFn) -> None:
        """Register a custom task skill (e.g. ``sql``) on this instance."""
        self._extra_skills[task] = fn
        self._memo.clear()

    def fine_tune(self, facts: "List[Fact]") -> int:
        """Inject facts into parametric knowledge (SFT stand-in).

        Returns the number of previously-unknown facts learned.
        """
        return self.knowledge.add_facts(facts)

    # ----------------------------------------------------------- inference
    def generate(
        self,
        prompt: str,
        *,
        max_tokens: int = 256,
        temperature: float = 0.0,
        tag: str = "default",
    ) -> LLMResponse:
        """Run one model call on rendered prompt text."""
        return self._generate_batch([prompt], max_tokens, temperature, tag)[0]

    def generate_many(
        self,
        prompts: Sequence[str],
        *,
        max_tokens: int = 256,
        temperature: float = 0.0,
        tag: str = "default",
    ) -> List[LLMResponse]:
        """Run one model call per prompt, amortizing per-call overhead.

        Bit-identical to ``[generate(p, ...) for p in prompts]`` — same
        response texts, usage records, ledger totals, and call log — but
        batched: the reply memo is read once per *unique* prompt, and the
        misses' token counting runs as two ``count_many`` passes (inputs,
        then outputs).  The ledger is still charged once per prompt, so
        budgets and per-tag attribution see every call.

        One contract difference from the loop: prompts are validated
        against the context window up front, so an oversized prompt raises
        before *any* prompt in the batch is charged (the loop would charge
        the prompts preceding the offender).
        """
        return self._generate_batch(list(prompts), max_tokens, temperature, tag)

    def _generate_batch(
        self, prompts: List[str], max_tokens: int, temperature: float, tag: str
    ) -> List[LLMResponse]:
        """The one call path behind :meth:`generate` and :meth:`generate_many`.

        Neither public method calls the other, so a wrapper around both
        (a tracer, a counter) sees every model call exactly once.  A reply
        longer than ``max_tokens`` is truncated to its first ``max_tokens``
        tokens (as a real decode loop stops emitting), so the returned text
        always agrees with the charged token count.  Distinct prompts the
        reply memo lacks are computed in first-occurrence order (see the
        module docstring), and one frozen :class:`Usage` is built per
        distinct (input, output) token count of the batch's replies; every
        prompt is then charged, in order, through one
        :meth:`UsageLedger.charge_many` and logged as a (task, tag, tokens)
        row that :attr:`call_log` renders.
        """
        if max_tokens <= 0:
            raise ModelError(f"max_tokens must be positive, got {max_tokens}")
        if not prompts:
            return []
        memo = self._reply_memo()
        milli = int(temperature * 1000)
        replies: Dict[str, Reply] = {}
        missing: List[str] = []
        for prompt in dict.fromkeys(prompts):
            reply = memo.get((prompt, milli, max_tokens))
            if reply is None:
                missing.append(prompt)
            else:
                replies[prompt] = reply
        if missing:
            replies.update(self._compute(missing, milli, temperature, max_tokens))
        cost = self.spec.cost
        usages: Dict[Tuple[int, int], Usage] = {}  # replies with equal token counts share one
        for input_tokens, _, output_tokens, _, _ in replies.values():
            if (input_tokens, output_tokens) not in usages:
                usages[input_tokens, output_tokens] = cost.usage(input_tokens, output_tokens)
        batch = [replies[prompt] for prompt in prompts]
        charges = [usages[reply[0], reply[2]] for reply in batch]
        calls_before = self.ledger.total.calls
        try:
            self.ledger.charge_many(charges, tag=tag)
        finally:  # log the calls charged, also those before a budget trips
            charged = self.ledger.total.calls - calls_before
            kept = range(max(charged - CALL_LOG_ROWS, 0), charged)  # the log keeps no more
            self._call_log.extend((batch[i][4], tag, batch[i][0] + batch[i][2]) for i in kept)
        return [
            LLMResponse(text, usage, dict(meta))
            for (_, text, _, meta, _), usage in zip(batch, charges)
        ]

    def _compute(
        self, prompts: List[str], milli: int, temperature: float, max_tokens: int
    ) -> Dict[str, Reply]:
        """Count, parse, dispatch and count distinct ``prompts``; memoize.

        Every prompt is checked against the context window before any is
        dispatched.  Replies of registered (extra) skills are returned but
        not stored.
        """
        input_counts = self.tokenizer.count_many(prompts)
        for input_tokens in input_counts:
            if input_tokens > self.spec.context_window:
                raise ModelError(
                    f"prompt of {input_tokens} tokens exceeds context window "
                    f"{self.spec.context_window} of {self.spec.name}"
                )
        parsed_list = [parse_prompt(prompt) for prompt in prompts]
        raw_outputs = [self._dispatch(parsed, temperature) for parsed in parsed_list]
        output_counts = self.tokenizer.count_many([text for text, _ in raw_outputs])
        memo = self._memo
        replies: Dict[str, Reply] = {}
        for prompt, input_tokens, parsed, (text, meta), output_tokens in zip(
            prompts, input_counts, parsed_list, raw_outputs, output_counts
        ):
            if output_tokens > max_tokens:
                text = self.tokenizer.truncate(text, max_tokens)
                output_tokens = max_tokens
            reply = (input_tokens, text, max(output_tokens, 1), meta, parsed.task)
            replies[prompt] = reply
            if parsed.task not in self._extra_skills:
                if len(memo) >= MEMO_REPLIES:
                    del memo[next(iter(memo))]
                memo[(prompt, milli, max_tokens)] = reply
        return replies

    def _reply_memo(self) -> Dict[ReplyKey, Reply]:
        """The reply memo, cleared first if the model state it was filled under moved."""
        owners = (self.knowledge, self.embedder, self.tokenizer, self.spec)
        counters = (self.knowledge.version, self.embedder.generation, self.seed)
        if counters != self._memo_counters or any(
            map(operator.is_not, owners, self._memo_owners)
        ):
            self._memo.clear()
            self._memo_owners, self._memo_counters = owners, counters
        return self._memo

    def _dispatch(
        self, parsed: ParsedPrompt, temperature: float
    ) -> Tuple[str, Dict[str, object]]:
        skill = self._extra_skills.get(parsed.task) or SKILLS.get(parsed.task)
        rng = derive_rng(
            self.seed,
            "call",
            stable_hash(parsed.raw),
            int(temperature * 1000),
        )
        ctx = SkillContext(
            prompt=parsed,
            knowledge=self.knowledge,
            embedder=self.embedder,
            rng=rng,
            base_accuracy=self.spec.base_accuracy,
            hallucination_rate=self.spec.hallucination_rate,
            reasoning_depth=self.spec.reasoning_depth,
        )
        if skill is None:
            return self._chat(parsed, ctx)
        return skill(ctx)

    def _chat(
        self, parsed: ParsedPrompt, ctx: SkillContext
    ) -> Tuple[str, Dict[str, object]]:
        """Free-form fallback: try QA parsing, else template small talk."""
        from .skills import parse_question, skill_qa

        if parse_question(parsed.input) is not None:
            return skill_qa(ctx)
        return (
            "I can help with data tasks: question answering, extraction, "
            "filtering, ranking, and planning.",
            {"reason": "chat-fallback"},
        )

    # -------------------------------------------------------------- scoring
    def _ensure_scorer(self) -> "NGramLM":
        from ..data.ngram import NGramLM

        if self._scorer is None:
            sentences = [
                f"{subject} {attribute.replace('_', ' ')} {value}"
                for (subject, attribute), value in self.knowledge.facts.items()
            ]
            self._scorer = NGramLM(order=2).fit(sentences or ["the quick brown fox"])
        return self._scorer

    def perplexity(self, text: str) -> float:
        """Perplexity of text under the model's scoring head.

        Fluent in-domain text scores low; garbage scores high — which is all
        that perplexity-based data selection relies on.
        """
        return self._ensure_scorer().perplexity(text)

    # ------------------------------------------------------------- metrics
    @property
    def usage(self) -> Usage:
        return self.ledger.total

    def reset_usage(self) -> None:
        self.ledger.reset()
        self._call_log.clear()

    @property
    def call_log(self) -> List[Dict[str, object]]:
        """The most recent ``CALL_LOG_ROWS`` calls, oldest first."""
        return [
            {"task": task, "tag": tag, "tokens": tokens} for task, tag, tokens in self._call_log
        ]


def make_llm(
    name: str = "sim-base",
    *,
    world: "Optional[World]" = None,
    seed: int = 0,
    ledger: Optional[UsageLedger] = None,
) -> SimLLM:
    """Convenience constructor from a hub tier name."""
    return SimLLM(default_hub().get(name), world=world, seed=seed, ledger=ledger)
