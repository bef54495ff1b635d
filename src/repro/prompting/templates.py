"""Prompt template registry and automatic prompt assembly.

Covers the "automatic prompting generation" challenge from §2.2.1: a
library of per-task instruction templates, variable substitution with
missing-variable checking, and an :class:`AutoPrompter` that assembles a
full task prompt (instruction + selected demonstrations + context budget)
from declarative parts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..data.documents import SENTENCE_SPLIT
from ..errors import ConfigError
from ..llm.protocol import Prompt
from ..llm.tokenizer import Tokenizer, default_tokenizer

_VARIABLE_RE = re.compile(r"\{(\w+)\}")


@dataclass(frozen=True)
class PromptTemplate:
    """A named instruction template with ``{variable}`` slots."""

    name: str
    task: str
    instruction: str

    def variables(self) -> List[str]:
        return sorted(set(_VARIABLE_RE.findall(self.instruction)))

    def render_instruction(self, **values: str) -> str:
        missing = [v for v in self.variables() if v not in values]
        if missing:
            raise ConfigError(f"template {self.name!r} missing variables {missing}")
        return self.instruction.format(**values)


_BUILTIN_TEMPLATES = [
    PromptTemplate("qa-grounded", "qa", "Answer using only the provided context."),
    PromptTemplate("qa-closed", "qa", "Answer from your own knowledge."),
    PromptTemplate(
        "filter", "judge", "Decide whether the item satisfies: {predicate}."
    ),
    PromptTemplate(
        "extract-fields", "extract", "Extract the fields {attributes} for {subject}."
    ),
    PromptTemplate("map-field", "map", "Return the value of field '{field}'."),
    PromptTemplate("rank-passages", "rank", "Order the passages by relevance."),
    PromptTemplate(
        "decompose-question", "decompose", "Break the question into single-hop steps."
    ),
    PromptTemplate("summarize-one", "summarize", "Summarize in one sentence."),
]


class TemplateLibrary:
    """Registry of :class:`PromptTemplate` keyed by name."""

    def __init__(self, include_builtin: bool = True) -> None:
        self._templates: Dict[str, PromptTemplate] = {}
        if include_builtin:
            for t in _BUILTIN_TEMPLATES:
                self._templates[t.name] = t

    def register(self, template: PromptTemplate, *, overwrite: bool = False) -> None:
        if template.name in self._templates and not overwrite:
            raise ConfigError(f"template {template.name!r} already registered")
        self._templates[template.name] = template

    def get(self, name: str) -> PromptTemplate:
        try:
            return self._templates[name]
        except KeyError:
            raise ConfigError(
                f"unknown template {name!r}; available: {sorted(self._templates)}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._templates)


@dataclass
class Demonstration:
    """One few-shot example as (input, output)."""

    input: str
    output: str

    def render(self) -> str:
        return f"Q: {self.input} A: {self.output}"


class AutoPrompter:
    """Assembles complete prompts under a token budget.

    Priority when trimming to fit: instruction and input are kept, then as
    much context as fits, then demonstrations (least critical first to go).
    """

    def __init__(
        self,
        library: Optional[TemplateLibrary] = None,
        *,
        tokenizer: Optional[Tokenizer] = None,
        max_tokens: Optional[int] = None,
    ) -> None:
        self.library = library or TemplateLibrary()
        self.tokenizer = tokenizer or default_tokenizer()
        self.max_tokens = max_tokens

    def build(
        self,
        template_name: str,
        *,
        input_text: str,
        context: str = "",
        demonstrations: Sequence[Demonstration] = (),
        variables: Optional[Dict[str, str]] = None,
        fields: Optional[Dict[str, str]] = None,
    ) -> Prompt:
        template = self.library.get(template_name)
        instruction = template.render_instruction(**(variables or {}))
        prompt = Prompt(
            task=template.task,
            instruction=instruction,
            context=context,
            examples=[d.render() for d in demonstrations],
            input=input_text,
            fields=dict(fields or {}),
        )
        if self.max_tokens is not None:
            prompt = self._fit(prompt)
        return prompt

    def _fit(self, prompt: Prompt) -> Prompt:
        budget = self.max_tokens
        assert budget is not None
        count = self.tokenizer.count

        def total(p: Prompt) -> int:
            return count(p.render())

        if total(prompt) <= budget:
            return prompt
        # Drop demonstrations from the end first.
        examples = list(prompt.examples)
        while examples and total(
            Prompt(
                prompt.task,
                prompt.instruction,
                prompt.context,
                examples,
                prompt.input,
                prompt.fields,
            )
        ) > budget:
            examples.pop()
        prompt = Prompt(
            prompt.task, prompt.instruction, prompt.context, examples, prompt.input, prompt.fields
        )
        if total(prompt) <= budget:
            return prompt
        # Then trim context sentences from the end.
        sentences = SENTENCE_SPLIT.split(prompt.context)
        while len(sentences) > 1:
            sentences.pop()
            candidate = Prompt(
                prompt.task,
                prompt.instruction,
                " ".join(sentences),
                examples,
                prompt.input,
                prompt.fields,
            )
            if total(candidate) <= budget:
                return candidate
        return Prompt(
            prompt.task, prompt.instruction, "", examples, prompt.input, prompt.fields
        )
