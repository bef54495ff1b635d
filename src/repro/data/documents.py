"""Render a :class:`~repro.data.world.World` into unstructured documents.

Each entity becomes one article whose sentences state its attributes using
one of several phrasings, interleaved with filler prose. The phrasings are
shared with the simulated LLM's reading skill (``repro.llm.skills``): an LLM
that reads a passage can extract the facts it states, and our substrate
reproduces that by inverse-matching these templates — with a configurable
noise channel standing in for model reading errors.

Reading a sentence does not try every template. At import each template,
in ``FACT_PATTERNS`` order, is filed in a **word index** under one of its
literal words: a space-delimited word of the template text with no
placeholder in it, the rarest such word across templates (``city``,
``Roughly``, ``work,``, ``CEO``). A sentence's candidates are the
templates filed under its whitespace tokens, tried in template order until
one matches. This is exact: in the template a literal word is bounded by
literal spaces or by the ends of the anchored pattern, so any sentence the
pattern matches holds that word as a whitespace token — a template that is
not a candidate cannot match — and the first candidate that matches is the
first template that matches.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..utils import derive_rng
from .world import Entity, Fact, World

# Phrasing variants per attribute. "{s}" is the subject, "{v}" the value.
FACT_TEMPLATES: Dict[Tuple[str, str], List[str]] = {
    ("city", "country"): [
        "{s} is a city in {v}.",
        "{s} lies within the borders of {v}.",
        "Travellers reach {s} by crossing into {v}.",
    ],
    ("city", "population"): [
        "{s} has a population of {v}.",
        "Roughly {v} people call {s} home.",
        "The census puts {s} at {v} residents.",
    ],
    ("company", "headquarters"): [
        "{s} is headquartered in {v}.",
        "The head office of {s} sits in {v}.",
        "{s} runs its operations out of {v}.",
    ],
    ("company", "industry"): [
        "{s} operates in the {v} industry.",
        "{s} is best known as a {v} firm.",
        "Analysts classify {s} under {v}.",
    ],
    ("company", "founded"): [
        "{s} was founded in {v}.",
        "Since its founding in {v}, {s} has grown steadily.",
        "{s} dates back to {v}.",
    ],
    ("company", "revenue_musd"): [
        "{s} reported revenue of {v} million USD.",
        "Last year {s} booked {v} million USD in revenue.",
        "Revenue at {s} reached {v} million USD.",
    ],
    ("company", "ceo"): [
        "{s} is led by chief executive {v}.",
        "The CEO of {s} is {v}.",
        "{v} serves as CEO of {s}.",
    ],
    ("person", "employer"): [
        "{s} works for {v}.",
        "{s} is employed at {v}.",
        "{s} joined {v} several years ago.",
    ],
    ("person", "role"): [
        "{s} serves as {v}.",
        "{s} holds the position of {v}.",
        "At work, {s} is the {v}.",
    ],
    ("person", "age"): [
        "{s} is {v} years old.",
        "At {v}, {s} shows no sign of slowing down.",
    ],
    ("person", "residence"): [
        "{s} lives in {v}.",
        "{s} makes a home in {v}.",
        "{s} commutes from {v}.",
    ],
    ("product", "maker"): [
        "{s} is made by {v}.",
        "{v} manufactures the {s}.",
        "The {s} is a flagship offering from {v}.",
    ],
    ("product", "category"): [
        "{s} is a {v}.",
        "The {s} ships as a {v}.",
        "Reviewers describe the {s} as a {v}.",
    ],
    ("product", "price_usd"): [
        "{s} retails for {v} USD.",
        "The list price of {s} is {v} USD.",
        "Expect to pay {v} USD for the {s}.",
    ],
    ("product", "released"): [
        "{s} was released in {v}.",
        "The {s} first shipped in {v}.",
        "{s} hit the market in {v}.",
    ],
}

_FILLER_SENTENCES = [
    "Industry observers have followed the story closely.",
    "Local media covered the development at length.",
    "The announcement drew mixed reactions.",
    "Further details are expected later this year.",
    "Independent analysts remain cautiously optimistic.",
    "The long-term implications are still debated.",
    "Supply-chain conditions remain a wildcard.",
    "Quarterly reports will tell the rest of the story.",
]


@dataclass
class Document:
    """One unstructured document with provenance metadata."""

    doc_id: str
    title: str
    text: str
    meta: Dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.text)


def _template_to_regex(template: str) -> re.Pattern:
    """Compile a fact template into a regex extracting subject and value."""
    pattern = re.escape(template)
    pattern = pattern.replace(re.escape("{s}"), r"(?P<s>[A-Z][\w\- ]*?)")
    pattern = pattern.replace(re.escape("{v}"), r"(?P<v>[\w\- ]+?)")
    return re.compile(pattern + r"$")


# Pre-compiled inverse patterns, used by the simulated reading skill.
FACT_PATTERNS: List[Tuple[Tuple[str, str], re.Pattern]] = [
    (key, _template_to_regex(tmpl))
    for key, templates in FACT_TEMPLATES.items()
    for tmpl in templates
]


#: Splits text into sentences after ``.``, ``!`` or ``?``.
SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def _index_templates() -> Dict[str, Tuple[int, ...]]:
    """Word -> positions in ``FACT_PATTERNS`` of the templates filed under it."""
    templates = [tmpl for group in FACT_TEMPLATES.values() for tmpl in group]
    literals = [[word for word in tmpl.split(" ") if "{" not in word] for tmpl in templates]
    spread = Counter(word for words in literals for word in words)
    index: Dict[str, List[int]] = {}
    for position, (tmpl, words) in enumerate(zip(templates, literals)):
        if not words:
            raise ConfigError(f"fact template has no literal word to index: {tmpl!r}")
        index.setdefault(min(words, key=spread.__getitem__), []).append(position)
    return {word: tuple(positions) for word, positions in index.items()}


_TEMPLATE_INDEX = _index_templates()


def extract_stated_facts(text: str) -> List[Fact]:
    """Perfect-reading extraction: every fact explicitly stated in ``text``.

    This is the *oracle* reading of a passage; the simulated LLM applies its
    noise channel on top of this to model imperfect comprehension.

    Each sentence yields the fact of the first template, in
    ``FACT_PATTERNS`` order, whose pattern matches it. Only the templates
    the word index files under one of the sentence's whitespace tokens are
    tried, in that order; the others cannot match (see the module
    docstring), so the result is the same as trying all of them.
    """
    facts: List[Fact] = []
    seen = set()
    index = _TEMPLATE_INDEX
    for sentence in SENTENCE_SPLIT.split(text):
        candidates = [p for word in sentence.split() for p in index.get(word, ())]
        if not candidates:
            continue
        sentence = sentence.strip()
        for position in sorted(set(candidates)):
            (etype, attr), pattern = FACT_PATTERNS[position]
            match = pattern.match(sentence)
            if match:
                fact = Fact(
                    subject=match.group("s").strip(),
                    subject_type=etype,
                    attribute=attr,
                    value=match.group("v").strip(),
                )
                if fact.key() + (fact.value,) not in seen:
                    seen.add(fact.key() + (fact.value,))
                    facts.append(fact)
                break
    return facts


class DocumentRenderer:
    """Renders world entities into article-style documents."""

    def __init__(self, world: World, seed: int = 13, filler_ratio: float = 0.5) -> None:
        self.world = world
        self.seed = seed
        self.filler_ratio = filler_ratio

    def render_entity(self, entity: Entity) -> Document:
        """One document stating all attributes of ``entity``."""
        rng = derive_rng(self.seed, "doc", entity.uid)
        sentences: List[str] = []
        for fact in entity.facts():
            templates = FACT_TEMPLATES.get((fact.subject_type, fact.attribute))
            if not templates:
                continue
            template = templates[int(rng.integers(0, len(templates)))]
            sentences.append(template.format(s=fact.subject, v=fact.value))
            if rng.random() < self.filler_ratio:
                sentences.append(
                    _FILLER_SENTENCES[int(rng.integers(0, len(_FILLER_SENTENCES)))]
                )
        return Document(
            doc_id=f"doc-{entity.uid}",
            title=f"Profile: {entity.name}",
            text=" ".join(sentences),
            meta={"entity": entity.name, "etype": entity.etype},
        )

    def render_corpus(self, *, entity_types: Optional[Sequence[str]] = None) -> List[Document]:
        """One document per entity (optionally filtered by type)."""
        docs = []
        for entity in self.world.iter_entities():
            if entity_types and entity.etype not in entity_types:
                continue
            docs.append(self.render_entity(entity))
        return docs

    def render_distractors(self, count: int) -> List[Document]:
        """Fact-free filler documents that retrieval must learn to skip."""
        rng = derive_rng(self.seed, "distractor")
        docs = []
        for i in range(count):
            n = int(rng.integers(4, 9))
            body = " ".join(
                _FILLER_SENTENCES[int(rng.integers(0, len(_FILLER_SENTENCES)))]
                for _ in range(n)
            )
            docs.append(
                Document(
                    doc_id=f"doc-distractor-{i:03d}",
                    title=f"Market notes #{i}",
                    text=body,
                    meta={"etype": "distractor"},
                )
            )
        return docs
