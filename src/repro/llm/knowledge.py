"""Parametric knowledge store of the simulated LLM.

A real LLM memorizes a *fraction* of world knowledge at pretraining time;
whether a given fact is inside or outside that fraction is exactly what RAG,
fine-tuning, and hallucination experiments manipulate. :class:`KnowledgeBase`
makes that fraction explicit: it holds a seeded sample of a world's facts,
supports lookups (closed-book answering), counterfactual sampling (the
hallucination channel draws a *plausible but wrong* value of the same
attribute), and fact injection (fine-tuning / flywheel updates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..data.world import Fact, World
from ..errors import ConfigError
from ..utils import derive_rng


@dataclass
class KnowledgeBase:
    """A queryable set of (subject, attribute) -> value facts.

    ``version`` counts :meth:`add` calls, so a reader that derived something
    from the facts (the model's reply memo) can tell that they moved.
    """

    facts: Dict[Tuple[str, str], str] = field(default_factory=dict)
    by_attribute: Dict[str, List[str]] = field(default_factory=dict)
    subjects: Set[str] = field(default_factory=set)
    version: int = field(default=0, init=False, repr=False, compare=False)

    @classmethod
    def from_world(
        cls, world: World, *, coverage: float = 1.0, seed: int = 0
    ) -> "KnowledgeBase":
        """Sample ``coverage`` of the world's facts as pretraining knowledge."""
        if not 0.0 <= coverage <= 1.0:
            raise ConfigError(f"coverage must be in [0, 1], got {coverage}")
        kb = cls()
        all_facts = world.facts()
        rng = derive_rng(seed, "kb-coverage")
        keep = rng.random(len(all_facts)) < coverage
        for fact, kept in zip(all_facts, keep):
            # Value vocabulary per attribute is always known (the model has
            # "seen the kind of thing" even when it missed the specific fact)
            # — that is what makes hallucinations plausible.
            kb.by_attribute.setdefault(fact.attribute, []).append(fact.value)
            if kept:
                kb.add(fact)
        return kb

    def add(self, fact: Fact) -> None:
        """Insert (or overwrite) a fact."""
        self.version += 1
        self.facts[fact.key()] = fact.value
        self.by_attribute.setdefault(fact.attribute, []).append(fact.value)
        self.subjects.add(fact.subject.lower())

    def add_facts(self, facts: Iterable[Fact]) -> int:
        """Bulk insert; returns number of *new* keys added."""
        added = 0
        for fact in facts:
            if fact.key() not in self.facts:
                added += 1
            self.add(fact)
        return added

    def lookup(self, subject: str, attribute: str) -> Optional[str]:
        """Closed-book recall of ``subject.attribute`` (None if unmemorized)."""
        return self.facts.get((subject.lower(), attribute))

    def plausible_wrong_value(
        self, attribute: str, correct: Optional[str], seed_material: str
    ) -> str:
        """A value of the right *type* that is not the correct answer.

        This is the hallucination channel: confidently returning a
        same-category value (a real city for a headquarters question, a real
        year for a founding question) that happens to be wrong.
        """
        pool = [v for v in self.by_attribute.get(attribute, []) if v != correct]
        if not pool:
            return "unknown-entity"
        rng = derive_rng(0, "halluc", attribute, seed_material)
        return pool[int(rng.integers(0, len(pool)))]

    def __len__(self) -> int:
        return len(self.facts)
