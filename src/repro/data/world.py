"""Synthetic entity-relation world with known ground truth.

Every LLM4Data experiment needs a corpus whose true answers are known so
accuracy is measurable. :class:`World` generates a closed universe of typed
entities (cities, companies, people, products) with attributes and
cross-references, from a single seed. Downstream modules render the world
into documents (``repro.data.documents``), relational tables and JSON
(``repro.datalake``), and question/answer pairs (:class:`QAGenerator`) —
all grounded in the same facts, so cross-modal joins and multi-hop
questions have verifiable answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..utils import derive_rng

# Name material. Combinatorial products of these give thousands of distinct,
# pronounceable, collision-checked names.
_CITY_STEMS = [
    "Aren", "Bel", "Cor", "Dun", "Elm", "Fal", "Gren", "Hal", "Ist", "Jor",
    "Kel", "Lor", "Mar", "Nor", "Ost", "Pel", "Quil", "Ros", "Sel", "Tor",
    "Ul", "Ver", "Wex", "Yor", "Zan",
]
_CITY_SUFFIXES = ["burg", "ford", "haven", "mont", "port", "stad", "ton", "ville", "wick"]
_COUNTRIES = [
    "Avaria", "Borland", "Cestova", "Drellia", "Esmara", "Fenwick",
    "Galdor", "Hestia", "Illyra", "Jovenia", "Kestral", "Lumeria",
]
_FIRST_NAMES = [
    "Ada", "Boris", "Clara", "Dmitri", "Elena", "Felix", "Greta", "Hugo",
    "Iris", "Jonas", "Karin", "Lars", "Mira", "Nils", "Olga", "Pavel",
    "Quinn", "Rosa", "Sven", "Tara", "Ugo", "Vera", "Wim", "Xenia", "Yuri", "Zoe",
]
_LAST_NAMES = [
    "Albrecht", "Berger", "Castell", "Dahl", "Eriksen", "Falk", "Grau",
    "Holm", "Iversen", "Jansen", "Krause", "Lindt", "Moreau", "Novak",
    "Olsen", "Petrov", "Quist", "Rohde", "Strand", "Thorne", "Ude",
    "Vogel", "Weiss", "Ysel", "Zimmer",
]
_COMPANY_STEMS = [
    "Acu", "Bryte", "Cirro", "Delta", "Ensor", "Flux", "Gale", "Helio",
    "Iono", "Junc", "Kyro", "Lumen", "Mecha", "Nimbo", "Opti", "Pyro",
    "Quanta", "Rhizo", "Strato", "Tensor", "Ultra", "Vanta", "Wavo", "Xeno", "Zephyr",
]
_COMPANY_SUFFIXES = ["Corp", "Dynamics", "Industries", "Labs", "Logic", "Systems", "Works"]
_INDUSTRIES = [
    "aerospace", "agritech", "biotech", "cloud computing", "energy",
    "finance", "logistics", "robotics", "semiconductors", "telecom",
]
_PRODUCT_STEMS = [
    "Aero", "Blaze", "Core", "Dash", "Echo", "Forge", "Glide", "Halo",
    "Ion", "Jet", "Krait", "Lift", "Mono", "Nova", "Orbit", "Pulse",
    "Quark", "Rift", "Spark", "Terra", "Unity", "Volt", "Wisp", "Xact", "Zen",
]
_PRODUCT_CATEGORIES = [
    "analytics platform", "battery pack", "camera drone", "database engine",
    "edge router", "flight controller", "gene sequencer", "humanoid arm",
    "inference chip", "juice press",
]
_ROLES = [
    "chief executive", "chief scientist", "head of design", "lead engineer",
    "operations director", "research fellow",
]


@dataclass(frozen=True)
class Fact:
    """One ground-truth statement: ``subject.attribute = value``."""

    subject: str
    subject_type: str
    attribute: str
    value: str

    def key(self) -> Tuple[str, str]:
        return (self.subject.lower(), self.attribute)


@dataclass
class Entity:
    """A typed entity with an attribute dict (values already stringified)."""

    uid: str
    etype: str
    name: str
    attributes: Dict[str, str] = field(default_factory=dict)

    def facts(self) -> List[Fact]:
        return [
            Fact(self.name, self.etype, attr, value)
            for attr, value in sorted(self.attributes.items())
        ]


@dataclass
class WorldConfig:
    """Sizing knobs for :class:`World`."""

    num_cities: int = 20
    num_companies: int = 30
    num_people: int = 60
    num_products: int = 50
    seed: int = 7

    def validate(self) -> None:
        for name in ("num_cities", "num_companies", "num_people", "num_products"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.num_cities > len(_CITY_STEMS) * len(_CITY_SUFFIXES):
            raise ConfigError("num_cities exceeds distinct name space")
        if self.num_companies > len(_COMPANY_STEMS) * len(_COMPANY_SUFFIXES):
            raise ConfigError("num_companies exceeds distinct name space")
        if self.num_people > len(_FIRST_NAMES) * len(_LAST_NAMES):
            raise ConfigError("num_people exceeds distinct name space")
        if self.num_products > len(_PRODUCT_STEMS) * 40:
            raise ConfigError("num_products exceeds distinct name space")


class World:
    """A closed, seeded universe of entities and facts.

    Entity attribute values that refer to other entities (a company's
    headquarters city, a product's maker) always name entities that exist in
    the world, which is what makes multi-hop questions and cross-modal joins
    answerable.
    """

    def __init__(self, config: Optional[WorldConfig] = None) -> None:
        self.config = config or WorldConfig()
        self.config.validate()
        self.entities: Dict[str, Entity] = {}
        self.cities: List[Entity] = []
        self.companies: List[Entity] = []
        self.people: List[Entity] = []
        self.products: List[Entity] = []
        self._build()

    # ------------------------------------------------------------ building
    def _unique_names(self, rng, stems, suffixes, count, joiner="") -> List[str]:
        names: List[str] = []
        seen = set()
        while len(names) < count:
            name = f"{rng.choice(stems)}{joiner}{rng.choice(suffixes)}"
            if name not in seen:
                seen.add(name)
                names.append(name)
        return names

    def _build(self) -> None:
        cfg = self.config
        rng = derive_rng(cfg.seed, "world")

        city_names = self._unique_names(rng, _CITY_STEMS, _CITY_SUFFIXES, cfg.num_cities)
        for i, name in enumerate(city_names):
            city = Entity(
                uid=f"city-{i:03d}",
                etype="city",
                name=name,
                attributes={
                    "country": str(rng.choice(_COUNTRIES)),
                    "population": str(int(rng.integers(40, 9_000)) * 1000),
                },
            )
            self._register(city, self.cities)

        company_names = self._unique_names(
            rng, _COMPANY_STEMS, _COMPANY_SUFFIXES, cfg.num_companies, joiner=" "
        )
        for i, name in enumerate(company_names):
            company = Entity(
                uid=f"co-{i:03d}",
                etype="company",
                name=name,
                attributes={
                    "headquarters": str(rng.choice(city_names)),
                    "industry": str(rng.choice(_INDUSTRIES)),
                    "founded": str(int(rng.integers(1955, 2023))),
                    "revenue_musd": str(int(rng.integers(5, 90_000))),
                },
            )
            self._register(company, self.companies)

        person_names = self._unique_names(
            rng, _FIRST_NAMES, _LAST_NAMES, cfg.num_people, joiner=" "
        )
        for i, name in enumerate(person_names):
            person = Entity(
                uid=f"p-{i:03d}",
                etype="person",
                name=name,
                attributes={
                    "employer": str(rng.choice(company_names)),
                    "role": str(rng.choice(_ROLES)),
                    "age": str(int(rng.integers(24, 70))),
                    "residence": str(rng.choice(city_names)),
                },
            )
            self._register(person, self.people)

        product_suffixes = [f"{n}" for n in range(1, 41)]
        product_names = self._unique_names(
            rng, _PRODUCT_STEMS, product_suffixes, cfg.num_products, joiner="-"
        )
        for i, name in enumerate(product_names):
            product = Entity(
                uid=f"prod-{i:03d}",
                etype="product",
                name=name,
                attributes={
                    "maker": str(rng.choice(company_names)),
                    "category": str(rng.choice(_PRODUCT_CATEGORIES)),
                    "price_usd": str(int(rng.integers(20, 250_000))),
                    "released": str(int(rng.integers(2005, 2026))),
                },
            )
            self._register(product, self.products)

        # Every company gets a CEO drawn from people employed by it when
        # possible, otherwise any person (keeps referential integrity).
        by_employer: Dict[str, List[Entity]] = {}
        for person in self.people:
            by_employer.setdefault(person.attributes["employer"], []).append(person)
        for company in self.companies:
            staff = by_employer.get(company.name) or self.people
            ceo = staff[int(rng.integers(0, len(staff)))]
            company.attributes["ceo"] = ceo.name

    def _register(self, entity: Entity, bucket: List[Entity]) -> None:
        self.entities[entity.uid] = entity
        bucket.append(entity)

    # ------------------------------------------------------------- queries
    def facts(self) -> List[Fact]:
        """All ground-truth facts, deterministically ordered."""
        out: List[Fact] = []
        for uid in sorted(self.entities):
            out.extend(self.entities[uid].facts())
        return out

    def entity_by_name(self, name: str) -> Optional[Entity]:
        lowered = name.lower()
        for entity in self.entities.values():
            if entity.name.lower() == lowered:
                return entity
        return None

    def lookup(self, subject: str, attribute: str) -> Optional[str]:
        """Ground-truth value of ``subject.attribute`` or None."""
        entity = self.entity_by_name(subject)
        if entity is None:
            return None
        return entity.attributes.get(attribute)

    def entities_of_type(self, etype: str) -> List[Entity]:
        return [e for e in self.entities.values() if e.etype == etype]

    def iter_entities(self) -> Iterator[Entity]:
        for uid in sorted(self.entities):
            yield self.entities[uid]


# Attribute phrasing used by both the document renderer and the QA
# generator, so questions match how facts appear in text.
ATTRIBUTE_QUESTIONS: Dict[Tuple[str, str], str] = {
    ("city", "country"): "Which country is {subject} in?",
    ("city", "population"): "What is the population of {subject}?",
    ("company", "headquarters"): "Where is {subject} headquartered?",
    ("company", "industry"): "What industry is {subject} in?",
    ("company", "founded"): "In what year was {subject} founded?",
    ("company", "revenue_musd"): "What is the revenue of {subject} in million USD?",
    ("company", "ceo"): "Who is the CEO of {subject}?",
    ("person", "employer"): "Which company does {subject} work for?",
    ("person", "role"): "What is the role of {subject}?",
    ("person", "age"): "How old is {subject}?",
    ("person", "residence"): "Which city does {subject} live in?",
    ("product", "maker"): "Which company makes {subject}?",
    ("product", "category"): "What kind of product is {subject}?",
    ("product", "price_usd"): "What is the price of {subject} in USD?",
    ("product", "released"): "In what year was {subject} released?",
}

# (first_attr on start_type -> intermediate entity type, second_attr) chains
# used to build two-hop questions with guaranteed answers.
_HOP_CHAINS = [
    ("product", "maker", "company", "headquarters"),
    ("product", "maker", "company", "ceo"),
    ("product", "maker", "company", "industry"),
    ("person", "employer", "company", "headquarters"),
    ("person", "employer", "company", "founded"),
    ("person", "residence", "city", "country"),
    ("company", "headquarters", "city", "country"),
    ("company", "headquarters", "city", "population"),
    ("company", "ceo", "person", "age"),
]


@dataclass(frozen=True)
class Question:
    """A natural-language question with its gold answer and provenance."""

    text: str
    answer: str
    hops: int
    subject: str
    attribute: str
    chain: Tuple[Tuple[str, str], ...] = ()


class QAGenerator:
    """Generates single-hop and two-hop questions with gold answers."""

    def __init__(self, world: World, seed: int = 11) -> None:
        self.world = world
        self.seed = seed

    def single_hop(self, count: int) -> List[Question]:
        """``count`` single-hop questions over random (entity, attribute)."""
        rng = derive_rng(self.seed, "qa1")
        entities = list(self.world.iter_entities())
        questions: List[Question] = []
        while len(questions) < count:
            entity = entities[int(rng.integers(0, len(entities)))]
            keyed = [
                (attr, tmpl)
                for (etype, attr), tmpl in ATTRIBUTE_QUESTIONS.items()
                if etype == entity.etype and attr in entity.attributes
            ]
            attr, template = keyed[int(rng.integers(0, len(keyed)))]
            questions.append(
                Question(
                    text=template.format(subject=entity.name),
                    answer=entity.attributes[attr],
                    hops=1,
                    subject=entity.name,
                    attribute=attr,
                    chain=((entity.name, attr),),
                )
            )
        return questions

    def multi_hop(self, count: int) -> List[Question]:
        """``count`` two-hop questions whose chains resolve inside the world."""
        rng = derive_rng(self.seed, "qa2")
        questions: List[Question] = []
        attempts = 0
        while len(questions) < count:
            attempts += 1
            if attempts > count * 200:
                raise ConfigError("world too small to generate multi-hop questions")
            start_type, attr1, mid_type, attr2 = _HOP_CHAINS[
                int(rng.integers(0, len(_HOP_CHAINS)))
            ]
            starts = self.world.entities_of_type(start_type)
            start = starts[int(rng.integers(0, len(starts)))]
            mid_name = start.attributes.get(attr1)
            if mid_name is None:
                continue
            mid = self.world.entity_by_name(mid_name)
            if mid is None or mid.etype != mid_type:
                continue
            answer = mid.attributes.get(attr2)
            if answer is None:
                continue
            inner_q = ATTRIBUTE_QUESTIONS[(start_type, attr1)].format(subject=start.name)
            outer_template = ATTRIBUTE_QUESTIONS[(mid_type, attr2)]
            text = outer_template.format(
                subject=f"the {attr1.replace('_', ' ')} of {start.name}"
            )
            questions.append(
                Question(
                    text=text,
                    answer=answer,
                    hops=2,
                    subject=start.name,
                    attribute=attr2,
                    chain=((start.name, attr1), (mid_name, attr2)),
                )
            )
            del inner_q
        return questions
