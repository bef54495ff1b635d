"""Tests for the synthetic world and its document rendering."""

import pytest

from repro.data.documents import (
    DocumentRenderer,
    extract_stated_facts,
)
from repro.data.world import (
    ATTRIBUTE_QUESTIONS,
    QAGenerator,
    World,
    WorldConfig,
)
from repro.errors import ConfigError


class TestWorldConfig:
    def test_rejects_zero_counts(self):
        with pytest.raises(ConfigError):
            World(WorldConfig(num_cities=0))

    def test_rejects_oversized_name_space(self):
        with pytest.raises(ConfigError):
            World(WorldConfig(num_people=10_000))


class TestWorld:
    def test_entity_counts(self, world):
        cfg = world.config
        assert len(world.cities) == cfg.num_cities
        assert len(world.companies) == cfg.num_companies
        assert len(world.people) == cfg.num_people
        assert len(world.products) == cfg.num_products

    def test_names_unique_within_type(self, world):
        for bucket in (world.cities, world.companies, world.people, world.products):
            names = [e.name for e in bucket]
            assert len(set(names)) == len(names)

    def test_referential_integrity(self, world):
        city_names = {c.name for c in world.cities}
        company_names = {c.name for c in world.companies}
        person_names = {p.name for p in world.people}
        for company in world.companies:
            assert company.attributes["headquarters"] in city_names
            assert company.attributes["ceo"] in person_names
        for person in world.people:
            assert person.attributes["employer"] in company_names
            assert person.attributes["residence"] in city_names
        for product in world.products:
            assert product.attributes["maker"] in company_names

    def test_deterministic_given_seed(self):
        a = World(WorldConfig(seed=42))
        b = World(WorldConfig(seed=42))
        assert [f.value for f in a.facts()] == [f.value for f in b.facts()]

    def test_seed_changes_world(self):
        a = World(WorldConfig(seed=1))
        b = World(WorldConfig(seed=2))
        assert [f.value for f in a.facts()] != [f.value for f in b.facts()]

    def test_lookup(self, world):
        company = world.companies[0]
        assert world.lookup(company.name, "industry") == company.attributes["industry"]
        assert world.lookup(company.name.upper(), "industry") == company.attributes["industry"]
        assert world.lookup("Nobody Inc", "industry") is None

    def test_facts_cover_all_attributes(self, world):
        facts = world.facts()
        expected = sum(len(e.attributes) for e in world.entities.values())
        assert len(facts) == expected


class TestQAGenerator:
    def test_single_hop_gold_matches_world(self, world, qa):
        for q in qa.single_hop(30):
            assert world.lookup(q.subject, q.attribute) == q.answer
            assert q.hops == 1

    def test_single_hop_templates_parse(self, qa):
        templates = set(ATTRIBUTE_QUESTIONS.values())
        for q in qa.single_hop(10):
            assert any(
                t.split("{")[0] and q.text.startswith(t.split("{")[0])
                or "{subject}" in t
                for t in templates
            )

    def test_multi_hop_chain_resolves(self, world, qa):
        for q in qa.multi_hop(20):
            (start, rel), (bridge, attr) = q.chain
            assert world.lookup(start, rel) == bridge
            assert world.lookup(bridge, attr) == q.answer
            assert q.hops == 2

    def test_deterministic(self, world):
        a = QAGenerator(world, seed=3).single_hop(5)
        b = QAGenerator(world, seed=3).single_hop(5)
        assert [q.text for q in a] == [q.text for q in b]


class TestDocumentRenderer:
    def test_one_doc_per_entity(self, world, docs):
        assert len(docs) == len(world.entities)

    def test_doc_metadata(self, docs):
        for doc in docs:
            assert doc.meta["etype"] in {"city", "company", "person", "product"}
            assert doc.meta["entity"]

    def test_all_facts_stated(self, world, docs):
        """Every world fact must be recoverable from its entity's document."""
        by_entity = {d.meta["entity"]: d for d in docs}
        for entity in world.iter_entities():
            stated = {
                (f.attribute): f.value
                for f in extract_stated_facts(by_entity[entity.name].text)
                if f.subject == entity.name
            }
            for attr, value in entity.attributes.items():
                assert stated.get(attr) == value, (entity.name, attr)

    def test_extraction_never_invents_facts(self, world, docs):
        for doc in docs[:40]:
            for fact in extract_stated_facts(doc.text):
                truth = world.lookup(fact.subject, fact.attribute)
                assert truth == fact.value

    def test_distractors_carry_no_facts(self, world):
        renderer = DocumentRenderer(world, seed=5)
        for doc in renderer.render_distractors(10):
            assert extract_stated_facts(doc.text) == []

    def test_entity_type_filter(self, world):
        renderer = DocumentRenderer(world, seed=5)
        only = renderer.render_corpus(entity_types=["city"])
        assert len(only) == len(world.cities)


class TestExtractStatedFacts:
    """The word index tries only templates filed under a sentence's tokens;
    each case failed on one broken variant of it."""

    @staticmethod
    def _facts(text):
        facts = extract_stated_facts(text)
        return [(f.subject, f.subject_type, f.attribute, f.value) for f in facts]

    def test_earlier_template_wins_when_two_match(self):
        # "{s} is a {v}." (product category) also matches; the city template
        # comes first, so candidates must be tried in template order.
        assert self._facts("Oslo is a city in Norway.") == [("Oslo", "city", "country", "Norway")]

    def test_later_candidate_tried_when_the_first_fails(self):
        # "Analysts" files "Analysts classify {s} under {v}.", which fails here.
        assert self._facts("Analysts was founded in 1999.") == [
            ("Analysts", "company", "founded", "1999")
        ]

    def test_index_words_keep_their_punctuation(self):
        # Filed under the whitespace tokens "work," and "old.", not "work"/"old".
        assert self._facts("At work, Ann Lee is the CEO. Ann Lee is 41 years old.") == [
            ("Ann Lee", "person", "role", "CEO"),
            ("Ann Lee", "person", "age", "41"),
        ]
