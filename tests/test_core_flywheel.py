"""Integration tests: the DataAI engine and the data flywheel."""

import pytest

from repro import DataAI, DataAIConfig
from repro.data import WorldConfig
from repro.flywheel import DataFlywheel


@pytest.fixture(scope="module")
def engine():
    return DataAI(
        DataAIConfig(
            model="sim-base",
            seed=4,
            world=WorldConfig(
                num_cities=12, num_companies=16, num_people=30, num_products=24, seed=3
            ),
        )
    )


class TestDataAIEngine:
    def test_world_and_documents_wired(self, engine):
        assert len(engine.documents) == len(engine.world.entities)
        assert len(engine.lake) == 4

    def test_ask_uses_rag(self, engine):
        questions = engine.qa.single_hop(15)
        correct = sum(engine.ask(q.text).text == q.answer for q in questions)
        assert correct >= 10

    def test_analytics_over_lake(self, engine):
        industry = engine.world.companies[0].attributes["industry"]
        gold = sum(
            1
            for c in engine.world.companies
            if c.attributes["industry"] == industry
        )
        answer = engine.analytics(f"count companies where industry == {industry}")
        assert answer == str(gold)

    def test_document_analytics_routing(self, engine):
        answer = engine.document_analytics.ask("how many companies")
        assert answer.kind == "aggregate"

    def test_semantic_operators_available(self, engine):
        records = [{"name": c.name, **c.attributes} for c in engine.world.companies]
        kept, stats = engine.operators.sem_filter(
            records, "founded > 1990", cascade=True
        )
        assert stats.rule_decisions == len(records)

    def test_agent_solves_multihop(self, engine):
        agent = engine.build_agent()
        questions = engine.qa.multi_hop(10)
        solved = sum(agent.run(q.text).answer == q.answer for q in questions)
        assert solved >= 5

    def test_shared_usage_ledger(self, engine):
        before = engine.usage().calls
        engine.ask(engine.qa.single_hop(1)[0].text)
        assert engine.usage().calls > before

    def test_vector_db_shares_embedder(self, engine):
        db = engine.vector_db
        coll = db.create_collection("scratch", engine.embedder.dim)
        coll.upsert(["x"], texts=["hello world"])
        assert coll.query(text="hello world", k=1)[0].id == "x"


class TestFlywheel:
    def test_accuracy_improves_over_rounds(self):
        engine = DataAI(
            DataAIConfig(
                model="sim-base",
                seed=6,
                world=WorldConfig(
                    num_cities=12, num_companies=16, num_people=30,
                    num_products=24, seed=3,
                ),
            )
        )
        flywheel = DataFlywheel(engine, questions_per_round=50)
        history = flywheel.run(4, heldout=40)
        assert len(history) == 4
        assert history[-1].heldout_accuracy > history[0].heldout_accuracy
        assert all(r.facts_learned > 0 for r in history[:2])

    def test_verification_blocks_poison(self):
        def poisoned(engine):
            wrong = 0
            for (subject, attribute), value in engine.llm.knowledge.facts.items():
                truth = engine.world.lookup(subject, attribute)
                if truth is not None and truth != value:
                    wrong += 1
            return wrong

        def run(verify):
            engine = DataAI(
                DataAIConfig(
                    model="sim-small",
                    seed=8,
                    world=WorldConfig(
                        num_cities=12, num_companies=16, num_people=30,
                        num_products=24, seed=3,
                    ),
                )
            )
            DataFlywheel(engine, verify=verify, questions_per_round=50).run(3, heldout=20)
            return poisoned(engine)

        assert run(verify=True) == 0
        assert run(verify=False) > 0

    def test_round_accounting(self, engine):
        flywheel = DataFlywheel(engine, questions_per_round=20)
        record = flywheel.run(1, heldout=10)[0]
        assert record.served == 20
        assert 0 <= record.verified <= 20
        assert record.hallucinations_blocked >= 0

    def test_rejects_zero_rounds(self, engine):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            DataFlywheel(engine).run(0)
