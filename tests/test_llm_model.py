"""Tests for the simulated LLM: protocol, skills, cost, knowledge, hub."""

import pytest

from repro.data.world import Fact
from repro.errors import BudgetExceededError, ConfigError, ModelError
from repro.llm import (
    CostModel,
    KnowledgeBase,
    Prompt,
    SimLLM,
    Usage,
    UsageLedger,
    default_hub,
    make_llm,
    parse_prompt,
)
from repro.llm.skills import compile_predicate, parse_hop_subject, parse_question


class TestProtocol:
    def test_render_parse_roundtrip(self):
        prompt = Prompt(
            task="qa",
            instruction="Answer briefly.",
            context="Ulton is a city in Fenwick.",
            examples=["Q: a A: b"],
            input="Which country is Ulton in?",
            fields={"predicate": "x > 1"},
        )
        parsed = parse_prompt(prompt.render())
        assert parsed.task == "qa"
        assert parsed.instruction == "Answer briefly."
        assert parsed.context == "Ulton is a city in Fenwick."
        assert parsed.examples == ["Q: a A: b"]
        assert parsed.input == "Which country is Ulton in?"
        assert parsed.fields["predicate"] == "x > 1"

    def test_freeform_prompt_is_chat(self):
        parsed = parse_prompt("just some words\non two lines")
        assert parsed.task == "chat"
        assert "two lines" in parsed.input

    def test_unknown_task_falls_back_to_chat(self):
        parsed = parse_prompt("### task: fly_to_moon\n### input:\nhello")
        assert parsed.task == "chat"

    def test_multiline_context_preserved(self):
        prompt = Prompt(task="qa", context="line one.\nline two.", input="q?")
        parsed = parse_prompt(prompt.render())
        assert "line one." in parsed.context and "line two." in parsed.context


class TestQuestionParsing:
    def test_parse_single_hop(self):
        parsed = parse_question("Where is Acu Corp headquartered?")
        assert parsed == ("Acu Corp", "headquarters", "company")

    def test_parse_unknown_form(self):
        assert parse_question("Tell me a joke") is None

    def test_parse_hop_subject(self):
        assert parse_hop_subject("the maker of Volt-3") == ("maker", "Volt-3")
        assert parse_hop_subject("Acu Corp") is None


class TestPredicates:
    @pytest.mark.parametrize(
        "predicate,record,expected",
        [
            ("price > 100", {"price": "150"}, True),
            ("price > 100", {"price": "50"}, False),
            ("price <= 50", {"price": "50"}, True),
            ("name == acme", {"name": "Acme"}, True),
            ("name != acme", {"name": "Acme"}, False),
            ("desc contains drone", {"desc": "a camera Drone kit"}, True),
            ("cat in a, b", {"cat": "b"}, True),
            ("cat in a, b", {"cat": "c"}, False),
        ],
    )
    def test_evaluate(self, predicate, record, expected):
        assert compile_predicate(predicate)(record) is expected

    def test_missing_field_is_unresolvable(self):
        assert compile_predicate("price > 1")({"other": "2"}) is None

    def test_non_numeric_comparison_unresolvable(self):
        assert compile_predicate("price > 1")({"price": "cheap"}) is None

    def test_garbage_predicate(self):
        assert compile_predicate("what even is this") is None


class TestSimLLMQA:
    def test_grounded_beats_closed_book(self, world, qa, big_llm):
        questions = qa.single_hop(30)
        from repro.data.documents import DocumentRenderer

        by_entity = {
            d.meta["entity"]: d
            for d in DocumentRenderer(world, seed=5).render_corpus()
        }
        closed = sum(
            big_llm.generate(Prompt(task="qa", input=q.text).render()).text == q.answer
            for q in questions
        )
        grounded = sum(
            big_llm.generate(
                Prompt(task="qa", input=q.text, context=by_entity[q.subject].text).render()
            ).text
            == q.answer
            for q in questions
        )
        assert grounded > closed
        assert grounded >= 0.8 * len(questions)

    def test_temperature_zero_deterministic(self, llm):
        prompt = Prompt(task="qa", input="Where is Acu Corp headquartered?").render()
        assert llm.generate(prompt).text == llm.generate(prompt).text

    def test_temperature_changes_seed(self, world):
        llm = make_llm("sim-small", world=world, seed=1)
        prompt = Prompt(task="qa", input="Where is Acu Corp headquartered?").render()
        outputs = {
            llm.generate(prompt, temperature=t).text for t in (0.0, 0.7, 1.3, 2.0)
        }
        # Not guaranteed to differ for every prompt, but for a small model
        # with low knowledge the failure channel varies across seeds.
        assert len(outputs) >= 1  # smoke: no crash; determinism per temp below
        assert (
            llm.generate(prompt, temperature=0.7).text
            == llm.generate(prompt, temperature=0.7).text
        )

    def test_context_window_enforced(self, world):
        llm = make_llm("sim-small", world=world)
        huge = "word " * 5000
        with pytest.raises(ModelError):
            llm.generate(Prompt(task="qa", context=huge, input="q?").render())

    def test_rejects_bad_max_tokens(self, llm):
        with pytest.raises(ModelError):
            llm.generate("hi", max_tokens=0)

    def test_truncated_reply_agrees_with_charged_tokens(self, llm):
        # The chat fallback emits a fixed multi-token reply; capping it must
        # truncate the text to exactly the charged output tokens, never
        # return the whole reply while billing only the cap.
        prompt = "hello there"
        full = llm.generate(prompt, max_tokens=64)
        assert llm.tokenizer.count(full.text) > 3
        capped = llm.generate(prompt, max_tokens=3)
        assert capped.usage.output_tokens == 3
        assert llm.tokenizer.count(capped.text) == 3
        assert full.text.startswith(capped.text)
        batched = llm.generate_many([prompt], max_tokens=3)
        assert batched[0].text == capped.text
        assert batched[0].usage == capped.usage

    def test_chat_fallback(self, llm):
        response = llm.generate("hello there")
        assert response.text
        assert response.meta.get("reason") == "chat-fallback"

    def test_chat_routes_questions(self, world, big_llm):
        company = world.companies[0]
        response = big_llm.generate(f"Where is {company.name} headquartered?")
        # Routed through QA; may be right or hallucinated but not small talk.
        assert "data tasks" not in response.text


class TestKnowledge:
    def test_coverage_bounds(self, world):
        full = KnowledgeBase.from_world(world, coverage=1.0)
        none = KnowledgeBase.from_world(world, coverage=0.0)
        assert len(full) == len(world.facts())
        assert len(none) == 0

    def test_coverage_rejects_out_of_range(self, world):
        with pytest.raises(ConfigError):
            KnowledgeBase.from_world(world, coverage=1.5)

    def test_lookup_case_insensitive(self, world):
        kb = KnowledgeBase.from_world(world, coverage=1.0)
        company = world.companies[0]
        assert kb.lookup(company.name.lower(), "industry") == company.attributes["industry"]

    def test_plausible_wrong_value_is_wrong_but_typed(self, world):
        kb = KnowledgeBase.from_world(world, coverage=1.0)
        company = world.companies[0]
        truth = company.attributes["headquarters"]
        wrong = kb.plausible_wrong_value("headquarters", truth, "seed")
        assert wrong != truth
        assert wrong in {c.name for c in world.cities}

    def test_add_facts_counts_new_only(self):
        kb = KnowledgeBase()
        fact = Fact("X", "company", "industry", "biotech")
        assert kb.add_facts([fact]) == 1
        assert kb.add_facts([fact]) == 0

    def test_fine_tune_enables_recall(self, world):
        llm = SimLLM(default_hub().get("sim-large"), knowledge=KnowledgeBase(), seed=0)
        company = world.companies[0]
        question = Prompt(
            task="qa", input=f"What industry is {company.name} in?"
        ).render()
        before = llm.generate(question).text
        llm.fine_tune([Fact(company.name, "company", "industry", company.attributes["industry"])])
        # Nothing else is in the KB, so hallucination pool is tiny; the
        # large model now answers correctly with high probability.
        after = llm.generate(question).text
        assert after == company.attributes["industry"]
        del before


class TestCostAndLedger:
    def test_usage_addition(self):
        a = Usage(input_tokens=10, output_tokens=2, latency_s=1.0, usd=0.1, calls=1)
        total = a + a
        assert total.input_tokens == 20 and total.calls == 2
        assert total.total_tokens == 24

    def test_cost_model_monotonic_in_tokens(self):
        cost = CostModel()
        small = cost.usage(100, 10)
        large = cost.usage(1000, 10)
        assert large.latency_s > small.latency_s
        assert large.usd > small.usd

    def test_ttft_scales_with_input(self):
        cost = CostModel(prefill_tps=1000, fixed_overhead_s=0.0)
        assert cost.ttft(2000) == pytest.approx(2.0)

    def test_rejects_nonpositive_throughput(self):
        with pytest.raises(ConfigError):
            CostModel(prefill_tps=0)

    def test_ledger_budget_enforced(self, world):
        ledger = UsageLedger(max_calls=2)
        llm = make_llm("sim-base", world=world, ledger=ledger)
        llm.generate("hello")
        llm.generate("hello again")
        with pytest.raises(BudgetExceededError):
            llm.generate("third call")

    def test_budget_tripping_mid_batch_keeps_the_calls_before_it(self, world):
        # A batch charges and logs in call order, like a loop of generate.
        prompts = ["first call", "second call", "first call", "fourth call"]
        ledgers = []
        for batched in (True, False):
            ledger = UsageLedger(max_calls=3)
            llm = make_llm("sim-base", world=world, ledger=ledger)
            with pytest.raises(BudgetExceededError, match="call budget 3 exceeded"):
                if batched:
                    llm.generate_many(prompts, tag="t")
                else:
                    for prompt in prompts:
                        llm.generate(prompt, tag="t")
            assert ledger.total.calls == 3 and len(llm.call_log) == 3
            ledgers.append((ledger.total, ledger.by_tag, llm.call_log))
        assert ledgers[0] == ledgers[1]

    def test_ledger_usd_budget(self):
        ledger = UsageLedger(max_usd=0.001)
        with pytest.raises(BudgetExceededError):
            ledger.charge(Usage(usd=0.5, calls=1))
        assert ledger.total.usd == 0.0

    def test_ledger_tags(self, llm):
        llm.generate("hello", tag="alpha")
        llm.generate("hello", tag="beta")
        assert set(llm.ledger.by_tag) == {"alpha", "beta"}

    def test_reset_usage(self, llm):
        llm.generate("hello")
        llm.reset_usage()
        assert llm.usage.calls == 0
        assert llm.call_log == []

    def test_call_log_keeps_the_most_recent_calls(self, monkeypatch):
        from repro.llm import model

        monkeypatch.setattr(model, "CALL_LOG_ROWS", 2)
        llm = SimLLM()
        for tag in ("a", "b", "c"):
            llm.generate("hello", tag=tag)
        assert [entry["tag"] for entry in llm.call_log] == ["b", "c"]
        assert llm.usage.calls == 3


class TestHub:
    def test_builtin_tiers(self):
        hub = default_hub()
        assert {"sim-small", "sim-base", "sim-large"} <= set(hub.names())

    def test_tiers_ordered_by_accuracy(self):
        hub = default_hub()
        small = hub.get("sim-small")
        large = hub.get("sim-large")
        assert large.base_accuracy > small.base_accuracy
        assert large.hallucination_rate < small.hallucination_rate
        assert large.cost.usd_per_1k_output > small.cost.usd_per_1k_output

    def test_unknown_model_raises(self):
        with pytest.raises(ConfigError):
            default_hub().get("gpt-17")

    def test_scaled_override(self):
        spec = default_hub().get("sim-base").scaled(base_accuracy=0.5)
        assert spec.base_accuracy == 0.5

    def test_spec_validation(self):
        from repro.llm.hub import ModelSpec

        with pytest.raises(ConfigError):
            ModelSpec(
                name="bad", tier="small", params_b=1, base_accuracy=2.0,
                hallucination_rate=0.1, knowledge_coverage=0.5,
                reasoning_depth=1, context_window=4096, cost=CostModel(),
            )

    def test_register_skill_overrides(self, llm):
        llm.register_skill("qa", lambda ctx: ("custom!", {}))
        assert llm.generate(Prompt(task="qa", input="anything?").render()).text == "custom!"


class TestScoring:
    def test_perplexity_orders_fluency(self, world):
        llm = make_llm("sim-base", world=world)
        company = world.companies[0]
        fluent = f"{company.name} industry {company.attributes['industry']}"
        garbage = "zxqv jkpw qqng vvbx mmzk"
        assert llm.perplexity(fluent) < llm.perplexity(garbage)
