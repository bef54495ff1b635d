"""Tests for the extension modules: caching, reasoning, NL2Viz, query
rewriting, SFT/RLHF prep, SJF scheduling."""

import copy

import pytest

from repro.data import World, WorldConfig
from repro.data.documents import DocumentRenderer, extract_stated_facts
from repro.datalake import DataLake, NL2VizEngine, VizSpec, execute_spec, render_ascii, translate_viz, validate_spec
from repro.dbtasks import RULES, QueryRewriter, query_cost, run_query
from repro.errors import ConfigError, ExecutionError
from repro.llm import (
    CachedLLM,
    Prompt,
    best_of_n_grounded,
    chain_of_questions,
    make_llm,
    self_consistency,
)
from repro.llm.cache import _key
from repro.llm.protocol import parse_prompt
from repro.prep import (
    InstructionGenerator,
    PreferencePairBuilder,
    RewardModel,
    filter_sft_pairs,
)


@pytest.fixture(scope="module")
def lake(world):
    return DataLake.from_world(world)


@pytest.fixture(scope="module")
def tables(lake):
    return {a.name: a.table for a in lake.by_modality("table")}


class TestCachedLLM:
    def test_exact_hit_is_free_and_identical(self, world):
        llm = make_llm("sim-base", world=world, seed=30)
        cached = CachedLLM(llm)
        prompt = Prompt(task="qa", input="Where is Acu Corp headquartered?").render()
        first = cached.generate(prompt)
        calls_after_first = llm.usage.calls
        second = cached.generate(prompt)
        assert llm.usage.calls == calls_after_first  # no backend call
        assert second.text == first.text
        assert cached.stats.exact_hits == 1

    def test_semantic_hit_on_paraphrase(self, world):
        llm = make_llm("sim-base", world=world, seed=30)
        cached = CachedLLM(llm, semantic_threshold=0.7)
        base = Prompt(task="qa", input="Where is Acu Corp headquartered?").render()
        paraphrase = Prompt(
            task="qa", input="Where is Acu Corp headquartered ?"
        ).render()
        first = cached.generate(base)
        second = cached.generate(paraphrase)
        assert second.text == first.text
        assert cached.stats.semantic_hits == 1

    def test_dissimilar_inputs_miss(self, world):
        llm = make_llm("sim-base", world=world, seed=30)
        cached = CachedLLM(llm, semantic_threshold=0.9)
        cached.generate(Prompt(task="qa", input="Where is Acu Corp headquartered?").render())
        cached.generate(Prompt(task="qa", input="How old is Ada Dahl?").render())
        assert cached.stats.semantic_hits == 0
        assert cached.stats.misses == 2

    def test_nonzero_temperature_not_cached(self, world):
        llm = make_llm("sim-base", world=world, seed=30)
        cached = CachedLLM(llm)
        prompt = Prompt(task="qa", input="Where is Acu Corp headquartered?").render()
        cached.generate(prompt, temperature=0.5)
        assert len(cached) == 0

    def test_fine_tune_invalidates(self, world):
        llm = make_llm("sim-base", world=world, seed=30)
        cached = CachedLLM(llm)
        cached.generate(Prompt(task="qa", input="Where is Acu Corp headquartered?").render())
        assert len(cached) == 1
        cached.fine_tune([])
        assert len(cached) == 0

    def test_capacity_eviction(self, world):
        llm = make_llm("sim-base", world=world, seed=30)
        cached = CachedLLM(llm, max_entries=3)
        for i in range(5):
            cached.generate(Prompt(task="qa", input=f"How old is person {i}?").render())
        assert len(cached) == 3

    def test_semantic_hit_requires_same_max_tokens(self, world):
        # Regression: a semantic hit must not return a response generated
        # under a *larger* max_tokens than the caller asked for.
        llm = make_llm("sim-base", world=world, seed=30)
        cached = CachedLLM(llm, semantic_threshold=0.7)
        base = Prompt(task="qa", input="Where is Acu Corp headquartered?").render()
        paraphrase = Prompt(task="qa", input="Where is Acu Corp headquartered ?").render()
        cached.generate(base, max_tokens=256)
        calls_before = llm.usage.calls
        tight = cached.generate(paraphrase, max_tokens=8)
        assert llm.usage.calls == calls_before + 1  # miss: params differ
        assert cached.stats.semantic_hits == 0
        assert tight.usage.output_tokens <= 8

    def test_semantic_hit_with_matching_params(self, world):
        llm = make_llm("sim-base", world=world, seed=30)
        cached = CachedLLM(llm, semantic_threshold=0.7)
        base = Prompt(task="qa", input="Where is Acu Corp headquartered?").render()
        paraphrase = Prompt(task="qa", input="Where is Acu Corp headquartered ?").render()
        first = cached.generate(base, max_tokens=64)
        second = cached.generate(paraphrase, max_tokens=64)
        assert second.text == first.text
        assert cached.stats.semantic_hits == 1

    def test_fifo_eviction_keeps_stores_consistent(self, world):
        # Interleave two tasks so eviction pops across *different* per-task
        # lists; the exact dict (whose insertion order is the FIFO) and the
        # per-task semantic lists must stay in lockstep, with the semantic
        # layer off (empty semantic store) and on.
        prompts = [
            Prompt(task=task, input=f"How old is person {i}?").render()
            for i in range(4)
            for task in ("qa", "label")
        ]
        survivors = prompts[4:]
        for threshold in (None, 0.99):
            llm = make_llm("sim-base", world=world, seed=30)
            cached = CachedLLM(llm, semantic_threshold=threshold, max_entries=4)
            for prompt in prompts:
                cached.generate(prompt)
            assert cached.stats.misses == len(prompts)
            assert len(cached) == 4
            assert len(cached._exact) == 4
            # The survivors are exactly the last four inserts, in order.
            assert list(cached._exact) == [_key(p, 256, 0.0) for p in survivors]
            assert [parse_prompt(p).task for p in survivors] == ["qa", "label", "qa", "label"]
            # Every surviving semantic entry is an exact survivor of its task.
            semantic = {
                task: [entry.key for entry in entries]
                for task, entries in cached._by_task.items()
                if entries
            }
            expected = {
                task: [_key(p, 256, 0.0) for p in survivors if parse_prompt(p).task == task]
                for task in ("qa", "label")
            }
            assert semantic == ({} if threshold is None else expected)
            # Oldest inserts were evicted: re-asking person 0 is a fresh miss.
            calls_before = llm.usage.calls
            cached.generate(Prompt(task="qa", input="How old is person 0?").render())
            assert llm.usage.calls == calls_before + 1

    def test_eviction_after_invalidate_is_safe(self, world):
        llm = make_llm("sim-base", world=world, seed=30)
        cached = CachedLLM(llm, max_entries=2)
        for i in range(3):
            cached.generate(Prompt(task="qa", input=f"How old is person {i}?").render())
        cached.invalidate()
        assert len(cached) == 0 and not cached._exact and not cached._by_task
        cached.generate(Prompt(task="qa", input="How old is person 9?").render())
        assert len(cached) == 1

    def test_saved_usd_accounting(self, world):
        llm = make_llm("sim-base", world=world, seed=30)
        cached = CachedLLM(llm)
        prompt = Prompt(task="qa", input="Where is Acu Corp headquartered?").render()
        cached.generate(prompt)
        cached.generate(prompt)
        assert cached.stats.saved_usd > 0

    def test_validation(self, world):
        llm = make_llm("sim-base", world=world, seed=30)
        with pytest.raises(ConfigError):
            CachedLLM(llm, semantic_threshold=1.5)
        with pytest.raises(ConfigError):
            CachedLLM(llm, max_entries=0)

    def test_register_skill_invalidates(self, world):
        # Regression: a new skill changes the model, so answers cached under
        # the old skill must not be served afterwards.
        llm = make_llm("sim-base", world=world, seed=30)
        cached = CachedLLM(llm)
        prompt = Prompt(
            task="label", input="storage engine manual", fields={"classes": "a | b"}
        ).render()
        cached.generate(prompt)
        cached.register_skill("label", lambda ctx: ("CUSTOM", {}))
        assert cached.generate(prompt).text == llm.generate(prompt).text == "CUSTOM"

    def test_exact_only_cache_never_embeds(self, world, monkeypatch):
        # Regression: with the semantic layer off nothing reads prompt
        # embeddings, so misses must not pay for them.
        llm = make_llm("sim-base", world=world, seed=30)
        embedded = []
        embed = llm.embedder.embed
        monkeypatch.setattr(
            llm.embedder, "embed", lambda text: embedded.append(text) or embed(text)
        )
        cached = CachedLLM(llm, semantic_threshold=None)
        for i in range(3):
            cached.generate(Prompt(task="qa", input=f"How old is person {i}?").render())
        cached.generate_many(
            [Prompt(task="qa", input=f"How old is person {i}?").render() for i in range(5)]
        )
        assert cached.stats.misses == 5
        assert embedded == []


class TestReasoning:
    def test_self_consistency_beats_single_sample(self, world, qa):
        # A mid-tier model on facts it knows: voting recovers errors.
        llm = make_llm("sim-base", world=world, seed=31)
        known = [
            q
            for q in qa.single_hop(60)
            if llm.knowledge.lookup(q.subject, q.attribute) is not None
        ][:30]
        single = sum(
            llm.generate(Prompt(task="qa", input=q.text).render()).text == q.answer
            for q in known
        )
        voted = sum(
            self_consistency(llm, Prompt(task="qa", input=q.text), samples=5).answer
            == q.answer
            for q in known
        )
        assert voted >= single

    def test_self_consistency_metadata(self, world):
        llm = make_llm("sim-base", world=world, seed=31)
        result = self_consistency(
            llm, Prompt(task="qa", input="Where is Acu Corp headquartered?"), samples=3
        )
        assert result.calls == 3
        assert sum(result.votes.values()) == 3
        assert 0 < result.agreement <= 1

    def test_self_consistency_validation(self, world):
        llm = make_llm("sim-base", world=world, seed=31)
        with pytest.raises(ConfigError):
            self_consistency(llm, Prompt(task="qa", input="x?"), samples=0)

    def test_chain_of_questions_multihop(self, world, docs, qa):
        from repro.rag import RAGPipeline

        llm = make_llm("sim-base", world=world, seed=31)
        pipeline = RAGPipeline.from_documents(llm, docs)

        def provider(sub_question):
            retrieved = pipeline._retrieve(sub_question)
            return "\n".join(rc.chunk.text for rc in retrieved)

        questions = qa.multi_hop(15)
        solved = sum(
            chain_of_questions(llm, q.text, context_provider=provider).answer
            == q.answer
            for q in questions
        )
        assert solved >= 8

    def test_best_of_n_prefers_supported(self, world, docs):
        llm = make_llm("sim-small", world=world, seed=31)
        by_entity = {d.meta["entity"]: d for d in docs}
        company = world.companies[0]
        prompt = Prompt(
            task="qa",
            context=by_entity[company.name].text,
            input=f"Where is {company.name} headquartered?",
        )
        result = best_of_n_grounded(llm, prompt, samples=5)
        assert result.answer == company.attributes["headquarters"]

    def test_best_of_n_requires_context(self, world):
        llm = make_llm("sim-base", world=world, seed=31)
        with pytest.raises(ConfigError):
            best_of_n_grounded(llm, Prompt(task="qa", input="x?"))


class TestNL2Viz:
    def test_translate_grammar(self, tables):
        schema = {name: t.schema.names() for name, t in tables.items()}
        spec = translate_viz("plot average revenue_musd of companies by industry", schema)
        assert spec == VizSpec("bar", "companies", "industry", "revenue_musd", "avg")
        assert translate_viz("sing me a song", schema) is None

    def test_line_chart_for_time_axis(self, tables):
        schema = {name: t.schema.names() for name, t in tables.items()}
        spec = translate_viz("plot average revenue_musd of companies by founded", schema)
        assert spec.chart == "line"

    def test_spec_roundtrip(self):
        spec = VizSpec("bar", "companies", "industry", "revenue_musd", "avg")
        assert VizSpec.parse(spec.render_spec()) == spec

    def test_validate_rejects_bad_specs(self, tables):
        with pytest.raises(ExecutionError):
            validate_spec(VizSpec("pie", "companies", "industry", "revenue_musd"), tables)
        with pytest.raises(ExecutionError):
            validate_spec(VizSpec("bar", "ghosts", "a", "b"), tables)
        with pytest.raises(ExecutionError):
            validate_spec(VizSpec("bar", "companies", "industry", "ghost"), tables)
        with pytest.raises(ExecutionError):
            validate_spec(
                VizSpec("bar", "companies", "industry", "name", "avg"), tables
            )

    def test_execute_grouped_points(self, tables, world):
        spec = VizSpec("bar", "companies", "industry", "revenue_musd", "avg")
        points = execute_spec(spec, tables)
        industries = {c.attributes["industry"] for c in world.companies}
        assert {label for label, _ in points} == industries
        values = [v for _, v in points]
        assert values == sorted(values, reverse=True)

    def test_render_ascii(self, tables):
        spec = VizSpec("bar", "companies", "industry", "revenue_musd", "avg")
        chart = render_ascii(spec, execute_spec(spec, tables))
        assert "#" in chart and "VIZ chart=bar" in chart

    def test_engine_end_to_end(self, tables, world):
        llm = make_llm("sim-large", world=world, seed=32)
        engine = NL2VizEngine(llm, tables)
        result = engine.ask("plot average revenue_musd of companies by industry")
        assert result.spec is not None and result.points
        assert result.error == ""

    def test_engine_retry_on_corruption(self, tables, world):
        llm = make_llm("sim-small", world=world, seed=32)
        engine = NL2VizEngine(llm, tables, max_retries=5)
        results = [
            engine.ask("plot average revenue_musd of companies by industry")
            for _ in range(3)
        ]
        assert any(r.points for r in results)


class TestQueryRewrite:
    def test_redundant_distinct_removed(self, tables):
        sql = "SELECT DISTINCT name FROM companies"
        out = QueryRewriter(tables).rewrite_with_rules(sql)
        assert out.accepted and out.equivalent
        assert "DISTINCT" not in out.proposal
        assert out.cost_after < out.cost_before

    def test_load_bearing_distinct_kept(self, tables):
        sql = "SELECT DISTINCT industry FROM companies"
        out = QueryRewriter(tables).rewrite_with_rules(sql)
        assert not out.accepted  # industries repeat: DISTINCT matters

    def test_true_predicate_pruned(self, tables):
        sql = "SELECT name FROM companies WHERE 1 = 1"
        out = QueryRewriter(tables).rewrite_with_rules(sql)
        assert out.accepted and "WHERE" not in out.proposal

    def test_constant_fold(self, tables):
        sql = "SELECT name FROM companies WHERE founded > 1990 AND founded > 2000"
        out = QueryRewriter(tables).rewrite_with_rules(sql)
        assert out.accepted
        assert out.proposal.count("founded") == 1
        assert out.equivalent

    def test_run_query_distinct_semantics(self, tables, world):
        rows = run_query("SELECT DISTINCT industry FROM companies", tables)
        assert len(rows) == len({c.attributes["industry"] for c in world.companies})

    def test_llm_rewrite_verified(self, tables, world):
        llm = make_llm("sim-small", world=world, seed=33)
        rewriter = QueryRewriter(tables, llm, verify=True)
        # The unsound proposal (dropping a load-bearing DISTINCT) must be
        # rejected by verification across many attempts.
        for i in range(10):
            out = rewriter.rewrite_with_llm("SELECT DISTINCT industry FROM companies")
            if out.accepted:
                assert out.equivalent
        # Without verification, unsound rewrites slip through eventually.
        unsafe = QueryRewriter(tables, llm, verify=False)
        accepted_unsound = any(
            (o := unsafe.rewrite_with_llm("SELECT DISTINCT industry FROM companies")).accepted
            and not o.equivalent
            for _ in range(10)
        )
        assert accepted_unsound

    def test_query_cost_monotone(self, tables):
        cheap = query_cost("SELECT name FROM cities", tables)
        pricey = query_cost(
            "SELECT name FROM companies JOIN cities ON companies.headquarters = cities.name",
            tables,
        )
        assert pricey > cheap


class TestInstructionPrep:
    @pytest.fixture(scope="class")
    def grounding(self, docs):
        return {
            fact.key(): fact.value
            for doc in docs
            for fact in extract_stated_facts(doc.text)
        }

    def test_generation_carries_gold(self, world):
        llm = make_llm("sim-base", world=world, seed=34)
        pairs = InstructionGenerator(world, llm, seed=34).generate(30)
        assert len(pairs) == 30
        for pair in pairs:
            assert world.lookup(pair.subject, pair.attribute) == pair.gold

    def test_filter_blocks_hallucinations(self, world, grounding):
        llm = make_llm("sim-small", world=world, seed=34)
        pairs = InstructionGenerator(world, llm, seed=34).generate(60)
        kept, drops = filter_sft_pairs(pairs, grounding_facts=grounding)
        wrong_kept = sum(1 for p in kept if not p.is_correct)
        wrong_total = sum(1 for p in pairs if not p.is_correct)
        assert wrong_total > 0  # the small model does hallucinate
        assert wrong_kept < wrong_total
        assert drops["grounding"] + drops["abstention"] > 0

    def test_filter_dedups_instructions(self, world):
        llm = make_llm("sim-base", world=world, seed=34)
        pairs = InstructionGenerator(world, llm, seed=34).generate(20)
        duplicated = list(pairs) + list(pairs)
        kept, drops = filter_sft_pairs(duplicated)
        assert drops["duplicate"] >= len(kept) - 1

    def test_preference_pairs_ordered(self, world):
        llm = make_llm("sim-small", world=world, seed=35)
        pairs = InstructionGenerator(world, llm, seed=35).generate(40)
        prefs = PreferencePairBuilder(llm, samples=5, seed=35).build(pairs)
        assert prefs  # sampling at temperatures surfaces both kinds
        for pref in prefs:
            assert pref.chosen != pref.rejected

    def test_reward_model_ranks(self, world):
        llm = make_llm("sim-small", world=world, seed=36)
        pairs = InstructionGenerator(world, llm, seed=36).generate(60)
        prefs = PreferencePairBuilder(llm, samples=5, seed=36).build(pairs)
        if len(prefs) < 8:
            pytest.skip("not enough preference pairs at this seed")
        train, test = prefs[: len(prefs) // 2], prefs[len(prefs) // 2 :]
        model = RewardModel(embedder=llm.embedder, seed=36).fit(train)
        assert model.ranking_accuracy(train) >= 0.7

    def test_reward_model_validation(self):
        with pytest.raises(ConfigError):
            RewardModel().fit([])
        with pytest.raises(ConfigError):
            PreferencePairBuilder(None, samples=1)


class TestSJFScheduler:
    def test_sjf_cuts_mean_latency_under_saturation(self):
        from repro.inference import (
            ContinuousBatchScheduler,
            ServingEngine,
            ShortestJobFirstScheduler,
            poisson_workload,
            summarize,
        )

        base = poisson_workload(rate_rps=20, duration_s=20, seed=37)

        def run(scheduler):
            requests = copy.deepcopy(base)
            ServingEngine(scheduler, max_running=16).run(requests)
            done = [r for r in requests if r.done]
            return sum(r.latency for r in done) / len(done)

        fifo = run(ContinuousBatchScheduler(max_batch=16))
        sjf = run(ShortestJobFirstScheduler(max_batch=16))
        assert sjf <= fifo * 1.02

    def test_sjf_completes_everything(self):
        from repro.inference import ServingEngine, ShortestJobFirstScheduler, poisson_workload

        requests = poisson_workload(rate_rps=6, duration_s=15, seed=38)
        ServingEngine(ShortestJobFirstScheduler()).run(requests)
        assert all(r.done for r in requests)
