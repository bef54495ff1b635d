"""Tests for prompting (templates, few-shot, compression) and agents."""

import pytest

from repro.errors import ConfigError
from repro.llm import Prompt
from repro.llm.embedding import EmbeddingModel
from repro.llm.tokenizer import count_tokens
from repro.prompting import (
    AutoPrompter,
    Demonstration,
    DiversitySelector,
    ExamplePool,
    PromptCompressor,
    PromptTemplate,
    RandomSelector,
    SimilaritySelector,
    TemplateLibrary,
    budget_truncate,
    dedup_sentences,
    relevance_filter,
)
from repro.agents import Agent, Tool, ToolRegistry


class TestTemplates:
    def test_variables_detected(self):
        t = PromptTemplate("x", "judge", "Check {predicate} on {field}.")
        assert t.variables() == ["field", "predicate"]

    def test_missing_variable_raises(self):
        t = PromptTemplate("x", "judge", "Check {predicate}.")
        with pytest.raises(ConfigError):
            t.render_instruction()

    def test_library_builtin_and_lookup(self):
        lib = TemplateLibrary()
        assert "qa-grounded" in lib.names()
        assert lib.get("qa-grounded").task == "qa"
        with pytest.raises(ConfigError):
            lib.get("nope")

    def test_library_register_conflict(self):
        lib = TemplateLibrary()
        t = PromptTemplate("qa-grounded", "qa", "x")
        with pytest.raises(ConfigError):
            lib.register(t)
        lib.register(t, overwrite=True)


class TestAutoPrompter:
    def test_builds_full_prompt(self):
        prompter = AutoPrompter()
        prompt = prompter.build(
            "filter",
            input_text="item text",
            variables={"predicate": "price > 5"},
            demonstrations=[Demonstration("a", "yes")],
        )
        assert prompt.task == "judge"
        assert "price > 5" in prompt.instruction
        assert prompt.examples == ["Q: a A: yes"]

    def test_budget_drops_examples_first(self):
        prompter = AutoPrompter(max_tokens=40)
        demos = [Demonstration(f"example input {i} with words", "out") for i in range(10)]
        prompt = prompter.build(
            "qa-grounded", input_text="the question?", context="ctx.", demonstrations=demos
        )
        assert count_tokens(prompt.render()) <= 40
        assert len(prompt.examples) < 10
        assert prompt.input == "the question?"

    def test_budget_trims_context_second(self):
        prompter = AutoPrompter(max_tokens=30)
        context = " ".join(f"Sentence number {i} is here." for i in range(30))
        prompt = prompter.build("qa-grounded", input_text="q?", context=context)
        assert count_tokens(prompt.render()) <= 30


class TestFewShot:
    @pytest.fixture()
    def pool(self):
        # Within-topic examples share tokens so their embeddings are close;
        # the diversity selector should therefore jump across topics.
        examples = [
            Demonstration("fox forest animal", "nature"),
            Demonstration("fox forest river", "nature"),
            Demonstration("revenue profit margin", "finance"),
            Demonstration("revenue profit yield", "finance"),
        ]
        return ExamplePool(examples, embedder=EmbeddingModel())

    def test_random_selector_seeded(self, pool):
        a = RandomSelector(seed=1).select(pool, "q", 2)
        b = RandomSelector(seed=1).select(pool, "q", 2)
        assert [d.input for d in a] == [d.input for d in b]

    def test_similarity_selector_prefers_topical(self, pool):
        picks = SimilaritySelector().select(pool, "woodland fox", 2)
        assert picks[0].output == "nature"

    def test_diversity_selector_spans_topics(self, pool):
        picks = DiversitySelector().select(pool, "fox", 2)
        assert {p.output for p in picks} == {"nature", "finance"}

    def test_k_zero_and_overflow(self, pool):
        assert RandomSelector().select(pool, "q", 0) == []
        assert len(SimilaritySelector().select(pool, "q", 99)) == len(pool)

    def test_pool_requires_embedder_for_matrix(self):
        pool = ExamplePool([Demonstration("a", "b")])
        with pytest.raises(ConfigError):
            _ = pool.matrix


class TestCompression:
    @pytest.fixture()
    def embedder(self):
        return EmbeddingModel()

    def test_dedup_removes_near_copies(self, embedder):
        sentences = ["the fox runs fast."] * 3 + ["revenue grew sharply."]
        assert len(dedup_sentences(sentences, embedder)) == 2

    def test_relevance_filter_keeps_topical(self, embedder):
        sentences = [
            "the fox runs through the forest.",
            "quarterly revenue results were strong.",
            "forest animals include the fox.",
            "dividends were paid in june.",
        ]
        kept = relevance_filter(sentences, "fox forest", embedder, keep_fraction=0.5)
        assert len(kept) == 2
        assert all("fo" in s for s in kept)

    def test_budget_truncate_respects_budget(self, embedder):
        sentences = [f"sentence about topic {i} with extra words." for i in range(20)]
        kept = budget_truncate(sentences, "topic", embedder, max_tokens=25)
        from repro.llm.tokenizer import count_tokens

        assert sum(count_tokens(s) for s in kept) <= 25

    def test_compressor_reduces_tokens(self, embedder):
        context = " ".join(
            ["the fox ran far."] * 5
            + ["revenue was up.", "the fox slept well.", "markets closed flat."]
        )
        compressor = PromptCompressor(embedder, keep_fraction=0.5, max_context_tokens=20)
        result = compressor.compress(
            Prompt(task="qa", context=context, input="what did the fox do?")
        )
        assert result.compressed_tokens < result.original_tokens
        assert 0 < result.ratio < 1
        assert result.prompt.input == "what did the fox do?"


class TestTools:
    def test_register_and_invoke(self):
        registry = ToolRegistry()
        registry.register_fn("echo", "repeat the input", lambda s: s.upper())
        call = registry.invoke("echo", "hi")
        assert call.ok and call.observation == "HI"

    def test_tool_errors_captured(self):
        registry = ToolRegistry()
        registry.register_fn("boom", "always fails", lambda s: 1 / 0)
        call = registry.invoke("boom", "x")
        assert not call.ok and "error" in call.observation

    def test_duplicate_tool_rejected(self):
        registry = ToolRegistry()
        registry.register_fn("a", "d", lambda s: s)
        with pytest.raises(ConfigError):
            registry.register_fn("a", "d", lambda s: s)

    def test_unknown_tool(self):
        with pytest.raises(ConfigError):
            ToolRegistry().get("ghost")

    def test_routing_matches_description(self):
        registry = ToolRegistry(embedder=EmbeddingModel())
        registry.register_fn("search", "find documents and articles text", lambda s: s)
        registry.register_fn("math", "add subtract multiply numbers arithmetic", lambda s: s)
        assert registry.route("multiply two numbers")[0].name == "math"
        assert registry.route("find an article")[0].name == "search"

    def test_routing_requires_embedder(self):
        registry = ToolRegistry()
        registry.register_fn("a", "d", lambda s: s)
        with pytest.raises(ConfigError):
            registry.route("x")

    def test_routing_empty_registry(self):
        with pytest.raises(ConfigError):
            ToolRegistry(embedder=EmbeddingModel()).route("x")


class TestAgent:
    @pytest.fixture()
    def agent(self, llm, docs, qa):
        from repro.rag import RAGPipeline

        pipeline = RAGPipeline.from_documents(llm, docs)
        tools = ToolRegistry(embedder=llm.embedder)
        tools.register_fn(
            "search_docs",
            "look up facts about people companies products cities in documents",
            lambda q: pipeline.answer(q).text,
        )
        tools.register_fn(
            "calculator",
            "arithmetic add subtract multiply numbers",
            lambda q: str(eval(q, {"__builtins__": {}})),
        )
        return Agent(llm, tools)

    def test_multi_hop_success_rate(self, agent, qa):
        questions = qa.multi_hop(15)
        solved = sum(agent.run(q.text).answer == q.answer for q in questions)
        assert solved >= 8

    def test_trace_records_steps(self, agent, qa):
        trace = agent.run(qa.multi_hop(1)[0].text)
        assert 1 <= len(trace.steps) <= 4
        assert all(s.call.tool for s in trace.steps)

    def test_substitution(self, agent):
        resolved = agent._substitute("What is {answer1} plus 2?", ["40"])
        assert resolved == "What is 40 plus 2?"

    def test_abstains_instead_of_crashing(self, llm):
        tools = ToolRegistry(embedder=llm.embedder)
        tools.register_fn("broken", "the only tool", lambda s: 1 / 0)
        tools.register_fn("broken2", "the backup tool", lambda s: 1 / 0)
        agent = Agent(llm, tools)
        trace = agent.run("Where is Acu Corp headquartered?")
        assert trace.abstained

    def test_reflection_retries_second_tool(self, llm):
        tools = ToolRegistry(embedder=llm.embedder)
        tools.register_fn("primary", "answer any question about facts", lambda s: "")
        tools.register_fn("backup", "fallback answers for questions", lambda s: "42")
        agent = Agent(llm, tools, reflect=True)
        trace = agent.run("Where is Acu Corp headquartered?")
        assert trace.reflections >= 1
        assert trace.answer == "42"

    def test_no_reflection_mode(self, llm):
        tools = ToolRegistry(embedder=llm.embedder)
        tools.register_fn("primary", "answer any question about facts", lambda s: "")
        tools.register_fn("backup", "fallback answers for questions", lambda s: "42")
        agent = Agent(llm, tools, reflect=False)
        trace = agent.run("Where is Acu Corp headquartered?")
        assert trace.reflections == 0
