"""Tests for the semantic-operator optimizer (repro.semopt).

Three layers of guarantees, matching the module's design contract:

* **kernel parity** — ``SimLLM.generate_many`` (and ``CachedLLM``, the
  one response cache, also the per-run exact cache every pipeline run
  shares across operators) are bit-identical to the per-call loop they
  replace;
* **plan exactness** — every transformation the optimizer applies
  (reorder, pushdown, fusion, caching) reproduces naive in-order
  execution record-for-record, across seeds and model tiers;
* **accounting conservation** — per-step ledger deltas sum to the run
  total, and cache traffic reconciles with the cache's own counters.
"""

import pytest

from benchmarks.perf._legacy_semopt import NaiveSemExecutor, evaluate_predicate
from benchmarks.perf.harness_semopt import (
    cascade_pipeline,
    mixed_pipeline,
    semopt_lake,
)
from repro.errors import ModelError, PlanError
from repro.llm import CachedLLM, Prompt, make_llm
from repro.llm.skills import compile_predicate, predicate_field
from repro.semopt import (
    SemCostModel,
    SemExecutor,
    SemFilter,
    SemGroupCount,
    SemJoin,
    SemMap,
    SemOptimizer,
    SemPipeline,
    SemTopK,
    records_all_have_text,
)
from repro.unstructured import SemanticOperators


def _prompts_with_duplicates():
    """A mixed-task batch in which several prompts repeat verbatim."""
    judge = Prompt(
        task="judge",
        instruction="Decide whether the item satisfies the predicate.",
        input="database indexing report",
        fields={"predicate": "is_about database"},
    ).render()
    mapped = Prompt(
        task="map", instruction="Summarize the item", input="gardening notes"
    ).render()
    label = Prompt(
        task="label",
        instruction="Classify the item.",
        input="storage engine manual",
        fields={"classes": "storage | cooking"},
    ).render()
    return [judge, mapped, judge, label, mapped, judge]


def _planning_rows(n=48):
    """Small records with a skewed rule field and bimodal topicality."""
    rows = []
    for i in range(n):
        topic = "database indexing report" if i % 2 else "gardening field notes"
        rows.append(
            {
                "name": f"r{i}",
                "text": f"{topic} {i}",
                "price": str((i * 37) % 200),
            }
        )
    return rows


class TestGenerateManyParity:
    def test_matches_looped_generate(self):
        prompts = _prompts_with_duplicates()
        looped_llm = make_llm("sim-base", seed=3)
        batched_llm = make_llm("sim-base", seed=3)
        looped = [looped_llm.generate(p, tag="t") for p in prompts]
        batched = batched_llm.generate_many(prompts, tag="t")
        assert [r.text for r in batched] == [r.text for r in looped]
        assert [r.usage for r in batched] == [r.usage for r in looped]
        assert batched_llm.ledger.total == looped_llm.ledger.total
        assert batched_llm.ledger.by_tag == looped_llm.ledger.by_tag
        assert batched_llm.call_log == looped_llm.call_log

    def test_duplicates_each_charged(self):
        prompts = _prompts_with_duplicates()
        llm = make_llm("sim-base", seed=3)
        responses = llm.generate_many(prompts)
        assert llm.usage.calls == len(prompts)
        assert responses[0].text == responses[2].text == responses[5].text
        assert responses[1].text == responses[4].text

    def test_empty_batch(self):
        llm = make_llm("sim-base", seed=3)
        assert llm.generate_many([]) == []
        assert llm.usage.calls == 0

    def test_oversized_prompt_rejected_before_any_charge(self):
        llm = make_llm("sim-small", seed=3)
        huge = Prompt(task="qa", context="word " * 5000, input="q?").render()
        with pytest.raises(ModelError):
            llm.generate_many(["fine prompt", huge])
        assert llm.usage.calls == 0

    def test_cached_llm_generate_many_matches_loop(self):
        prompts = _prompts_with_duplicates()
        looped_backing = make_llm("sim-base", seed=5)
        batched_backing = make_llm("sim-base", seed=5)
        looped_cache = CachedLLM(looped_backing)
        batched_cache = CachedLLM(batched_backing)
        looped = [looped_cache.generate(p) for p in prompts]
        batched = batched_cache.generate_many(prompts)
        assert [r.text for r in batched] == [r.text for r in looped]
        assert batched_backing.usage == looped_backing.usage
        assert batched_cache.stats == looped_cache.stats


def _cross_op_cache(llm):
    """The exact-only, unbounded cache ``SemExecutor`` wraps each run in."""
    return CachedLLM(llm, semantic_threshold=None, max_entries=None)


class TestCrossOpCache:
    def test_hit_is_bit_identical_to_fresh_call(self):
        prompt = Prompt(
            task="map", instruction="Summarize the item", input="storage notes"
        ).render()
        llm = make_llm("sim-base", seed=11)
        cache = _cross_op_cache(llm)
        first = cache.generate(prompt)
        second = cache.generate(prompt)
        fresh = make_llm("sim-base", seed=11).generate(prompt)
        assert first.text == second.text == fresh.text
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert llm.usage.calls == 1  # the hit charged nothing

    def test_generate_many_charges_once_per_unique_miss(self):
        prompts = _prompts_with_duplicates()
        unique = len(set(prompts))
        llm = make_llm("sim-base", seed=11)
        cache = _cross_op_cache(llm)
        responses = cache.generate_many(prompts)
        assert llm.usage.calls == unique
        assert cache.stats.misses == unique
        assert cache.stats.hits == len(prompts) - unique
        assert cache.stats.saved_usd > 0.0
        assert responses[0].text == responses[2].text

    def test_generate_many_matches_looped_generate(self):
        prompts = _prompts_with_duplicates()
        looped_cache = _cross_op_cache(make_llm("sim-base", seed=11))
        batched_cache = _cross_op_cache(make_llm("sim-base", seed=11))
        looped = [looped_cache.generate(p) for p in prompts]
        batched = batched_cache.generate_many(prompts)
        assert [r.text for r in batched] == [r.text for r in looped]
        assert batched_cache.llm.usage == looped_cache.llm.usage
        assert batched_cache.stats.hits == looped_cache.stats.hits
        assert batched_cache.stats.misses == looped_cache.stats.misses

    def test_invalidate_and_len(self):
        llm = make_llm("sim-base", seed=11)
        cache = _cross_op_cache(llm)
        cache.generate(Prompt(task="map", input="x").render())
        assert len(cache) == 1
        cache.invalidate()
        assert len(cache) == 0
        assert cache.stats.hit_rate == 0.0


class TestOptimizerPlanning:
    @pytest.fixture()
    def optimizer(self):
        return SemOptimizer(SemanticOperators(make_llm("sim-base", seed=1)))

    def test_cheap_selective_rule_runs_first(self, optimizer):
        plan = optimizer.optimize(
            _planning_rows(),
            SemPipeline(
                [
                    SemFilter("is_about database", cascade=True),
                    SemFilter("price < 100", cascade=True),
                ]
            ),
        )
        first = plan.stages[0].step
        assert isinstance(first, SemFilter)
        assert first.predicate == "price < 100"
        assert any("reordered filter run" in d for d in plan.decisions)

    def test_rule_filter_pushed_before_map(self, optimizer):
        plan = optimizer.optimize(
            _planning_rows(),
            SemPipeline(
                [
                    SemMap("Summarize the item", output_field="summary"),
                    SemFilter("price < 100", cascade=True),
                ]
            ),
        )
        assert [s.kind for s in plan.stages] == ["filter", "map"]
        assert any("pushed filter" in d for d in plan.decisions)

    def test_pushdown_declined_when_predicate_reads_mapped_field(
        self, optimizer
    ):
        plan = optimizer.optimize(
            _planning_rows(),
            SemPipeline(
                [
                    SemMap("Summarize the item", output_field="price"),
                    SemFilter("price < 100", cascade=True),
                ]
            ),
        )
        assert [s.kind for s in plan.stages] == ["map", "filter"]
        assert any("reads the mapped field" in d for d in plan.decisions)

    def test_pushdown_declined_when_rule_not_decidable_everywhere(
        self, optimizer
    ):
        rows = _planning_rows()
        rows.append({"name": "no-price", "text": "database notes"})
        plan = optimizer.optimize(
            rows,
            SemPipeline(
                [
                    SemMap("Summarize the item", output_field="summary"),
                    SemFilter("price < 100", cascade=True),
                ]
            ),
        )
        assert [s.kind for s in plan.stages] == ["map", "filter"]
        assert any("undecidable" in d for d in plan.decisions)

    def test_topical_pushdown_requires_text_everywhere(self, optimizer):
        rows = _planning_rows()
        rows.append({"name": "no-text", "price": "10"})
        plan = optimizer.optimize(
            rows,
            SemPipeline(
                [
                    SemMap("Summarize the item", output_field="summary"),
                    SemFilter("is_about database", cascade=True),
                ]
            ),
        )
        assert [s.kind for s in plan.stages] == ["map", "filter"]
        assert any("text-reading rewrites disabled" in d for d in plan.decisions)

    def test_adjacent_maps_fuse(self, optimizer):
        plan = optimizer.optimize(
            _planning_rows(),
            SemPipeline(
                [
                    SemMap("Summarize the item", output_field="summary"),
                    SemMap("Give a short title", output_field="title"),
                ]
            ),
        )
        assert len(plan.stages) == 1
        assert len(plan.stages[0].steps) == 2
        assert any("fused map" in d for d in plan.decisions)

    def test_serializing_map_does_not_fuse(self, optimizer):
        plan = optimizer.optimize(
            _planning_rows(),
            SemPipeline(
                [
                    SemMap("Summarize the item", output_field="summary"),
                    SemMap("Copy the field price", output_field="copy"),
                ]
            ),
        )
        assert [len(s.steps) for s in plan.stages] == [1, 1]

    def test_rewrites_stop_at_barrier(self, optimizer):
        plan = optimizer.optimize(
            _planning_rows(),
            SemPipeline(
                [
                    SemJoin(right=({"name": "cat", "text": "catalog"},)),
                    SemFilter("is_about database", cascade=True),
                    SemFilter("price < 100", cascade=True),
                ]
            ),
        )
        # Post-barrier filters keep their written (suboptimal) order.
        kinds = [s.kind for s in plan.stages]
        assert kinds == ["join", "filter", "filter"]
        post_barrier = plan.stages[1].step
        assert isinstance(post_barrier, SemFilter)
        assert post_barrier.predicate == "is_about database"
        assert any("follow a barrier" in d for d in plan.decisions)


class TestPipelineValidation:
    def test_group_count_must_be_terminal(self):
        with pytest.raises(PlanError):
            SemPipeline(
                [
                    SemGroupCount(classes=("a", "b")),
                    SemFilter("price < 1"),
                ]
            )

    def test_topk_rejects_nonpositive_k(self):
        with pytest.raises(PlanError):
            SemTopK("query", k=0)

    def test_group_count_rejects_empty_classes(self):
        with pytest.raises(PlanError):
            SemGroupCount(classes=())

    def test_unknown_step_rejected(self):
        with pytest.raises(PlanError):
            SemPipeline(["not a step"])

    def test_join_rejects_empty_prefix(self):
        with pytest.raises(PlanError):
            SemJoin(right=(), right_prefix="")


class TestExecutorParity:
    @pytest.mark.parametrize("tier", ["sim-base", "sim-large"])
    @pytest.mark.parametrize("seed", [7, 21])
    def test_cascade_matches_naive(self, tier, seed):
        records = semopt_lake(240, pool_size=60, seed=seed)
        naive_llm = make_llm(tier, seed=seed)
        naive_rows, naive_counts = NaiveSemExecutor(naive_llm).run(
            records, cascade_pipeline()
        )
        opt_llm = make_llm(tier, seed=seed)
        result = SemExecutor(SemanticOperators(opt_llm)).run(
            records, cascade_pipeline()
        )
        assert result.records == naive_rows
        assert result.group_counts == naive_counts is None
        assert opt_llm.usage.calls <= naive_llm.usage.calls

    def test_mixed_barrier_pipeline_matches_naive(self):
        records = semopt_lake(160, pool_size=60, seed=7)
        naive_llm = make_llm("sim-base", seed=7)
        naive_rows, naive_counts = NaiveSemExecutor(naive_llm).run(
            records, mixed_pipeline()
        )
        opt_llm = make_llm("sim-base", seed=7)
        result = SemExecutor(SemanticOperators(opt_llm)).run(
            records, mixed_pipeline()
        )
        assert result.records == naive_rows
        assert result.group_counts == naive_counts
        assert result.group_counts is not None

    def test_empty_pipeline_is_identity(self):
        records = _planning_rows(10)
        result = SemExecutor(
            SemanticOperators(make_llm("sim-base", seed=1))
        ).run(records, SemPipeline([]))
        assert result.records == records
        assert result.group_counts is None
        assert result.usage.calls == 0

    def test_single_filter_matches_direct_operator(self):
        records = _planning_rows(40)
        direct_ops = SemanticOperators(make_llm("sim-base", seed=13))
        direct_kept, _ = direct_ops.sem_filter(
            records, "is_about database", cascade=True
        )
        result = SemExecutor(
            SemanticOperators(make_llm("sim-base", seed=13))
        ).run(records, SemPipeline([SemFilter("is_about database")]))
        assert result.records == direct_kept

    def test_single_map_matches_direct_operator(self):
        records = _planning_rows(20)
        direct_ops = SemanticOperators(make_llm("sim-base", seed=13))
        direct_mapped, _ = direct_ops.sem_map(
            records, "Summarize the item", output_field="summary"
        )
        result = SemExecutor(
            SemanticOperators(make_llm("sim-base", seed=13))
        ).run(
            records,
            SemPipeline([SemMap("Summarize the item", output_field="summary")]),
        )
        assert result.records == direct_mapped


class TestAccountingConservation:
    @pytest.fixture()
    def run(self):
        llm = make_llm("sim-base", seed=7)
        executor = SemExecutor(SemanticOperators(llm), tag_prefix="cons")
        records = semopt_lake(240, pool_size=60, seed=7)
        return llm, executor.run(records, cascade_pipeline())

    def test_step_deltas_sum_to_run_total(self, run):
        llm, result = run
        assert sum(s.stats.llm_calls for s in result.steps) == result.usage.calls
        assert sum(s.stats.usd for s in result.steps) == pytest.approx(
            result.usage.usd
        )
        assert result.usage == llm.ledger.total

    def test_tags_are_namespaced_and_reconcile(self, run):
        llm, result = run
        for step in result.steps:
            assert step.tag.startswith("cons.s")
            assert llm.ledger.by_tag.get(step.tag, None) is not None or (
                step.stats.llm_calls == 0
            )
        tagged = sum(
            usage.calls
            for tag, usage in llm.ledger.by_tag.items()
            if tag.startswith("cons.")
        )
        assert tagged == result.usage.calls

    def test_cache_counters_reconcile(self, run):
        _, result = run
        assert result.cache is not None
        assert result.cache.lookups == result.cache.hits + result.cache.misses
        assert sum(s.stats.cache_hits for s in result.steps) == result.cache.hits
        assert (
            sum(s.stats.cache_misses for s in result.steps)
            == result.cache.misses
        )
        # Only charged calls count as llm_calls: every charged call was a
        # cache miss, never a hit.
        assert result.usage.calls == result.cache.misses


class TestCostModelAndHelpers:
    def test_stride_sample_deterministic_and_bounded(self):
        records = _planning_rows(1000)
        model = SemCostModel(make_llm("sim-base", seed=1), sample_size=64)
        sample_a = model.sample_rows(records)
        sample_b = model.sample_rows(records)
        assert sample_a == sample_b
        assert len(sample_a) <= 64
        assert all(row in records for row in sample_a)

    def test_rule_ranks_cheaper_than_topical(self):
        records = _planning_rows(200)
        llm = make_llm("sim-base", seed=1)
        ops = SemanticOperators(llm)
        model = SemCostModel(llm)
        rule = model.estimate_filter(
            records, SemFilter("price < 100", cascade=True), ops
        )
        topical = model.estimate_filter(
            records, SemFilter("is_about database", cascade=True), ops
        )
        assert rule.rank < topical.rank
        assert rule.llm_fraction == 0.0

    def test_empty_records_estimate(self):
        model = SemCostModel(make_llm("sim-base", seed=1))
        est = model.estimate_filter(
            [], SemFilter("price < 1"), SemanticOperators(make_llm("sim-base"))
        )
        assert est.keep_fraction == 1.0 and est.sampled_rows == 0

    def test_rule_decidable_everywhere(self):
        model = SemCostModel(make_llm("sim-base", seed=1))
        rows = _planning_rows(20)
        assert model.rule_decidable_everywhere(rows, "price < 100")
        assert not model.rule_decidable_everywhere(
            rows + [{"name": "x"}], "price < 100"
        )
        assert not model.rule_decidable_everywhere(rows, "is_about database")

    def test_records_all_have_text(self):
        assert records_all_have_text(_planning_rows(5))
        assert not records_all_have_text([{"name": "a", "text": ""}])

    @pytest.mark.parametrize(
        "predicate,expected",
        [
            ("price < 100", "price"),
            ("name == acme", "name"),
            ("desc contains drone", "desc"),
            ("is_about database", None),
            ("what even is this", None),
        ],
    )
    def test_predicate_field(self, predicate, expected):
        assert predicate_field(predicate) == expected

    @pytest.mark.parametrize(
        "predicate",
        ["price > 100", "price <= 50", "name == acme", "desc contains drone", "cat in a, b"],
    )
    def test_compiled_predicate_matches_evaluate(self, predicate):
        check = compile_predicate(predicate)
        assert check is not None
        records = [
            {"price": "150", "name": "Acme", "desc": "a Drone kit", "cat": "b"},
            {"price": "50", "name": "other", "desc": "plain", "cat": "c"},
            {"price": "cheap"},
            {},
        ]
        for record in records:
            assert check(record) is evaluate_predicate(predicate, record)

    def test_unparseable_predicate_compiles_to_none(self):
        assert compile_predicate("what even is this") is None


class TestRouting:
    def test_datalake_sem_filter_op(self, world):
        from repro.datalake import DataLake, Plan
        from repro.datalake.executor import PlanExecutor

        lake = DataLake.from_world(world)
        llm = make_llm("sim-base", world=world, seed=19)
        executor = PlanExecutor(lake, llm)
        plan = Plan()
        scan = plan.add("scan", asset_id="table:companies")
        plan.add("sem_filter", inputs=[scan], predicate="founded < 1990")
        answer = executor.execute(plan)
        gold = sum(
            1 for c in world.companies if int(c.attributes["founded"]) < 1990
        )
        assert answer == str(gold)
        # Rule-decidable everywhere: the optimized path paid zero calls.
        assert llm.usage.calls == 0
        assert any(t.startswith("lake.semopt") for t in llm.ledger.by_tag) or (
            llm.usage.calls == 0
        )

    def test_document_analytics_run_pipeline(self, world, docs, llm):
        from repro.unstructured.query import DocumentAnalytics

        analytics = DocumentAnalytics(llm, docs, schema={})
        result = analytics.run_pipeline(
            SemPipeline([SemFilter("etype == company", cascade=True)])
        )
        gold = [d for d in docs if d.meta.get("etype") == "company"]
        assert len(result.records) == len(gold)
        assert all(r["etype"] == "company" for r in result.records)
        assert result.usage.calls == 0  # rule decided every record
