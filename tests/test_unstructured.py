"""Tests for weak supervision, schema extraction, analytics, and operators."""

import pytest

from repro.data.documents import Document
from repro.errors import ConfigError, ExecutionError
from repro.llm import make_llm
from repro.unstructured import (
    DirectExtractor,
    DocumentAnalytics,
    EvaporateExtractor,
    LabelModel,
    SemanticOperators,
    SynthesizedFunction,
    extraction_accuracy,
    majority_vote,
    parse_aggregate,
)
from repro.data.table import Schema, Table
from repro.unstructured.query import aggregate_floats


def aggregate_cells(cells, fn):
    """``aggregate_floats`` over ``cells`` read as a text column's floats."""
    table = Table("t", Schema.of(c="str"), [{"c": cell} for cell in cells])
    return aggregate_floats(table.floats("c"), fn)

ATTRS = ["headquarters", "industry", "founded", "ceo"]


class TestLabelModel:
    def test_majority_vote_basic(self):
        votes = [["a", "a", "b"], ["b", None, "b"], [None, None, None]]
        result = majority_vote(votes)
        assert result == {0: "a", 1: "b"}

    def test_label_model_downweights_bad_function(self):
        # f0 and f1 agree (accurate); f2 is adversarial. With 3 voters and
        # varying abstentions, EM should learn f2's weight down.
        votes = []
        for i in range(30):
            truth = f"v{i}"
            wrong = f"w{i}"
            row = [truth, truth if i % 2 == 0 else None, wrong]
            votes.append(row)
        result = LabelModel().fit_predict(votes)
        assert result.function_weights[2] < result.function_weights[0]
        assert all(result.predictions[i] == f"v{i}" for i in range(30))

    def test_label_model_beats_majority_with_correlated_liars(self):
        # Two colluding wrong voters vs one accurate voter that votes on
        # everything plus a partial accurate voter; where the accurate pair
        # overlaps, weights shift and flip items the liars would win.
        votes = []
        for i in range(40):
            truth, wrong = f"t{i}", f"x{i}"
            if i < 20:  # both accurate functions vote: consensus learns them
                votes.append([truth, truth, wrong])
            else:  # only one accurate voter: majority would tie / flip
                votes.append([truth, None, wrong])
        lm = LabelModel().fit_predict(votes)
        accurate = sum(lm.predictions[i] == f"t{i}" for i in range(40))
        assert accurate == 40

    def test_confidences_in_unit_interval(self):
        votes = [["a", "a"], ["a", "b"]]
        result = LabelModel().fit_predict(votes)
        assert all(0 < c <= 1 for c in result.confidences.values())

    def test_all_abstain_item_skipped(self):
        result = LabelModel().fit_predict([[None, None]])
        assert result.predictions == {}

    def test_ragged_votes_rejected(self):
        with pytest.raises(ConfigError):
            LabelModel().fit_predict([["a"], ["a", "b"]])

    def test_empty(self):
        assert LabelModel().fit_predict([]).predictions == {}


class TestSynthesizedFunction:
    def test_parse_roundtrip(self):
        fn = SynthesizedFunction.parse("FUNC etype=company attr=ceo variant=1")
        assert fn == SynthesizedFunction("company", "ceo", 1)
        swapped = SynthesizedFunction.parse(
            "FUNC etype=company attr=ceo variant=0 swap=1"
        )
        assert swapped.swapped

    def test_parse_garbage(self):
        assert SynthesizedFunction.parse("def extract(x): ...") is None

    def test_apply_matches_only_its_variant(self, world, company_docs):
        fn0 = SynthesizedFunction("company", "headquarters", 0)
        fn1 = SynthesizedFunction("company", "headquarters", 1)
        hits0 = sum(1 for d in company_docs if fn0.apply(d) is not None)
        hits1 = sum(1 for d in company_docs if fn1.apply(d) is not None)
        assert hits0 + hits1 <= len(company_docs)
        assert hits0 > 0

    def test_apply_correct_values(self, world, company_docs):
        for variant in range(3):
            fn = SynthesizedFunction("company", "industry", variant)
            for doc in company_docs:
                value = fn.apply(doc)
                if value is not None:
                    assert value == world.lookup(doc.meta["entity"], "industry")

    def test_swapped_function_is_wrong(self, world, company_docs):
        fn = SynthesizedFunction("company", "industry", 0, swapped=True)
        wrongs = [fn.apply(d) for d in company_docs if fn.apply(d) is not None]
        assert wrongs
        industries = {c.attributes["industry"] for c in world.companies}
        assert all(w not in industries for w in wrongs)

    def test_unknown_attribute_abstains(self):
        fn = SynthesizedFunction("company", "nonexistent", 0)
        assert fn.apply(Document("d", "t", "Some text.")) is None


class TestExtraction:
    def test_direct_high_accuracy(self, world, company_docs):
        llm = make_llm("sim-large", world=world, seed=2)
        gold = {
            (c.name.lower(), a): c.attributes[a]
            for c in world.companies
            for a in ATTRS
        }
        result = DirectExtractor(llm).extract(company_docs, "company", ATTRS)
        assert extraction_accuracy(result.table, gold, ATTRS) >= 0.9
        assert result.llm_calls == len(company_docs)

    def test_evaporate_constant_cost(self, world, company_docs):
        llm = make_llm("sim-base", world=world, seed=2)
        extractor = EvaporateExtractor(llm, seed=1)
        small = extractor.extract(company_docs[:8], "company", ["industry"])
        llm.reset_usage()
        extractor_full = EvaporateExtractor(llm, seed=1)
        full = extractor_full.extract(company_docs, "company", ["industry"])
        # Cost does not scale with corpus size (both bounded by sample_docs).
        assert full.llm_calls <= extractor_full.sample_docs
        assert abs(full.llm_calls - small.llm_calls) <= extractor_full.sample_docs

    def test_evaporate_accuracy_close_to_direct(self, world, company_docs):
        llm = make_llm("sim-base", world=world, seed=4)
        gold = {
            (c.name.lower(), a): c.attributes[a]
            for c in world.companies
            for a in ATTRS
        }
        direct = DirectExtractor(llm).extract(company_docs, "company", ATTRS)
        evap = EvaporateExtractor(llm, seed=4).extract(company_docs, "company", ATTRS)
        direct_acc = extraction_accuracy(direct.table, gold, ATTRS)
        evap_acc = extraction_accuracy(evap.table, gold, ATTRS)
        assert evap_acc >= direct_acc - 0.25
        assert evap_acc >= 0.6

    def test_label_model_not_worse_than_majority(self, world, company_docs):
        llm = make_llm("sim-small", world=world, seed=6)
        gold = {(c.name.lower(), "ceo"): c.attributes["ceo"] for c in world.companies}
        lm = EvaporateExtractor(llm, aggregator="label_model", seed=6).extract(
            company_docs, "company", ["ceo"]
        )
        llm2 = make_llm("sim-small", world=world, seed=6)
        mv = EvaporateExtractor(llm2, aggregator="majority", seed=6).extract(
            company_docs, "company", ["ceo"]
        )
        assert extraction_accuracy(lm.table, gold, ["ceo"]) >= extraction_accuracy(
            mv.table, gold, ["ceo"]
        ) - 0.05

    def test_unknown_aggregator_rejected(self, llm):
        with pytest.raises(ConfigError):
            EvaporateExtractor(llm, aggregator="quorum")


class TestParseAggregate:
    @pytest.mark.parametrize(
        "question,agg,etype",
        [
            ("count companies where industry == biotech", "count", "companie"),
            ("how many products", "count", "product"),
            ("average price_usd of products", "avg", "product"),
            ("max revenue_musd of companies", "max", "companie"),
        ],
    )
    def test_parse(self, question, agg, etype):
        parsed = parse_aggregate(question)
        assert parsed is not None
        assert parsed.agg == agg

    def test_point_query_not_parsed(self):
        assert parse_aggregate("Who is the CEO of Acme?") is None

    def test_where_clause(self):
        parsed = parse_aggregate("count companies where founded > 1990")
        assert parsed.where == ("founded", ">", "1990")


class TestAggregateCells:
    CELLS = ["4", None, "n/a", 2, "3.5", ""]

    @pytest.mark.parametrize(
        "fn,expected", [("avg", "3.2"), ("sum", "9.5"), ("max", "4.0"), ("min", "2.0")]
    )
    def test_numeric_cells_only(self, fn, expected):
        assert aggregate_cells(self.CELLS, fn) == expected

    def test_no_numeric_cell_is_unknown(self):
        assert aggregate_cells([None, "n/a"], "avg") == "unknown"
        assert aggregate_cells([], "sum") == "unknown"

    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError):
            aggregate_cells(["1"], "median")

    @pytest.mark.parametrize("cells", [["1990", "2001"], ["Acme", None], []])
    def test_unknown_function_raises_whatever_the_cells(self, cells):
        # A numeric column ("founded") and a text one ("name") give the same
        # error: fn is checked before any cell is read.
        with pytest.raises(ExecutionError, match="unknown aggregate 'median'"):
            aggregate_cells(cells, "median")


class TestDocumentAnalytics:
    @pytest.fixture()
    def analytics(self, world, company_docs):
        llm = make_llm("sim-base", world=world, seed=8)
        return DocumentAnalytics(llm, company_docs, schema={"company": ATTRS + ["revenue_musd"]})

    def test_point_query_routed_to_rag(self, analytics, world):
        company = world.companies[0]
        answer = analytics.ask(f"Who is the CEO of {company.name}?")
        assert answer.kind == "point"

    def test_count_close_to_gold(self, analytics, world):
        industry = world.companies[0].attributes["industry"]
        answer = analytics.ask(f"count companies where industry == {industry}")
        gold = sum(1 for c in world.companies if c.attributes["industry"] == industry)
        assert answer.kind == "aggregate"
        assert abs(int(answer.answer) - gold) <= max(1, gold // 3)

    def test_view_amortized(self, analytics):
        first = analytics.ask("count companies where founded > 1990")
        second = analytics.ask("average revenue_musd of companies")
        assert second.llm_calls == 0
        assert first.llm_calls > 0

    def test_unknown_etype_raises(self, analytics):
        with pytest.raises(ExecutionError):
            analytics.ask("count starships")

    def test_plural_resolution(self, analytics):
        answer = analytics.ask("how many companies")
        assert int(answer.answer) > 0


class TestSemanticOperators:
    @pytest.fixture()
    def records(self, world):
        return [{"name": c.name, **c.attributes} for c in world.companies]

    @pytest.fixture()
    def ops(self, world):
        return SemanticOperators(make_llm("sim-base", world=world, seed=10))

    def test_filter_structured_predicate(self, ops, records, world):
        kept, stats = ops.sem_filter(records, "founded > 2000")
        gold = sum(1 for c in world.companies if int(c.attributes["founded"]) > 2000)
        assert abs(len(kept) - gold) <= max(2, gold // 3)
        assert stats.llm_calls == len(records)

    def test_filter_cascade_skips_llm_on_rules(self, ops, records):
        kept, stats = ops.sem_filter(records, "founded > 2000", cascade=True)
        assert stats.llm_calls == 0
        assert stats.rule_decisions == len(records)

    def test_filter_cascade_exact_on_structured(self, ops, records, world):
        kept, _ = ops.sem_filter(records, "founded > 2000", cascade=True)
        gold = {c.name for c in world.companies if int(c.attributes["founded"]) > 2000}
        assert {r["name"] for r in kept} == gold

    def test_topical_cascade_reduces_calls(self, ops, world, company_docs):
        records = [{"name": d.meta["entity"], "text": d.text} for d in company_docs]
        _, full = ops.sem_filter(records, "is_about 'aerospace industry'")
        _, cascade = ops.sem_filter(records, "is_about 'aerospace industry'", cascade=True)
        assert cascade.llm_calls < full.llm_calls

    def test_join_blocking_cuts_candidates(self, ops, world):
        products = [{"name": p.name, "maker": p.attributes["maker"]} for p in world.products[:10]]
        companies = [{"name": c.name} for c in world.companies[:10]]
        pairs_blocked, stats_blocked = ops.sem_join(
            products, companies, left_key="maker", right_key="name"
        )
        assert stats_blocked.candidates_considered < 100
        gold = {
            (p["name"], p["maker"])
            for p in products
            if p["maker"] in {c["name"] for c in companies}
        }
        got = {(left["name"], right["name"]) for left, right in pairs_blocked}
        assert len(got & gold) >= int(0.7 * len(gold))

    def test_join_naive_quadratic(self, ops, world):
        products = [{"name": p.name, "maker": p.attributes["maker"]} for p in world.products[:5]]
        companies = [{"name": c.name} for c in world.companies[:5]]
        _, stats = ops.sem_join(
            products, companies, left_key="maker", right_key="name", blocking=False
        )
        assert stats.candidates_considered == 25
        assert stats.llm_calls == 25

    def test_topk_returns_k(self, ops, records):
        top, stats = ops.sem_topk(records, "biggest revenue", k=3)
        assert len(top) == 3
        assert stats.llm_calls >= 1

    def test_topk_with_k_above_group_size_terminates(self, ops, records):
        # Regression: groups smaller than k keep every member, so the
        # tournament used to stall at k records and loop forever.
        top, stats = ops.sem_topk(records[:7], "biggest revenue", k=3, group_size=2)
        assert len(top) == 3
        assert stats.llm_calls >= 1

    def test_topk_empty_k(self, ops, records):
        top, _ = ops.sem_topk(records, "anything", k=0)
        assert top == []

    def test_group_count_totals(self, ops, world, company_docs):
        records = [{"name": d.meta["entity"], "text": d.text} for d in company_docs[:12]]
        counts, stats = ops.sem_group_count(records, ["aerospace", "finance"])
        assert stats.llm_calls == 12
        assert sum(counts.values()) <= 12

    def test_group_count_requires_classes(self, ops, records):
        with pytest.raises(ConfigError):
            ops.sem_group_count(records, [])

    def test_map_extracts_field(self, ops, records):
        out, stats = ops.sem_map(
            records[:5], "Return the value of field 'industry'", output_field="ind"
        )
        assert len(out) == 5
        assert stats.llm_calls == 5
        correct = sum(1 for rec in out if rec["ind"] == rec["industry"])
        assert correct >= 3
