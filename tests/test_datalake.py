"""Tests for the data-lake catalog, linking, planning, execution, NL2SQL."""

import hashlib

import numpy as np
import pytest

from repro.data.table import Schema, Table
from repro.datalake import (
    DataLake,
    EmbeddingLinker,
    LakeAnalytics,
    LakePlanner,
    LakeWorkload,
    LexicalLinker,
    NL2SQLEngine,
    NL2SQLResult,
    Plan,
    answer_matches,
    combine_linkers,
    execute_sql,
    linking_recall,
    parse_lake_query,
    parse_sql,
    translate_question,
)
from repro.datalake.linking import expand_query, singularize
from repro.errors import ConfigError, ExecutionError, PlanError
from repro.llm import make_llm

DOC_ATTRS = {"person": ["employer", "role", "age", "residence"]}


@pytest.fixture(scope="module")
def lake(world):
    return DataLake.from_world(world)


@pytest.fixture(scope="module")
def lake_llm(world):
    return make_llm("sim-base", world=world, seed=12)


@pytest.fixture(scope="module")
def linker(lake, lake_llm):
    return EmbeddingLinker(lake, lake_llm.embedder)


class TestCatalog:
    def test_default_split(self, lake):
        ids = {a.asset_id for a in lake.assets()}
        assert ids == {"table:cities", "table:companies", "json:products", "doc:persons"}

    def test_descriptions_carry_structure(self, lake):
        table_asset = lake.get("table:companies")
        assert "columns" in table_asset.description
        json_asset = lake.get("json:products")
        assert "key paths" in json_asset.description
        assert "properties.maker" in json_asset.description

    def test_json_as_table(self, lake, world):
        table = lake.json_as_table("json:products")
        assert len(table) == len(world.products)
        assert "maker" in table.schema.names()
        assert "price_usd" in table.schema.names()

    def test_json_as_table_rejects_other_modalities(self, lake):
        with pytest.raises(ConfigError):
            lake.json_as_table("table:companies")

    def test_unknown_asset(self, lake):
        with pytest.raises(ConfigError):
            lake.get("table:ghosts")

    def test_duplicate_asset_rejected(self, world, lake):
        with pytest.raises(ConfigError):
            lake.add_table(Table("companies", lake.get("table:companies").table.schema))


def _rows_digest(table: Table) -> str:
    return hashlib.sha256(repr(table.rows).encode()).hexdigest()


class TestJsonTableMemo:
    """``json_as_table`` flattens each JSON asset once and shares the relation."""

    def test_second_scan_shares_the_relation_without_flattening(self, world, monkeypatch):
        from repro.datalake import catalog

        flattened = []
        real_flatten = catalog._flatten

        def counting_flatten(record):
            flattened.append(record)
            return real_flatten(record)

        monkeypatch.setattr(catalog, "_flatten", counting_flatten)
        lake = DataLake.from_world(world)
        first = lake.json_as_table("json:products")
        assert len(flattened) == len(world.products)
        assert lake.json_as_table("json:products") is first
        assert len(flattened) == len(world.products)

    @pytest.mark.parametrize("asset_id", ["json:ghosts", "table:companies", "json:empty"])
    def test_errors_raise_on_every_call(self, world, asset_id):
        lake = DataLake.from_world(world)
        lake.add_json("empty", [])
        for _ in range(3):
            with pytest.raises(ConfigError):
                lake.json_as_table(asset_id)

    def test_colliding_key_paths_raise(self, world):
        lake = DataLake(world)
        lake.add_json("widgets", [{"name": "w1", "properties": {"name": "w2", "size": 3}}])
        for _ in range(2):
            with pytest.raises(ConfigError, match=r"'name' and 'properties\.name'"):
                lake.json_as_table("json:widgets")

    def test_nested_leaves_become_columns(self, world):
        lake = DataLake(world)
        lake.add_json("boxes", [{"id": 1, "dims": {"outer": {"w": 2, "h": 3}}, "tag": "x"}])
        table = lake.json_as_table("json:boxes")
        assert table.schema.names() == ["h", "id", "tag", "w"]
        assert table.rows == [{"h": 3, "id": 1, "tag": "x", "w": 2}]

    def test_column_with_a_later_non_digit_value_is_str(self, world):
        # A column used to be typed from its first record alone, so '1'
        # then 'x' typed it int and every scan raised SchemaError.
        lake = DataLake(world)
        lake.add_json("keys", [{"k": "1"}, {"k": "x"}])
        table = lake.json_as_table("json:keys")
        assert table.schema.column("k").dtype == "str"
        assert table.rows == [{"k": "1"}, {"k": "x"}]

    def test_int_column_keeps_its_type(self, world):
        lake = DataLake(world)
        lake.add_json("sizes", [{"n": "1"}, {"n": -2}, {"m": "y"}])
        table = lake.json_as_table("json:sizes")
        assert table.schema.column("n").dtype == "int"
        assert [row["n"] for row in table.rows] == [1, -2, None]

    def test_memo_changes_no_answer_and_no_shared_row(self, world):
        questions = LakeWorkload(world, seed=3).mixed(150)

        def run(clear_memo):
            lake = DataLake.from_world(world)
            llm = make_llm("sim-base", world=world, seed=14)
            analytics = LakeAnalytics(lake, llm, doc_attributes=DOC_ATTRS)
            shared = lake.json_as_table("json:products")
            digest = _rows_digest(shared)
            answers = []
            for question in questions:
                if clear_memo:
                    lake._json_tables.clear()
                answers.append(analytics.ask(question.text).answer)
            return answers, lake, shared, digest

        warm, lake, shared, digest = run(clear_memo=False)
        cold, _, _, _ = run(clear_memo=True)
        assert warm == cold
        assert lake.json_as_table("json:products") is shared
        assert _rows_digest(shared) == digest


class TestLinking:
    def test_singularize(self):
        assert singularize("people") == "person"
        assert singularize("companies") == "company"
        assert singularize("products") == "product"
        assert singularize("glass") == "glass"

    def test_expand_query_adds_singulars(self):
        assert "person" in expand_query("people records")

    @pytest.mark.parametrize(
        "query,gold",
        [
            ("company companies", ["table:companies"]),
            ("person persons", ["doc:persons"]),
            ("product products", ["json:products"]),
            ("city cities", ["table:cities"]),
        ],
    )
    def test_embedding_linker_top1(self, linker, query, gold):
        assert linking_recall(linker.link(query, k=1), gold) == 1.0

    def test_linker_scores_cover_all_assets(self, linker, lake):
        scores = linker.scores("company data")
        assert set(scores) == {a.asset_id for a in lake.assets()}

    def test_lexical_linker_on_exact_terms(self, lake):
        lexical = LexicalLinker(lake)
        hits = lexical.link("companies revenue_musd industry", k=1)
        assert hits[0].asset.asset_id == "table:companies"

    def test_combined_linkers(self, lake, linker):
        lexical = LexicalLinker(lake)
        combined = combine_linkers(lake, "person employment", [linker, lexical], k=2)
        assert len(combined) == 2
        assert linking_recall(combined, ["doc:persons"]) == 1.0

    def test_linking_recall_empty_gold(self, linker):
        assert linking_recall(linker.link("x"), []) == 0.0

    @pytest.mark.parametrize("tied", [(0, 1), (1, 2), (0, 3), (0, 1, 2), (0, 1, 2, 3)])
    def test_link_order_keeps_catalog_order_with_tied_scores(self, lake, lake_llm, tied):
        linker = EmbeddingLinker(lake, lake_llm.embedder)
        linker._matrix = linker._matrix.copy()
        linker._matrix[list(tied)] = linker._matrix[tied[0]]  # equal rows score equal
        for query in ("company companys", "person persons", "product products", "city"):
            scores = (linker._matrix @ lake_llm.embedder.embed(expand_query(query))).tolist()
            # Best first; among equal scores, the asset listed first first.
            want = [
                linker._assets[i].asset_id
                for i in sorted(range(len(scores)), key=lambda i: (-scores[i], i))
            ]
            got = [la.asset.asset_id for la in linker.link(query, k=len(want))]
            assert got == want
            assert [la.score for la in linker.link(query, k=2)] == sorted(
                scores, reverse=True
            )[:2]

    def test_two_tied_assets_link_in_catalog_order(self, lake, lake_llm):
        linker = EmbeddingLinker(lake, lake_llm.embedder)
        linker._matrix = linker._matrix.copy()
        first, second = 0, 1
        linker._matrix[first] = linker._matrix[second]  # the two assets tie
        top = linker.link(linker._assets[3].name, k=len(linker._assets))
        ids = [la.asset.asset_id for la in top]
        at = ids.index(linker._assets[first].asset_id)
        assert ids[at + 1] == linker._assets[second].asset_id
        assert top[at].score == top[at + 1].score


class TestLakeQueryParsing:
    def test_single(self):
        q = parse_lake_query("count companies where industry == biotech")
        assert q.agg == "count" and q.etype_a == "company"
        assert q.filter_a == ("industry", "==", "biotech")
        assert not q.is_join

    def test_join(self):
        q = parse_lake_query(
            "average price_usd of products whose maker is in companies "
            "where industry == biotech"
        )
        assert q.is_join
        assert q.etype_a == "product" and q.etype_b == "company"
        assert q.relation == "maker"
        assert q.filter_b == ("industry", "==", "biotech")

    def test_irregular_plural(self):
        q = parse_lake_query("count people whose employer is in companies where founded < 1990")
        assert q.etype_a == "person"

    def test_not_analytics(self):
        assert parse_lake_query("Where is Acu Corp?") is None


class TestPlanner:
    @pytest.fixture()
    def planner(self, lake, linker):
        return LakePlanner(lake, linker, doc_attributes=DOC_ATTRS)

    def test_plan_structure_single(self, planner):
        plan, groundings = planner.plan("count companies where industry == biotech")
        ops = [s.op for s in plan.steps]
        assert ops == ["scan", "filter", "aggregate"]
        assert groundings["company"].chosen.asset_id == "table:companies"

    def test_plan_structure_join(self, planner):
        plan, _ = planner.plan(
            "average price_usd of products whose maker is in companies "
            "where industry == biotech"
        )
        ops = [s.op for s in plan.steps]
        assert "join" in ops and ops[-1] == "aggregate"

    def test_document_source_becomes_extract(self, planner):
        plan, _ = planner.plan(
            "count people whose employer is in companies where founded < 1990"
        )
        assert plan.steps[0].op == "extract"
        assert "employer" in plan.steps[0].params["attributes"]

    def test_extract_requests_only_needed_attributes(self, planner):
        plan, _ = planner.plan(
            "count people whose employer is in companies where founded < 1990"
        )
        assert set(plan.steps[0].params["attributes"]) == {"employer"}

    def test_unparseable_raises(self, planner):
        with pytest.raises(PlanError):
            planner.plan("what is love")

    def test_replan_switches_asset(self, planner):
        _, groundings = planner.plan("count companies where industry == biotech")
        new_plan, new_groundings = planner.replan(
            "count companies where industry == biotech", groundings, "company"
        )
        assert (
            new_groundings["company"].chosen.asset_id
            != groundings["company"].chosen.asset_id
        )

    def test_replan_without_alternatives_raises(self, planner, lake):
        from repro.datalake.planner import GroundingDecision

        groundings = {
            "company": GroundingDecision("company", lake.get("table:companies"), [])
        }
        with pytest.raises(PlanError):
            planner.replan("count companies", groundings, "company")


class TestPlanValidation:
    def test_undefined_input(self):
        from repro.datalake.plan import PlanStep

        plan = Plan()
        plan.steps.append(PlanStep(step_id="s0", op="filter", inputs=["ghost"]))
        with pytest.raises(PlanError):
            plan.validate()

    def test_unknown_op(self):
        from repro.datalake.plan import PlanStep

        with pytest.raises(PlanError):
            PlanStep(step_id="s0", op="teleport")

    def test_empty_plan(self):
        with pytest.raises(PlanError):
            Plan().validate()

    def test_render(self):
        plan = Plan(description="demo")
        plan.add("scan", asset_id="table:x")
        assert "scan" in plan.render()


class TestLakeAnalytics:
    @pytest.fixture(scope="class")
    def analytics(self, lake, world):
        llm = make_llm("sim-base", world=world, seed=14)
        return LakeAnalytics(lake, llm, doc_attributes=DOC_ATTRS)

    def test_workload_gold_is_correct(self, world):
        wl = LakeWorkload(world)
        for q in wl.single_aggregates(10):
            assert q.gold != ""

    def test_mixed_accuracy(self, analytics, world):
        questions = LakeWorkload(world).mixed(16)
        correct = sum(
            answer_matches(analytics.ask(q.text).answer, q.gold, tolerance=0.15)
            for q in questions
        )
        assert correct >= int(0.75 * len(questions))

    def test_extraction_amortized_across_queries(self, analytics, world):
        wl = LakeWorkload(world)
        join_questions = [q for q in wl.join_aggregates(6) if "people" in q.text]
        if len(join_questions) < 2:
            pytest.skip("workload produced too few person joins")
        analytics.ask(join_questions[0].text)
        calls_before = analytics.llm.usage.calls
        analytics.ask(join_questions[1].text)
        assert analytics.llm.usage.calls - calls_before == 0

    def test_failure_reports_unknown(self, lake, world):
        llm = make_llm("sim-base", world=world, seed=15)
        analytics = LakeAnalytics(lake, llm, doc_attributes={}, max_reflections=0)
        trace = analytics.ask("count people whose employer is in companies where founded < 1990")
        # Without doc attributes the extract step has no employer column;
        # with reflection disabled the failure is surfaced, not hidden.
        assert trace.failed or trace.answer != ""


class TestProjectUnknownColumn:
    """A projection of an unknown column is an execution failure, which the
    reflection loop reports, not a schema error that escapes ``ask``."""

    @staticmethod
    def _plan():
        plan = Plan(description="project a missing column")
        scan = plan.add("scan", asset_id="table:companies")
        plan.add("project", inputs=[scan], columns=["name", "nope"])
        return plan

    def test_executor_raises_execution_error_naming_the_columns(self, lake, world):
        from repro.datalake.executor import PlanExecutor

        executor = PlanExecutor(lake, make_llm("sim-base", world=world, seed=16))
        names = lake.get("table:companies").table.schema.names()
        with pytest.raises(ExecutionError) as err:
            executor.execute(self._plan())
        assert str(err.value) == f"project column 'nope' not in {names}"

    def test_ask_reports_the_failure(self, lake, world):
        class FixedPlanner:
            def plan(self, question):
                return TestProjectUnknownColumn._plan(), {}

        llm = make_llm("sim-base", world=world, seed=16)
        analytics = LakeAnalytics(lake, llm, planner=FixedPlanner())
        trace = analytics.ask("list the nope of companies")
        assert trace.failed and trace.answer == "unknown"
        assert trace.failure.startswith("project column 'nope' not in ")


class TestRepeatedColumnsAreExecutionErrors:
    """A projection or a join whose output would repeat a column name is an
    execution failure that reflection reports, not a SchemaError escaping
    ``ask``."""

    @staticmethod
    def _repeated_project():
        plan = Plan(description="project one column twice")
        scan = plan.add("scan", asset_id="table:companies")
        plan.add("project", inputs=[scan], columns=["name", "name"])
        return plan

    @staticmethod
    def _triple_self_join():
        # The second join prefixes the right 'name' as 'companies.name',
        # which the first join already produced.
        plan = Plan(description="join a table with itself twice")
        scan = plan.add("scan", asset_id="table:companies")
        once = plan.add("join", inputs=[scan, scan], left_on="name", right_on="name")
        plan.add("join", inputs=[once, scan], left_on="name", right_on="name")
        return plan

    @pytest.mark.parametrize("make_plan, message", [
        ("_repeated_project", "project repeats a column in ['name', 'name']"),
        ("_triple_self_join", "join of 'companies_companies' and 'companies' repeats a column"),
    ])
    def test_executor_raises_execution_error(self, lake, world, make_plan, message):
        from repro.datalake.executor import PlanExecutor

        executor = PlanExecutor(lake, make_llm("sim-base", world=world, seed=16))
        with pytest.raises(ExecutionError) as err:
            executor.execute(getattr(self, make_plan)())
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("make_plan", ["_repeated_project", "_triple_self_join"])
    def test_ask_reports_the_failure(self, lake, world, make_plan):
        plan = getattr(self, make_plan)()

        class FixedPlanner:
            def plan(self, question):
                return plan, {}

        llm = make_llm("sim-base", world=world, seed=16)
        analytics = LakeAnalytics(lake, llm, planner=FixedPlanner())
        trace = analytics.ask("list the companies")
        assert trace.failed and trace.answer == "unknown"
        assert "repeats a column" in trace.failure


def test_scan_reads_rows_inserted_after_an_earlier_plan():
    # A scan cache keyed on the table object kept answering 1.0 here.
    from repro.data.table import Schema
    from repro.datalake.executor import PlanExecutor

    table = Table("sales", Schema.of(name="str", amount="int"), [{"name": "a", "amount": 1}])
    lake = DataLake(None)
    lake.add_table(table)
    executor = PlanExecutor(lake, make_llm(seed=5))
    plan = Plan()
    scan = plan.add("scan", asset_id="table:sales")
    plan.add("aggregate", inputs=[scan], fn="sum", column="amount")
    assert executor.execute(plan) == "1.0"
    before = table.where("amount", ">", 0)
    table.insert({"name": "b", "amount": 41})
    assert executor.execute(plan) == "42.0"
    assert len(before) == 1 and len(table) == 2


class TestAnswerMatches:
    def test_exact(self):
        assert answer_matches("8", "8")

    def test_relative_tolerance(self):
        assert answer_matches("102.0", "100.0", tolerance=0.05)
        assert not answer_matches("120.0", "100.0", tolerance=0.05)

    def test_non_numeric_mismatch(self):
        assert not answer_matches("unknown", "42")

    def test_zero_gold(self):
        assert answer_matches("0", "0.0")


class TestSQL:
    @pytest.fixture(scope="class")
    def tables(self, lake):
        return {a.name: a.table for a in lake.by_modality("table")}

    def test_parse_full_query(self):
        q = parse_sql(
            "SELECT name, AVG(revenue_musd) FROM companies JOIN cities ON "
            "companies.headquarters = cities.name WHERE founded > 1990 "
            "GROUP BY industry ORDER BY name DESC LIMIT 5;"
        )
        assert q.table == "companies" and q.join_table == "cities"
        assert q.where == [("founded", ">", "1990")]
        assert q.group_by == "industry" and q.order_desc and q.limit == 5

    def test_parse_rejects_garbage(self):
        with pytest.raises(ExecutionError):
            parse_sql("DELETE FROM companies")

    def test_execute_count(self, tables, world):
        result = execute_sql("SELECT COUNT(*) FROM companies", tables)
        assert result.rows[0]["count_all"] == len(world.companies)

    def test_execute_where_and_avg(self, tables, world):
        industry = world.companies[0].attributes["industry"]
        result = execute_sql(
            f"SELECT AVG(revenue_musd) FROM companies WHERE industry = '{industry}'",
            tables,
        )
        gold = [
            int(c.attributes["revenue_musd"])
            for c in world.companies
            if c.attributes["industry"] == industry
        ]
        assert result.rows[0]["avg_revenue_musd"] == pytest.approx(
            sum(gold) / len(gold)
        )

    def test_execute_join(self, tables, world):
        result = execute_sql(
            "SELECT COUNT(*) FROM companies JOIN cities ON "
            "companies.headquarters = cities.name",
            tables,
        )
        assert result.rows[0]["count_all"] == len(world.companies)

    def test_execute_group_by(self, tables, world):
        result = execute_sql(
            "SELECT COUNT(*) FROM companies GROUP BY industry", tables
        )
        total = sum(r["count_all"] for r in result.rows)
        assert total == len(world.companies)

    def test_execute_order_limit(self, tables):
        result = execute_sql(
            "SELECT name FROM companies ORDER BY name LIMIT 3", tables
        )
        names = [r["name"] for r in result.rows]
        assert names == sorted(names) and len(names) == 3

    def test_execute_unknown_table(self, tables):
        with pytest.raises(ExecutionError):
            execute_sql("SELECT * FROM ghosts", tables)

    def test_execute_unknown_column(self, tables):
        with pytest.raises(ExecutionError):
            execute_sql("SELECT ghost FROM companies", tables)

    def test_translate_question(self, tables):
        schema = {name: t.schema.names() for name, t in tables.items()}
        sql = translate_question("count companies where industry == biotech", schema)
        assert sql == "SELECT COUNT(*) FROM companies WHERE industry = 'biotech'"
        assert translate_question("dance for me", schema) is None

    def test_engine_correct_answers(self, tables, world):
        llm = make_llm("sim-large", world=world, seed=16)
        engine = NL2SQLEngine(llm, tables)
        industry = world.companies[0].attributes["industry"]
        result = engine.ask(f"count companies where industry == {industry}")
        gold = sum(
            1 for c in world.companies if c.attributes["industry"] == industry
        )
        assert result.scalar == str(gold)

    def test_engine_retry_on_schema_mismatch(self, tables, world):
        # A low-accuracy model emits corrupted SQL often; execution-guided
        # verification should still land a valid query within retries on
        # most questions.
        llm = make_llm("sim-small", world=world, seed=17)
        engine = NL2SQLEngine(llm, tables, max_retries=4)
        results = [
            engine.ask("average revenue_musd of companies"),
            engine.ask("count cities"),
            engine.ask("max population of cities"),
        ]
        assert any(r.table is not None and r.attempts > 1 for r in results) or all(
            r.table is not None for r in results
        )

    def test_engine_no_verify_single_attempt(self, tables, world):
        llm = make_llm("sim-base", world=world, seed=18)
        engine = NL2SQLEngine(llm, tables)
        result = engine.ask("count companies", verify=False)
        assert result.attempts == 1

    @pytest.fixture()
    def people(self):
        schema = Schema.of(name="str", age="int")
        return {"people": Table("people", schema, [{"name": n, "age": a}
                                                  for n, a in (("a", 1), ("b", 2), ("c", 3), ("d", 4))])}

    def test_count_over_no_matching_row_is_zero(self, people):
        # The keyless group_by returned no row, so the scalar was None.
        sql = "SELECT COUNT(*) FROM people WHERE age > 99"
        result = NL2SQLResult("q", sql, execute_sql(sql, people), 1)
        assert result.scalar == "0"

    def test_count_of_a_column_skips_nulls(self):
        # COUNT(age) counted rows, so one NULL age still gave 4, not SQL's 3.
        schema = Schema.of(name="str", age="int", city="str")
        rows = [("a", 1, "x"), ("b", None, "x"), ("c", 3, "y"), ("d", 4, "y")]
        tables = {"p": Table("p", schema, [dict(zip(("name", "age", "city"), r)) for r in rows])}
        assert execute_sql("SELECT COUNT(age) FROM p", tables).rows == [{"count_age": 3}]
        assert execute_sql("SELECT COUNT(*) FROM p", tables).rows == [{"count_all": 4}]
        grouped = execute_sql("SELECT city, COUNT(age), COUNT(*) FROM p GROUP BY city", tables)
        assert grouped.rows == [
            {"city": "x", "count_age": 1, "count_all": 2},
            {"city": "y", "count_age": 2, "count_all": 2},
        ]
        with pytest.raises(ExecutionError):
            execute_sql("SELECT COUNT(height) FROM p", tables)

    def test_fractional_where_on_an_int_column_is_numeric(self, people):
        # Coercing '2.5' to int raised, so the engine retried a valid query.
        table = execute_sql("SELECT name FROM people WHERE age > 2.5", people)
        assert table.cells("name") == ["c", "d"]
        assert execute_sql("SELECT COUNT(*) FROM people WHERE age = 2.5", people).rows == [{"count_all": 0}]
        with pytest.raises(ExecutionError, match="cannot coerce 'x' to int"):
            execute_sql("SELECT name FROM people WHERE age > 'x'", people)

    def test_non_numeric_constant_predicate_is_an_execution_error(self, tables):
        # float("abc") in the constant fold used to escape as a ValueError.
        with pytest.raises(ExecutionError, match="non-numeric constant predicate 1 = abc"):
            execute_sql("SELECT * FROM companies WHERE 1 = abc", tables)

    def test_engine_retries_a_non_numeric_constant_predicate(self, tables, world):
        llm = make_llm("sim-base", world=world, seed=18)
        engine = NL2SQLEngine(llm, tables)
        llm.register_skill("sql", lambda ctx: ("SELECT * FROM companies WHERE 1 = abc", {}))
        result = engine.ask("count companies")
        assert result.table is None and result.attempts == engine.max_retries + 1
        assert result.error.startswith("non-numeric constant predicate")
