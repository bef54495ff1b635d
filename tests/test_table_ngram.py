"""Tests for the relational mini-engine and the n-gram proxy LM."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.ngram import NGramLM
from repro.data.table import Column, Schema, Table
from repro.errors import ConfigError, SchemaError


@pytest.fixture()
def people():
    table = Table(
        "people",
        Schema.of(name="str", age="int", city="str"),
        [
            {"name": "Ada", "age": 30, "city": "Ulton"},
            {"name": "Bob", "age": 45, "city": "Norburg"},
            {"name": "Cy", "age": 30, "city": "Ulton"},
        ],
    )
    return table


@pytest.fixture()
def cities():
    return Table(
        "cities",
        Schema.of(city="str", country="str"),
        [
            {"city": "Ulton", "country": "Fenwick"},
            {"city": "Norburg", "country": "Avaria"},
        ],
    )


class TestSchema:
    def test_rejects_duplicate_columns(self):
        with pytest.raises(SchemaError):
            Schema((Column("a"), Column("a")))

    def test_rejects_unknown_dtype(self):
        with pytest.raises(SchemaError):
            Column("a", "complex")

    def test_coercion(self):
        col = Column("n", "int")
        assert col.coerce("42") == 42
        assert col.coerce(None) is None
        with pytest.raises(SchemaError):
            col.coerce("not-a-number")

    def test_int_column_refuses_fractional_float(self):
        col = Column("n", "int")
        assert col.coerce(3.0) == 3 and isinstance(col.coerce(3.0), int)
        for value in (2.5, -0.5, float("inf"), float("nan")):
            with pytest.raises(SchemaError):
                col.coerce(value)
        table = Table("t", Schema.of(n="int"), [{"n": 1}])
        with pytest.raises(SchemaError):
            table.insert({"n": 2.5})
        assert table.rows == [{"n": 1}]

    def test_bool_coercion(self):
        col = Column("f", "bool")
        assert col.coerce("yes") is True
        assert col.coerce("0") is False

    def test_contains(self):
        schema = Schema.of(a="str", b="int")
        assert "a" in schema and "z" not in schema


class TestTableOps:
    def test_insert_validates(self, people):
        people.insert({"name": "Dee", "age": "50", "city": "Ulton"})
        assert people.rows[-1]["age"] == 50

    def test_where_ops(self, people):
        assert len(people.where("age", "==", 30)) == 2
        assert len(people.where("age", ">", 30)) == 1
        assert len(people.where("city", "contains", "ult")) == 2
        assert len(people.where("name", "!=", "Ada")) == 2

    def test_where_compares_a_fractional_literal_on_an_int_column_numerically(self):
        # Coercing 2.5 to int raised (a text) or truncated it to 2 (a float).
        table = Table("t", Schema.of(n="int"), [{"n": n} for n in (1, 2, 3, 4)])
        for literal in (2.5, "2.5"):
            assert table.where("n", ">", literal).cells("n") == [3, 4]
            assert table.where("n", "<=", literal).cells("n") == [1, 2]
            assert table.where("n", "==", literal).cells("n") == []
            assert table.where("n", "!=", literal).cells("n") == [1, 2, 3, 4]
        assert table.where("n", "==", "2.0").cells("n") == [2]
        with pytest.raises(SchemaError, match="cannot coerce 'abc' to int"):
            table.where("n", ">", "abc")

    def test_where_unknown_op(self, people):
        with pytest.raises(SchemaError):
            people.where("age", "~=", 1)

    def test_where_unknown_op_raises_on_empty_and_non_empty_tables(self):
        # The op used to be checked per row, so an empty table returned empty.
        for rows in ([], [{"n": 1}]):
            with pytest.raises(SchemaError, match="unknown operator '~~'"):
                Table("t", Schema.of(n="int"), rows).where("n", "~~", 1)

    def test_project(self, people):
        proj = people.project(["name"])
        assert proj.schema.names() == ["name"]
        assert len(proj) == 3
        with pytest.raises(SchemaError):
            people.project(["ghost"])

    def test_inner_join(self, people, cities):
        joined = people.join(cities, left_on="city", right_on="city")
        assert len(joined) == 3
        row = next(r for r in joined.rows if r["name"] == "Bob")
        assert row["country"] == "Avaria"

    def test_join_prefixes_collisions(self, people, cities):
        joined = people.join(cities, left_on="city", right_on="city")
        assert "cities.city" in joined.schema.names()

    def test_left_join_keeps_unmatched(self, people):
        empty = Table("x", Schema.of(city="str", z="int"))
        joined = people.join(empty, left_on="city", right_on="city", how="left")
        assert len(joined) == 3
        assert all(r["z"] is None for r in joined.rows)

    def test_join_bad_type(self, people, cities):
        with pytest.raises(SchemaError):
            people.join(cities, left_on="city", right_on="city", how="outer")

    def test_group_by_aggregates(self, people):
        agg = people.group_by(
            ["city"], {"n": ("count", ""), "mean_age": ("avg", "age")}
        )
        by_city = {r["city"]: r for r in agg.rows}
        assert by_city["Ulton"]["n"] == 2
        assert by_city["Ulton"]["mean_age"] == pytest.approx(30.0)

    def test_group_by_global(self, people):
        agg = people.group_by([], {"total": ("sum", "age")})
        assert agg.rows[0]["total"] == pytest.approx(105.0)

    def test_group_by_without_keys_over_zero_rows_returns_one_row(self, people):
        # It returned no row, so COUNT(*) over an empty filter had no answer.
        empty = people.where("age", ">", 99)
        aggregates = {"n": ("count", ""), "s": ("sum", "age"), "a": ("avg", "age"),
                      "lo": ("min", "age"), "hi": ("max", "age")}
        agg = empty.group_by([], aggregates)
        assert agg.rows == [{"n": 0, "s": 0.0, "a": None, "lo": None, "hi": None}]

    def test_group_by_with_keys_over_zero_rows_returns_no_row(self, people):
        empty = people.where("age", ">", 99)
        assert empty.group_by(["city"], {"n": ("count", "")}).rows == []

    def test_group_by_rejects_string_aggregation(self, people):
        with pytest.raises(SchemaError):
            people.group_by([], {"m": ("max", "name")})

    def test_group_by_unknown_aggregate(self, people):
        with pytest.raises(SchemaError):
            people.group_by([], {"m": ("median", "age")})

    def test_order_by_and_limit(self, people):
        top = people.order_by("age", desc=True).limit(1)
        assert top.rows[0]["name"] == "Bob"

    def test_order_by_none_last(self, people):
        people.insert({"name": "Nil", "age": None, "city": "Ulton"})
        ordered = people.order_by("age")
        assert ordered.rows[-1]["name"] == "Nil"

    def test_distinct(self):
        table = Table("t", Schema.of(a="int"), [{"a": 1}, {"a": 1}, {"a": 2}])
        assert len(table.distinct()) == 2

    def test_operators_do_not_mutate(self, people):
        before = len(people)
        people.where("age", ">", 100)
        people.project(["name"])
        assert len(people) == before

    def test_matching_result_is_the_callers_own(self):
        table = Table("t", Schema.of(a="str"), [{"a": "x"}, {"a": "y"}])
        got = table.matching("a", "==", "x")
        got.append(1)
        assert table.matching("a", "==", "x") == [0]

    def test_column_values(self, people):
        assert sorted(people.column_values("age")) == [30, 30, 45]


class TestNGramLM:
    def test_training_text_scores_lower(self):
        lm = NGramLM(order=2).fit(["the cat sat on the mat"] * 5)
        assert lm.perplexity("the cat sat") < lm.perplexity("zeppelin quartz flux")

    def test_fit_accumulates(self):
        lm = NGramLM(order=1, interpolation=(1.0,))
        lm.fit(["alpha beta"])
        before = lm.perplexity("gamma")
        lm.fit(["gamma delta"] * 3)
        assert lm.perplexity("gamma") < before

    def test_corpus_perplexity_weighted(self):
        lm = NGramLM(order=1, interpolation=(1.0,)).fit(["a a a a b"])
        corp = lm.corpus_perplexity(["a a", "b"])
        assert corp > lm.perplexity("a a")

    def test_empty_text_infinite(self):
        lm = NGramLM().fit(["something"])
        assert lm.perplexity("") == float("inf")

    def test_rejects_bad_order(self):
        with pytest.raises(ConfigError):
            NGramLM(order=4, interpolation=(1, 1, 1, 1))

    def test_rejects_mismatched_interpolation(self):
        with pytest.raises(ConfigError):
            NGramLM(order=2, interpolation=(1.0,))

    def test_interpolation_normalized(self):
        lm = NGramLM(order=2, interpolation=(2.0, 6.0))
        assert sum(lm.interpolation) == pytest.approx(1.0)

    @given(st.text(alphabet="abcdef ", min_size=1, max_size=60))
    @settings(max_examples=30)
    def test_perplexity_positive(self, text):
        lm = NGramLM(order=2).fit(["a b c d e f"])
        ppl = lm.perplexity(text)
        assert ppl > 0
