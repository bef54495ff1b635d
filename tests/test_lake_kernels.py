"""Generated-input checks of the lake's batched kernels against the per-call
paths they replaced: the one-matvec topical proxy, in-order batched ledger
charging, the inner join's pair order, and pipelines over kept corpus
records."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.data.table import Schema, Table
from repro.errors import BudgetExceededError
from repro.llm import make_llm
from repro.llm.cost import Usage, UsageLedger
from repro.semopt import SemFilter, SemGroupCount, SemMap, SemPipeline, SemTopK
from repro.unstructured.operators import OpStats, SemanticOperators
from repro.unstructured.query import DocumentAnalytics

# ------------------------------------------------------- topical proxy


class _FixedEmbedder:
    """Returns a given topic vector and row matrix, whatever the texts."""

    def __init__(self, topic, rows):
        self.topic, self.rows = topic, rows

    def embed(self, text):
        return self.topic.copy()

    def embed_batch(self, texts):
        assert len(texts) == len(self.rows)
        return self.rows.copy()


def _per_row_verdicts(topic, rows, low, high):
    """Frozen copy of the proxy as it was: one ``float(np.dot)`` per row."""
    verdicts = []
    for vector in rows:
        sim = float(np.dot(topic, vector))
        verdicts.append(True if sim >= high else False if sim <= low else None)
    return verdicts


def _unit(vector):
    return (vector / np.linalg.norm(vector)).astype(np.float32)


@st.composite
def _proxy_case(draw):
    """A unit topic vector and unit rows: random ones, and ones built so
    their similarity to the topic lies within 1e-7 of a threshold."""
    dim = draw(st.sampled_from([8, 32, 128, 384]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.sampled_from([0.08, 0.0, 0.2]))
    high = draw(st.sampled_from([0.30, 0.2, 0.55]))
    low, high = min(low, high), max(low, high)
    topic = _unit(rng.standard_normal(dim))
    rows = [_unit(rng.standard_normal(dim)) for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 64))):
        target = draw(st.sampled_from([low, high])) + draw(st.floats(-1e-7, 1e-7))
        other = rng.standard_normal(dim)
        other -= np.dot(other, topic) * topic
        other /= np.linalg.norm(other)
        rows.append(_unit(target * topic + np.sqrt(max(1.0 - target * target, 0.0)) * other))
    order = rng.permutation(len(rows))
    matrix = np.array([rows[i] for i in order], dtype=np.float32).reshape(len(rows), dim)
    return topic, matrix, low, high


@given(_proxy_case())
@seed(20261)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_matvec_proxy_verdicts_equal_per_row_dots(case):
    topic, matrix, low, high = case
    ops = SemanticOperators(
        make_llm("sim-base"), embedder=_FixedEmbedder(topic, matrix), proxy_low=low, proxy_high=high
    )
    rows = [{"text": f"row {i}"} for i in range(len(matrix))]
    stats = OpStats()
    decisions = ops.filter_decisions(rows, "is_about anything", cascade=True, stats=stats)
    want = _per_row_verdicts(topic, matrix, low, high)
    assert decisions == want
    assert stats.proxy_decisions == sum(verdict is not None for verdict in want)


# ------------------------------------------------------- batched charge

_USAGES = st.builds(
    Usage,
    input_tokens=st.integers(0, 5000),
    output_tokens=st.integers(0, 300),
    latency_s=st.floats(0.0, 10.0, allow_nan=False),
    usd=st.sampled_from([0.1, 0.7, 1e-3, 0.3333333333333333, 2.5e-4, 1.1]),
    calls=st.just(1),
)


@st.composite
def _charge_batches(draw):
    """Batches of (tag, usages); a batch repeats one usage object as a
    batch of repeated prompts does."""
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        tag = draw(st.sampled_from(["default", "a.s0.filter", "b.s1.map"]))
        if draw(st.booleans()):
            usages = [draw(_USAGES)] * draw(st.integers(1, 12))
        else:
            usages = draw(st.lists(_USAGES, max_size=12))
        batches.append((tag, usages))
    return batches


def _ledger_state(ledger):
    return repr(ledger.total), repr(list(ledger.by_tag.items()))


@given(
    _charge_batches(),
    st.one_of(st.none(), st.floats(0.0, 20.0)),
    st.one_of(st.none(), st.integers(0, 40)),
    st.floats(0.0, 3.0),
)
@seed(20262)
@settings(max_examples=300, deadline=None)
def test_charge_many_equals_a_loop_of_charge(batches, max_usd, max_calls, spent_usd):
    batched = UsageLedger(max_usd=max_usd, max_calls=max_calls)
    looped = UsageLedger(max_usd=max_usd, max_calls=max_calls)
    opening = Usage(usd=spent_usd)  # a running total that is not a multiple of any charge
    for ledger in (batched, looped):
        ledger.total = opening
    for tag, usages in batches:
        batch_error = loop_error = None
        try:
            batched.charge_many(usages, tag=tag)
        except BudgetExceededError as exc:
            batch_error = str(exc)
        for usage in usages:
            try:
                looped.charge(usage, tag=tag)
            except BudgetExceededError as exc:
                loop_error = str(exc)
                break
        assert batch_error == loop_error
        assert _ledger_state(batched) == _ledger_state(looped)  # repr: bitwise floats


def test_charge_many_replaces_the_tag_entry_only_when_it_charges():
    ledger = UsageLedger()
    ledger.charge_many([Usage(usd=1.0, calls=1)], tag="t")
    before = ledger.by_tag["t"]
    ledger.charge_many([], tag="t")
    assert ledger.by_tag["t"] is before
    ledger.charge_many([Usage(usd=0.0, calls=1)], tag="t")
    assert ledger.by_tag["t"] is not before


# ------------------------------------------------------- inner join order


@given(
    st.lists(st.one_of(st.none(), st.integers(0, 3)), max_size=12),
    st.lists(st.one_of(st.none(), st.integers(0, 3)), max_size=12),
)
@seed(20263)
@settings(max_examples=300, deadline=None)
def test_inner_join_pairs_are_in_tuple_order(left_keys, right_keys):
    left = Table("l", Schema.of(i="int", key="int"),
                 [{"i": i, "key": key} for i, key in enumerate(left_keys)])
    right = Table("r", Schema.of(j="int", key="int"),
                  [{"j": j, "key": key} for j, key in enumerate(right_keys)])
    joined = left.join(right, left_on="key", right_on="key")
    got = list(zip(joined.cells("i"), joined.cells("j")))
    want = sorted(
        (i, j)
        for j, right_key in enumerate(right_keys)
        for i, left_key in enumerate(left_keys)
        if left_key == right_key
    )
    assert got == want


# ------------------------------------------------------- pipelines

# A top-k and a group count hand back input records; a map builds new ones.
PIPELINES = (
    SemPipeline([SemFilter("etype == product"), SemFilter("is_about electronics"),
                 SemTopK("most expensive premium product", k=3, group_size=8)]),
    SemPipeline([SemFilter("etype == product"),
                 SemTopK("most expensive premium product", k=3, group_size=8)]),
    SemPipeline([SemFilter("etype == city"), SemGroupCount(["big city", "small town"])]),
    SemPipeline([SemFilter("etype == company"),
                 SemMap("Summarize the item", output_field="summary")]),
)


@pytest.fixture(scope="module")
def analytics(world, docs):
    return DocumentAnalytics(make_llm("sim-base", world=world, seed=9), docs, schema={})


def _run_digest(analytics):
    results = [analytics.run_pipeline(pipeline) for pipeline in PIPELINES]
    return json.dumps([(r.records, r.group_counts) for r in results], sort_keys=True), results


_EDITS = st.sampled_from(["clear", "text", "etype", "drop_name", "add_field"])


@given(_EDITS)
@seed(20264)
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutating_pipeline_results_leaves_the_corpus_alone(analytics, edit):
    first, results = _run_digest(analytics)
    assert all(result.records for result in results[1:])
    for result in results:
        for record in result.records:
            if edit == "clear":
                record.clear()
            elif edit == "text":
                record["text"] = "a software company making electronics"
            elif edit == "etype":
                record["etype"] = "city"
            elif edit == "drop_name":
                record.pop("name", None)
            else:
                record["extra"] = "x"
    again, _ = _run_digest(analytics)
    assert again == first
