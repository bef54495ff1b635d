"""Property-based tests (hypothesis) on core invariants across modules."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.data.synth import TrainingDocument
from repro.data.table import Schema, Table
from repro.errors import CacheError, ExecutionError
from repro.inference.kvcache import PagedAllocator
from repro.llm.protocol import Prompt, parse_prompt
from repro.prep.dedup import MinHashDeduper, jaccard, shingles
from repro.unstructured.query import _string_predicate

# --------------------------------------------------------------- protocol
# The wire format is newline-delimited: exclude the exotic characters that
# str.splitlines() treats as line breaks but "\n".join cannot reproduce
# (\x0b \x0c \x1c \x1d \x1e \x85 \u2028 \u2029 \r) plus the section
# sigil. Real prompts are normalized text, so this matches the contract.
_SPLITLINE_EXOTICS = "#\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\r"
_section_free_text = st.text(
    alphabet=st.characters(
        blacklist_characters=_SPLITLINE_EXOTICS, blacklist_categories=("Cs",)
    ),
    max_size=80,
).filter(lambda s: not s.startswith("###"))


@given(
    task=st.sampled_from(["qa", "judge", "map", "label"]),
    instruction=_section_free_text.map(lambda s: s.replace("\n", " ").strip()),
    context=_section_free_text,
    input_text=_section_free_text,
    fields=st.dictionaries(
        st.sampled_from(["predicate", "subject", "classes", "schema"]),
        _section_free_text.map(lambda s: s.replace("\n", " ").strip()),
        max_size=3,
    ),
)
@settings(max_examples=80, suppress_health_check=[HealthCheck.filter_too_much])
def test_prompt_roundtrip_property(task, instruction, context, input_text, fields):
    """render -> parse recovers every section for arbitrary content."""
    prompt = Prompt(
        task=task,
        instruction=instruction,
        context=context,
        input=input_text,
        fields=fields,
    )
    parsed = parse_prompt(prompt.render())
    assert parsed.task == task
    assert parsed.instruction == instruction
    assert parsed.context == context.strip()
    assert parsed.input == input_text.strip()
    for key, value in fields.items():
        assert parsed.fields.get(key) == value


# ------------------------------------------------------------ paged alloc
@st.composite
def _alloc_ops(draw):
    """A random program of admit/append/release operations."""
    ops = []
    live = 0
    for i in range(draw(st.integers(min_value=1, max_value=25))):
        kind = draw(st.sampled_from(["admit", "append", "release"]))
        if kind == "admit":
            ops.append(("admit", f"r{i}", draw(st.integers(1, 120))))
            live += 1
        elif kind == "append" and live:
            ops.append(("append", draw(st.integers(0, i)), draw(st.integers(1, 20))))
        elif kind == "release" and live:
            ops.append(("release", draw(st.integers(0, i))))
    return ops


@given(_alloc_ops(), st.sampled_from([8, 16, 32]))
@settings(max_examples=60, deadline=None)
def test_paged_allocator_invariants(ops, block_size):
    """Under any op sequence: used <= reserved <= capacity; full release
    restores every block; stats never go negative."""
    alloc = PagedAllocator(4096, block_size=block_size)
    admitted = []
    for op in ops:
        try:
            if op[0] == "admit":
                alloc.admit(op[1], op[2])
                admitted.append(op[1])
            elif op[0] == "append" and admitted:
                alloc.append(admitted[op[1] % len(admitted)], op[2])
            elif op[0] == "release" and admitted:
                victim = admitted.pop(op[1] % len(admitted))
                alloc.release(victim)
        except CacheError:
            pass  # out-of-memory is legal; invariants must still hold
        stats = alloc.stats
        assert 0 <= stats.used_tokens <= stats.reserved_tokens <= alloc.capacity_tokens
        assert alloc.free_blocks() >= 0
    for victim in admitted:
        alloc.release(victim)
    assert alloc.free_blocks() == alloc.num_blocks
    assert alloc.stats.reserved_tokens == 0
    assert alloc.stats.used_tokens == 0


# ------------------------------------------------------------------ table
@given(
    rows=st.lists(
        st.tuples(st.integers(-100, 100), st.sampled_from(["a", "b", "c"])),
        max_size=30,
    ),
    pivot=st.integers(-100, 100),
)
@settings(max_examples=60)
def test_table_algebra_properties(rows, pivot):
    """where() partitions rows; group_by counts sum to the total."""
    table = Table(
        "t",
        Schema.of(n="int", k="str"),
        [{"n": n, "k": k} for n, k in rows],
    )
    above = table.where("n", ">", pivot)
    below_eq = table.where("n", "<=", pivot)
    assert len(above) + len(below_eq) == len(table)
    grouped = table.group_by(["k"], {"c": ("count", "")})
    assert sum(r["c"] for r in grouped.rows) == len(table)
    # Projection preserves cardinality; distinct never grows it.
    assert len(table.project(["k"])) == len(table)
    assert len(table.distinct()) <= len(table)


@given(
    left=st.lists(st.sampled_from(["x", "y", "z"]), max_size=10),
    right=st.lists(st.sampled_from(["x", "y", "w"]), max_size=10),
)
@settings(max_examples=60)
def test_join_cardinality_property(left, right):
    """Inner-join size == sum over keys of |L_k| * |R_k|."""
    lt = Table("l", Schema.of(k="str"), [{"k": k} for k in left])
    rt = Table("r", Schema.of(k="str"), [{"k": k} for k in right])
    joined = lt.join(rt, left_on="k", right_on="k")
    expected = sum(left.count(k) * right.count(k) for k in set(left))
    assert len(joined) == expected


# ------------------------------------------------------------------ dedup
@given(
    base=st.text(alphabet="abcdefg ", min_size=30, max_size=120),
    copies=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_exact_copies_always_clustered(base, copies):
    """MinHash must put byte-identical documents in one cluster."""
    if len(shingles(base)) < 3:
        return
    docs = [
        TrainingDocument(doc_id=f"d{i}", text=base, domain="news")
        for i in range(copies)
    ] + [
        TrainingDocument(
            doc_id="other", text="completely different words entirely", domain="news"
        )
    ]
    result = MinHashDeduper(seed=2).dedup(docs)
    kept_copies = sum(1 for d in result.kept if d.text == base)
    assert kept_copies == 1


@given(st.text(alphabet="abcde ", min_size=5, max_size=100))
@settings(max_examples=50)
def test_jaccard_identity_property(text):
    s = shingles(text)
    assert jaccard(s, s) == 1.0
    assert jaccard(s, set()) == (1.0 if not s else 0.0)


# -------------------------------------------------------------- embeddings
@given(st.text(max_size=60), st.text(max_size=60))
@settings(max_examples=50, deadline=None)
def test_embedding_symmetry_and_bounds(a, b):
    from repro.llm.embedding import EmbeddingModel

    model = EmbeddingModel(dim=32)
    sim_ab = model.similarity(a, b)
    sim_ba = model.similarity(b, a)
    assert abs(sim_ab - sim_ba) < 1e-5
    assert -1.0 - 1e-5 <= sim_ab <= 1.0 + 1e-5
    assert model.similarity(a, a) == pytest.approx(1.0, abs=1e-5)


# ------------------------------------------------------------- serving DES
@given(st.integers(min_value=1, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_serving_timeline_property(seed):
    """Any Poisson workload: complete, causal, exact token counts."""
    from repro.inference import (
        ContinuousBatchScheduler,
        ServingEngine,
        poisson_workload,
    )

    requests = poisson_workload(rate_rps=6, duration_s=6, seed=seed)
    if not requests:
        return
    ServingEngine(ContinuousBatchScheduler(max_batch=16)).run(requests)
    for r in requests:
        assert r.done
        assert r.admitted_s >= r.arrival_s
        assert r.first_token_s >= r.admitted_s
        assert len(r.token_times) == r.output_tokens
        assert all(b >= a for a, b in zip(r.token_times, r.token_times[1:]))


# ------------------------------------------------------------- checkpoints
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=2, max_value=40),
)
@settings(max_examples=25, deadline=None)
def test_resharding_arbitrary_shapes(tensors, rows, world_size):
    from repro.training.checkpoint import (
        consolidate,
        make_state,
        shard_state,
        states_equal,
    )

    state = make_state(num_tensors=tensors, rows=rows, cols=3, seed=rows)
    assert states_equal(consolidate(shard_state(state, world_size)), state)


# ------------------------------------------------------- filter predicate
def _reference_string_predicate(field_name, op, literal):
    """The per-row predicate as first written: literal re-parsed on every row."""

    def as_float(text):
        try:
            return float(str(text))
        except (TypeError, ValueError):
            return None

    def predicate(row):
        actual = row.get(field_name)
        if actual is None:
            return False
        if op == "contains":
            return literal.lower() in str(actual).lower()
        if op in {"==", "!="}:
            equal = str(actual).strip().lower() == literal.lower()
            return equal if op == "==" else not equal
        a, b = as_float(actual), as_float(literal)
        if a is None or b is None:
            return False
        return {"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b}[op]

    return predicate


_FILTER_OPS = ("==", "!=", ">", "<", ">=", "<=", "contains")
# Short strings over digits, signs, exponent/nan/inf letters, mixed case and
# spaces: numeric, padded numeric, and non-numeric text all come out of it.
_cell_text = st.text(alphabet=" 0123456789.-+eEnNaAiIfFxX", max_size=7)
_padded_words = st.builds(
    lambda left, word, right: " " * left + word + " " * right,
    st.integers(0, 2),
    st.sampled_from(["Biotech", "biotech", "ACME corp", "42", "-3.5", "1e3", "NaN", "inf"]),
    st.integers(0, 2),
)
_literals = st.one_of(_cell_text, _padded_words)
_cells = st.one_of(
    st.none(),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    _literals,
)


@seed(20251)
@given(op=st.sampled_from(_FILTER_OPS), literal=_literals, cells=st.lists(_cells, max_size=6))
@settings(max_examples=400, deadline=None)
def test_compiled_filter_predicate_matches_per_row_reference(op, literal, cells):
    """Hoisting the literal out of the row loop changes no row's verdict."""
    compiled = _string_predicate("f", op, literal)
    reference = _reference_string_predicate("f", op, literal)
    # Cells equal to the literal up to padding and case hit every boundary.
    echoes = [literal, f" {literal.upper()} ", literal.swapcase()]
    rows = [{"f": cell} for cell in cells + echoes] + [{}, {"g": literal}]
    assert [compiled(row) for row in rows] == [reference(row) for row in rows]


@seed(20252)
@given(op=st.text(max_size=4).filter(lambda op: op not in _FILTER_OPS), literal=_literals)
@settings(max_examples=60, deadline=None)
def test_unknown_filter_op_raises_when_built(op, literal):
    with pytest.raises(ExecutionError):
        _string_predicate("f", op, literal)
