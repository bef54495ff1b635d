"""Property-based tests (hypothesis) on core invariants across modules."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from repro.data.documents import (
    FACT_PATTERNS,
    FACT_TEMPLATES,
    _FILLER_SENTENCES,
    extract_stated_facts,
)
from repro.data.synth import TrainingDocument
from repro.data.table import Schema, Table, _order_op
from repro.data.world import Fact
from repro.errors import CacheError, ExecutionError
from repro.inference.kvcache import PagedAllocator
from repro.llm.protocol import Prompt, parse_prompt
from repro.llm.tokenizer import Tokenizer
from repro.prep.dedup import MinHashDeduper, jaccard, shingles

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
@seed(20171)
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
@seed(20172)
@settings(max_examples=50)
def test_jaccard_identity_property(text):
    s = shingles(text)
    assert jaccard(s, s) == 1.0
    assert jaccard(s, set()) == (1.0 if not s else 0.0)


_DEDUP_WORDS = [f"w{i}" for i in range(40)]
_DEDUP_KINDS = ["fresh"] * 3 + ["copy", "edit", "edit", "bridge", "bridge", "empty", "short"]


@st.composite
def _dedup_streams(draw):
    """A small-band deduper config, a corpus and its split into batches.

    Each document is fresh words, an exact copy, a token-edited near copy,
    a bridge (two earlier fresh documents joined), an empty text, or a text
    shorter than ``shingle_size``.
    """
    shingle_size = draw(st.integers(1, 3))
    bands, rows = draw(st.sampled_from([(32, 2), (16, 4), (64, 1)]))
    config = dict(
        num_permutations=bands * rows,
        bands=bands,
        rows_per_band=rows,
        shingle_size=shingle_size,
        verify_threshold=draw(st.sampled_from([0.0, 0.2, 0.3, 0.4, 0.5, 0.8, 1.0])),
        seed=draw(st.integers(0, 3)),
    )
    words = st.sampled_from(_DEDUP_WORDS)
    token_lists, fresh = [], []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(_DEDUP_KINDS))
        earlier = draw(st.sampled_from(token_lists)) if token_lists else []
        if kind == "copy" and earlier:
            tokens = list(earlier)
        elif kind == "edit" and earlier:
            tokens = list(earlier)
            for _ in range(draw(st.integers(1, 2))):
                at = draw(st.integers(0, len(tokens)))
                op = draw(st.sampled_from(["swap", "insert", "delete"]))
                if op == "insert" or not tokens:
                    tokens.insert(at, draw(words))
                elif op == "swap":
                    tokens[min(at, len(tokens) - 1)] = draw(words)
                else:
                    del tokens[min(at, len(tokens) - 1)]
        elif kind == "bridge" and len(fresh) >= 2:
            a, b = draw(st.lists(st.sampled_from(fresh), min_size=2, max_size=2, unique=True))
            tokens = token_lists[a] + token_lists[b]
        elif kind == "empty":
            tokens = []
        elif kind == "short":
            tokens = draw(st.lists(words, max_size=shingle_size - 1))
        else:
            fresh.append(len(token_lists))
            tokens = draw(st.lists(words, min_size=shingle_size, max_size=6))
        token_lists.append(tokens)
    texts = [" ".join(t) if t else draw(st.sampled_from(["", "  ", "?!"])) for t in token_lists]
    docs = [
        TrainingDocument(doc_id=f"d{i:02d}", text=text, domain="news")
        for i, text in enumerate(texts)
    ]
    batches, start = [], 0
    for _ in range(len(docs)):  # batches of 0-4 documents, then the rest
        size = draw(st.integers(0, 4))
        batches.append(docs[start : start + size])
        start += size
    batches.append(docs[start:])
    return config, docs, batches


def _legacy_dedup(config, docs):
    """The frozen oracle, its short-document hashes reduced like the live
    path's (the frozen branch leaves them unreduced, and its int64 signature
    overflows on a hash above 2**63 - 1)."""
    from unittest import mock

    from benchmarks.perf import _legacy_prep

    frozen = _legacy_prep.legacy_shingles

    def reduced(text, n=3):
        return {v % _legacy_prep._MERSENNE for v in frozen(text, n)}

    with mock.patch.object(_legacy_prep, "legacy_shingles", reduced):
        return _legacy_prep.LegacyMinHashDeduper(**config).dedup(docs)


def _check_split_against_oracle(config, docs, batches):
    oracle = _legacy_dedup(config, docs)
    full = MinHashDeduper(**config).dedup(docs)
    assert [d.doc_id for d in full.kept] == [d.doc_id for d in oracle.kept]
    assert [d.doc_id for d in full.removed] == [d.doc_id for d in oracle.removed]
    assert full.clusters == oracle.clusters
    assert (full.candidate_pairs, full.verified_pairs) == (
        oracle.candidate_pairs,
        oracle.verified_pairs,
    )
    stream = MinHashDeduper(**config)
    admitted, evicted = set(), set()
    candidates = verified = 0
    for batch in batches:
        result = stream.dedup_incremental(batch)
        assert set(result.evicted) <= admitted, "evicted a document never admitted"
        assert len(result.admitted) + len(result.rejected) == len(batch)
        admitted |= {d.doc_id for d in result.admitted}
        evicted |= set(result.evicted)
        candidates += result.candidate_pairs
        verified += result.verified_pairs
    kept = stream.store.kept_doc_ids()
    assert kept == [d.doc_id for d in oracle.kept]
    assert evicted.isdisjoint(kept)
    assert set(kept) == admitted - evicted
    assert (candidates, verified) == (oracle.candidate_pairs, oracle.verified_pairs)


@given(_dedup_streams())
@seed(20173)
@settings(max_examples=60, deadline=None)
def test_dedup_incremental_matches_legacy_oracle_under_any_split(stream):
    """Any batch split of any corpus: the incremental kept set and summed
    pair counts equal the frozen one-shot oracle's; ``dedup`` equals it
    too, clusters included; every eviction hits an earlier admission."""
    _check_split_against_oracle(*stream)


_SMALL_BANDS = dict(
    num_permutations=64, bands=32, rows_per_band=2, shingle_size=1, verify_threshold=0.0
)


def _docs(*texts):
    return [
        TrainingDocument(doc_id=f"d{i:02d}", text=text, domain="news")
        for i, text in enumerate(texts)
    ]


def test_identical_pair_keeps_the_older_document():
    # Shrunk from the split property against a union that roots at the
    # younger index: both entry points must keep d00, not d01.
    docs = _docs("w0", "w0")
    full = MinHashDeduper(**_SMALL_BANDS).dedup(docs)
    assert [d.doc_id for d in full.kept] == ["d00"]
    result = MinHashDeduper(**_SMALL_BANDS).dedup_incremental(docs)
    assert [d.doc_id for d in result.admitted] == ["d00"]
    assert [d.doc_id for d in result.rejected] == ["d01"]
    _check_split_against_oracle(_SMALL_BANDS, docs, [docs])


def test_rejected_documents_stay_in_the_band_buckets():
    # Shrunk from the split property against a store that drops rejected
    # documents from its buckets: d03 must still pair with the rejected d02,
    # so the summed counts match the one-shot run (4 pairs, not 3).
    docs = _docs("", "w0", "w0", "w0", "")
    stream = MinHashDeduper(**_SMALL_BANDS)
    results = [stream.dedup_incremental(docs[:3]), stream.dedup_incremental(docs[3:])]
    assert sum(r.candidate_pairs for r in results) == 4
    assert sum(r.verified_pairs for r in results) == 4
    assert stream.store.kept_doc_ids() == ["d00", "d01"]
    _check_split_against_oracle(_SMALL_BANDS, docs, [docs[:3], docs[3:]])


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


_MEMO_TEXTS = [
    "",
    "alpha beta",
    "Alpha, beta!",
    "beta gamma delta",
    "configuration of alpha",
    "delta alpha beta gamma",
]
_MEMO_DOCS = ["alpha", "beta gamma", "delta delta configuration", "gamma alpha of", "zeta"]


@st.composite
def _memo_programs(draw):
    """Interleaved IDF updates and embedding calls (duplicates, the empty
    text, partly-hit batches) under the default or a tiny memo bound."""
    docs = st.lists(st.integers(0, len(_MEMO_DOCS) - 1), min_size=1, max_size=3)
    ops = []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(["fit", "partial", "refresh", "embed", "batch"]))
        if kind in ("fit", "partial"):
            ops.append((kind, draw(docs)))
        elif kind == "refresh":  # 0.0 re-pins on any drift, 10.0 never does
            ops.append((kind, draw(st.sampled_from([0.0, 0.0, 0.05, 10.0]))))
        elif kind == "embed":
            ops.append((kind, draw(st.integers(0, len(_MEMO_TEXTS) - 1))))
        else:
            ops.append((kind, draw(st.lists(st.integers(0, len(_MEMO_TEXTS) - 1), max_size=6))))
    return draw(st.sampled_from([None, 1, 2, 3])), ops


def _replay_idf(model, op, arg):
    if op == "fit":
        model.fit_idf([_MEMO_DOCS[i] for i in arg])
    elif op == "partial":
        model.partial_fit_idf([_MEMO_DOCS[i] for i in arg])
    else:
        model.refresh(arg)


def _check_memo_program(bound, ops):
    from repro.llm import embedding

    with pytest.MonkeyPatch.context() as patch:
        if bound is not None:
            patch.setattr(embedding, "MEMO_ROWS", bound)
        model = embedding.EmbeddingModel(dim=16)
        history = []
        for op, arg in ops:
            if op in ("fit", "partial", "refresh"):
                _replay_idf(model, op, arg)
                history.append((op, arg))
                continue
            cold = embedding.EmbeddingModel(dim=16)
            for past in history:
                _replay_idf(cold, *past)
            if op == "embed":
                got = model.embed(_MEMO_TEXTS[arg])
                expected = cold._embed_one(_MEMO_TEXTS[arg])
            else:
                texts = [_MEMO_TEXTS[i] for i in arg]
                got = model.embed_batch(texts)
                expected = cold._embed_rows(texts) if texts else np.zeros((0, 16), np.float32)
            assert got.dtype == np.float32
            assert np.array_equal(got, expected)
            got[...] = -1.0  # a caller scribbling on its result
            assert len(model._memo) <= embedding.MEMO_ROWS


@given(_memo_programs())
@seed(20191)
@settings(max_examples=60, deadline=None)
def test_embedding_memo_matches_cold_embedding(program):
    """Memo on == off, bitwise: every ``embed``/``embed_batch`` result equals
    a cold kernel pass on a fresh model that replays the same IDF history,
    whatever the caller writes into earlier results."""
    _check_memo_program(*program)


def test_unpinned_fit_idf_invalidates_the_memo():
    # Shrunk from the property against a fit_idf that keeps the memo: the
    # second embed must see the new IDF weights.
    _check_memo_program(None, [("embed", 1), ("fit", [0]), ("embed", 1)])


def test_refresh_that_repins_invalidates_the_memo():
    # Shrunk from the property against a refresh that keeps the memo: a row
    # embedded under the old pin is stale once the pin moves.
    _check_memo_program(
        None,
        [("fit", [0]), ("partial", [1]), ("batch", [1]), ("refresh", 0.0), ("embed", 1)],
    )


def test_batch_result_does_not_alias_the_memo():
    # Shrunk from the property against an embed_batch that stores views into
    # the matrix it returns: the caller's write must not reach the memo.
    _check_memo_program(None, [("batch", [0]), ("embed", 0)])


# --------------------------------------------------- embedding key store
# Seeds at the SeedSequence word boundaries: one word, two words, all ones.
_EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
# The empty key, the empty-text key, non-ASCII keys, bigram and stem keys.
_STORE_KEYS = [
    "", "<empty>", "alpha", "alpha##beta", "configuration", "confi", "ñandú", "東京",
    "beta##gamma", "##",
]


def _frozen_unit_vector(model_seed, dim, key):
    from benchmarks.perf._legacy_prep import LegacyEmbeddingModel

    return LegacyEmbeddingModel(dim=dim, seed=model_seed)._unit_vector(key)


def _check_seed_vectors(seeds, dim):
    from repro.llm import embedding

    states = embedding._seed_states(seeds)
    got = embedding.EmbeddingModel(dim=dim)._seed_vectors(seeds)
    assert got.dtype == np.float32 and got.shape == (len(seeds), dim)
    for row, state, s in zip(got, states, seeds):
        rng = np.random.default_rng(s)
        pcg = rng.bit_generator.state["state"]
        assert state == (pcg["state"], pcg["inc"])
        vec = rng.standard_normal(dim).astype(np.float32)
        vec /= np.linalg.norm(vec)
        assert row.tobytes() == vec.tobytes()


@given(
    st.lists(st.integers(0, 2**64 - 1) | st.sampled_from(_EDGE_SEEDS), min_size=1, max_size=20),
    st.sampled_from([8, 9, 16, 64]),
)
@seed(20231)
@settings(max_examples=40, deadline=None)
def test_seed_vectors_match_default_rng(seeds, dim):
    """The vectorized seeding pass (at ``SEED_PASS_MIN_KEYS`` seeds and up)
    and the per-seed ``default_rng`` path below it both give, bitwise, the
    unit vector of each seed's own ``default_rng``."""
    _check_seed_vectors(seeds, dim)


def test_seed_state_keeps_the_high_seed_word():
    # Shrunk from the property against a pass that drops a seed's high word.
    _check_seed_vectors([2**32], 8)


def test_seed_vectors_normalize_each_row_as_linalg_norm_does():
    # Shrunk from the property against np.linalg.norm(vectors, axis=1) in
    # the seeding pass: a block norm sums in another order and moves the
    # last bit.
    _check_seed_vectors([0] * 8, 8)


def test_seed_pass_sets_each_generator_state_before_drawing():
    # Shrunk from the property against a pass that set the state after the
    # draw, so every row came from the previous seed's state.
    _check_seed_vectors([0, 0, 0, 0, 0, 0, 0, 1], 8)


def test_seed_vectors_at_word_boundaries_on_both_sides_of_the_break_even():
    from repro.llm.embedding import SEED_PASS_MIN_KEYS

    below = _EDGE_SEEDS[: SEED_PASS_MIN_KEYS - 1]
    above = (_EDGE_SEEDS * SEED_PASS_MIN_KEYS)[:SEED_PASS_MIN_KEYS]
    _check_seed_vectors(below, 16)
    _check_seed_vectors(above, 16)


@given(
    st.lists(st.sampled_from(_STORE_KEYS) | st.text(max_size=8), min_size=1, max_size=20,
             unique=True),
    st.integers(0, 2**40),
)
@seed(20232)
@settings(max_examples=40, deadline=None)
def test_key_vectors_match_frozen_unit_vectors(keys, model_seed):
    from repro.llm.embedding import EmbeddingModel

    got = EmbeddingModel(dim=16, seed=model_seed)._key_vectors(keys)
    for row, key in zip(got, keys):
        assert row.tobytes() == _frozen_unit_vector(model_seed, 16, key).tobytes()


def _frozen_embed(model, frozen, text):
    """The per-contribution loop the kernels replaced, over frozen vectors."""
    tokens = model.tokenizer.content_tokens(text)
    if not tokens:
        return frozen._unit_vector("<empty>").copy()
    acc = np.zeros(model.dim, dtype=np.float32)
    for token in tokens:
        weight = model._idf(token)
        acc += weight * frozen._unit_vector(token)
        if model.stem_weight > 0 and len(token) > model.stem_len:
            acc += weight * model.stem_weight * frozen._unit_vector(token[: model.stem_len])
    if model.bigram_weight > 0:
        for left, right in zip(tokens, tokens[1:]):
            acc += model.bigram_weight * frozen._unit_vector(f"{left}##{right}")
    norm = float(np.linalg.norm(acc))
    return (acc / norm if norm else acc).astype(np.float32)


@st.composite
def _key_store_programs(draw):
    """Key gathers (up to every store key at once), kernel calls and IDF
    updates, under a store of 1-3 rows or the default bound, with misses
    seeded 2 at a time or in one pass."""
    keys = st.lists(st.integers(0, len(_STORE_KEYS) - 1), min_size=1,
                    max_size=len(_STORE_KEYS), unique=True)
    texts = st.integers(0, len(_MEMO_TEXTS) - 1)
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["keys", "keys", "embed", "batch", "fit", "partial", "refresh"]))
        if kind == "keys":
            ops.append((kind, draw(keys)))
        elif kind == "embed":
            ops.append((kind, draw(texts)))
        elif kind == "batch":
            ops.append((kind, draw(st.lists(texts, min_size=1, max_size=6))))
        elif kind == "refresh":
            ops.append((kind, draw(st.sampled_from([0.0, 0.05, 10.0]))))
        else:
            ops.append((kind, draw(st.lists(st.integers(0, len(_MEMO_DOCS) - 1),
                                            min_size=1, max_size=3))))
    return draw(st.sampled_from([None, 1, 2, 3])), ops, draw(st.sampled_from([None, 2]))


def _check_key_store_program(bound, ops, chunk=None):
    from benchmarks.perf._legacy_prep import LegacyEmbeddingModel
    from repro.llm import embedding

    with pytest.MonkeyPatch.context() as patch:
        if bound is not None:
            patch.setattr(embedding, "KEY_ROWS", bound)
        if chunk is not None:
            patch.setattr(embedding, "SEED_CHUNK_KEYS", chunk)
        model = embedding.EmbeddingModel(dim=16)
        frozen = LegacyEmbeddingModel(dim=16)
        for op, arg in ops:
            if op in ("fit", "partial", "refresh"):
                _replay_idf(model, op, arg)
            elif op == "keys":
                keys = [_STORE_KEYS[i] for i in arg]
                expected = np.stack([frozen._unit_vector(key) for key in keys])
                assert model._key_rows(keys).tobytes() == expected.tobytes()
            elif op == "embed":
                text = _MEMO_TEXTS[arg]
                assert model._embed_one(text).tobytes() == _frozen_embed(model, frozen, text).tobytes()
            else:
                texts = [_MEMO_TEXTS[i] for i in arg]
                expected = np.stack([_frozen_embed(model, frozen, text) for text in texts])
                assert model._embed_rows(texts).tobytes() == expected.tobytes()
            assert len(model._keys) <= embedding.KEY_ROWS
            for key, slot in model._keys.items():
                assert model._owners[slot] == key
                assert model._slab[slot].tobytes() == frozen._unit_vector(key).tobytes()


@given(_key_store_programs())
@seed(20233)
@settings(max_examples=60, deadline=None)
def test_key_store_matches_frozen_unit_vectors(program):
    """Slab store ≡ the frozen per-key dict, bitwise: every gathered row,
    every kernel result and every stored row is the key's frozen vector,
    also when one call needs more distinct keys than the store holds."""
    _check_key_store_program(*program)


@pytest.mark.parametrize("ops", [[("keys", [0, 1])], [("batch", [1])]])
def test_key_rows_are_gathered_before_misses_take_their_slots(ops):
    # Shrunk from the property against a gather made after the misses were
    # stored: with one row, the second key evicts the first one's row.
    _check_key_store_program(1, ops)


_DRIFT_WORDS = [f"w{i}" for i in range(40)]


def _frozen_idf_drift(model):
    """``idf_drift`` as the Python loop it replaced."""
    if model._pinned_doc_freq is None or not model._stale_docs:
        return 0.0
    live_n = model._num_docs
    pin_n = model._pinned_num_docs
    num = 0.0
    den = 0.0
    pinned = model._pinned_doc_freq
    for token, df in model._doc_freq.items():
        idf_live = math.log((1 + live_n) / (1 + df)) + 1.0
        pin_df = pinned.get(token, 0)
        idf_pin = math.log((1 + pin_n) / (1 + pin_df)) + 1.0 if pin_n else 1.0
        num += df * abs(idf_live - idf_pin)
        den += df * idf_live
    return num / den if den else 0.0


@st.composite
def _drift_programs(draw):
    docs = st.lists(
        st.lists(st.sampled_from(_DRIFT_WORDS), min_size=1, max_size=12).map(" ".join),
        min_size=1, max_size=6,
    )
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["fit", "partial", "partial", "refresh"]))
        ops.append((kind, draw(st.sampled_from([0.0, 0.05, 10.0])) if kind == "refresh"
                    else draw(docs)))
    return ops


def _check_drift_program(ops):
    from repro.llm.embedding import EmbeddingModel

    model = EmbeddingModel(dim=8)
    for op, arg in ops:
        if op == "fit":
            model.fit_idf(arg)
        elif op == "partial":
            model.partial_fit_idf(arg)
        else:
            model.refresh(arg)
        assert model.idf_drift() == _frozen_idf_drift(model)


@given(_drift_programs())
@seed(20234)
@settings(max_examples=60, deadline=None)
def test_idf_drift_matches_frozen_loop(ops):
    """Array ``idf_drift`` == the per-token loop, compared with ``==``:
    pinned or never fitted before the pin, vocabulary grown after it."""
    _check_drift_program(ops)


@pytest.mark.parametrize("ops", [
    [("fit", ["w0 w7", "w2 w3", "w4 w5 w6"]), ("partial", ["w1"])],
    [("fit", ["w0", "w7"]), ("partial", ["w6", "w1 w2 w3 w4 w5"])],
])
def test_idf_drift_adds_in_vocabulary_order(ops):
    # Shrunk from the property against np.sum (pairwise) for the running sum.
    _check_drift_program(ops)


def test_idf_drift_pads_tokens_added_after_the_pin():
    # Shrunk from the property against padding the pinned counts in front.
    _check_drift_program([("fit", ["w0", "w0"]), ("partial", ["w1"])])


# ---------------------------------------------------- collection query ids
def _check_query_ids(index_type, n, deleted, k, query_seed):
    from repro.vector.database import Collection

    rng = np.random.default_rng(query_seed)
    kwargs = {"nlist": 4, "nprobe": 1} if index_type == "ivf" else {}
    collection = Collection("c", 8, index_type=index_type, **kwargs)
    if n:
        collection.upsert([f"v{i}" for i in range(n)],
                          vectors=rng.standard_normal((n, 8)).astype(np.float32))
    for i in sorted(deleted):
        collection.delete(f"v{i}")
    for vector in rng.standard_normal((3, 8)).astype(np.float32):
        expected = [result.id for result in collection.query(vector=vector, k=k)]
        assert collection.query_ids(vector, k=k) == expected


@given(
    st.sampled_from(["flat", "ivf", "hnsw", "lsh", "pq"]),
    st.integers(0, 40),
    st.sets(st.integers(0, 39), max_size=20),
    st.integers(1, 15),
    st.integers(0, 2**16),
)
@seed(20235)
@settings(max_examples=60, deadline=None)
def test_query_ids_match_query(index_type, n, deleted, k, query_seed):
    """``Collection.query_ids`` returns the ids ``query`` returns, over-fetch
    rounds included, for every index type and after deletions."""
    _check_query_ids(index_type, n, {i for i in deleted if i < n}, k, query_seed)


def test_query_ids_stop_at_k():
    # Shrunk from the property against a query_ids that fetched k + 1 hits.
    _check_query_ids("flat", 2, set(), 1, 0)


# ------------------------------------------------------ SimLLM reply memo
_REPLY_BASE_FACTS = (
    Fact("Norburg", "city", "country", "Freland"),
    Fact("Acme", "company", "headquarters", "Norburg"),
    Fact("Volt-3", "product", "maker", "Acme"),
    Fact("Ulton", "city", "country", "Osland"),
)
# Learned mid-program: new keys, and an overwrite of a base fact's value.
_REPLY_FACTS = (
    Fact("Bolt", "company", "headquarters", "Ulton"),
    Fact("Norburg", "city", "country", "Osland"),
    Fact("Bolt", "company", "founded", "1990"),
    Fact("Volt-3", "product", "maker", "Bolt"),
)
_REPLY_PROMPTS = tuple(
    Prompt(task=task, instruction=instruction, context=context, input=text, fields=fields).render()
    for task, instruction, context, text, fields in (
        ("qa", "", "", "Which country is Norburg in?", {}),
        ("qa", "", "", "Where is Bolt headquartered?", {}),
        ("qa", "", "", "Where is the maker of Volt-3 headquartered?", {}),
        ("qa", "", "Bolt was founded in 1990.", "In what year was Bolt founded?", {}),
        ("extract", "", "Bolt was founded in 1990.", "",
         {"subject": "Bolt", "attributes": "founded, headquarters"}),
        ("judge", "", "", "Acme builds database software.", {"predicate": "is_about software"}),
        ("judge", "", "", "price=12", {"predicate": "price > 10"}),
        ("join", "", "", "name=Acme\n---\nname=acme", {}),
        ("map", "Return the value of field 'price'", "", "price=12; name=x", {}),
        ("map", "Uppercase the text", "", "Bolt makes widgets.", {}),
        # Near ties, so an IDF refit or re-pin reorders the items.
        ("rank", "", "[0] travel\n[1] a database engine\n[2] database city guide\n"
         "[3] food travel\n[4] travel software", "software", {}),
        ("decompose", "", "", "Where is the maker of Volt-3 headquartered?", {}),
        ("summarize", "", "Bolt was founded in 1990. It grew.", "", {}),
        ("label", "", "", "a database engine", {"classes": "software | travel | city guide"}),
        ("codegen", "", "Bolt was founded in 1990.", "", {"attribute": "founded", "etype": "company"}),
        ("tune", "", "", "alpha", {}),
        ("tune", "", "", "beta", {}),
    )
) + ("Which country is Norburg in?", "hello there")
_REPLY_DOCS = ("database software", "city travel guide", "software company in Ulton", "food")


def _table_skill(table, prefix):
    """A registered skill over a table its owner mutates, as the tuning and
    rewrite skills are."""
    return lambda ctx: (prefix + table.get(ctx.prompt.input, "none"), {"rows": len(table)})


@st.composite
def _reply_calls(draw):
    """One call (``generate``) or batch (``generate_many``, duplicates
    allowed) at a drawn temperature and token cap; a third of them are a
    batch of every prompt, so a state change that moves any reply shows."""
    kind = draw(st.sampled_from(["call", "batch", "batch"]))
    size = 1 if kind == "call" else draw(st.integers(0, 6))
    prompts = draw(st.lists(st.integers(0, len(_REPLY_PROMPTS) - 1), min_size=size, max_size=size))
    if kind == "batch" and draw(st.booleans()):
        prompts = list(range(len(_REPLY_PROMPTS)))
    temperature = draw(st.sampled_from([0.0, 0.0, 0.7, 0.7004]))
    max_tokens = draw(st.sampled_from([256, 256, 3, 1]))
    return kind, (prompts, temperature, max_tokens)


@st.composite
def _reply_state_ops(draw):
    kind = draw(st.sampled_from(["learn", "add", "fit", "fit", "partial", "refresh", "register",
                                 "table", "table"]))
    if kind in ("learn", "add"):
        return kind, draw(st.integers(0, len(_REPLY_FACTS) - 1))
    if kind in ("fit", "partial"):
        return kind, draw(st.lists(st.integers(0, len(_REPLY_DOCS) - 1), min_size=1, max_size=2))
    if kind == "refresh":
        return kind, draw(st.sampled_from([0.0, 10.0]))
    if kind == "register":
        return kind, (draw(st.sampled_from(["tune", "label", "label"])), draw(st.sampled_from("AB")))
    return kind, (draw(st.sampled_from(["alpha", "beta", "a database engine"])),
                  draw(st.sampled_from(["x", "y"])))


@st.composite
def _reply_programs(draw):
    """Calls from a short menu, so the same call recurs, with one model-state
    change of any kind between each two calls."""
    menu = draw(st.lists(_reply_calls(), min_size=1, max_size=3))
    ops = [draw(st.sampled_from(menu))]
    for _ in range(draw(st.integers(0, 7))):
        ops += [draw(_reply_state_ops()), draw(st.sampled_from(menu))]
    return draw(st.integers(0, 3)), draw(st.sampled_from([None, 1, 2])), ops


def _apply_reply_op(llm, op, arg, table):
    if op == "learn":
        llm.fine_tune([_REPLY_FACTS[arg]])
    elif op == "add":
        llm.knowledge.add(_REPLY_FACTS[arg])
    elif op == "fit":
        llm.embedder.fit_idf([_REPLY_DOCS[i] for i in arg])
    elif op == "partial":
        llm.embedder.partial_fit_idf([_REPLY_DOCS[i] for i in arg])
    elif op == "refresh":
        llm.embedder.refresh(arg)
    else:
        task, prefix = arg
        llm.register_skill(task, _table_skill(table, prefix))


def _reply_model(model_seed, history, table):
    """A fresh model that went through ``history``'s state changes."""
    from repro.llm import EmbeddingModel, KnowledgeBase, SimLLM

    knowledge = KnowledgeBase()
    for fact in _REPLY_BASE_FACTS:
        knowledge.add(fact)
    llm = SimLLM(knowledge=knowledge, seed=model_seed,
                 embedder=EmbeddingModel(dim=16, seed=model_seed))
    llm.register_skill("tune", _table_skill(table, "A"))
    for op, arg in history:
        _apply_reply_op(llm, op, arg, table)
    return llm


def _reply_call(llm, kind, prompts, temperature, max_tokens, tag):
    texts = [_REPLY_PROMPTS[i] for i in prompts]
    if kind == "call":
        return [llm.generate(texts[0], max_tokens=max_tokens, temperature=temperature, tag=tag)]
    return llm.generate_many(texts, max_tokens=max_tokens, temperature=temperature, tag=tag)


def _check_reply_program(model_seed, bound, ops):
    """Every call of one long-lived model equals the same call on a cold
    model of the same seed and state; its ledger and call log equal the
    sums of the cold models'."""
    from repro.llm import UsageLedger, model

    with pytest.MonkeyPatch.context() as patch:
        if bound is not None:
            patch.setattr(model, "MEMO_REPLIES", bound)
        table = {}
        llm = _reply_model(model_seed, (), table)
        history, ledger, log = [], UsageLedger(), []
        for step, (op, arg) in enumerate(ops):
            if op == "table":
                key, value = arg
                table[key] = value
            elif op not in ("call", "batch"):
                _apply_reply_op(llm, op, arg, table)
                history.append((op, arg))
            else:
                tag = f"t{step % 3}"  # calls sit at even steps
                got = _reply_call(llm, op, *arg, tag)
                cold = _reply_model(model_seed, history, table)
                expected = _reply_call(cold, op, *arg, tag)
                assert [(r.text, r.usage, r.meta) for r in got] == [
                    (r.text, r.usage, r.meta) for r in expected
                ]
                for response in expected:
                    ledger.charge(response.usage, tag=tag)
                log += cold.call_log
                assert llm.ledger.total == ledger.total
                assert llm.ledger.by_tag == ledger.by_tag
                assert llm.call_log == log
                assert len(llm._memo) <= model.MEMO_REPLIES


@given(_reply_programs())
@seed(20221)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reply_memo_matches_cold_model(program):
    """Memo on == a cold model, call by call: texts, usage and metadata,
    then the ledger's total and per-tag usage and the call log, across
    fine-tuning, direct knowledge edits, IDF refits and re-pins, skill
    registration and edits to a registered skill's table."""
    _check_reply_program(*program)


def test_learned_fact_invalidates_the_reply_memo():
    # Shrunk from the property against a stamp that ignores
    # KnowledgeBase.version: the second call must see the learned fact.
    _check_reply_program(0, None, [("call", ([1], 0.0, 256)), ("learn", 0), ("call", ([1], 0.0, 256))])


def test_registered_skill_replies_are_never_memoized():
    # Shrunk from the property against a memo that stores a registered
    # skill's replies: the skill reads a table that changed in between.
    _check_reply_program(
        0, None, [("call", ([15], 0.0, 256)), ("table", ("alpha", "x")), ("call", ([15], 0.0, 256))]
    )


def test_idf_refit_invalidates_the_reply_memo():
    # Shrunk from the property against a stamp that ignores
    # EmbeddingModel.generation: the refit reorders the label's classes.
    _check_reply_program(0, None, [("call", ([13], 0.0, 256)), ("fit", [0]), ("call", ([13], 0.0, 256))])


def test_register_skill_clears_the_reply_memo():
    # Shrunk from the property against a register_skill that keeps the
    # memo: a built-in label reply must not answer for the new skill.
    _check_reply_program(
        0, None, [("call", ([13], 0.0, 256)), ("register", ("label", "A")), ("call", ([13], 0.0, 256))]
    )


# ------------------------------------------------------- fact extraction
def _ordered_loop_extract(text):
    """Frozen oracle: extract_stated_facts as it was before the word index,
    every sentence tried against all 44 templates in order."""
    facts = []
    seen = set()
    for sentence in re.split(r"(?<=[.!?])\s+", text):
        sentence = sentence.strip()
        if not sentence:
            continue
        for (etype, attr), pattern in FACT_PATTERNS:
            match = pattern.match(sentence)
            if match:
                fact = Fact(
                    subject=match.group("s").strip(),
                    subject_type=etype,
                    attribute=attr,
                    value=match.group("v").strip(),
                )
                if fact.key() + (fact.value,) not in seen:
                    seen.add(fact.key() + (fact.value,))
                    facts.append(fact)
                break
    return facts


def _fact_tuples(facts):
    return [(f.subject, f.subject_type, f.attribute, f.value) for f in facts]


_TEMPLATES = [tmpl for group in FACT_TEMPLATES.values() for tmpl in group]
_LITERALS = sorted({w for t in _TEMPLATES for w in t.split(" ") if "{" not in w})
# Words a slot pattern accepts: every template's literal word that is one
# (so subjects and values collide with the index), hyphens, digits,
# underscores and non-ASCII letters. Then words no slot accepts.
_SLOT_WORDS = [w for w in _LITERALS if re.fullmatch(r"[\w\-]+", w)] + [
    "Anti-city", "re-made", "2019", "4_500", "snake_case", "_", "Zürich",
    "Ærø", "naïve", "東京", "X", "-",
]
_ODD_WORDS = [w for w in _LITERALS if w not in _SLOT_WORDS] + [".", ",", "!", "?", "(a)"]
_SEPARATORS = [" ", "  ", "\n", "\t"]
_extract_words = st.sampled_from(_SLOT_WORDS * 4 + _ODD_WORDS)
_extract_separators = st.sampled_from([" "] * 4 + _SEPARATORS)


@st.composite
def _extract_phrases(draw):
    phrase = draw(_extract_separators).join(draw(st.lists(_extract_words, min_size=1, max_size=3)))
    return phrase if draw(st.integers(0, 3)) == 0 else phrase[:1].upper() + phrase[1:]


def _render_template(draw, template, nested):
    """``template`` with each slot a drawn phrase or, unless ``nested``,
    sometimes a whole rendered template (with or without its full stop)."""
    slots = []
    for _ in range(2):
        if not nested and draw(st.integers(0, 3)) == 0:
            inner = _render_template(draw, draw(st.sampled_from(_TEMPLATES)), True)
            slots.append(inner[:-1] if draw(st.booleans()) else inner)
        else:
            slots.append(draw(_extract_phrases()))
    return template.format(s=slots[0], v=slots[1])


@st.composite
def _extract_texts(draw):
    """Each template rendered at most once, in a drawn order, with filler
    sentences and word soups between them and a drawn separator after
    every sentence."""
    text = draw(st.sampled_from(["", " ", "\n"]))
    for template in draw(st.permutations(_TEMPLATES)):
        sentences = [_render_template(draw, template, False)] if draw(st.booleans()) else []
        other = draw(st.sampled_from(["none", "none", "filler", "soup"]))
        if other == "filler":
            sentences.append(draw(st.sampled_from(_FILLER_SENTENCES)))
        elif other == "soup":
            words = draw(st.lists(_extract_words, min_size=1, max_size=6))
            sentences.append(" ".join(words) + draw(st.sampled_from(["", ".", "!", "?"])))
        for sentence in sentences:
            text += sentence + draw(_extract_separators)
    return text


@given(_extract_texts())
@seed(20201)
@settings(max_examples=60, deadline=None)
def test_indexed_extraction_matches_the_ordered_loop(text):
    """Word-indexed extraction == trying all 44 templates in order on every
    sentence: same facts, same order, on generated text."""
    assert _fact_tuples(extract_stated_facts(text)) == _fact_tuples(_ordered_loop_extract(text))


# Underscores, combining marks, CJK, tabs and newlines, then any character.
_count_chars = st.one_of(st.sampled_from("ab_9 \t\n.,-é\u0301日"), st.characters())


@given(
    st.lists(st.text(alphabet=_count_chars, max_size=40), max_size=8),
    st.integers(min_value=2, max_value=12),
)
@seed(20202)
@settings(max_examples=60, deadline=None)
def test_count_many_matches_count(texts, max_word_len):
    tok = Tokenizer(max_word_len=max_word_len)
    by_piece = [sum(not p.isspace() for p in tok.pieces(text)) for text in texts]
    assert tok.count_many(texts) == [tok.count(text) for text in texts] == by_piece


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
def _never(row):
    return False


def _string_predicate(field_name, op, literal):
    """Frozen reference for :meth:`Table.matching`: the row predicate the
    lake's string filter and document analytics compiled before relations.

    The literal is lowered and parsed, and the op resolved, once per filter
    rather than once per row. A missing cell never matches; ``==``/``!=``
    compare stripped, case-folded text; ``contains`` is a case-folded
    substring test; the order ops compare both sides as floats and fail
    when either is not numeric. Any other op raises
    :class:`~repro.errors.ExecutionError` here, before a row is seen.
    """
    needle = literal.lower()
    if op == "contains":

        def contains(row):
            actual = row.get(field_name)
            return actual is not None and needle in str(actual).lower()

        return contains
    if op in ("==", "!="):
        want = op == "=="

        def equals(row):
            actual = row.get(field_name)
            return actual is not None and (str(actual).strip().lower() == needle) == want

        return equals
    compare = _order_op(op)
    try:
        bound = float(literal)
    except ValueError:
        return _never

    def ordered(row):
        try:  # a missing cell reads "None", which is not numeric either
            actual = float(str(row.get(field_name)))
        except (TypeError, ValueError):
            return False
        return compare(actual, bound)

    return ordered


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
    # Table.matching reads the same verdicts off a str column's indexes.
    table = Table("t", Schema.of(f="str"), rows)
    assert table.matching("f", op, literal) == [p for p, row in enumerate(rows) if compiled(row)]


@seed(20252)
@given(op=st.text(max_size=4).filter(lambda op: op not in _FILTER_OPS), literal=_literals)
@settings(max_examples=60, deadline=None)
def test_unknown_filter_op_raises_when_built(op, literal):
    with pytest.raises(ExecutionError):
        _string_predicate("f", op, literal)


# ------------------------------------------------------------- fleet tier
_FLEET_POLICIES = ("random", "least-loaded", "prefix-aware")


@st.composite
def _fleet_scenarios(draw):
    """A small fleet trace plus a fleet config, faults and all.

    Bulk columns come from a drawn seed; the knobs Hypothesis shrinks are
    the shapes: rate segments, prefix share and sizes (0 and block-edge
    values, so prefix hits land on and next to block boundaries), KV
    headroom, and the optional death plan / retry / shed SLO / autoscale.
    """
    from repro.faults import REPLICA_DEATH, FaultEvent, FaultPlan, RetryPolicy
    from repro.inference import SLO, AutoscalePolicy, FleetWorkload, ReplicaModel
    from repro.utils import derive_rng

    rng = derive_rng(draw(st.integers(0, 2**31 - 1)), "tests", "fleet-property")
    segments = draw(
        st.lists(
            st.tuples(st.integers(1, 200), st.sampled_from([2.0, 40.0, 400.0, 4000.0])),
            min_size=1,
            max_size=3,
        )
    )
    n = min(sum(count for count, _ in segments), 400)
    gaps = np.concatenate([rng.exponential(1.0 / rate, count) for count, rate in segments])
    arrival = np.cumsum(gaps[:n])
    block = draw(st.sampled_from([16, 64]))
    sizes = draw(
        st.lists(
            st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block, 3 * block]),
            min_size=1,
            max_size=3,
        )
    )
    share = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    shared = rng.random(n) < share
    codes = np.where(shared, rng.integers(0, draw(st.integers(1, 4)), n), -1).astype(np.int64)
    ptoks = np.where(shared, np.asarray(sizes)[rng.integers(0, len(sizes), n)], 0).astype(np.int64)
    prompts = (rng.integers(1, 300, n) + ptoks).astype(np.int64)
    outputs = rng.integers(1, 40, n).astype(np.int64)
    workload = FleetWorkload(
        arrival_s=arrival,
        prompt_tokens=prompts,
        output_tokens=outputs,
        prefix_code=codes,
        prefix_tokens=ptoks,
    )
    need = int((prompts + outputs).max())
    model = ReplicaModel(
        slots=draw(st.integers(1, 8)),
        kv_capacity_tokens=need + draw(st.integers(0, 4 * need)),
        block_tokens=block,
    )
    replicas = draw(st.integers(1, 8))
    horizon = float(arrival[-1])
    kw = {}
    if draw(st.booleans()):
        kw["faults"] = FaultPlan(
            events=[
                FaultEvent(
                    at_s=draw(st.floats(0.0, 1.2)) * horizon,
                    kind=REPLICA_DEATH,
                    duration_s=draw(st.floats(0.0, 1.0)),
                    target=draw(st.none() | st.integers(0, 9).map("replica-{}".format)),
                )
                for _ in range(draw(st.integers(1, 4)))
            ]
        )
    if draw(st.booleans()):
        kw["retry"] = RetryPolicy(
            max_retries=draw(st.integers(0, 3)), base_delay_s=draw(st.floats(0.0, 0.5))
        )
    if draw(st.booleans()):
        kw["shed_slo"] = SLO(ttft_s=draw(st.floats(0.01, 5.0)))
    if draw(st.booleans()):
        floor = draw(st.integers(1, replicas))
        low = draw(st.floats(0.0, 2.0))
        kw["autoscale"] = AutoscalePolicy(
            min_replicas=floor,
            max_replicas=floor + draw(st.integers(0, 4)),
            high_queue_per_replica=low + draw(st.floats(0.5, 8.0)),
            low_queue_per_replica=low,
            interval_s=draw(st.floats(0.05, 2.0)),
            spawn_delay_s=draw(st.floats(0.0, 2.0)),
        )
    return dict(
        workload=workload,
        model=model,
        replicas=replicas,
        policy=draw(st.sampled_from(_FLEET_POLICIES)),
        router_seed=draw(st.integers(0, 9)),
        router_block=draw(st.sampled_from([16, 64])),
        kw=kw,
    )


def _cluster_fleet(s, **extra):
    from repro.inference import ClusterFleet, make_router

    router = make_router(s["policy"], seed=s["router_seed"], block_tokens=s["router_block"])
    return ClusterFleet(s["replicas"], router, model=s["model"], **s["kw"], **extra)


def _legacy_fleet(s):
    from benchmarks.perf._legacy_fleet import LegacyClusterFleet

    return LegacyClusterFleet(
        s["replicas"],
        s["policy"],
        router_seed=s["router_seed"],
        block_tokens=s["router_block"],
        model=s["model"],
        **s["kw"],
    )


def _fleet_outcome(fleet, workload):
    """The run's result, or the SchedulerError type it raised (every replica dead)."""
    from repro.errors import SchedulerError

    try:
        return fleet.run(workload)
    except SchedulerError as exc:
        return type(exc)


@seed(20261)
@given(_fleet_scenarios())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cluster_fleet_matches_legacy_oracle(scenario):
    """ClusterFleet.run == frozen naive fleet, bitwise, on generated traces."""
    from benchmarks.perf.harness_fleet import matches_legacy
    from repro.faults import FaultPlan

    workload = scenario["workload"]
    current = _fleet_outcome(_cluster_fleet(scenario), workload)
    legacy = _fleet_outcome(_legacy_fleet(scenario), workload)
    if isinstance(current, type) or isinstance(legacy, type):
        assert current is legacy
        return
    assert matches_legacy(current, legacy)
    assert current.completed + current.rejected_total == workload.n
    assert current.decode_replica is not None and current.decode_start_s is not None
    if "faults" not in scenario["kw"]:
        empty = _cluster_fleet(scenario, faults=FaultPlan.empty()).run(workload)
        assert empty.equals(current)


@st.composite
def _pool_scenarios(draw):
    """A :func:`_fleet_scenarios` trace on a drawn :class:`PoolSpec`.

    Adds the pool knobs: a prefill/decode/colocated mix, the wire
    (bandwidth, overlap), warm-up, migration, the decode router, deaths
    aimed at ``pool-prefill`` / ``pool-decode`` / ``replica-N``, and
    KV_TRANSFER_FAIL / KV_DEGRADED windows.  Half the draws are biased
    toward draining busy decode replicas: one prefill replica (so only the
    decode pool can drain), migration on, and an autoscaler whose low
    watermark sits above an idle decode queue.
    """
    from repro.faults import KV_DEGRADED, KV_TRANSFER_FAIL, REPLICA_DEATH, FaultEvent, FaultPlan
    from repro.inference import AutoscalePolicy, MigrationPolicy, PoolSpec, TransferModel

    s = draw(_fleet_scenarios())
    horizon = float(s["workload"].arrival_s[-1]) + 0.1
    drains = draw(st.booleans())
    if drains:
        prefill, decode, colocated = 1, draw(st.integers(2, 4)), 0
        # Slower decode keeps the drained replica busy when its tick comes.
        per_out = draw(st.sampled_from([0.0095, 0.05, 0.2]))
        s["model"] = dataclasses.replace(s["model"], per_output_token_s=per_out)
    else:
        prefill = draw(st.integers(0, 3))
        decode = draw(st.integers(1, 3)) if prefill else 0
        colocated = draw(st.integers(0 if prefill else 1, 2))
    migration = None
    if drains or draw(st.booleans()):
        migration = MigrationPolicy(
            hot_queue_ratio=draw(st.sampled_from([1.1, 1.5, 3.0])),
            min_queue=draw(st.integers(1, 4)),
        )
    pools = PoolSpec(
        prefill=prefill,
        decode=decode,
        colocated=colocated,
        transfer=TransferModel(
            bandwidth=draw(st.sampled_from([5e7, 1e9, 50e9])),
            overlap=draw(st.sampled_from([0.0, 0.5, 0.8, 1.0])),
        ),
        warmup_s=draw(st.sampled_from([0.0, 0.01, 1.0])),
        migration=migration,
    )
    kw = {k: v for k, v in s["kw"].items() if k not in ("faults", "autoscale")}
    if drains or draw(st.booleans()):
        low = draw(st.sampled_from([0.5, 1.0, 2.0])) if drains else draw(st.floats(0.0, 2.0))
        kw["autoscale"] = AutoscalePolicy(
            min_replicas=1 if drains else draw(st.integers(1, pools.total)),
            max_replicas=pools.total + draw(st.integers(0, 3)),
            high_queue_per_replica=low + draw(st.floats(0.5, 8.0)),
            low_queue_per_replica=low,
            interval_s=horizon * draw(st.sampled_from([0.02, 0.1, 0.3])),
            spawn_delay_s=draw(st.floats(0.0, 1.0)),
        )
    # A drained fleet has one prefill replica; killing it ends the run.
    targets = st.integers(int(drains), pools.total + 1).map("replica-{}".format)
    targets |= st.sampled_from(["pool-decode"] if drains else [None, "pool-prefill", "pool-decode"])
    n = s["workload"].n
    events = [
        FaultEvent(
            at_s=draw(st.floats(0.0, 1.2)) * horizon,
            kind=REPLICA_DEATH,
            duration_s=draw(st.floats(0.0, 1.0)),
            target=draw(targets),
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    events += [
        FaultEvent(
            at_s=draw(st.floats(0.0, 1.0)) * horizon,
            kind=draw(st.sampled_from([KV_TRANSFER_FAIL, KV_DEGRADED])),
            duration_s=horizon * draw(st.sampled_from([0.0, 0.05, 0.5, 2.0])),
            severity=draw(st.sampled_from([0.05, 0.5, 1.0])),
            target=draw(st.none() | st.integers(0, n - 1).map("req-{:07d}".format)),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    if events:
        kw["faults"] = FaultPlan(events)
    return dict(
        s,
        replicas=pools.total,
        pools=pools,
        decode_policy=draw(st.sampled_from(["random", "least-loaded"])),
        decode_seed=draw(st.integers(0, 9)),
        kw=kw,
    )


def _pool_fleet(s):
    from repro.inference import LeastLoadedRouter, RandomRouter

    if s["decode_policy"] == "random":
        decode_router = RandomRouter(seed=s["decode_seed"], stream="router-decode")
    else:
        decode_router = LeastLoadedRouter()
    return _cluster_fleet(s, pools=s["pools"], decode_router=decode_router)


def _legacy_pool_fleet(s):
    from benchmarks.perf._legacy_disagg import LegacyPoolFleet

    return LegacyPoolFleet(
        s["replicas"],
        s["policy"],
        s["decode_policy"],
        router_seed=s["router_seed"],
        decode_seed=s["decode_seed"],
        block_tokens=s["router_block"],
        model=s["model"],
        pools=s["pools"],
        **s["kw"],
    )


@seed(20265)
@given(_pool_scenarios())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_pool_spec_matches_legacy_disagg_oracle(scenario):
    """ClusterFleet.run on a PoolSpec == frozen naive pool DES, bitwise."""
    workload = scenario["workload"]
    current = _fleet_outcome(_pool_fleet(scenario), workload)
    legacy = _fleet_outcome(_legacy_pool_fleet(scenario), workload)
    if isinstance(current, type) or isinstance(legacy, type):
        assert current is legacy
        return
    assert current.equals(legacy)
    assert current.completed + current.rejected_total == workload.n


# ------------------------------------------------------ token-level fleets
@st.composite
def _engine_requests(draw, spaced=False):
    """0-60 requests with 1-token outputs and shared prefixes in the mix.

    ``spaced`` puts 50 s between arrivals, so no two requests ever share
    an engine: the contention-free regime of the disaggregation anchor.
    """
    from repro.inference import Request

    prefix_sizes = draw(st.lists(st.sampled_from([1, 15, 16, 17, 64, 160]), min_size=1, max_size=3))
    n = draw(st.integers(0, 60))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.001, 0.02, 0.3]),  # inter-arrival gap
                st.integers(1, 300),  # unique prompt tokens
                st.sampled_from([1, 1, 2, 7, 40]),  # output tokens
                st.integers(-1, len(prefix_sizes) - 1),  # prefix family, -1 = none
            ),
            min_size=n,
            max_size=n,
        )
    )
    requests = []
    t = 0.0
    for i, (gap, unique, out, fam) in enumerate(rows):
        t = i * 50.0 if spaced else t + gap
        ptoks = prefix_sizes[fam] if fam >= 0 else 0
        requests.append(
            Request(
                request_id=f"r{i:03d}",
                arrival_s=t,
                prompt_tokens=unique + ptoks,
                output_tokens=out,
                prefix_id=f"p{fam}" if fam >= 0 else None,
                prefix_tokens=ptoks,
            )
        )
    return requests


def _paged_engines(max_batch, chunk_tokens, kv_tokens):
    """An engine factory plus the list of every allocator it has built."""
    from repro.inference import ContinuousBatchScheduler, ServingEngine

    allocators = []

    def factory():
        alloc = PagedAllocator(kv_tokens, block_size=16)
        allocators.append(alloc)
        return ServingEngine(
            ContinuousBatchScheduler(max_batch=max_batch, chunk_tokens=chunk_tokens),
            allocator=alloc,
        )

    return factory, allocators


def _timeline(requests):
    return [
        (
            r.request_id,
            r.admitted_s,
            r.first_token_s,
            r.finished_s,
            tuple(r.token_times),
            r.preemptions,
            r.prefix_hit,
            r.retries,
            r.rejected,
        )
        for r in requests
    ]


# (max_batch, chunk_tokens, KV tokens); 640 KV tokens fit one long request
# but not two, so admission stalls and preemption get exercised.
_ENGINE_SHAPES = st.tuples(
    st.sampled_from([1, 4, 16]), st.sampled_from([None, 64, 512]), st.sampled_from([640, 8192])
)


@seed(20262)
@given(_engine_requests(), _ENGINE_SHAPES, st.sampled_from(_FLEET_POLICIES), st.integers(0, 9))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engine_fleet_of_one_is_bare_engine(requests, shape, policy, router_seed):
    """EngineFleet(1 replica) walks a bare ServingEngine.run's trajectory."""
    import copy

    from repro.inference import EngineFleet, make_router

    factory, _ = _paged_engines(*shape)
    bare = copy.deepcopy(requests)
    factory().run(bare)
    routed = copy.deepcopy(requests)
    EngineFleet(factory, 1, make_router(policy, seed=router_seed)).run(routed)
    assert _timeline(routed) == _timeline(bare)


@seed(20263)
@given(_engine_requests(spaced=True), _ENGINE_SHAPES)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_free_wire_disagg_pair_is_bare_engine(requests, shape):
    """DisaggEngineFleet(1, 1) over a free wire == a bare engine, uncontended."""
    import copy

    from repro.inference import DisaggEngineFleet, TransferModel

    factory, _ = _paged_engines(*shape)
    bare = copy.deepcopy(requests)
    factory().run(bare)
    split = copy.deepcopy(requests)
    fleet = DisaggEngineFleet(factory, 1, 1, transfer=TransferModel(overlap=1.0))
    fleet.run(split)
    assert [(r.first_token_s, r.finished_s, tuple(r.token_times)) for r in split] == [
        (r.first_token_s, r.finished_s, tuple(r.token_times)) for r in bare
    ]
    assert fleet.handoffs == len(requests)


@st.composite
def _kv_fault_windows(draw, requests):
    """1-4 KV_TRANSFER_FAIL / KV_DEGRADED windows over the trace's span,
    from instants to whole-run outages, untargeted or on one request."""
    from repro.faults import KV_DEGRADED, KV_TRANSFER_FAIL, FaultEvent

    n = len(requests)
    span = requests[-1].arrival_s + 1.0 if requests else 1.0
    return [
        FaultEvent(
            at_s=draw(st.sampled_from([0.0, 0.25, 0.5])) * span,
            kind=draw(st.sampled_from([KV_TRANSFER_FAIL, KV_DEGRADED])),
            duration_s=draw(st.sampled_from([0.0, 0.01, 0.2, 5.0, 1e3])),
            severity=draw(st.sampled_from([0.05, 0.5, 1.0])),
            target=draw(st.none() | st.integers(0, max(n - 1, 0)).map("r{:03d}".format)),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]


@seed(20264)
@given(st.data(), _engine_requests(), _ENGINE_SHAPES, st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_disagg_fleet_conserves_requests_and_kv(data, requests, shape, n_prefill, n_decode):
    """Under KV fault windows every request completes or is rejected, and
    every allocator ends empty; an empty plan changes nothing."""
    import copy

    from repro.faults import FaultPlan, RetryPolicy
    from repro.inference import DisaggEngineFleet

    n = len(requests)
    windows = data.draw(_kv_fault_windows(requests))
    # A failed ship is retried once, as a decode-side re-prefill, so only
    # max_retries=0 can reject: draw it often.
    retry = RetryPolicy(max_retries=data.draw(st.sampled_from([0, 0, 1])), base_delay_s=0.05)
    factory, allocators = _paged_engines(*shape)

    def serve(faults):
        work = copy.deepcopy(requests)
        fleet = DisaggEngineFleet(factory, n_prefill, n_decode, faults=faults, retry=retry)
        fleet.run(work)
        return fleet, work

    fleet, faulty = serve(FaultPlan(windows))
    done = sum(1 for r in faulty if r.done)
    rejected = sum(1 for r in faulty if r.rejected)
    assert done + rejected == n
    assert rejected == fleet.rejected
    assert all(alloc.stats.reserved_tokens == 0 for alloc in allocators)
    _, plain = serve(None)
    _, empty = serve(FaultPlan.empty())
    assert _timeline(empty) == _timeline(plain)


def _check_kv_conservation(engine):
    """Every KV block is free or held, refcounts count holders, and each
    running sequence holds exactly its prompt plus emitted tokens."""
    alloc = engine.allocator
    holders = {}
    for seq in alloc._sequences.values():
        assert seq.tokens <= len(seq.blocks) * alloc.block_size
        for b in seq.blocks:
            holders[b] = holders.get(b, 0) + 1
    for blocks in alloc._prefix_blocks.values():
        for b in blocks:
            holders[b] = holders.get(b, 0) + 1
    assert alloc.free_blocks() + len(holders) == alloc.num_blocks
    assert holders.keys().isdisjoint(alloc._free)
    assert alloc._refcount == holders
    assert alloc.stats.reserved_tokens == len(holders) * alloc.block_size
    assert 0 <= alloc.stats.used_tokens <= alloc.stats.reserved_tokens
    assert alloc._sequences.keys() == engine.running.keys()
    for request_id, seq in engine.running.items():
        tokens = seq.request.prompt_tokens + seq.decoded
        assert alloc._sequences[request_id].tokens == tokens


@st.composite
def _follow_up_requests(draw):
    """1-40 requests with long outputs; some continue an earlier request,
    naming it as ``prefix_id`` with its whole prompt and output as prefix
    (a multi-turn follow-up), so retained prefixes get hit."""
    from repro.inference import Request

    requests = []
    t = 0.0
    for i in range(draw(st.integers(1, 40))):
        t += draw(st.sampled_from([0.0, 0.001, 0.02]))
        parent = draw(st.none() | st.integers(0, i - 1)) if i else None
        prefix = 0 if parent is None else (
            requests[parent].prompt_tokens + requests[parent].output_tokens
        )
        requests.append(
            Request(
                request_id=f"r{i:03d}",
                arrival_s=t,
                prompt_tokens=prefix + draw(st.integers(1, 120)),
                output_tokens=draw(st.sampled_from([1, 2, 7, 40, 130])),
                prefix_id=None if parent is None else f"r{parent:03d}",
                prefix_tokens=prefix,
            )
        )
    return requests


# (KV tokens, block size): 640 tokens hold one long request but not four,
# so admission stalls and decodes outgrow the cache, running the one-by-one
# preempting append path; 8,192 tokens rarely feel pressure.
_KV_SHAPES = st.sampled_from([(640, 1), (640, 4), (1024, 16), (2048, 32), (8192, 16)])


@seed(20321)
@given(
    _follow_up_requests(),
    _KV_SHAPES,
    st.sampled_from([1, 4, 16]),
    st.sampled_from([None, 64, 512]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, 0.5, 3.0]),
)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engine_conserves_kv_blocks(requests, kv, max_batch, chunk_tokens, keep_prefix, sjf, crash_at):
    """After every step of a bare engine, KV blocks are conserved; every
    run drains within its step budget or raises SchedulerError."""
    from collections import deque

    from repro.errors import SchedulerError
    from repro.faults import GPU_CRASH, FaultEvent, FaultPlan
    from repro.inference import ContinuousBatchScheduler, ServingEngine, ShortestJobFirstScheduler
    from repro.inference.scheduler import STEP_IDLE

    policy = ShortestJobFirstScheduler if sjf else ContinuousBatchScheduler
    faults = None if crash_at is None else FaultPlan([FaultEvent(at_s=crash_at, kind=GPU_CRASH)])
    engine = ServingEngine(
        policy(max_batch=max_batch, chunk_tokens=chunk_tokens),
        allocator=PagedAllocator(kv[0], block_size=kv[1]),
        keep_prefix_on_release=keep_prefix,
        faults=faults,
    )
    pending = deque(requests)
    for _ in range(50_000):
        try:
            status = engine.step(pending)
        except SchedulerError:
            break
        _check_kv_conservation(engine)
        if status == STEP_IDLE:
            break
    else:
        pytest.fail("the engine spun past its step budget")


# ---------------------------------------------------- semopt and llm cache
_SEM_TEXTS = (
    "database storage report: the database engine tunes storage query plans",
    "gardening field notes: weekly gardening observations and practical advice",
    "survey of mixed systems covering indexing material with one database "
    "section among many topics",
    "replication runbook for the database cluster",
)
_SEM_CATEGORIES = ("storage", "indexing", "cooking")
_SEM_PRICES = ("10", "60", "150")  # each side of both price filters
_SEM_CATALOG = tuple(
    {"name": f"catalog-{c}", "category": c, "owner": f"team-{c[:4]}"}
    for c in _SEM_CATEGORIES
)
_SEM_FILTERS = (
    "is_about database",
    "is_about gardening",
    "price < 100",
    "price >= 50",
    "category == storage",
    "title contains database",
)
_SEM_MAPS = ("Summarize the item", "Give a short title", "Describe the field values")
_SEM_OUTPUTS = ("price", "category", "summary", "title", "text")
# Filters that read each field a map may write.
_SEM_READERS = {
    "summary": ("summary contains database",),
    "title": ("title contains database",),
    "price": ("price < 100", "price >= 50"),
    "category": ("category == storage",),
    "text": ("is_about database", "text contains database"),
}


@st.composite
def _sem_lakes(draw):
    """Small non-empty record lakes whose texts repeat; one in five may have
    rows without text (which disables the optimizer's text-reading
    rewrites).  The empty lake is an explicit example of the property."""
    texts = _SEM_TEXTS + ((None,) if draw(st.integers(0, 4)) == 0 else ())
    rows = []
    for i in range(draw(st.integers(1, 10))):
        row = {
            "name": f"r{i}",
            "category": draw(st.sampled_from(_SEM_CATEGORIES)),
            "price": draw(st.sampled_from(_SEM_PRICES)),
        }
        text = draw(st.sampled_from(texts))
        if text is not None:
            row["text"] = text
        rows.append(row)
    return rows


@st.composite
def _sem_pipelines(draw):
    """A run of filters (topical and rule) and maps, some maps followed by
    a filter that reads the field they write, then optionally a join and a top-k (barriers the
    optimizer never moves past), each followed by more filters and maps,
    and an optional terminal group count."""
    from repro.semopt import SemFilter, SemGroupCount, SemJoin, SemMap, SemPipeline, SemTopK

    def filters_and_maps(max_units):
        steps = []
        for _ in range(draw(st.integers(0, max_units))):
            unit = draw(st.sampled_from(["filter", "map", "map+reader"]))
            if unit != "filter":
                instruction = draw(st.sampled_from(_SEM_MAPS))
                output = draw(st.sampled_from(_SEM_OUTPUTS))
                steps.append(SemMap(instruction, output_field=output))
            if unit != "map":
                readers = _SEM_READERS[output] if unit == "map+reader" else _SEM_FILTERS
                predicate = draw(st.sampled_from(readers))
                cascade = draw(st.sampled_from([True, False]))
                steps.append(SemFilter(predicate, cascade=cascade))
        return steps

    steps = filters_and_maps(3)
    if draw(st.booleans()):
        blocking = draw(st.booleans())
        steps.append(
            SemJoin(
                right=_SEM_CATALOG, left_key="category", right_key="category", blocking=blocking
            )
        )
        steps += filters_and_maps(1)
    if draw(st.booleans()):
        # k <= group_size: the frozen naive oracle loops forever on a larger
        # k (see test_topk_with_k_above_group_size_terminates).
        group_size = draw(st.integers(2, 4))
        k = draw(st.integers(1, group_size))
        steps.append(SemTopK("most detailed database report", k=k, group_size=group_size))
        steps += filters_and_maps(1)
    if draw(st.booleans()):
        steps.append(SemGroupCount(classes=_SEM_CATEGORIES))
    return SemPipeline(steps)


def _empty_lake_pipeline():
    from repro.semopt import SemFilter, SemGroupCount, SemMap, SemPipeline, SemTopK

    return SemPipeline(
        [
            SemMap("Summarize the item", output_field="price"),
            SemFilter("price < 100"),
            SemTopK("most detailed database report", k=1, group_size=2),
            SemGroupCount(classes=_SEM_CATEGORIES),
        ]
    )


def _check_semopt_against_naive(records, pipeline, model_seed=0):
    from benchmarks.perf._legacy_semopt import NaiveSemExecutor
    from repro.llm import make_llm
    from repro.semopt import SemExecutor
    from repro.unstructured import SemanticOperators

    naive_rows, naive_counts = NaiveSemExecutor(make_llm("sim-base", seed=model_seed)).run(
        records, pipeline
    )
    llm = make_llm("sim-base", seed=model_seed)
    result = SemExecutor(SemanticOperators(llm)).run(records, pipeline)
    assert result.records == naive_rows
    assert result.group_counts == naive_counts
    assert sum(s.stats.llm_calls for s in result.steps) == result.usage.calls
    assert sum(s.stats.usd for s in result.steps) == pytest.approx(result.usage.usd)
    assert result.usage == llm.ledger.total
    # Every charged call was a cache miss, and every miss was charged.
    assert result.usage.calls == result.cache.misses


@given(_sem_lakes(), _sem_pipelines(), st.integers(0, 3))
@example([], _empty_lake_pipeline(), 0)
@seed(20181)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_semopt_matches_naive_executor(records, pipeline, model_seed):
    """Any generated pipeline over any lake: the optimized executor's
    records and group counts equal the frozen naive executor's, per-step
    ledger deltas sum to the run total, and charged calls equal misses."""
    _check_semopt_against_naive(records, pipeline, model_seed)


def _sem_row(i):
    return {"name": f"r{i}", "category": "storage", "price": "10", "text": _SEM_TEXTS[0]}


def test_filter_reading_a_mapped_field_stays_after_the_map():
    # Shrunk from the property against a pushdown that ignores the field a
    # map writes: the rule must see the mapped category, not the input's.
    from repro.semopt import SemFilter, SemMap, SemPipeline

    pipeline = SemPipeline(
        [SemMap("Summarize the item", output_field="category"), SemFilter("category == storage")]
    )
    _check_semopt_against_naive([_sem_row(0)], pipeline)


def test_repeated_rank_prompts_are_one_charged_miss():
    # Shrunk from the property against a batched cache path that counts
    # in-batch duplicates as misses: two identical rank groups in one
    # tournament round are one charged call and one miss.
    from repro.semopt import SemPipeline, SemTopK

    pipeline = SemPipeline([SemTopK("most detailed database report", k=1, group_size=2)])
    _check_semopt_against_naive([_sem_row(i) for i in range(4)], pipeline)


def _cache_prompts():
    return tuple(
        Prompt(task=task, instruction=instruction, input=text, fields=fields).render()
        for task, instruction, text, fields in (
            ("qa", "", "Where is Acu Corp headquartered?", {}),
            ("qa", "", "Where is Acu Corp headquartered ?", {}),
            ("map", "Summarize the item", "storage engine manual for the database", {}),
            ("map", "Summarize the item", "storage engine manual for the database !", {}),
            ("label", "Classify the item.", "gardening notes", {"classes": "storage | garden"}),
            ("judge", "Decide.", "database indexing report", {"predicate": "is_about database"}),
            ("decompose", "", "Who founded the company that makes Acu?", {}),
            ("chat", "", "hello there, what can you do for me today?", {}),
        )
    )


_CACHE_PROMPTS = _cache_prompts()


@st.composite
def _cache_batches(draw):
    """Batches with in-batch duplicates, each under its own generation
    parameters and optionally followed by ``invalidate()``."""
    return [
        (
            draw(st.lists(st.integers(0, len(_CACHE_PROMPTS) - 1), max_size=8)),
            draw(st.sampled_from([3, 256])),
            draw(st.sampled_from([0.0, 0.0, 0.7])),
            draw(st.booleans()),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]


def _check_cached_batches(batches, threshold, max_entries):
    from repro.llm import CachedLLM, make_llm

    def cache():
        return CachedLLM(
            make_llm("sim-base", seed=3), semantic_threshold=threshold, max_entries=max_entries
        )

    looped, batched, bare = cache(), cache(), make_llm("sim-base", seed=3)
    for indices, max_tokens, temperature, invalidate in batches:
        prompts = [_CACHE_PROMPTS[i] for i in indices]
        params = dict(max_tokens=max_tokens, temperature=temperature)
        expected = [looped.generate(p, **params) for p in prompts]
        responses = batched.generate_many(prompts, **params)
        assert responses == expected
        if threshold is None:  # an exact hit replays what the model answers
            assert [r.text for r in responses] == [bare.generate(p, **params).text for p in prompts]
        if invalidate:
            looped.invalidate()
            batched.invalidate()
    assert batched.llm.ledger.total == looped.llm.ledger.total
    assert batched.llm.ledger.by_tag == looped.llm.ledger.by_tag
    assert batched.llm.call_log == looped.llm.call_log
    assert batched.stats == looped.stats
    assert len(batched) == len(looped)


@given(_cache_batches(), st.sampled_from([None, 0.9]), st.sampled_from([1, 3, None]))
@seed(20182)
@settings(max_examples=60, deadline=None)
def test_cached_generate_many_matches_looped_generate(batches, threshold, max_entries):
    """Mixed-task batches with duplicates, either layer set, any capacity:
    ``generate_many`` gives the looped ``generate``'s responses, backing
    ledger and stats; exact-only, every answer is the bare model's."""
    _check_cached_batches(batches, threshold, max_entries)


def test_cache_key_includes_max_tokens():
    # Shrunk from the property against a key that drops max_tokens: a reply
    # capped at 3 tokens must not be replayed for a 256-token request.
    _check_cached_batches([([2], 3, 0.0, False), ([2], 256, 0.0, False)], None, 1)


def test_batched_duplicates_hit_after_the_first_miss():
    # Shrunk from the property against a batched path that counts in-batch
    # duplicates as misses: the second copy is an exact hit.
    _check_cached_batches([([0, 0], 3, 0.0, False)], None, 1)


# ------------------------------------------------------- lake plan executor
def _oracle_select(table, predicate):
    return Table(f"{table.name}_sel", table.schema, [dict(r) for r in table.rows if predicate(r)])


def _oracle_project(table, columns):
    cols = tuple(table.schema.column(c) for c in columns)
    return Table(f"{table.name}_proj", Schema(cols), [{c: row[c] for c in columns} for row in table.rows])


def _oracle_join(left, right, left_on, right_on):
    from repro.data.table import Column

    left_names = set(left.schema.names())
    renamed = {
        c.name: (f"{right.name}.{c.name}" if c.name in left_names else c.name)
        for c in right.schema.columns
    }
    names = left.schema.names() + list(renamed.values())
    if len(set(names)) != len(names):
        raise ExecutionError(f"join of {left.name!r} and {right.name!r} repeats a column in {names}")
    out_cols = tuple(left.schema.columns) + tuple(
        Column(renamed[c.name], c.dtype) for c in right.schema.columns
    )
    out_rows = []
    build = {}
    for row in right.rows:
        build.setdefault(row.get(right_on), []).append(row)
    for row in left.rows:
        for match in build.get(row.get(left_on), []):
            merged = dict(row)
            for key, value in match.items():
                merged[renamed[key]] = value
            out_rows.append(merged)
    return Table(f"{left.name}_{right.name}", Schema(out_cols), out_rows)


def _aggregate_cells(cells, fn):
    """Frozen copy of the lake's aggregate as it parsed every raw cell:
    ``float(str(cell))``, skipping None and text that does not parse."""
    from repro.unstructured.query import _AGGREGATE_FNS

    if fn not in _AGGREGATE_FNS:
        raise ExecutionError(f"unknown aggregate {fn!r}")
    numeric = []
    for raw in cells:
        if raw is None:
            continue
        try:
            numeric.append(float(str(raw)))
        except ValueError:
            continue
    if not numeric:
        return "unknown"
    return f"{_AGGREGATE_FNS[fn](numeric):.1f}"


class _RowDictExecutor:
    """Frozen oracle: the lake plan executor as it was before relations,
    every step copying each row into a fresh dict. Only ``project`` and
    ``join`` differ: an unknown column, a repeated projected column and a
    join output that repeats a column raise the ExecutionError of the
    fixed ops (they raised SchemaError, which escaped reflection)."""

    def __init__(self, lake, llm, extractor):
        from repro.semopt import SemExecutor
        from repro.unstructured import SemanticOperators

        self.lake, self.llm, self.extractor = lake, llm, extractor
        self.sem_executor = SemExecutor(SemanticOperators(llm), tag_prefix="lake.semopt")
        self._view_cache = {}
        self._rag_cache = {}

    def execute(self, plan):
        plan.validate()
        values = {}
        for step in plan.steps:
            values[step.step_id] = self._run_step(step, values)
        final = values[plan.final_step.step_id]
        return str(len(final)) if isinstance(final, Table) else str(final)

    def _run_step(self, step, values):
        return getattr(self, f"_op_{step.op}")(step, values)

    def _input_table(self, step, values, idx):
        value = values[step.inputs[idx]]
        if not isinstance(value, Table):
            raise ExecutionError(
                f"step {step.step_id!r} expected a table input, got {type(value).__name__}"
            )
        return value

    def _op_scan(self, step, values):
        asset = self.lake.get(str(step.params["asset_id"]))
        if asset.modality == "table":
            return asset.table
        if asset.modality == "json":
            return self.lake.json_as_table(asset.asset_id)
        raise ExecutionError(f"cannot scan document asset {asset.asset_id!r}; use extract")

    def _op_extract(self, step, values):
        from repro.data.table import Column

        asset = self.lake.get(str(step.params["asset_id"]))
        if asset.modality != "document":
            raise ExecutionError(
                f"extract requires a document or image asset, got {asset.modality}"
            )
        etype = str(step.params["etype"])
        attributes = tuple(str(a) for a in step.params["attributes"])
        cache_key = (asset.asset_id, attributes)
        if cache_key not in self._view_cache:
            table = self.extractor.extract(asset.documents, etype, list(attributes)).table
            if "subject" in table.schema and "name" not in table.schema:
                renamed = _oracle_project(table, ["subject"] + list(attributes))
                cols = (Column("name"),) + tuple(Column(a) for a in attributes)
                fixed = Table(table.name, Schema(cols))
                for row in renamed.rows:
                    new_row = {"name": row["subject"]}
                    new_row.update({a: row.get(a) for a in attributes})
                    fixed.insert(new_row)
                table = fixed
            self._view_cache[cache_key] = table
        return self._view_cache[cache_key]

    def _op_filter(self, step, values):
        table = self._input_table(step, values, 0)
        f = str(step.params["field"])
        if f not in table.schema:
            raise ExecutionError(f"filter field {f!r} not in {table.schema.names()}")
        return _oracle_select(
            table, _string_predicate(f, str(step.params["op"]), str(step.params["value"]))
        )

    def _op_sem_filter(self, step, values):
        from repro.semopt import SemFilter, SemPipeline

        table = self._input_table(step, values, 0)
        predicate = str(step.params["predicate"])
        cascade = bool(step.params.get("cascade", True))
        records = [
            {key: str(value) for key, value in row.items() if value is not None}
            for row in table.rows
        ]
        result = self.sem_executor.run(records, SemPipeline([SemFilter(predicate, cascade=cascade)]))
        kept = {id(record) for record in result.records}
        filtered = Table(table.name, table.schema)
        for row, record in zip(table.rows, records):
            if id(record) in kept:
                filtered.insert(dict(row))
        return filtered

    def _op_join(self, step, values):
        left = self._input_table(step, values, 0)
        right = self._input_table(step, values, 1)
        left_on = str(step.params["left_on"])
        right_on = str(step.params["right_on"])
        if left_on not in left.schema:
            raise ExecutionError(f"join key {left_on!r} not in left table {left.schema.names()}")
        if right_on not in right.schema:
            raise ExecutionError(
                f"join key {right_on!r} not in right table {right.schema.names()}"
            )
        return _oracle_join(left, right, left_on, right_on)

    def _op_project(self, step, values):
        table = self._input_table(step, values, 0)
        columns = [str(c) for c in step.params["columns"]]
        for column in columns:
            if column not in table.schema:
                raise ExecutionError(f"project column {column!r} not in {table.schema.names()}")
        if len(set(columns)) != len(columns):
            raise ExecutionError(f"project repeats a column in {columns}")
        return _oracle_project(table, columns)

    def _op_aggregate(self, step, values):
        table = self._input_table(step, values, 0)
        fn = str(step.params["fn"])
        column = str(step.params["column"])
        if fn == "count":
            return str(len(table))
        if column not in table.schema:
            raise ExecutionError(f"aggregate column {column!r} not in {table.schema.names()}")
        return _aggregate_cells([row.get(column) for row in table.rows], fn)

    def _op_lookup(self, step, values):
        from repro.rag.pipeline import RAGPipeline

        asset = self.lake.get(str(step.params["asset_id"]))
        if asset.modality != "document":
            raise ExecutionError("lookup requires a document asset")
        if asset.asset_id not in self._rag_cache:
            self._rag_cache[asset.asset_id] = RAGPipeline.from_documents(self.llm, asset.documents)
        return self._rag_cache[asset.asset_id].answer(str(step.params["question"])).text


class _ViewExtractor:
    """Extractor stand-in: the n-th extraction returns the n-th drawn view
    (cycling), with the columns the real extractor emits."""

    def __init__(self, views):
        self.views = views
        self.calls = 0

    def extract(self, documents, etype, attributes):
        from types import SimpleNamespace

        from repro.data.table import Column

        rows = self.views[self.calls % len(self.views)]
        self.calls += 1
        names = ["doc_id", "subject", *attributes]
        table = Table("docs", Schema(tuple(Column(n) for n in names)))
        for i, row in enumerate(rows):
            table.insert({"doc_id": f"d{i}", **{n: row.get(n) for n in names[1:]}})
        return SimpleNamespace(table=table)


# Join keys repeat and go missing; cells add numeric, padded, "nan" and
# non-numeric text to them.
_LAKE_KEYS = st.sampled_from(["a", "b", "c", "A ", None])
_LAKE_CELLS = st.one_of(
    _LAKE_KEYS,
    st.sampled_from(["1", "2.5", "-3", "10", " 7 ", "nan", "NaN", "inf", "x", "", "abc"]),
)
# Mostly the columns every relation has; sometimes ones it may lack.
_LAKE_FIELDS = st.sampled_from(["name"] * 4 + ["k"] * 4 + ["v", "w", "n", "ta.name", "nope"])
_LAKE_JOIN_KEYS = st.sampled_from(["name"] * 3 + ["k"] * 3 + ["ta.name", "tb.k", "v", "nope"])
_LAKE_LITERALS = st.sampled_from(["a", "A", "b ", " 2", "2.5", "-3", "7", "nan", "inf", "x", "", "10"])
_LAKE_FILTER_OPS = st.sampled_from(["==", "==", "!=", "<", ">", "<=", ">=", "contains", "~"])
_LAKE_SEM_PREDICATES = st.sampled_from(["k < 3", "v == x", "name contains a", "is_about widgets"])


@st.composite
def _lake_rows(draw, columns, min_rows=0, max_rows=6):
    rows = []
    for _ in range(draw(st.integers(min_rows, max_rows))):
        row = {}
        for column in columns:
            if column == "n":
                row[column] = draw(st.one_of(st.none(), st.integers(-3, 12)))
            else:
                row[column] = draw(_LAKE_KEYS if column in ("name", "subject") else _LAKE_CELLS)
        rows.append(row)
    return rows


@st.composite
def _lake_table(draw, name):
    from repro.data.table import Column

    extra = draw(st.lists(st.sampled_from(["v", "w", "n"]), unique=True, max_size=2))
    columns = ["name", "k", *extra]
    schema = Schema(tuple(Column(c, "int" if c == "n" else "str") for c in columns))
    return Table(name, schema, draw(_lake_rows(columns)))


@st.composite
def _lake_world(draw):
    """Two tables, a JSON collection and a document collection whose views
    come from ``_ViewExtractor``."""
    # Keys only, so no JSON column is typed int by a digit in its first row.
    records = [
        {"name": row["name"], "props": {"k": row["subject"], "v": row["subject"]}}
        for row in draw(_lake_rows(["name", "subject"], min_rows=1, max_rows=5))
    ]
    views = draw(st.lists(_lake_rows(["subject", "k", "v", "name"]), min_size=1, max_size=3))
    return draw(_lake_table("ta")), draw(_lake_table("tb")), records, views


@st.composite
def _lake_plans(draw):
    """Relational steps, mostly over the latest step so chains (a filter or
    a join over a join) form, then a final step of any kind. A scalar
    (aggregate, lookup) mid-plan is rare and fails the step that reads it."""
    from repro.datalake import Plan

    plan = Plan()
    size = draw(st.integers(1, 7))
    for i in range(size):
        ids = [step.step_id for step in plan.steps]

        def pick():
            return ids[-1] if draw(st.booleans()) else draw(st.sampled_from(ids))

        ops = ["filter", "filter", "sem_filter", "join", "join", "project"]
        if i == size - 1:
            ops += ["aggregate", "aggregate", "lookup"]
        elif draw(st.integers(0, 11)) == 0:
            ops = ["aggregate", "lookup"]
        if not ids or draw(st.integers(0, 3)) == 0:
            ops = ["scan", "scan", "extract"]
        op = draw(st.sampled_from(ops))
        if op == "scan":
            asset = draw(st.sampled_from(["table:ta", "table:tb", "json:js"] * 3 + ["doc:docs"]))
            plan.add("scan", asset_id=asset)
        elif op == "extract":
            attributes = draw(st.lists(st.sampled_from(["k", "v", "name"]), unique=True, max_size=3))
            asset = draw(st.sampled_from(["doc:docs"] * 4 + ["table:ta"]))
            plan.add("extract", asset_id=asset, etype="thing", attributes=attributes)
        elif op == "filter":
            plan.add("filter", inputs=[pick()], field=draw(_LAKE_FIELDS),
                     op=draw(_LAKE_FILTER_OPS), value=draw(_LAKE_LITERALS))
        elif op == "sem_filter":
            plan.add("sem_filter", inputs=[pick()], predicate=draw(_LAKE_SEM_PREDICATES),
                     cascade=draw(st.booleans()))
        elif op == "join":
            plan.add("join", inputs=[pick(), pick()], left_on=draw(_LAKE_JOIN_KEYS),
                     right_on=draw(_LAKE_JOIN_KEYS))
        elif op == "project":
            plan.add("project", inputs=[pick()], columns=draw(st.lists(_LAKE_FIELDS, max_size=3)))
        elif op == "aggregate":
            fn = draw(st.sampled_from(["count", "avg", "sum", "max", "min", "median"]))
            plan.add("aggregate", inputs=[pick()], fn=fn, column=draw(_LAKE_FIELDS))
        else:
            asset = draw(st.sampled_from(["doc:docs"] * 3 + ["table:ta"]))
            plan.add("lookup", asset_id=asset, question="Who makes widgets?")
    return plan


def _lake_value(value):
    """A step output as (name, schema, row tuples), or the scalar itself."""
    if isinstance(value, Table):
        names = value.schema.names()
        return value.name, value.schema, [tuple(row[n] for n in names) for row in value.rows]
    return value


def _lake_outcomes(executor, plan):
    """Every step's output in order, then the answer; an error ends the
    list as its type and message."""
    outcomes, values = [], {}
    try:
        for step in plan.steps:
            values[step.step_id] = executor._run_step(step, values)
            outcomes.append(_lake_value(values[step.step_id]))
        outcomes.append(executor.execute(plan))
    except Exception as exc:  # compared, type and message, with the oracle's
        outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


def _check_lake_plans(world, plans, rebuilds):
    from repro.data.documents import Document
    from repro.datalake import DataLake
    from repro.datalake.executor import PlanExecutor
    from repro.llm import make_llm

    table_a, table_b, records, views = world
    lake = DataLake(None)
    lake.add_table(table_a)
    lake.add_table(table_b)
    if records:
        lake.add_json("js", records)
    lake.add_documents("docs", [
        Document("d0", "Acme", "Acme makes widgets in Ulton."),
        Document("d1", "Bolt", "Bolt was founded in 1990."),
    ])
    executor = PlanExecutor(lake, make_llm(seed=5), extractor=_ViewExtractor(views))
    oracle = _RowDictExecutor(lake, make_llm(seed=5), _ViewExtractor(views))
    for plan, rebuild in zip(plans, rebuilds):
        if rebuild:  # the next extraction of each view draws its next version
            executor._view_cache.clear()
            oracle._view_cache.clear()
        assert _lake_outcomes(executor, plan) == _lake_outcomes(oracle, plan)


@given(_lake_world(), st.lists(_lake_plans(), min_size=1, max_size=3),
       st.lists(st.booleans(), min_size=5, max_size=5))
@seed(20211)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_lake_executor_matches_row_dict_oracle(world, plans, rebuilds):
    """Relations over cached base columns == the frozen row-dict executor:
    every step's rows in order, the answer, and the error type and message.
    The plans run twice, as a workload repeats its questions, with views
    rebuilt in between where drawn."""
    _check_lake_plans(world, plans * 2, [False] + rebuilds)


def _lake_fixture(ta_rows=(), tb_rows=(), records=None, views=((),)):
    from repro.data.table import Column

    schema = Schema((Column("name"), Column("k")))
    records = [{"name": "a", "props": {"k": "a", "v": "a"}}] if records is None else records
    return Table("ta", schema, ta_rows), Table("tb", schema, tb_rows), records, list(views)


def _lake_plan(*steps):
    from repro.datalake import Plan

    plan = Plan()
    for op, inputs, params in steps:
        plan.add(op, inputs=inputs, **params)
    return plan


def test_self_join_keeps_every_duplicate_key_pair():
    # Shrunk from the property against a join index that kept one row per key.
    records = [{"name": "a", "props": {"k": "a", "v": "a"}}] * 2
    plan = _lake_plan(("scan", [], {"asset_id": "json:js"}),
                      ("join", ["s0", "s0"], {"left_on": "name", "right_on": "name"}))
    _check_lake_plans(_lake_fixture(records=records), [plan], [False])


def test_join_walking_the_right_side_keeps_left_major_order():
    # Shrunk from the property against a join that probed the left index
    # from the right rows and kept the pairs in right-major order.
    rows = [{"name": "a", "k": "a"}, {"name": "a", "k": "b"}]
    plan = _lake_plan(("scan", [], {"asset_id": "table:tb"}),
                      ("join", ["s0", "s0"], {"left_on": "name", "right_on": "name"}))
    _check_lake_plans(_lake_fixture(tb_rows=rows), [plan], [False])


def test_rebuilt_view_reads_its_own_index():
    # Shrunk from the property against a rebuilt view that inherited the
    # indexes of the view it replaced: an empty view indexes "name", then
    # its rebuild holds a row the stale index does not know.
    views = [[], [{"subject": "a", "k": "a"}]]
    plan = _lake_plan(("extract", [], {"asset_id": "doc:docs", "etype": "thing", "attributes": ["k"]}),
                      ("filter", ["s0"], {"field": "name", "op": "==", "value": "a"}))
    _check_lake_plans(_lake_fixture(views=views), [plan, plan], [False, True])


# ---------------------------------------------------------- columnar Table
class _RowDictTable:
    """Frozen oracle: ``Table`` as it was before typed columns, every
    operator copying each row into a fresh dict. It differs from that
    ``Table`` where ``Table`` was since fixed: ``where`` rejects an unknown
    op before reading a row, so an empty table raises too (it used to
    return an empty table), and compares a fractional literal on an int
    column as a float (it used to truncate a float and reject a text);
    ``group_by`` with no keys returns one row over zero rows (it returned
    none). ``matching`` is the lake's string filter, ``_string_predicate``,
    on every row."""

    def __init__(self, name, schema, rows=()):
        self.name = name
        self.schema = schema
        self.rows = []
        for row in rows:
            self.rows.append(self._validate(row))

    def _validate(self, row):
        clean = {}
        for col in self.schema.columns:
            clean[col.name] = col.coerce(row.get(col.name))
        return clean

    def insert(self, row):
        self.rows.append(self._validate(row))

    def select(self, predicate):
        out = _RowDictTable(f"{self.name}_sel", self.schema)
        out.rows = [dict(r) for r in self.rows if predicate(r)]
        return out

    def where(self, column, op, value):
        from repro.errors import SchemaError

        col = self.schema.column(column)
        if op not in {"==", "!=", ">", "<", ">=", "<=", "contains"}:
            raise SchemaError(f"unknown operator {op!r}")
        if op != "contains" and not (col.dtype == "int" and isinstance(value, float)):
            try:
                value = col.coerce(value)
            except SchemaError:
                if col.dtype != "int":
                    raise
                try:  # a numeric text that is not an int compares as a float
                    value = float(str(value))
                except ValueError:
                    raise SchemaError(f"cannot coerce {value!r}") from None

        def predicate(row):
            actual = row.get(column)
            if actual is None:
                return False
            if op == "==":
                return actual == value
            if op == "!=":
                return actual != value
            if op == ">":
                return actual > value
            if op == "<":
                return actual < value
            if op == ">=":
                return actual >= value
            if op == "<=":
                return actual <= value
            if op == "contains":
                return str(value).lower() in str(actual).lower()
            raise SchemaError(f"unknown operator {op!r}")

        return self.select(predicate)

    def project(self, columns):
        cols = tuple(self.schema.column(c) for c in columns)
        out = _RowDictTable(f"{self.name}_proj", Schema(cols))
        out.rows = [{c: row[c] for c in columns} for row in self.rows]
        return out

    def join(self, other, *, left_on, right_on, how="inner"):
        from repro.data.table import Column
        from repro.errors import SchemaError

        self.schema.column(left_on)
        other.schema.column(right_on)
        if how not in {"inner", "left"}:
            raise SchemaError(f"unsupported join type {how!r}")
        left_names = set(self.schema.names())
        renamed = {
            c.name: (f"{other.name}.{c.name}" if c.name in left_names else c.name)
            for c in other.schema.columns
        }
        out_cols = tuple(self.schema.columns) + tuple(
            Column(renamed[c.name], c.dtype) for c in other.schema.columns
        )
        out = _RowDictTable(f"{self.name}_{other.name}", Schema(out_cols))
        build = {}
        for row in other.rows:
            build.setdefault(row.get(right_on), []).append(row)
        for row in self.rows:
            matches = build.get(row.get(left_on), [])
            if matches:
                for match in matches:
                    merged = dict(row)
                    for key, value in match.items():
                        merged[renamed[key]] = value
                    out.rows.append(merged)
            elif how == "left":
                merged = dict(row)
                for key in renamed.values():
                    merged[key] = None
                out.rows.append(merged)
        return out

    def group_by(self, keys, aggregates):
        from repro.data.table import _AGGREGATES, Column
        from repro.errors import SchemaError

        for key in keys:
            self.schema.column(key)
        for out_name, (fn, col) in aggregates.items():
            if fn not in _AGGREGATES:
                raise SchemaError(f"unknown aggregate {fn!r}")
            if fn != "count":
                self.schema.column(col)
        groups = {}
        for row in self.rows:
            groups.setdefault(tuple(row.get(k) for k in keys), []).append(row)
        if not keys and not self.rows:
            groups[()] = []
        out_cols = [self.schema.column(k) for k in keys]
        for out_name, (fn, _col) in aggregates.items():
            dtype = "int" if fn == "count" else "float"
            out_cols.append(Column(out_name, dtype))
        out = _RowDictTable(f"{self.name}_agg", Schema(tuple(out_cols)))
        for key_values, rows in sorted(groups.items(), key=lambda kv: str(kv[0])):
            agg_row = dict(zip(keys, key_values))
            for out_name, (fn, col) in aggregates.items():
                if fn == "count":
                    agg_row[out_name] = len(rows)
                else:
                    values = [r[col] for r in rows if r.get(col) is not None]
                    try:
                        result = _AGGREGATES[fn](values)
                        agg_row[out_name] = float(result) if result is not None else None
                    except (TypeError, ValueError) as exc:
                        raise SchemaError(f"aggregate {fn!r} needs numeric column {col!r}") from exc
            out.rows.append(out._validate(agg_row))
        return out

    def matching(self, name, op, literal):
        self.schema.column(name)
        predicate = _string_predicate(name, op, literal)
        return [p for p, row in enumerate(self.rows) if predicate(row)]

    def order_by(self, column, *, desc=False):
        self.schema.column(column)
        out = _RowDictTable(self.name, self.schema)
        out.rows = sorted(
            (dict(r) for r in self.rows),
            key=lambda r: (r.get(column) is None, r.get(column)),
            reverse=desc,
        )
        return out

    def limit(self, n):
        out = _RowDictTable(self.name, self.schema)
        out.rows = [dict(r) for r in self.rows[: max(n, 0)]]
        return out

    def distinct(self):
        out = _RowDictTable(self.name, self.schema)
        seen = set()
        for row in self.rows:
            key = tuple(sorted(row.items()))
            if key not in seen:
                seen.add(key)
                out.rows.append(dict(row))
        return out

    def __len__(self):
        return len(self.rows)


_TABLE_DTYPES = ("int", "float", "str", "bool")
# "r.a" on the left collides with the prefixed name of a right column "a".
_TABLE_COLUMNS = st.sampled_from(["a", "b", "k", "k", "r.a"])
_TABLE_CELLS = {
    "int": st.one_of(st.none(), st.integers(-3, 3)),
    "float": st.one_of(st.none(), st.sampled_from([-1.5, 0.0, 1.0, 2.5, float("nan")])),
    "str": st.one_of(st.none(), st.sampled_from(["", "a", "A ", "b", "1", "2.5"])),
    "bool": st.one_of(st.none(), st.booleans()),
}
# Literals for where and insert: each coerces to some dtypes and not others.
_TABLE_VALUES = st.one_of(
    st.none(), st.integers(-3, 3), st.booleans(),
    st.sampled_from([1.0, 2.5, "1", "2.5", "a", "yes", "x"]),
)
# Literals of the lake's string filter (``matching``): text, numeric text, NaN.
_TABLE_LITERALS = st.sampled_from(["", "a", "A ", "b", "1", "2.5", "-1.5", "0", "nan", "true"])
_TABLE_FIELDS = st.sampled_from(["a", "b", "k", "k", "r.a", "nope"])


@st.composite
def _typed_table(draw):
    from repro.data.table import Column

    names = draw(st.lists(_TABLE_COLUMNS, min_size=1, max_size=4, unique=True))
    dtypes = [draw(st.sampled_from(_TABLE_DTYPES)) for _ in names]
    rows = [
        {n: draw(_TABLE_CELLS[d]) for n, d in zip(names, dtypes)}
        for _ in range(draw(st.integers(0, 6)))
    ]
    return Schema(tuple(Column(n, d) for n, d in zip(names, dtypes))), rows


@st.composite
def _table_ops(draw):
    """One call as (method, input view, args, kwargs). The input is any
    earlier view, so an insert often lands on a table a view was taken
    from; a join's right side is the "r" table (None) or an earlier view."""
    kind = draw(st.sampled_from(
        ["where"] * 3 + ["matching"] * 3 + ["project", "join", "join", "group_by", "order_by",
                                            "limit", "distinct", "insert", "insert"]
    ))
    at, args, kwargs = draw(st.integers(0, 9)), (), {}
    if kind in ("where", "matching"):
        op = draw(st.sampled_from(["==", "!=", ">", "<", ">=", "<=", "contains", "~~"]))
        literal = _TABLE_VALUES if kind == "where" else _TABLE_LITERALS
        args = (draw(_TABLE_FIELDS), op, draw(literal))
        if kind == "matching":  # mostly the newest view, which is most often a narrowed one
            at = draw(st.sampled_from([-1, -1, at]))
    elif kind == "project":
        args = (draw(st.lists(_TABLE_FIELDS, max_size=3)),)
    elif kind == "join":
        args = (draw(st.one_of(st.none(), st.integers(0, 9))),)
        kwargs = {"left_on": draw(_TABLE_FIELDS), "right_on": draw(_TABLE_FIELDS),
                  "how": draw(st.sampled_from(["inner", "inner", "left", "outer"]))}
    elif kind == "group_by":
        functions = st.sampled_from(["count", "sum", "avg", "min", "max", "median"])
        aggregates = {f"g{i}": (draw(functions), draw(_TABLE_FIELDS))
                      for i in range(draw(st.integers(0, 2)))}
        args = (draw(st.lists(_TABLE_FIELDS, max_size=2)), aggregates)
    elif kind == "order_by":
        args, kwargs = (draw(_TABLE_FIELDS),), {"desc": draw(st.booleans())}
    elif kind == "limit":
        args = (draw(st.integers(-1, 5)),)
    elif kind == "insert":
        args = ({n: draw(_TABLE_VALUES) for n in draw(st.lists(_TABLE_FIELDS, max_size=4))},)
    return kind, at, args, kwargs


def _table_state(table):
    """Name, schema and rows; ``repr`` tells 1, 1.0 and True apart."""
    return table.name, table.schema, repr(table.rows)


def _check_table_ops(left, right, ops):
    """Each op on both engines: the same table or the same error type, and
    after every op each earlier view still equal to the oracle's copy."""
    (left_schema, left_rows), (right_schema, right_rows) = left, right
    views = [(Table("l", left_schema, left_rows), _RowDictTable("l", left_schema, left_rows))]
    others = (Table("r", right_schema, right_rows), _RowDictTable("r", right_schema, right_rows))
    for kind, at, args, kwargs in ops:
        outcomes = []
        for side, table in enumerate(views[at % len(views)]):
            call = args
            if kind == "join":
                right = others if args[0] is None else views[args[0] % len(views)]
                call = (right[side],)
            try:
                outcomes.append(getattr(table, kind)(*call, **kwargs))
            except Exception as exc:  # compared by type with the oracle's
                outcomes.append(type(exc).__name__)
        got, want = outcomes
        if isinstance(got, (str, list)) or isinstance(want, (str, list)):
            assert got == want  # an error type, or matching's row numbers
        elif kind != "insert":
            views.append((got, want))
        for got, want in views:
            assert _table_state(got) == _table_state(want)


@given(_typed_table(), _typed_table(), st.lists(_table_ops(), min_size=1, max_size=8))
@seed(20253)
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_columnar_table_matches_row_dict_oracle(left, right, ops):
    """Views over typed columns == the frozen row-dict ``Table``: names,
    schemas and rows after every op, the same error type, and no view
    taken before an insert sees its row."""
    _check_table_ops(left, right, ops)


# Each fixed case below is a shrunk counterexample of the property against
# a mutated Table.
def test_self_join_on_missing_keys_keeps_left_major_order():
    # A join walking the right side that kept its pairs in right-major order.
    table = (Schema.of(a="int", b="int"), [{"a": None, "b": None}, {"a": None, "b": 0}])
    _check_table_ops(table, table, [("join", 0, (0,), {"left_on": "a", "right_on": "a", "how": "inner"})])


def test_order_by_puts_missing_cells_last():
    # An order_by that sorted missing cells first.
    table = (Schema.of(a="int"), [{"a": None}, {"a": 0}])
    _check_table_ops(table, table, [("order_by", 0, ("a",), {"desc": False})])


def test_insert_into_a_view_leaves_its_input_alone():
    # An insert that appended to the column it shares with its input.
    table = (Schema.of(a="int"), [{"a": 0}])
    _check_table_ops(table, table, [("where", 0, ("a", "==", None), {}), ("insert", 1, ({},), {})])


def test_left_join_keeps_an_unmatched_row():
    # A left join that dropped left rows without a match.
    left = (Schema.of(a="int", k="int"), [{"a": None, "k": None}])
    right = (Schema.of(k="int"), [])
    _check_table_ops(left, right, [("join", 0, (None,), {"left_on": "a", "right_on": "k", "how": "left"})])


def test_unknown_where_op_raises_on_an_empty_table():
    # A where that checked its op per row.
    table = (Schema.of(a="int"), [])
    _check_table_ops(table, table, [("where", 0, ("a", "~~", None), {})])


def test_matching_never_matches_a_missing_cell():
    # An order filter whose float array read a missing cell as 0.0.
    table = (Schema.of(k="int"), [{"k": None}])
    _check_table_ops(table, table, [("matching", 0, ("k", ">", "-1.5"), {})])


def test_matching_reads_a_join_view_through_its_selection():
    # An order filter that read the stored column instead of the view's rows.
    left = (Schema.of(b="int"), [])
    right = (Schema.of(a="int"), [{"a": 0}])
    ops = [("join", 0, (None,), {"left_on": "b", "right_on": "a", "how": "inner"}),
           ("matching", -1, ("a", "<", "1"), {})]
    _check_table_ops(left, right, ops)
