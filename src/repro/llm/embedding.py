"""Deterministic text-embedding model.

Embeds text as an IDF-weighted sum of per-token random Gaussian vectors,
where each token's vector is seeded by a stable hash of the token string.
This reproduces the property dense retrieval depends on — lexically and
topically similar texts land near each other in cosine space — without any
learned weights or network access.

Two refinements close the gap to learned embedders:

* **stem smoothing** — each token also contributes the vector of its first
  ``stem_len`` characters at reduced weight, so morphological variants
  ("configure" / "configuration") are close; and
* **bigram mixing** — adjacent-token bigrams contribute at reduced weight so
  word order matters slightly (distinguishing "flight from Berlin to Rome"
  from "flight from Rome to Berlin").

Each model keeps a bounded **memo** of the rows it has embedded, so a text
that recurs (a rendered document re-filtered on every pipeline run, a topic
compared against every row) is embedded once per IDF snapshot:

* **key** — the text alone; the memo is valid for the IDF weights that
  ``_idf`` currently reads;
* **invalidation** — :meth:`EmbeddingModel.fit_idf` clears it while nothing
  is pinned, and :meth:`EmbeddingModel.refresh` clears it when it re-pins.
  Once pinned, :meth:`EmbeddingModel.partial_fit_idf` moves only live stats
  (and its first call pins the stats as they stand), so the memo stays;
* **bound** — at most ``MEMO_ROWS`` rows, evicted first in, first out;
* **layout** — ``_memo`` maps a text to its row of one float32 array that
  doubles as the memo fills, up to ``MEMO_ROWS`` rows; an evicted text's
  row is reused, so ``embed_batch`` reads all its hits in one gather;
* **copies** — memo rows are never handed out: ``embed`` and
  ``embed_batch`` return fresh arrays, so a caller that writes into its
  result cannot change what the next call returns;
* **generation** — every clear bumps ``generation``, so a reader that kept
  something derived from embeddings (the model's reply memo) knows the
  space moved.

Token, stem and bigram vectors ("keys") live in a bounded **key store**:

* **purity** — a key's vector is a pure function of ``(seed, dim, key)``:
  the first ``standard_normal(dim)`` draw of
  ``default_rng(stable_hash(f"emb:{seed}:{key}"))``, cast to float32 and
  normalized. Evicting a key can only cost its recomputation, never change
  an output;
* **layout** — ``_keys`` maps a key to its row of one float32 slab of
  ``KEY_ROWS`` rows, mapped once at the first stored key (its pages become
  resident as rows are written, so the store never copies itself to grow);
  rows are reused first in, first out;
* **reads** — the batch kernel gathers a call's rows into a fresh table
  before it stores the misses, and the per-text kernel adds each row as it
  reads it, so a call with more distinct keys than the slab holds still
  reads every row it needs; slab rows are never handed out;
* **misses** — the batch kernel builds its misses through
  :meth:`EmbeddingModel._key_vectors`, up to ``SEED_CHUNK_KEYS`` at a time.
  From ``SEED_PASS_MIN_KEYS`` misses on, that computes every key's
  ``SeedSequence`` state in uint32 array arithmetic and re-seeds the
  model's one PCG64 generator per key with the state seeding would give;
  below that, and in the per-text kernel, each key gets its own
  ``default_rng``.
"""

from __future__ import annotations

import math
import mmap
import numbers
from collections import Counter
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, TokenizerError
from ..utils import normalize
from .tokenizer import Tokenizer, default_tokenizer

#: Rows the per-model embedding memo holds before evicting the oldest.
MEMO_ROWS = 4096
#: Rows of the per-model key store; the oldest key's row is reused first.
KEY_ROWS = 65_536
#: Misses from which :meth:`EmbeddingModel._key_vectors` seeds them in one
#: vectorized pass. The pass has a fixed cost of about 100 µs and then costs
#: about 7 µs a key, against about 22 µs a key for one ``default_rng`` each.
SEED_PASS_MIN_KEYS = 8
#: Misses one pass seeds at most, bounding its float64 draws (1 MB at dim 128).
SEED_CHUNK_KEYS = 1024

# numpy's SeedSequence: a pool of 4 uint32 words mixed by ``hashmix`` and
# ``mix`` with these constants, then ``generate_state`` hashes the pool out.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
# PCG64 (128-bit LCG) multiplier, and the pool's source word per state word.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_POOL_CYCLE = [0, 1, 2, 3, 0, 1, 2, 3]


def _hash_constants(init: int, mult: int, calls: int) -> Tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``calls`` successive hash calls: each
    xors the running constant in, advances it by ``mult``, then multiplies."""
    xors, mults = [], []
    const = init
    for _ in range(calls):
        xors.append(const)
        const = const * mult & 0xFFFFFFFF
        mults.append(const)
    return np.array(xors, dtype=np.uint32), np.array(mults, dtype=np.uint32)


# 4 calls fill the pool, 12 mix every word into every other one.
_POOL_XOR, _POOL_MULT = _hash_constants(_INIT_A, _MULT_A, 16)
_STATE_XOR, _STATE_MULT = _hash_constants(_INIT_B, _MULT_B, 8)


def _idf_of(df: np.ndarray, num_docs: int) -> np.ndarray:
    """``math.log((1 + num_docs) / (1 + d)) + 1.0`` for every count ``d`` in
    ``df``: one ``math.log`` per distinct count, read back through a table."""
    distinct = np.flatnonzero(np.bincount(df)).tolist()
    table = np.zeros(distinct[-1] + 1, dtype=np.float64)
    table[distinct] = [math.log((1 + num_docs) / (1 + d)) + 1.0 for d in distinct]
    return table[df]


def _hashmix(values: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    values = values ^ xors
    values *= mults
    values ^= values >> _SHIFT
    return values


def _seed_states(seeds: Sequence[int]) -> List[Tuple[int, int]]:
    """The PCG64 ``(state, inc)`` that ``default_rng(s)`` starts from, for
    every ``s`` in ``seeds`` (each in ``[0, 2**64)``).

    Bitwise numpy's seeding: ``SeedSequence(s).generate_state(4, uint64)``
    computed for all seeds at once in uint32 array arithmetic (a seed is two
    little-endian words; a seed under 2**32 is one, and numpy pads the pool
    with the hash of 0, which is what a zero high word hashes to), then
    PCG64's ``srandom`` on those four words in Python integers.
    """
    seeds64 = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((len(seeds64), 4), dtype=np.uint32)
    pool[:, 0] = seeds64 & np.uint64(0xFFFFFFFF)
    pool[:, 1] = seeds64 >> np.uint64(32)
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MULT[:4])
    call = 4
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        hashed = _hashmix(pool[:, src : src + 1], _POOL_XOR[call : call + 3],
                          _POOL_MULT[call : call + 3])
        call += 3
        mixed = _MIX_L * pool[:, dst] - _MIX_R * hashed
        mixed ^= mixed >> _SHIFT
        pool[:, dst] = mixed
    words = _hashmix(pool[:, _POOL_CYCLE], _STATE_XOR, _STATE_MULT).astype(np.uint64)
    words = words[:, 0::2] | words[:, 1::2] << np.uint64(32)
    states = []
    for high, low, inc_high, inc_low in words.tolist():
        inc = (inc_high << 65 | inc_low << 1 | 1) & _MASK128
        states.append((((high << 64 | low) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return states


@dataclass
class EmbeddingModel:
    """Hash-seeded random-projection embedder.

    Parameters
    ----------
    dim:
        Embedding dimensionality.
    seed:
        Model identity: two models with the same seed embed identically,
        models with different seeds define incompatible spaces (as with real
        embedding model families).
    stem_len / stem_weight:
        Prefix-stem smoothing (0 weight disables).
    bigram_weight:
        Adjacent-bigram contribution (0 disables).

    ``embed`` and ``embed_batch`` share one memo from text to a row of
    ``_memo_rows``, valid for the current IDF snapshot: ``fit_idf`` clears it while
    unpinned, ``refresh`` clears it when it re-pins, and pinned
    ``partial_fit_idf`` leaves it alone. It holds at most ``MEMO_ROWS``
    rows (FIFO) and both methods return copies, never memo rows. Each clear
    bumps ``generation``. Key vectors live in a store of at most
    ``KEY_ROWS`` rows (see the module docstring).
    """

    dim: int = 128
    seed: int = 0
    stem_len: int = 5
    stem_weight: float = 0.4
    bigram_weight: float = 0.25
    tokenizer: Tokenizer = field(default_factory=default_tokenizer)
    # Key store: key -> row of ``_slab``; ``_owners[row]`` is the key in it.
    _keys: Dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    _slab: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _owners: List[str] = field(default_factory=list, repr=False, compare=False)
    _stored: int = field(default=0, repr=False, compare=False)
    _rng: Optional[np.random.Generator] = field(default=None, repr=False, compare=False)
    _doc_freq: Dict[str, int] = field(default_factory=dict, repr=False)
    _num_docs: int = field(default=0, repr=False)
    # Streaming IDF state (see partial_fit_idf): once pinned, embeddings are
    # computed from the frozen snapshot while live stats keep accumulating.
    _pinned_doc_freq: Optional[Dict[str, int]] = field(default=None, repr=False)
    _pinned_num_docs: int = field(default=0, repr=False)
    _stale_docs: int = field(default=0, repr=False)
    # Memo: text -> row of ``_memo_rows``, which doubles up to ``MEMO_ROWS``;
    # ``_memo_views[row]`` is that row's view, so a hit in ``embed`` copies
    # it without indexing the array.
    _memo: Dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    _memo_rows: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _memo_views: List[np.ndarray] = field(default_factory=list, repr=False, compare=False)
    generation: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.dim, numbers.Integral):
            raise ConfigError(f"embedding dim must be an integer, got {self.dim!r}")
        if self.dim < 8:
            raise ConfigError(f"embedding dim too small: {self.dim}")

    # ------------------------------------------------------------------ IDF
    def fit_idf(self, corpus: Iterable[str]) -> "EmbeddingModel":
        """Fit inverse-document-frequency weights on ``corpus``.

        Optional; without it all tokens are weighted equally. Returns self
        for chaining. One tokenizer pass over the corpus; per-document
        distinct tokens are tallied with a single ``Counter`` merge.
        """
        if self._pinned_doc_freq is None:
            self._new_snapshot()  # unpinned: these stats are the IDF weights
        token_lists = self.tokenizer.content_tokens_many(list(corpus))
        self._num_docs += len(token_lists)
        counts: Counter = Counter()
        for tokens in token_lists:
            counts.update(set(tokens))
        doc_freq = self._doc_freq
        for token, count in counts.items():
            doc_freq[token] = doc_freq.get(token, 0) + count
        return self

    def partial_fit_idf(self, new_corpus: Iterable[str]) -> "EmbeddingModel":
        """Fold a streaming batch's document frequencies into the live stats.

        The first call *pins* the current statistics: from then on
        :meth:`_idf` (and therefore every embed) reads the pinned snapshot,
        so vectors already sitting in an index and fresh query vectors stay
        in the same space no matter how much the live stats drift. Live
        stats keep accumulating; :meth:`idf_drift` measures how far they
        have moved and :meth:`refresh` re-pins when the caller is ready to
        re-embed. Returns self for chaining.
        """
        if self._pinned_doc_freq is None:
            self._pinned_doc_freq = dict(self._doc_freq)
            self._pinned_num_docs = self._num_docs
        before = self._num_docs
        self.fit_idf(new_corpus)
        self._stale_docs += self._num_docs - before
        return self

    @property
    def stale_docs(self) -> int:
        """Documents folded into live stats since the last pin/refresh."""
        return self._stale_docs

    def idf_drift(self) -> float:
        """Live-vs-pinned IDF divergence, weighted by live document frequency.

        ``sum_t df_live(t) * |idf_live(t) - idf_pinned(t)|`` normalized by
        ``sum_t df_live(t) * idf_live(t)`` — the relative L1 shift of the
        IDF mass an embedding actually uses (frequency-weighting keeps rare
        hapax tokens from dominating). 0.0 when nothing is pinned or no
        documents have been folded in since pinning.
        """
        if self._pinned_doc_freq is None or not self._stale_docs:
            return 0.0
        live = self._doc_freq
        if not live:
            return 0.0
        df = np.fromiter(live.values(), dtype=np.int64, count=len(live))
        idf_live = _idf_of(df, self._num_docs)
        pin_n = self._pinned_num_docs
        if pin_n:
            # A pin copies the live dict, and live stats only raise counts or
            # append keys, so the pinned keys are the live dict's first ones.
            pinned = self._pinned_doc_freq
            pin_df = np.zeros(len(df), dtype=np.int64)
            pin_df[: len(pinned)] = np.fromiter(pinned.values(), dtype=np.int64, count=len(pinned))
            idf_pin = _idf_of(pin_df, pin_n)
        else:
            idf_pin = np.ones(len(df), dtype=np.float64)
        # cumsum adds strictly in order, as a running ``+=`` does (sum would
        # add pairwise); int64 * float64 converts the count as float() would.
        num = float(np.cumsum(df * np.abs(idf_live - idf_pin))[-1])
        den = float(np.cumsum(df * idf_live)[-1])
        return num / den if den else 0.0

    def refresh(self, threshold: float = 0.05) -> bool:
        """Re-pin the live stats iff drift exceeds ``threshold``.

        Returns True when the pin moved — the caller's signal that vectors
        embedded under the old pin are stale and must be re-embedded (the
        embedding space changed). Returns False (and changes nothing) while
        drift stays within tolerance.
        """
        if not threshold >= 0:  # also refuses NaN, which compares False
            raise ConfigError(f"refresh threshold must be >= 0, got {threshold}")
        if self._pinned_doc_freq is None or self.idf_drift() <= threshold:
            return False
        self._pinned_doc_freq = dict(self._doc_freq)
        self._pinned_num_docs = self._num_docs
        self._stale_docs = 0
        self._new_snapshot()
        return True

    def _new_snapshot(self) -> None:
        """The IDF weights moved: drop the memo and bump ``generation``."""
        self._memo.clear()
        self.generation += 1

    def _idf(self, token: str) -> float:
        if self._pinned_doc_freq is not None:
            if not self._pinned_num_docs:
                return 1.0
            df = self._pinned_doc_freq.get(token, 0)
            return math.log((1 + self._pinned_num_docs) / (1 + df)) + 1.0
        if not self._num_docs:
            return 1.0
        df = self._doc_freq.get(token, 0)
        return math.log((1 + self._num_docs) / (1 + df)) + 1.0

    # -------------------------------------------------------------- vectors
    @staticmethod
    def _generator(seed: int) -> np.random.Generator:
        # repro-lint: disable=R008 — seeded, content-addressed stream whose
        # identity is pinned by the frozen prep-parity baseline
        # (tests/test_prep_batch.py); rederiving via derive_rng would shift
        # every committed embedding-dependent golden
        return np.random.default_rng(seed)

    def _key_vectors(self, keys: Sequence[str]) -> np.ndarray:
        """Fresh ``(len(keys), dim)`` float32 unit vectors of ``keys``."""
        # stable_hash(f"emb:{seed}:{key}"), its prefix hashed once per call.
        prefix = blake2b(f"emb:{self.seed}:".encode("utf-8"), digest_size=8)
        seeds = []
        for key in keys:
            digest = prefix.copy()
            digest.update(key.encode("utf-8"))
            seeds.append(int.from_bytes(digest.digest(), "big"))
        return self._seed_vectors(seeds)

    def _seed_vectors(self, seeds: Sequence[int]) -> np.ndarray:
        """Row ``i`` is the first ``standard_normal(dim)`` draw of
        ``default_rng(seeds[i])``, cast to float32 and divided by its
        ``np.linalg.norm``.

        From ``SEED_PASS_MIN_KEYS`` seeds on, the generators' starting states
        come from one :func:`_seed_states` pass and the model's one generator
        draws every row; below that, each seed builds its own generator.
        """
        if len(seeds) < SEED_PASS_MIN_KEYS:
            vectors = np.empty((len(seeds), self.dim), dtype=np.float32)
            for row, seed in zip(vectors, seeds):
                row[:] = self._generator(seed).standard_normal(self.dim)
                row /= np.linalg.norm(row)
            return vectors
        if self._rng is None:
            self._rng = self._generator(0)
        rng = self._rng
        bit_generator = rng.bit_generator
        state = bit_generator.state
        state["has_uint32"] = state["uinteger"] = 0  # as seeding leaves them
        pcg = state["state"]
        draws = np.empty((len(seeds), self.dim), dtype=np.float64)
        for row, (start, inc) in zip(draws, _seed_states(seeds)):
            pcg["state"] = start
            pcg["inc"] = inc
            bit_generator.state = state
            rng.standard_normal(out=row)
        vectors = draws.astype(np.float32)
        # np.linalg.norm of a float32 vector is sqrt(v.dot(v)) in float32.
        norms = np.sqrt(np.array([row.dot(row) for row in vectors], dtype=np.float32))
        vectors /= norms[:, None]
        return vectors

    def _unit_vector(self, key: str) -> np.ndarray:
        """``key``'s vector for immediate use: its slab row, or on a miss a
        fresh vector (then stored), so a later eviction cannot reach it."""
        slot = self._keys.get(key)
        if slot is not None:
            return self._slab[slot]  # type: ignore[index]
        vec = self._key_vectors([key])[0]
        self._slab_rows()[self._claim([key])] = vec
        return vec

    def _key_rows(self, keys: List[str]) -> np.ndarray:
        """Fresh ``(len(keys), dim)`` unit vectors of the distinct ``keys``.

        Stored keys are gathered from the slab; the misses are built
        ``SEED_CHUNK_KEYS`` at a time (bounding the float64 draws) and each
        chunk is stored after it is copied out, so storing cannot overwrite
        a row this call still reads.
        """
        stored = self._keys
        slots = [stored.get(key, -1) for key in keys]
        missing = [i for i, slot in enumerate(slots) if slot < 0]
        slab = self._slab
        if slab is None:
            rows = np.empty((len(keys), self.dim), dtype=np.float32)
        else:  # a miss reads row 0 (always written) until it is filled below
            rows = slab[np.maximum(slots, 0) if missing else slots]
        for lo in range(0, len(missing), SEED_CHUNK_KEYS):
            chunk = missing[lo : lo + SEED_CHUNK_KEYS]
            new_keys = [keys[i] for i in chunk]
            vectors = self._key_vectors(new_keys)
            rows[chunk] = vectors
            slab = self._slab_rows()
            # Past the slab's rows the chunk's later keys would evict its
            # earlier ones: store the last rows only, each row written once.
            keep = min(len(new_keys), len(slab))
            slab[self._claim(new_keys[-keep:])] = vectors[-keep:]
        return rows

    def _slab_rows(self) -> np.ndarray:
        """The slab, mapped at the first stored key: a private anonymous
        mapping whose 4 KB pages become resident as rows are written (numpy
        would advise huge pages at this size)."""
        if self._slab is None:
            buffer = mmap.mmap(-1, KEY_ROWS * self.dim * 4, flags=mmap.MAP_PRIVATE)
            self._slab = np.frombuffer(buffer, dtype=np.float32).reshape(KEY_ROWS, self.dim)
        return self._slab

    def _claim(self, keys: List[str]) -> List[int]:
        """Slab rows for ``keys`` (distinct, not stored yet, no more than the
        slab's rows), in order: the next free rows, then, once the slab is
        full, the rows of the oldest stored keys, evicted."""
        rows = len(self._slab_rows())
        start = self._stored
        slots = [slot % rows for slot in range(start, start + len(keys))]
        free = min(max(rows - start, 0), len(keys))
        owners, stored = self._owners, self._keys
        owners.extend(keys[:free])
        for slot, key in zip(slots[free:], keys[free:]):
            del stored[owners[slot]]
            owners[slot] = key
        stored.update(zip(keys, slots))
        self._stored += len(keys)
        return slots

    def _remember(self, text: str, row: np.ndarray) -> None:
        """Copy ``row`` into the memo under ``text``: into the next free memo
        row, or, when the memo is full, into the oldest text's row."""
        memo = self._memo
        slot = len(memo)
        if slot >= MEMO_ROWS:
            slot = memo.pop(next(iter(memo)))
        rows = self._memo_rows
        if rows is None or slot >= len(rows):
            grown = np.empty((min(max(2 * slot, 64), MEMO_ROWS), self.dim), dtype=np.float32)
            if rows is not None:
                grown[: len(rows)] = rows
            self._memo_rows = rows = grown
            self._memo_views = list(grown)
        rows[slot] = row
        memo[text] = slot

    def embed(self, text: str) -> np.ndarray:
        """Embed ``text`` into a unit-norm float32 vector (a fresh copy).

        A ``text`` that is not a ``str`` raises
        :class:`~repro.errors.TokenizerError` and changes nothing.
        """
        if not isinstance(text, str):
            raise TokenizerError(f"embed needs a str text, got {type(text).__name__}")
        slot = self._memo.get(text)
        if slot is not None:
            return self._memo_views[slot].copy()
        row = self._embed_one(text)
        self._remember(text, row)
        return row

    def _embed_one(self, text: str) -> np.ndarray:
        """The per-text kernel, bypassing the memo."""
        tokens = self.tokenizer.content_tokens(text)
        acc = np.zeros(self.dim, dtype=np.float32)
        if not tokens:
            return self._unit_vector("<empty>").copy()
        for token in tokens:
            weight = self._idf(token)
            acc += weight * self._unit_vector(token)
            if self.stem_weight > 0 and len(token) > self.stem_len:
                acc += weight * self.stem_weight * self._unit_vector(token[: self.stem_len])
        if self.bigram_weight > 0:
            for left, right in zip(tokens, tokens[1:]):
                acc += self.bigram_weight * self._unit_vector(f"{left}##{right}")
        return normalize(acc).astype(np.float32)

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed many texts; returns a fresh ``(n, dim)`` float32 matrix.

        Bit-identical to stacking per-text :meth:`embed` calls, so rows
        either path put in the memo serve both. Memo hits are read in one
        gather of their memo rows; the distinct misses, in first-occurrence
        order, go through one batched kernel pass (:meth:`_embed_rows`). An
        item that is not a ``str`` raises
        :class:`~repro.errors.TokenizerError` before anything is embedded or
        stored.
        """
        memo = self._memo
        try:  # every text a hit: one gather
            slots = np.fromiter(map(memo.__getitem__, texts), np.intp, len(texts))
        except (KeyError, TypeError):  # a miss, or an unhashable item
            pass
        else:
            if self._memo_rows is None:
                return np.empty((0, self.dim), dtype=np.float32)
            return self._memo_rows[slots]
        try:  # the memo holds str keys only, so every non-str item misses it
            missing = list(dict.fromkeys(text for text in texts if text not in memo))
        except TypeError:  # an unhashable item
            missing = [text for text in texts if not isinstance(text, str)]
        for text in missing:
            if not isinstance(text, str):
                raise TokenizerError(
                    f"embed_batch needs str texts, got {type(text).__name__}"
                )
        fresh = self._embed_rows(missing)
        position = {text: i for i, text in enumerate(missing)}
        out = np.empty((len(texts), self.dim), dtype=np.float32)
        miss = [i for i, text in enumerate(texts) if text in position]
        out[miss] = fresh[[position[texts[i]] for i in miss]]
        hit = [i for i, text in enumerate(texts) if text not in position]
        if hit:  # read before the misses are stored, which may evict them
            out[hit] = self._memo_rows[[memo[texts[i]] for i in hit]]  # type: ignore[index]
        for text, row in zip(missing, fresh):
            self._remember(text, row)
        return out

    def _embed_rows(self, texts: List[str]) -> np.ndarray:
        """The batched kernel over a non-empty ``texts``, bypassing the memo.

        One tokenizer pass, one IDF lookup per distinct token, one
        :meth:`_key_rows` gather of the distinct keys, and the accumulation
        runs as column-slab adds over texts sorted by contribution count.
        Each text's contributions are applied in the same order as
        :meth:`_embed_one` (rows are independent, and float32 elementwise
        ops do not reassociate across rows), so every intermediate rounding
        step matches the sequential path exactly.
        """
        key_ids, ids, weights, counts = self._contributions(texts)
        table = self._key_rows(list(key_ids))
        n = len(texts)
        order = np.argsort(-counts, kind="stable")
        sorted_counts = counts[order]
        offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        sorted_offsets = offsets[order]
        acc = np.zeros((n, self.dim), dtype=np.float32)
        max_contribs = int(sorted_counts[0]) if n else 0
        active = n
        for step in range(max_contribs):
            # Texts are sorted by contribution count, so the rows still
            # needing a step-th add form a shrinking prefix.
            while active > 0 and sorted_counts[active - 1] <= step:
                active -= 1
            if active == 0:
                break
            src = sorted_offsets[:active] + step
            acc[:active] += weights[src][:, None] * table[ids[src]]
        out = np.empty((n, self.dim), dtype=np.float32)
        out[order] = acc
        for i, count in enumerate(counts.tolist()):
            out[i] = normalize(out[i]).astype(np.float32) if count else table[key_ids["<empty>"]]
        return out

    def _contributions(
        self, texts: List[str]
    ) -> Tuple[Dict[str, int], np.ndarray, np.ndarray, np.ndarray]:
        """Every text's key contributions, flat, in :meth:`_embed_one`'s order.

        Returns ``(key_ids, ids, weights, counts)``: key ids in first-use
        order, each contribution's key id and weight, and each text's count
        (0 for a text without tokens, whose row is the ``"<empty>"`` key's).
        A call of its own, so its token lists are freed before the key rows
        are gathered (a refresh re-embed's peak memory).
        """
        key_ids: Dict[str, int] = {}
        key_of = key_ids.setdefault
        # A token's key ids and weights (its own, then its stem's), built at
        # its first occurrence, so ids are numbered in first-use order.
        token_terms: Dict[str, Tuple[List[int], List[float]]] = {}
        stem_weight = self.stem_weight
        stem_len = self.stem_len
        bigram_weight = self.bigram_weight
        flat_ids: List[int] = []
        flat_weights: List[float] = []
        add_ids = flat_ids.extend
        add_weights = flat_weights.extend
        counts = np.empty(len(texts), dtype=np.int64)
        for t, tokens in enumerate(self.tokenizer.content_tokens_many(texts)):
            if not tokens:
                key_of("<empty>", len(key_ids))
            start = len(flat_ids)
            for token in tokens:
                terms = token_terms.get(token)
                if terms is None:
                    weight = self._idf(token)
                    terms = token_terms[token] = ([key_of(token, len(key_ids))], [weight])
                    if stem_weight > 0 and len(token) > stem_len:
                        terms[0].append(key_of(token[:stem_len], len(key_ids)))
                        terms[1].append(weight * stem_weight)
                add_ids(terms[0])
                add_weights(terms[1])
            if bigram_weight > 0 and len(tokens) > 1:
                add_ids([key_of(f"{left}##{right}", len(key_ids))
                         for left, right in zip(tokens, tokens[1:])])
                add_weights([bigram_weight] * (len(tokens) - 1))
            counts[t] = len(flat_ids) - start
        # Weights are float64 in the scalar path until they hit the float32
        # accumulator; NEP 50 converts them to float32 at that point, so
        # pre-casting the weight array reproduces the same rounding.
        return (
            key_ids,
            np.array(flat_ids, dtype=np.int64),
            np.array(flat_weights, dtype=np.float32),
            counts,
        )

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity of two texts under this model."""
        return float(np.dot(self.embed(a), self.embed(b)))
