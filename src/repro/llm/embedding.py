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
* **copies** — memo rows are read-only and never handed out: ``embed`` and
  ``embed_batch`` return fresh arrays, so a caller that writes into its
  result cannot change what the next call returns;
* **generation** — every clear bumps ``generation``, so a reader that kept
  something derived from embeddings (the model's reply memo) knows the
  space moved.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..utils import normalize, stable_hash
from .tokenizer import Tokenizer, default_tokenizer

#: Rows the per-model embedding memo holds before evicting the oldest.
MEMO_ROWS = 4096


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

    ``embed`` and ``embed_batch`` share one memo from text to a read-only
    row, valid for the current IDF snapshot: ``fit_idf`` clears it while
    unpinned, ``refresh`` clears it when it re-pins, and pinned
    ``partial_fit_idf`` leaves it alone. It holds at most ``MEMO_ROWS``
    rows (FIFO) and both methods return copies, never memo rows. Each clear
    bumps ``generation``.
    """

    dim: int = 128
    seed: int = 0
    stem_len: int = 5
    stem_weight: float = 0.4
    bigram_weight: float = 0.25
    tokenizer: Tokenizer = field(default_factory=default_tokenizer)
    _token_vectors: Dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)
    _doc_freq: Dict[str, int] = field(default_factory=dict, repr=False)
    _num_docs: int = field(default=0, repr=False)
    # Streaming IDF state (see partial_fit_idf): once pinned, embeddings are
    # computed from the frozen snapshot while live stats keep accumulating.
    _pinned_doc_freq: Optional[Dict[str, int]] = field(default=None, repr=False)
    _pinned_num_docs: int = field(default=0, repr=False)
    _stale_docs: int = field(default=0, repr=False)
    _memo: Dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)
    generation: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
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
        live_n = self._num_docs
        pin_n = self._pinned_num_docs
        num = 0.0
        den = 0.0
        pinned = self._pinned_doc_freq
        for token, df in self._doc_freq.items():
            idf_live = math.log((1 + live_n) / (1 + df)) + 1.0
            pin_df = pinned.get(token, 0)
            idf_pin = (
                math.log((1 + pin_n) / (1 + pin_df)) + 1.0 if pin_n else 1.0
            )
            num += df * abs(idf_live - idf_pin)
            den += df * idf_live
        return num / den if den else 0.0

    def refresh(self, threshold: float = 0.05) -> bool:
        """Re-pin the live stats iff drift exceeds ``threshold``.

        Returns True when the pin moved — the caller's signal that vectors
        embedded under the old pin are stale and must be re-embedded (the
        embedding space changed). Returns False (and changes nothing) while
        drift stays within tolerance.
        """
        if threshold < 0:
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
    def _unit_vector(self, key: str) -> np.ndarray:
        vec = self._token_vectors.get(key)
        if vec is None:
            # repro-lint: disable=R008 — seeded, content-addressed stream whose
            # identity is pinned by the frozen prep-parity baseline
            # (tests/test_prep_batch.py); rederiving via derive_rng would shift
            # every committed embedding-dependent golden
            rng = np.random.default_rng(stable_hash(f"emb:{self.seed}:{key}"))
            vec = rng.standard_normal(self.dim).astype(np.float32)
            vec /= np.linalg.norm(vec)
            self._token_vectors[key] = vec
        return vec

    def _remember(self, text: str, row: np.ndarray) -> None:
        """Store ``row`` (owned by the memo from now on) read-only."""
        memo = self._memo
        if len(memo) >= MEMO_ROWS:
            del memo[next(iter(memo))]
        row.flags.writeable = False
        memo[text] = row

    def embed(self, text: str) -> np.ndarray:
        """Embed ``text`` into a unit-norm float32 vector (a fresh copy)."""
        row = self._memo.get(text)
        if row is None:
            row = self._embed_one(text)
            self._remember(text, row)
        return row.copy()

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
        either path put in the memo serve both. Memo hits are copied out;
        the distinct misses, in first-occurrence order, go through one
        batched kernel pass (:meth:`_embed_rows`).
        """
        memo = self._memo
        missing = list(dict.fromkeys(text for text in texts if text not in memo))
        fresh = dict(zip(missing, self._embed_rows(missing))) if missing else {}
        out = np.empty((len(texts), self.dim), dtype=np.float32)
        for i, text in enumerate(texts):
            row = fresh.get(text)
            out[i] = memo[text] if row is None else row
        for text, row in fresh.items():
            self._remember(text, row.copy())
        return out

    def _embed_rows(self, texts: List[str]) -> np.ndarray:
        """The batched kernel over a non-empty ``texts``, bypassing the memo.

        One tokenizer pass, one IDF lookup per distinct token, one
        ``_unit_vector`` lookup per distinct key, and the accumulation runs
        as column-slab adds over texts sorted by contribution count. Each
        text's contributions are applied in the same order as
        :meth:`_embed_one` (rows are independent, and float32 elementwise
        ops do not reassociate across rows), so every intermediate rounding
        step matches the sequential path exactly.
        """
        token_lists = self.tokenizer.content_tokens_many(texts)
        n = len(token_lists)
        key_ids: Dict[str, int] = {}
        key_of = key_ids.setdefault
        idf_cache: Dict[str, float] = {}
        stem_weight = self.stem_weight
        stem_len = self.stem_len
        bigram_weight = self.bigram_weight
        contrib_ids: List[List[int]] = []
        contrib_weights: List[List[float]] = []
        for tokens in token_lists:
            ids: List[int] = []
            weights: List[float] = []
            for token in tokens:
                weight = idf_cache.get(token)
                if weight is None:
                    weight = idf_cache[token] = self._idf(token)
                ids.append(key_of(token, len(key_ids)))
                weights.append(weight)
                if stem_weight > 0 and len(token) > stem_len:
                    ids.append(key_of(token[:stem_len], len(key_ids)))
                    weights.append(weight * stem_weight)
            if bigram_weight > 0:
                for left, right in zip(tokens, tokens[1:]):
                    ids.append(key_of(f"{left}##{right}", len(key_ids)))
                    weights.append(bigram_weight)
            contrib_ids.append(ids)
            contrib_weights.append(weights)
        table = np.empty((len(key_ids), self.dim), dtype=np.float32)
        for key, kid in key_ids.items():
            table[kid] = self._unit_vector(key)
        counts = np.array([len(ids) for ids in contrib_ids], dtype=np.int64)
        order = np.argsort(-counts, kind="stable")
        sorted_counts = counts[order]
        flat_ids = np.array(
            [i for ids in contrib_ids for i in ids], dtype=np.int64
        )
        # Weights are float64 in the scalar path until they hit the float32
        # accumulator; NEP 50 converts them to float32 at that point, so
        # pre-casting the weight array reproduces the same rounding.
        flat_weights = np.array(
            [w for weights in contrib_weights for w in weights], dtype=np.float32
        )
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
            acc[:active] += (
                flat_weights[src][:, None] * table[flat_ids[src]]
            )
        out = np.empty((n, self.dim), dtype=np.float32)
        out[order] = acc
        empty_vec: Optional[np.ndarray] = None
        for i, tokens in enumerate(token_lists):
            if tokens:
                out[i] = normalize(out[i]).astype(np.float32)
            else:
                if empty_vec is None:
                    empty_vec = self._unit_vector("<empty>")
                out[i] = empty_vec
        return out

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity of two texts under this model."""
        return float(np.dot(self.embed(a), self.embed(b)))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two (not necessarily normalized) vectors."""
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def top_k_cosine(
    query: np.ndarray, matrix: np.ndarray, k: int, *, exclude: Optional[set] = None
) -> List[tuple]:
    """Exact top-k rows of ``matrix`` by cosine similarity to ``query``.

    Returns ``(row_index, score)`` pairs sorted by descending score. Assumes
    rows and query are already unit-normalized (dot == cosine).
    """
    if matrix.shape[0] == 0 or k <= 0:
        return []
    scores = matrix @ query
    if exclude:
        scores = scores.copy()
        for idx in exclude:
            scores[idx] = -np.inf
    k = min(k, matrix.shape[0])
    top = np.argpartition(-scores, k - 1)[:k]
    top = top[np.argsort(-scores[top])]
    return [(int(i), float(scores[i])) for i in top if np.isfinite(scores[i])]
