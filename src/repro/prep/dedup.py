"""Deduplication: exact-document, line-level, and MinHash-LSH near-dup.

Implements the dedup toolbox of §2.3.2 [24, 29, 46, 52]:

* :class:`ExactDeduper` — content-hash exact document dedup;
* :func:`line_dedup` — line/sentence-level dedup (LLaMA-style): sentences
  occurring more than ``max_occurrences`` times across the corpus are
  stripped everywhere (kills boilerplate and degenerate repetition);
* :class:`MinHashDeduper` — document-level near-duplicate detection:
  n-gram shingles → MinHash signatures → LSH banding → candidate pairs →
  exact-Jaccard verification → union-find clustering, keeping one
  representative per cluster.

The corpus-level path is fully batched (the pre-overhaul per-document
implementation is frozen in ``benchmarks/perf/_legacy_prep.py``): shingling
interns tokens into integer ids and blake2b-hashes only the corpus's
*unique* shingles, signatures come from a branchless Mersenne-reduction
kernel over reused buffers with a segmented ``np.minimum.reduceat`` min,
and LSH banding factorizes band rows into dense int64 keys grouped with
``np.unique`` instead of hashing one string per document per band.
Outputs are identical to the legacy path (proven element-wise in
``tests/test_prep_batch.py``). The scalar :func:`shingles` and
:meth:`MinHashDeduper.signature` are one-row views of these kernels.

One linking core serves both entry points. :meth:`MinHashDeduper.dedup`
(one corpus) and :meth:`MinHashDeduper.dedup_incremental` (one stream
batch against the persistent :class:`SignatureStore`) differ only in how
they generate candidate pairs; both hand them to :func:`_link`, which
verifies them and merges clusters in one oldest-root union-find. Candidate
generation stays two: on the 20,160-document ``BENCH_prep`` corpus, probing
a fresh store's band buckets one document at a time took 2.44, 2.29 and
2.05 s against 1.87, 1.85 and 1.91 s for the batched banding kernel
(best of 3 each, 2-core x86 host; 7-31% slower), so a one-shot corpus
keeps the kernel.

Detection quality is measurable against the corpus generator's
``dup_group`` ground truth via :func:`dedup_metrics`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..data.synth import TrainingDocument
from ..errors import ConfigError
from ..llm.tokenizer import default_tokenizer
from ..rag.chunking import split_sentences
from ..utils import derive_rng, stable_hash

_MERSENNE = (1 << 61) - 1

# Shingle-value block size per signature kernel call: caps the (P, block)
# int64 buffers at 16 MiB each for P = 64 (measured fastest width on the
# perf harness); a call with fewer values sizes them to its values.
_SIGNATURE_BLOCK = 1 << 15


def _first_occurrence(keys: Iterable[Hashable]) -> Tuple[np.ndarray, np.ndarray]:
    """Group positions by equal key, groups numbered in first-occurrence order.

    Returns ``(reps, group_of)``: ``group_of[i]`` is the group of position
    ``i`` and ``reps[g]`` the first position in group ``g`` (ascending).
    """
    index: Dict[Hashable, int] = {}
    setdefault = index.setdefault
    group_of = np.fromiter((setdefault(k, len(index)) for k in keys), dtype=np.int64)
    return np.unique(group_of, return_index=True)[1], group_of


def shingles(text: str, n: int = 3) -> Set[int]:
    """Hashed token n-gram shingle set of a document."""
    return set(shingle_hashes_many([text], n)[0].tolist())


def _hash_shingle(shingle: str) -> int:
    """``stable_hash(shingle) % _MERSENNE`` without the per-call validation."""
    return (
        int.from_bytes(blake2b(shingle.encode("utf-8"), digest_size=8).digest(), "big")
        % _MERSENNE
    )


def shingle_hashes_many(texts: Sequence[str], n: int = 3) -> List[np.ndarray]:
    """Per-document shingle hash arrays for a whole corpus, one pass.

    Semantically each array holds the same values as ``shingles(text, n)``
    (possibly with in-document repeats, which neither MinHash nor the
    Jaccard verifier is sensitive to after a ``np.unique``). Exact-duplicate
    texts share one tokenization; tokens are interned into dense integer
    ids so every n-gram window becomes one int64 key via vectorized
    polynomial packing; only the corpus's unique keys are blake2b-hashed,
    then broadcast back with a single gather.
    """
    if n < 1:
        raise ConfigError(f"shingle size must be >= 1, got {n}")
    reps, group_of = _first_occurrence(texts)
    token_lists = default_tokenizer().content_tokens_many(
        [texts[i] for i in reps.tolist()]
    )
    # One array per distinct text (group), broadcast back at the end.
    out: List[np.ndarray] = [np.zeros(0, dtype=np.int64)] * len(token_lists)
    long_pos: List[int] = []
    for p, tokens in enumerate(token_lists):
        if len(tokens) >= n:
            long_pos.append(p)
        elif tokens:
            # Reduced modulo the Mersenne prime like every other shingle:
            # raw 64-bit hashes above 2**63 - 1 overflow the int64 kernels.
            out[p] = np.array([_hash_shingle(" ".join(tokens))], dtype=np.int64)
    if long_pos:
        token_ids: Dict[str, int] = {}
        setdefault = token_ids.setdefault
        flat: List[str] = []
        extend = flat.extend
        for p in long_pos:
            extend(token_lists[p])
        ids_list = [setdefault(t, len(token_ids)) for t in flat]
        vocab = len(token_ids)
        if vocab ** n >= 2 ** 63:
            # Polynomial packing would overflow int64; fall back to hashing
            # shingle strings directly (still memoized corpus-wide).
            memo: Dict[str, int] = {}
            for p in long_pos:
                tokens = token_lists[p]
                values = []
                for j in range(len(tokens) - n + 1):
                    key = " ".join(tokens[j : j + n])
                    h = memo.get(key)
                    if h is None:
                        h = memo[key] = _hash_shingle(key)
                    values.append(h)
                out[p] = np.array(values, dtype=np.int64)
        else:
            all_ids = np.array(ids_list, dtype=np.int64)
            lengths = np.array(
                [len(token_lists[p]) for p in long_pos], dtype=np.int64
            )
            doc_of = np.repeat(np.arange(len(long_pos), dtype=np.int64), lengths)
            total = all_ids.shape[0]
            # Window keys over the concatenated stream; windows straddling a
            # document boundary are masked out.
            keys = np.zeros(total - n + 1, dtype=np.int64)
            for j in range(n):
                keys *= vocab
                keys += all_ids[j : total - n + 1 + j]
            valid = doc_of[: total - n + 1] == doc_of[n - 1 :]
            keys = keys[valid]
            uniq_keys, inverse = np.unique(keys, return_inverse=True)
            # Hash each unique shingle once: decode packed keys back to
            # tokens and join at the bytes level (UTF-8 concatenates).
            digits = np.empty((n, uniq_keys.shape[0]), dtype=np.int64)
            rest = uniq_keys
            for j in range(n - 1, -1, -1):
                digits[j] = rest % vocab
                rest = rest // vocab
            tok_bytes = [t.encode("utf-8") for t in token_ids]
            getter = tok_bytes.__getitem__
            cols = [digits[j].tolist() for j in range(n)]
            uniq_hashes = np.fromiter(
                (
                    int.from_bytes(
                        blake2b(b" ".join(map(getter, tup)), digest_size=8).digest(),
                        "big",
                    )
                    % _MERSENNE
                    for tup in zip(*cols)
                ),
                dtype=np.int64,
                count=uniq_keys.shape[0],
            )
            hashes = uniq_hashes[inverse]
            counts = lengths - n + 1
            offsets = np.zeros(len(long_pos) + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            for q, p in enumerate(long_pos):
                out[p] = hashes[offsets[q] : offsets[q + 1]]
    return [out[g] for g in group_of.tolist()]


def _permute_mod_mersenne(
    a: np.ndarray, b: np.ndarray, values: np.ndarray, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """``(a * values + b) % _MERSENNE`` into ``out``, no temporaries.

    Element-wise identical to ``np.remainder`` for every int64 input,
    including negatively wrapped products: with ``M = 2**61 - 1``,
    ``x = (x >> 61) * 2**61 + (x & M)`` and ``2**61 ≡ 1 (mod M)``, so
    ``x ≡ (x >> 61) + (x & M)``; two branchless range fixups land the
    result in ``[0, M)``. Division-free, ~3x faster than ``%``.
    """
    np.multiply(a, values[None, :], out=out)
    np.add(out, b, out=out)
    np.right_shift(out, 61, out=tmp)
    np.bitwise_and(out, _MERSENNE, out=out)
    np.add(out, tmp, out=out)  # in [-4, M + 3]
    np.right_shift(out, 63, out=tmp)
    np.bitwise_and(tmp, _MERSENNE, out=tmp)
    np.add(out, tmp, out=out)  # in [0, M + 3]
    np.subtract(out, _MERSENNE, out=out)
    np.right_shift(out, 63, out=tmp)
    np.bitwise_and(tmp, _MERSENNE, out=tmp)
    np.add(out, tmp, out=out)  # in [0, M)
    return out


def jaccard(a: Set[int], b: Set[int]) -> float:
    """Exact Jaccard similarity of two shingle sets (1.0 when both are empty)."""
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def _find(parent: List[int], x: int) -> int:
    """Root of ``x`` in a list-backed union-find, compressing the path."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _link(
    parent: List[int],
    unique_of: Callable[[int], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    threshold: float,
) -> Tuple[int, List[int]]:
    """Verify candidate pairs ``(lo[k], hi[k])`` and union the verified ones.

    ``unique_of(i)`` is document ``i``'s sorted unique-shingle array. Pairs
    with byte-identical arrays have Jaccard exactly 1.0: they count as
    verified without set algebra, and each such equal-set group is joined
    by chain unions, O(size) instead of O(size**2) (equal sets mean equal
    signatures, so every pair inside a group is a candidate). The other
    pairs get exact :func:`jaccard`. A union roots at the smaller index, so
    every cluster's root is its oldest member — the representative a full
    dedup keeps. Returns ``(verified pair count, roots demoted by a union)``.
    """
    demoted: List[int] = []
    if lo.shape[0] == 0:
        return 0, demoted

    def union(a: int, b: int) -> None:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
            demoted.append(rb)

    involved = np.union1d(lo, hi)
    docs = involved.tolist()
    uniques = [unique_of(i) for i in docs]
    _, group = _first_occurrence(u.tobytes() for u in uniques)
    pos_lo = np.searchsorted(involved, lo)
    pos_hi = np.searchsorted(involved, hi)
    equal = group[pos_lo] == group[pos_hi]
    verified = int(np.count_nonzero(equal))
    # Chain unions: consecutive members of each equal-set group.
    order = np.argsort(group, kind="stable")
    chained = group[order[1:]] == group[order[:-1]]
    for a, b in zip(order[:-1][chained].tolist(), order[1:][chained].tolist()):
        union(docs[a], docs[b])
    as_set: Dict[int, Set[int]] = {}
    unequal = ~equal
    for a, b in zip(pos_lo[unequal].tolist(), pos_hi[unequal].tolist()):
        sa = as_set.get(a)
        if sa is None:
            sa = as_set[a] = set(uniques[a].tolist())
        sb = as_set.get(b)
        if sb is None:
            sb = as_set[b] = set(uniques[b].tolist())
        if jaccard(sa, sb) >= threshold:
            verified += 1
            union(docs[a], docs[b])
    return verified, demoted


@dataclass
class IncrementalDedupResult:
    """One streaming batch's admission decisions.

    ``admitted`` are the new documents that joined the kept set;
    ``rejected`` are new documents subsumed by an already-kept (or
    earlier-in-batch) document; ``evicted`` are doc_ids of *previously
    kept* documents that a new document bridged into a cluster with an
    older representative — exactly what a full re-dedup over the whole
    ingested corpus would have removed.
    """

    admitted: List[TrainingDocument]
    rejected: List[TrainingDocument]
    evicted: List[str] = field(default_factory=list)
    candidate_pairs: int = 0
    verified_pairs: int = 0


class SignatureStore:
    """Persistent MinHash/LSH state for incremental dedup.

    Holds, for every document ever ingested (kept *and* rejected — rejected
    documents can transitively bridge future candidates, so dropping them
    would break equivalence with a full re-dedup): its signature band
    buckets, its unique shingle array, a persistent union-find parent (for
    :func:`_link`), and the kept flag. Band buckets map band-row bytes to
    the store indices that produced them, so admitting a batch probes
    exactly the documents a full LSH banding pass would pair it with.
    """

    def __init__(self, bands: int) -> None:
        self.buckets: List[Dict[bytes, List[int]]] = [{} for _ in range(bands)]
        self.shingles: List[np.ndarray] = []
        self.docs: List[TrainingDocument] = []
        self.parent: List[int] = []
        self.kept: List[bool] = []

    def __len__(self) -> int:
        return len(self.docs)

    def kept_doc_ids(self) -> List[str]:
        """doc_ids of the currently kept documents, in ingestion order."""
        return [d.doc_id for d, k in zip(self.docs, self.kept) if k]


@dataclass
class DedupResult:
    """Kept documents plus the detected duplicate structure."""

    kept: List[TrainingDocument]
    removed: List[TrainingDocument]
    clusters: List[List[int]] = field(default_factory=list)  # indices into input
    candidate_pairs: int = 0
    verified_pairs: int = 0


class ExactDeduper:
    """Keep the first document of each exact (normalized) text."""

    def dedup(self, docs: Sequence[TrainingDocument]) -> DedupResult:
        seen: Dict[int, int] = {}
        kept: List[TrainingDocument] = []
        removed: List[TrainingDocument] = []
        clusters: Dict[int, List[int]] = defaultdict(list)
        for i, doc in enumerate(docs):
            key = stable_hash(" ".join(doc.text.split()).lower())
            if key in seen:
                removed.append(doc)
            else:
                seen[key] = i
                kept.append(doc)
            clusters[key].append(i)
        return DedupResult(
            kept=kept,
            removed=removed,
            clusters=[ids for ids in clusters.values() if len(ids) > 1],
        )


def line_dedup(
    docs: Sequence[TrainingDocument], *, max_occurrences: int = 2
) -> Tuple[List[TrainingDocument], int]:
    """Strip sentences that repeat more than ``max_occurrences`` times corpus-wide.

    Returns (rewritten documents, sentences removed). Documents reduced to
    nothing are dropped entirely.
    """
    if max_occurrences < 1:
        raise ConfigError("max_occurrences must be >= 1")
    counts: Counter = Counter()
    doc_sentences: List[List[str]] = []
    for doc in docs:
        sentences = split_sentences(doc.text)
        doc_sentences.append(sentences)
        # One Counter.update per document (each distinct sentence counted
        # once per doc) instead of materializing and re-walking a set.
        counts.update({s.strip().lower() for s in sentences})
    banned = {s for s, c in counts.items() if c > max_occurrences}
    out: List[TrainingDocument] = []
    removed_sentences = 0
    for doc, sentences in zip(docs, doc_sentences):
        kept_sentences = []
        seen_local: Set[str] = set()
        for s in sentences:
            key = s.strip().lower()
            if key in banned or key in seen_local:
                removed_sentences += 1
                continue
            seen_local.add(key)
            kept_sentences.append(s)
        if kept_sentences:
            out.append(
                TrainingDocument(
                    doc_id=doc.doc_id,
                    text=" ".join(kept_sentences),
                    domain=doc.domain,
                    quality=doc.quality,
                    is_toxic=doc.is_toxic,
                    dup_group=doc.dup_group,
                    is_duplicate=doc.is_duplicate,
                )
            )
    return out, removed_sentences


class MinHashDeduper:
    """MinHash + LSH near-duplicate document detection.

    Parameters
    ----------
    num_permutations:
        Signature length; must equal ``bands * rows_per_band``.
    bands / rows_per_band:
        LSH banding; the detection threshold is roughly
        ``(1/bands) ** (1/rows_per_band)``.
    shingle_size:
        Token n-gram size for shingling.
    verify_threshold:
        Candidate pairs below this exact Jaccard are rejected.
    """

    def __init__(
        self,
        *,
        num_permutations: int = 64,
        bands: int = 16,
        rows_per_band: int = 4,
        shingle_size: int = 3,
        verify_threshold: float = 0.6,
        seed: int = 0,
    ) -> None:
        if shingle_size < 1 or bands < 1 or rows_per_band < 1:
            raise ConfigError(
                "shingle_size, bands and rows_per_band must be >= 1, got "
                f"{shingle_size}, {bands}, {rows_per_band}"
            )
        if bands * rows_per_band != num_permutations:
            raise ConfigError("bands * rows_per_band must equal num_permutations")
        if not 0.0 <= verify_threshold <= 1.0:
            raise ConfigError(
                f"verify_threshold must be in [0, 1], got {verify_threshold}"
            )
        self.num_permutations = num_permutations
        self.bands = bands
        self.rows_per_band = rows_per_band
        self.shingle_size = shingle_size
        self.verify_threshold = verify_threshold
        self.seed = seed
        rng = derive_rng(seed, "minhash")
        self._a = rng.integers(1, _MERSENNE, size=num_permutations, dtype=np.int64)
        self._b = rng.integers(0, _MERSENNE, size=num_permutations, dtype=np.int64)
        self._store: Optional[SignatureStore] = None

    @property
    def store(self) -> SignatureStore:
        """The persistent signature store (created on first use)."""
        if self._store is None:
            self._store = SignatureStore(self.bands)
        return self._store

    def signature(self, shingle_set: Set[int]) -> np.ndarray:
        """MinHash signature of one shingle set."""
        values = np.fromiter(shingle_set, dtype=np.int64, count=len(shingle_set))
        return self.signature_many([values])[0]

    def signature_many(self, shingle_values: Sequence[np.ndarray]) -> np.ndarray:
        """``(n_docs, P)`` signature matrix from per-doc shingle hash arrays.

        The Mersenne permutation kernel runs over reused ``(P, block)``
        buffers; per-document minima are segmented with
        ``np.minimum.reduceat``. Documents with byte-identical shingle
        arrays (exact duplicates) reuse the first copy's signature row.
        Element-wise identical to the legacy per-document ``(P, S)`` kernel
        (repeated values cannot change a min, and the int64 wrap semantics
        of the kernel do not depend on batching).
        """
        first, group_of = _first_occurrence(v.tobytes() for v in shingle_values)
        # One row per distinct array; empty arrays keep the all-_MERSENNE row.
        out = np.full((first.shape[0], self.num_permutations), _MERSENNE, dtype=np.int64)
        groups = [g for g, i in enumerate(first.tolist()) if shingle_values[i].shape[0]]
        if not groups:
            return out[group_of]
        reps = first[groups].tolist()
        sizes = np.array([shingle_values[i].shape[0] for i in reps], dtype=np.int64)
        values = (
            shingle_values[reps[0]]
            if len(reps) == 1
            else np.concatenate([shingle_values[i] for i in reps])
        )
        offsets = np.zeros(len(reps), dtype=np.int64)
        np.cumsum(sizes[:-1], out=offsets[1:])
        a = self._a[:, None]
        b = self._b[:, None]
        # Buffers sized to the call: a stream batch's few thousand values fill
        # one small block, where full-width rows (256 KiB apart) would touch
        # every huge page numpy advises for 32 MiB of buffers.
        width = max(min(_SIGNATURE_BLOCK, values.shape[0]), int(sizes.max()))
        kernel_buf = np.empty((self.num_permutations, width), dtype=np.int64)
        shift_buf = np.empty_like(kernel_buf)
        start = 0
        while start < len(reps):
            end = start
            block = 0
            while end < len(reps) and (
                block == 0 or block + sizes[end] <= width
            ):
                block += int(sizes[end])
                end += 1
            lo = int(offsets[start])
            hashed = _permute_mod_mersenne(
                a,
                b,
                values[lo : lo + block],
                kernel_buf[:, :block],
                shift_buf[:, :block],
            )
            offs = offsets[start:end] - lo
            out[groups[start:end]] = np.minimum.reduceat(hashed, offs, axis=1).T
            start = end
        return out[group_of]

    def estimated_threshold(self) -> float:
        """The S-curve midpoint of the banding scheme."""
        return float((1.0 / self.bands) ** (1.0 / self.rows_per_band))

    def _candidate_pairs(self, signatures: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct document pairs sharing at least one LSH band.

        Identical band rows ⇔ identical legacy bucket keys (the legacy path
        hashed the row string; grouping the rows directly drops the hash).
        Documents with identical full signatures co-bucket in every band,
        so they are collapsed to one representative first: banding runs on
        unique signature rows and each representative-level pair expands to
        the full cross product afterwards, generating every document pair
        exactly once instead of once per shared band. Band rows are
        factorized column-by-column into dense int64 keys — key equality ⇔
        row equality — so grouping is four 1D sorts per band instead of a
        structured-dtype sort. Returns distinct ``(lo, hi)`` index arrays
        (unordered).
        """
        rep_rows, group_of = _first_occurrence(row.tobytes() for row in signatures)
        n = rep_rows.shape[0]
        group_sizes = np.bincount(group_of, minlength=n)
        # Members of group g, ascending: by_group[group_start[g]:group_start[g + 1]].
        by_group = np.argsort(group_of, kind="stable")
        group_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(group_sizes, out=group_start[1:])

        def members_of(g: int) -> np.ndarray:
            return by_group[group_start[g] : group_start[g + 1]]

        banded = signatures[rep_rows].reshape(n, self.bands, self.rows_per_band)
        pair_lo: List[np.ndarray] = []
        pair_hi: List[np.ndarray] = []
        for band in range(self.bands):
            uniq0, key = np.unique(banded[:, band, 0], return_inverse=True)
            key = key.astype(np.int64, copy=False).reshape(-1)
            card = uniq0.shape[0]
            for c in range(1, self.rows_per_band):
                uniq_c, inv_c = np.unique(banded[:, band, c], return_inverse=True)
                if card * uniq_c.shape[0] >= 2 ** 62:
                    # Re-densify so the combined key stays in int64 range
                    # (card <= n afterwards, and n**2 < 2**62 always here).
                    _, key = np.unique(key, return_inverse=True)
                    key = key.astype(np.int64, copy=False).reshape(-1)
                    card = n
                key *= uniq_c.shape[0]
                key += inv_c.reshape(-1)
                card *= uniq_c.shape[0]
            _, inverse, counts = np.unique(
                key, return_inverse=True, return_counts=True
            )
            inverse = inverse.reshape(-1)
            if not (counts >= 2).any():
                continue
            order = np.argsort(inverse, kind="stable")
            sorted_inv = inverse[order]
            starts = np.flatnonzero(
                np.r_[True, sorted_inv[1:] != sorted_inv[:-1]]
            )
            seg_sizes = np.diff(np.r_[starts, sorted_inv.shape[0]])
            # One pair-extraction kernel per distinct bucket size: every
            # bucket of size c yields its C(c, 2) pairs in a single fancy
            # index instead of a Python loop over buckets.
            for size in np.unique(seg_sizes).tolist():
                if size < 2:
                    continue
                members = order[
                    starts[seg_sizes == size][:, None]
                    + np.arange(size, dtype=np.int64)
                ]
                ii, jj = np.triu_indices(size, k=1)
                a_idx = members[:, ii].reshape(-1)
                b_idx = members[:, jj].reshape(-1)
                pair_lo.append(np.minimum(a_idx, b_idx))
                pair_hi.append(np.maximum(a_idx, b_idx))
        # Expand representative-level pairs back to document pairs: every
        # cross pair between two groups, plus all within-group pairs of any
        # group with 2+ members (identical signatures always co-bucket).
        doc_lo: List[np.ndarray] = []
        doc_hi: List[np.ndarray] = []
        if pair_lo:
            keys = np.unique(
                np.concatenate(pair_lo) * n + np.concatenate(pair_hi)
            )
            glo = keys // n
            ghi = keys % n
            singleton = (group_sizes[glo] == 1) & (group_sizes[ghi] == 1)
            a_doc = rep_rows[glo[singleton]]
            b_doc = rep_rows[ghi[singleton]]
            doc_lo.append(np.minimum(a_doc, b_doc))
            doc_hi.append(np.maximum(a_doc, b_doc))
            multi = ~singleton
            for ga, gb in zip(glo[multi].tolist(), ghi[multi].tolist()):
                a_mem = members_of(ga)
                b_mem = members_of(gb)
                aa = np.repeat(a_mem, b_mem.shape[0])
                bb = np.tile(b_mem, a_mem.shape[0])
                doc_lo.append(np.minimum(aa, bb))
                doc_hi.append(np.maximum(aa, bb))
        for g in np.flatnonzero(group_sizes >= 2).tolist():
            members = members_of(g)
            ii, jj = np.triu_indices(members.shape[0], k=1)
            doc_lo.append(members[ii])
            doc_hi.append(members[jj])
        if not doc_lo:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(doc_lo), np.concatenate(doc_hi)

    def dedup(self, docs: Sequence[TrainingDocument]) -> DedupResult:
        shingle_values = shingle_hashes_many(
            [d.text for d in docs], self.shingle_size
        )
        lo, hi = self._candidate_pairs(self.signature_many(shingle_values))
        parent = list(range(len(docs)))
        verified_pairs, _ = _link(
            parent,
            lambda i: np.unique(shingle_values[i]),
            lo,
            hi,
            self.verify_threshold,
        )
        clusters: Dict[int, List[int]] = defaultdict(list)
        for i in range(len(docs)):
            clusters[_find(parent, i)].append(i)
        kept: List[TrainingDocument] = []
        removed: List[TrainingDocument] = []
        for members in clusters.values():  # ascending, the root first
            kept.append(docs[members[0]])
            removed.extend(docs[m] for m in members[1:])
        kept.sort(key=lambda d: d.doc_id)
        return DedupResult(
            kept=kept,
            removed=removed,
            clusters=[m for m in clusters.values() if len(m) > 1],
            candidate_pairs=int(lo.shape[0]),
            verified_pairs=verified_pairs,
        )

    # ------------------------------------------------------------ streaming
    def dedup_incremental(
        self, new_docs: Sequence[TrainingDocument]
    ) -> IncrementalDedupResult:
        """Admit a batch against the persistent signature store.

        Only the new documents are shingled and signed; candidates come
        from probing the existing LSH band buckets (which also surface
        pairs *within* the batch, since each document is bucketed before
        the next is probed). Verified pairs feed a persistent union-find
        whose roots are always the oldest cluster members, so after any
        sequence of batches the kept set equals :meth:`dedup` run once over
        the concatenation of every batch — including *evictions*: a new
        document that bridges two previously distinct clusters demotes the
        younger representative, and its doc_id is reported in ``evicted``
        so callers can drop it from downstream stores.
        """
        store = self.store
        base = len(store)
        shingle_values = shingle_hashes_many(
            [d.text for d in new_docs], self.shingle_size
        )
        signatures = self.signature_many(shingle_values)
        # A band's key is its rows' bytes, sliced from one copy of the matrix.
        raw = signatures.tobytes()
        band_bytes = self.rows_per_band * signatures.itemsize
        lo: List[int] = []
        hi: List[int] = []
        for i, doc in enumerate(new_docs):
            s = base + i
            store.docs.append(doc)
            store.shingles.append(np.unique(shingle_values[i]))
            store.parent.append(s)
            store.kept.append(False)
            partners: Set[int] = set()
            at = i * self.bands * band_bytes
            for buckets in store.buckets:
                key = raw[at : at + band_bytes]
                at += band_bytes
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [s]
                else:
                    partners.update(bucket)
                    bucket.append(s)
            lo.extend(sorted(partners))
            hi.extend([s] * len(partners))
        verified_pairs, demoted = _link(
            store.parent,
            store.shingles.__getitem__,
            np.array(lo, dtype=np.int64),
            np.array(hi, dtype=np.int64),
            self.verify_threshold,
        )
        # Roots older than the batch are exactly the kept documents: one
        # demoted by a union was bridged into an older cluster.
        evicted = sorted(r for r in demoted if r < base)
        for r in evicted:
            store.kept[r] = False
        admitted: List[TrainingDocument] = []
        rejected: List[TrainingDocument] = []
        for i, doc in enumerate(new_docs):
            s = base + i
            if _find(store.parent, s) == s:
                store.kept[s] = True
                admitted.append(doc)
            else:
                rejected.append(doc)
        return IncrementalDedupResult(
            admitted=admitted,
            rejected=rejected,
            evicted=[store.docs[e].doc_id for e in evicted],
            candidate_pairs=len(lo),
            verified_pairs=verified_pairs,
        )


def dedup_metrics(
    docs: Sequence[TrainingDocument], result: DedupResult
) -> Dict[str, float]:
    """Precision/recall of duplicate detection against ground truth.

    A removed document is a true positive iff it belongs to a ``dup_group``
    (the generator marked it as having copies).
    """
    removed_ids = {d.doc_id for d in result.removed}
    true_dups = {d.doc_id for d in docs if d.is_duplicate}
    if not removed_ids:
        return {"precision": 1.0 if not true_dups else 0.0, "recall": 0.0}
    tp = len(removed_ids & true_dups)
    precision = tp / len(removed_ids)
    recall = tp / len(true_dups) if true_dups else 1.0
    return {"precision": precision, "recall": recall}
