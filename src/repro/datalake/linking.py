"""Schema linking over a multi-modal lake via a unified embedding space (AOP).

AOP's observation (§2.2.2): every modality carries a literal description —
schemas for tables, key paths for JSON, text for documents — so embedding
those descriptions into one space lets a query find its relevant assets by
similarity, regardless of modality.

Two linkers:

* :class:`EmbeddingLinker` — the AOP approach;
* :class:`LexicalLinker` — keyword-overlap baseline (what you get without
  the unified space).

Plus :func:`combine_linkers` — the paper notes embedding linking and
structural extraction are *complementary*; combining their scores lifts
recall (benchmark E19).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..llm.embedding import EmbeddingModel
from ..llm.tokenizer import default_tokenizer
from .catalog import DataLake, LakeAsset


class LinkedAsset(NamedTuple):
    """One linking candidate with its score."""

    asset: LakeAsset
    score: float


# Irregular plurals a learned embedder would resolve by synonymy; our
# hash-based substrate needs them spelled out.
_IRREGULAR_SINGULAR = {"people": "person", "persons": "person"}


def singularize(word: str) -> str:
    """Best-effort singular form of a type/collection word."""
    lowered = word.lower()
    irregular = _IRREGULAR_SINGULAR.get(lowered)
    if irregular is not None:
        return irregular
    if lowered.endswith("ies"):
        return lowered[:-3] + "y"
    if lowered.endswith("s") and not lowered.endswith("ss"):
        return lowered[:-1]
    return lowered


def expand_query(query: str) -> str:
    """Append singular forms of query words (poor-man's synonym expansion)."""
    extra = []
    for word in query.split():
        singular = singularize(word)
        if singular != word.lower():
            extra.extend([singular, singular + "s"])
    return query + (" " + " ".join(extra) if extra else "")


class EmbeddingLinker:
    """Unified-embedding-space linking of queries to lake assets."""

    def __init__(self, lake: DataLake, embedder: EmbeddingModel) -> None:
        self.lake = lake
        self.embedder = embedder
        self._assets = lake.assets()
        # The asset's own name (and its singular) is the strongest linking
        # signal; weight it by repetition before the long description.
        self._matrix = embedder.embed_batch(
            [
                f"{a.name} {singularize(a.name)} {a.name} {singularize(a.name)} "
                f"{a.description}"
                for a in self._assets
            ]
        )

    def link(self, query: str, k: int = 3) -> List[LinkedAsset]:
        """The ``k`` best assets, best first; tied scores keep catalog order
        (a stable sort, so the order does not depend on the CPU's sort)."""
        values = (self._matrix @ self.embedder.embed(expand_query(query))).tolist()
        order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
        return [LinkedAsset(self._assets[i], values[i]) for i in order[: max(k, 1)]]

    def scores(self, query: str) -> Dict[str, float]:
        qvec = self.embedder.embed(expand_query(query))
        raw = self._matrix @ qvec
        return {a.asset_id: float(s) for a, s in zip(self._assets, raw)}


class LexicalLinker:
    """Keyword-overlap (Jaccard over content tokens) baseline."""

    def __init__(self, lake: DataLake) -> None:
        self.lake = lake
        self._assets = lake.assets()
        tok = default_tokenizer()
        self._token_sets = [set(tok.content_tokens(a.description)) for a in self._assets]

    def link(self, query: str, k: int = 3) -> List[LinkedAsset]:
        query_tokens = set(default_tokenizer().content_tokens(query))
        scored: List[Tuple[float, int]] = []
        for i, tokens in enumerate(self._token_sets):
            union = query_tokens | tokens
            score = len(query_tokens & tokens) / len(union) if union else 0.0
            scored.append((score, i))
        scored.sort(key=lambda t: -t[0])
        return [
            LinkedAsset(asset=self._assets[i], score=s) for s, i in scored[: max(k, 1)]
        ]

    def scores(self, query: str) -> Dict[str, float]:
        return {la.asset.asset_id: la.score for la in self.link(query, k=len(self._assets))}


def combine_linkers(
    lake: DataLake,
    query: str,
    linkers: Sequence[object],
    *,
    k: int = 3,
    weights: Optional[Sequence[float]] = None,
) -> List[LinkedAsset]:
    """Score-fusion of multiple linkers (min-max normalized, weighted sum)."""
    weights = list(weights or [1.0] * len(linkers))
    combined: Dict[str, float] = {}
    for linker, weight in zip(linkers, weights):
        raw: Dict[str, float] = linker.scores(query)  # type: ignore[attr-defined]
        values = list(raw.values())
        lo, hi = min(values), max(values)
        span = (hi - lo) or 1.0
        for asset_id, score in raw.items():
            combined[asset_id] = combined.get(asset_id, 0.0) + weight * (score - lo) / span
    order = sorted(combined, key=lambda a: -combined[a])[: max(k, 1)]
    return [LinkedAsset(asset=lake.get(a), score=combined[a]) for a in order]


def linking_recall(
    linked: Sequence[LinkedAsset], gold_asset_ids: Sequence[str]
) -> float:
    """Fraction of required assets present in the linked set."""
    if not gold_asset_ids:
        return 0.0
    got = {la.asset.asset_id for la in linked}
    return sum(1 for g in gold_asset_ids if g in got) / len(gold_asset_ids)
