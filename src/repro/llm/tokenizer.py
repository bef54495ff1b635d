"""Deterministic word-level tokenizer with subword fallback.

Real LLM stacks use learned BPE vocabularies; for a fully offline,
reproducible substrate we use a closed-form scheme that preserves the two
properties the rest of the library relies on:

* token counts scale with text length the way BPE counts do (roughly one
  token per short word, several per long/rare word), so cost and latency
  models behave realistically; and
* tokenization is invertible, so generated token streams round-trip to text.

Words at most ``max_word_len`` characters long become single tokens; longer
words are split into fixed-size subword pieces, mimicking how BPE fragments
rare words. Token ids are stable hashes of the token string into a fixed
vocabulary range, so two processes always agree on ids.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..errors import TokenizerError
from ..utils import stable_hash

_TOKEN_PATTERN = re.compile(r"\w+|[^\w\s]|\s+", re.UNICODE)
# Fast path for content_tokens: whitespace runs and single-character
# punctuation chunks can never survive the content filter (punctuation is
# never alphanumeric), so scanning word chunks alone visits roughly half
# the matches the full lossless pattern does.
_WORD_PATTERN = re.compile(r"\w+", re.UNICODE)
# Single non-word, non-space characters — the middle alternative of the
# lossless pattern.  Each such character is exactly one countable piece.
_PUNCT_PATTERN = re.compile(r"[^\w\s]", re.UNICODE)


@dataclass
class Tokenizer:
    """Reversible deterministic tokenizer.

    Parameters
    ----------
    vocab_size:
        Size of the id space tokens are hashed into. Collisions are possible
        (as in any hashed vocabulary) but ids are only used for embedding
        lookups and cost accounting, never for reconstruction — the decoder
        keeps the literal piece strings.
    max_word_len:
        Words longer than this are split into subword pieces of this length.
    """

    vocab_size: int = 50_000
    max_word_len: int = 8
    _id_cache: Dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    _ascii_run: object = field(default=None, repr=False, compare=False)
    _word_chunk: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.vocab_size < 256:
            raise TokenizerError(f"vocab_size too small: {self.vocab_size}")
        if self.max_word_len < 2:
            raise TokenizerError(f"max_word_len too small: {self.max_word_len}")

    def pieces(self, text: str) -> List[str]:
        """Split ``text`` into token piece strings (lossless: concat == text)."""
        pieces: List[str] = []
        for match in _TOKEN_PATTERN.finditer(text):
            chunk = match.group(0)
            if chunk.isspace() or len(chunk) <= self.max_word_len:
                pieces.append(chunk)
            else:
                step = self.max_word_len
                pieces.extend(chunk[i : i + step] for i in range(0, len(chunk), step))
        return pieces

    def token_id(self, piece: str) -> int:
        """Stable id of a piece within ``[0, vocab_size)``."""
        cached = self._id_cache.get(piece)
        if cached is None:
            cached = stable_hash("tok:" + piece) % self.vocab_size
            self._id_cache[piece] = cached
        return cached

    def encode(self, text: str) -> List[int]:
        """Encode ``text`` into token ids."""
        return [self.token_id(piece) for piece in self.pieces(text)]

    def count(self, text: str) -> int:
        """Number of tokens in ``text``: its non-whitespace :meth:`pieces`.

        This is the count used for cost/latency models: whitespace between
        words is fused into neighbouring tokens by real BPE vocabularies, so
        counting it separately would roughly double apparent token counts.
        """
        return self.count_many([text])[0]

    def count_many(self, texts: Sequence[str]) -> List[int]:
        """:meth:`count` for a whole corpus in two C-level counts per text.

        Every ``\\w+`` chunk contributes ``ceil(len / max_word_len)``
        pieces (the fixed-size long-word split), every ``[^\\w\\s]``
        character contributes one, and whitespace runs contribute none.
        The greedy ``\\w{1,max_word_len}`` pattern splits each ``\\w+``
        run into exactly those ``ceil(len / max_word_len)`` matches, so the
        count is the length of two ``findall`` results with no per-piece
        Python loop.  Exactly the number of non-whitespace :meth:`pieces`
        for every input.
        """
        pattern = self._word_chunk
        if pattern is None:
            pattern = self._word_chunk = re.compile(r"\w{1,%d}" % self.max_word_len)
        words = pattern.findall
        punct = _PUNCT_PATTERN.findall
        return [len(words(text)) + len(punct(text)) for text in texts]

    def truncate(self, text: str, max_tokens: int) -> str:
        """Longest prefix of ``text`` containing at most ``max_tokens`` tokens.

        Cuts on piece boundaries, so the result re-tokenizes to exactly the
        kept pieces: word chunks are only ever merged back into the same
        fixed-size splits, whitespace runs count as zero either way.  Used
        by the simulated model to make a ``max_tokens``-capped reply's text
        agree with its charged ``output_tokens``.
        """
        if max_tokens <= 0:
            raise TokenizerError(f"max_tokens must be positive, got {max_tokens}")
        kept: List[str] = []
        count = 0
        for piece in self.pieces(text):
            if not piece.isspace():
                if count == max_tokens:
                    break
                count += 1
            kept.append(piece)
        return "".join(kept)

    def content_tokens(self, text: str) -> List[str]:
        """Lower-cased non-whitespace, non-punctuation pieces (for embeddings).

        Equivalent to filtering :meth:`pieces` but scans only word chunks:
        whitespace and single-character punctuation chunks can never pass the
        alphanumeric filter. The ``any(isalnum)`` check is only needed for
        pieces that could be non-alphanumeric despite matching ``\\w`` —
        underscores and (for non-ASCII text) combining marks.
        """
        out: List[str] = []
        append = out.append
        step = self.max_word_len
        for word in _WORD_PATTERN.findall(text):
            if len(word) <= step:
                if ("_" in word or not word.isascii()) and not any(
                    ch.isalnum() for ch in word
                ):
                    continue
                append(word.lower())
            else:
                for i in range(0, len(word), step):
                    piece = word[i : i + step]
                    if ("_" in piece or not piece.isascii()) and not any(
                        ch.isalnum() for ch in piece
                    ):
                        continue
                    append(piece.lower())
        return out

    def content_tokens_many(self, texts: Sequence[str]) -> List[List[str]]:
        """:meth:`content_tokens` for a whole corpus, with an ASCII fast path.

        For ASCII text without underscores, ``\\w+`` runs are exactly
        ``[a-z0-9]+`` runs of the lower-cased text (ASCII lower-casing is
        length-preserving and keeps alphanumerics alphanumeric), and the
        greedy ``{1,max_word_len}`` quantifier reproduces the fixed-size
        long-word split, so one regex scan yields the final token list with
        no per-word Python loop. Other texts fall back to
        :meth:`content_tokens`. Output is identical either way.
        """
        pattern = self._ascii_run
        if pattern is None:
            pattern = self._ascii_run = re.compile(
                r"[a-z0-9]{1,%d}" % self.max_word_len
            )
        findall = pattern.findall
        slow = self.content_tokens
        return [
            findall(t.lower()) if t.isascii() and "_" not in t else slow(t)
            for t in texts
        ]


_DEFAULT_TOKENIZER = Tokenizer()


def default_tokenizer() -> Tokenizer:
    """The process-wide default tokenizer instance."""
    return _DEFAULT_TOKENIZER


def count_tokens(text: str) -> int:
    """Convenience: token count of ``text`` under the default tokenizer."""
    return _DEFAULT_TOKENIZER.count(text)
