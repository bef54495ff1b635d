"""End-to-end RAG pipelines: single-shot, iterative multi-hop, reflective.

Implements the RAG designs the tutorial surveys (§2.2.1):

* :meth:`RAGPipeline.answer` — retrieve-then-read, optionally reranked;
* :meth:`RAGPipeline.answer_iterative` — ReAct-style iterative retrieval
  for multi-hop questions: decompose, answer hop 1, substitute, answer
  hop 2 [65];
* :meth:`RAGPipeline.answer_reflective` — Self-RAG-style reflection [8]:
  check whether the draft answer is actually supported by the retrieved
  evidence, and retry with a wider net (or abstain) when it is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..data.documents import Document
from ..llm.embedding import EmbeddingModel
from ..llm.model import SimLLM
from ..llm.protocol import Prompt
from ..vector.base import VectorIndex
from .chunking import chunk_corpus
from .reranker import EmbeddingReranker, LLMReranker
from .retriever import DenseRetriever, RetrievedChunk, Retriever


@dataclass
class RAGAnswer:
    """An answer with its supporting evidence and call accounting."""

    question: str
    text: str
    retrieved: List[RetrievedChunk] = field(default_factory=list)
    hops: int = 1
    reflected: bool = False
    supported: Optional[bool] = None
    sub_answers: List[str] = field(default_factory=list)

    @property
    def abstained(self) -> bool:
        return self.text.strip().lower() == "unknown"


class RAGPipeline:
    """Retrieval-augmented answering over a document corpus."""

    def __init__(
        self,
        llm: SimLLM,
        retriever: Retriever,
        *,
        reranker: Optional[object] = None,
        context_chunks: int = 4,
    ) -> None:
        self.llm = llm
        self.retriever = retriever
        self.reranker = reranker
        self.context_chunks = context_chunks

    # --------------------------------------------------------- construction
    @classmethod
    def from_documents(
        cls,
        llm: SimLLM,
        docs: Sequence[Document],
        *,
        embedder: Optional[EmbeddingModel] = None,
        chunk_strategy: str = "sentence",
        rerank: Optional[str] = None,
        context_chunks: int = 4,
        index: Optional[VectorIndex] = None,
    ) -> "RAGPipeline":
        """Build a dense-retrieval pipeline over ``docs``.

        ``rerank`` may be None, ``"embedding"`` or ``"llm"``.
        """
        embedder = embedder or llm.embedder
        retriever = DenseRetriever(embedder, index=index)
        chunks = chunk_corpus(list(docs), strategy=chunk_strategy, embedder=embedder)
        retriever.add(chunks)
        reranker: Optional[object] = None
        if rerank == "embedding":
            reranker = EmbeddingReranker(embedder)
        elif rerank == "llm":
            reranker = LLMReranker(llm)
        return cls(llm, retriever, reranker=reranker, context_chunks=context_chunks)

    # ------------------------------------------------------------ retrieval
    def _retrieve(self, query: str, k: Optional[int] = None) -> List[RetrievedChunk]:
        k = k or self.context_chunks
        fetch = k * 3 if self.reranker is not None else k
        candidates = self.retriever.retrieve(query, k=fetch)
        if self.reranker is not None:
            candidates = self.reranker.rerank(query, candidates, k=k)
        return candidates[:k]

    def _context_text(self, retrieved: List[RetrievedChunk]) -> str:
        return "\n".join(rc.chunk.text for rc in retrieved)

    # ------------------------------------------------------------ answering
    def answer_closed_book(self, question: str) -> RAGAnswer:
        """No-retrieval baseline: the model's parametric memory alone."""
        response = self.llm.generate(
            Prompt(task="qa", input=question).render(), tag="rag-closed"
        )
        return RAGAnswer(question=question, text=response.text, retrieved=[])

    def answer(self, question: str, *, k: Optional[int] = None) -> RAGAnswer:
        """Single-shot retrieve-then-read."""
        retrieved = self._retrieve(question, k)
        prompt = Prompt(
            task="qa",
            instruction="Answer using the provided context.",
            context=self._context_text(retrieved),
            input=question,
        )
        response = self.llm.generate(prompt.render(), tag="rag")
        return RAGAnswer(question=question, text=response.text, retrieved=retrieved)

    def answer_iterative(
        self, question: str, *, max_hops: int = 2, k: Optional[int] = None
    ) -> RAGAnswer:
        """Decompose-and-chain retrieval for multi-hop questions.

        Falls back to single-shot behaviour when the model's decomposition
        returns a single question.
        """
        decomposition = self.llm.generate(
            Prompt(task="decompose", input=question).render(), tag="rag-decompose"
        )
        sub_questions = [q.strip() for q in decomposition.text.splitlines() if q.strip()]
        sub_questions = sub_questions[:max_hops]
        if len(sub_questions) <= 1:
            return self.answer(question, k=k)

        sub_answers: List[str] = []
        all_retrieved: List[RetrievedChunk] = []
        current_answer = ""
        for sub_q in sub_questions:
            resolved = sub_q.replace("{answer1}", current_answer)
            retrieved = self._retrieve(resolved, k)
            all_retrieved.extend(retrieved)
            prompt = Prompt(
                task="qa",
                instruction="Answer using the provided context.",
                context=self._context_text(retrieved),
                input=resolved,
            )
            response = self.llm.generate(prompt.render(), tag="rag-hop")
            current_answer = response.text
            sub_answers.append(current_answer)
            if response.abstained:
                break
        return RAGAnswer(
            question=question,
            text=current_answer,
            retrieved=all_retrieved,
            hops=len(sub_answers),
            sub_answers=sub_answers,
        )

    def answer_reflective(
        self, question: str, *, k: Optional[int] = None, widen_factor: int = 3
    ) -> RAGAnswer:
        """Self-RAG-style verification loop.

        After drafting an answer, check that the answer string is literally
        supported by the retrieved evidence; if not, retry with a
        ``widen_factor``× wider retrieval, and abstain if the wider pass is
        still unsupported. Trades extra retrieval for fewer hallucinated
        answers.
        """
        k = k or self.context_chunks
        draft = self.answer(question, k=k)
        if self._supported(draft):
            draft.reflected, draft.supported = True, True
            return draft
        retry = self.answer(question, k=k * widen_factor)
        retry.reflected = True
        if self._supported(retry):
            retry.supported = True
            return retry
        return RAGAnswer(
            question=question,
            text="unknown",
            retrieved=retry.retrieved,
            reflected=True,
            supported=False,
        )

    @staticmethod
    def _supported(answer: RAGAnswer) -> bool:
        """Is the answer string present in the retrieved evidence?"""
        if answer.abstained:
            return False
        needle = answer.text.strip().lower()
        if not needle:
            return False
        return any(needle in rc.chunk.text.lower() for rc in answer.retrieved)
