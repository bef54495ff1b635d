"""rag_qa: closed loop, one client, ``DataAI.ask`` once per distinct question.

The per-request path tokenizer -> embedding -> flat ANN -> SimLLM with no
work shared between requests.  Questions come from the seeded
QAGenerator, three single-hop to one two-hop, and each distinct question
is asked once, so a cache of answers or prompts must show no gain here.

A world of this size uses up the world's name space, so it holds about
7.9k distinct single-hop questions, about 10k asks in the 3:1 mix, while
one client asks about 1.1k questions a second.  So the client asks WORLDS
engines in turn, each with its own world, documents, index and model
identity (engine seed), which keeps the pool over twice as large as a
12-second run uses at that speed.  No engine is asked a question twice.  The
worlds share their names, so the same question text can recur across
worlds (other facts, other documents); each world takes texts no world
has asked yet first, and ``cross_world_text_share`` reports how many
recurred.  A run that exhausts the pool fails its checks.
``query_p50_ms`` is the median ask and ``work_per_s`` asks over the
asks' summed time, both in quiet-machine time (see ``gauge``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from common import Outcome, clock, engine_config, percentile, report_failure
from repro.core.engine import DataAI
from repro.data.world import Question
from repro.utils import derive_seed

WORLDS = 3
SINGLE_DRAWS = 30_000  # generator draws per world; repeats are dropped
MULTI_DRAWS = 5_000  # about 2.9k distinct; a world's mix uses about 2.6k
WARMUP = 64  # asks per world
MIN_ACCURACY = 0.3
#: Slope of ask time on the gauge's reference time (see ``gauge``): 1.23.
SENSITIVITY = 1.23


@dataclass
class State:
    engines: List[DataAI]
    questions: List[Tuple[int, Question]]  # (engine, question), in asking order


def _distinct(questions: List[Question], seen: Set[str]) -> List[Question]:
    fresh = []
    for question in questions:
        if question.text not in seen:
            seen.add(question.text)
            fresh.append(question)
    return fresh


class _Source:
    """One world's distinct questions of one kind, in generator order."""

    def __init__(self, questions: List[Question]) -> None:
        self.ahead = deque(questions)
        self.deferred: deque = deque()

    def take(self, used: Set[str]) -> Optional[Question]:
        """The next question whose text no world has asked, else the
        first one passed over; None once the source is empty."""
        while self.ahead:
            question = self.ahead.popleft()
            if question.text not in used:
                return question
            self.deferred.append(question)
        return self.deferred.popleft() if self.deferred else None


def _order(engines: List[DataAI]) -> List[Tuple[int, Question]]:
    """Every world in turn, three single-hop to one two-hop per world."""
    sources = []
    for ai in engines:
        seen: Set[str] = set()
        sources.append((_Source(_distinct(ai.qa.single_hop(SINGLE_DRAWS), seen)),
                        _Source(_distinct(ai.qa.multi_hop(MULTI_DRAWS), seen))))
    used: Set[str] = set()
    order: List[Tuple[int, Question]] = []
    for r in range(4 * min(min(len(s.ahead) // 3, len(m.ahead)) for s, m in sources)):
        for world, (single, multi) in enumerate(sources):
            question = (multi if r % 4 == 3 else single).take(used)
            used.add(question.text)
            order.append((world, question))
    return order


def setup(seed: int, seconds: float) -> State:
    engines: List[DataAI] = []
    for world in range(WORLDS):
        world_seed = derive_seed(seed, "perfbench", "rag_world", world) % 2**31
        ai = DataAI(engine_config(world_seed, engine_seed=world_seed))
        ai.rag  # renders the documents and builds the flat RAG index
        engines.append(ai)
    order = _order(engines)
    for world, question in order[: WORLDS * WARMUP]:
        engines[world].ask(question.text)
    return State(engines, order[WORLDS * WARMUP :])


def run(state: State, tracer, gauge, *, seconds=None, ops=None) -> Outcome:
    questions = state.questions if ops is None else state.questions[:ops]
    start = clock()
    deadline = start + seconds if seconds is not None else float("inf")
    answers: List[object] = []
    begins: List[float] = []
    latencies: List[float] = []
    failed = 0
    for world, question in questions:
        gauge.tick()
        begin = clock()
        if begin >= deadline:
            break
        try:
            with tracer.op("ask"):
                text = state.engines[world].ask(question.text).text
        except Exception as exc:  # operation boundary: count it and go on
            failed += 1
            text = None
            report_failure("ask", exc)
        begins.append(begin)
        latencies.append(clock() - begin)
        answers.append(text)
    wall = clock() - start
    gauge.tick(force=True)
    scaled = gauge.scaled(begins, latencies)
    texts = {question.text for _, question in state.questions[: len(answers)]}
    return Outcome(
        ops=len(answers),
        failed=failed,
        busy_s=sum(latencies),
        outputs=answers,
        end_to_end={
            "query_p50_ms": percentile(scaled, 50) * 1e3,
            "work_per_s": len(answers) / float(scaled.sum()),
        },
        info={
            "asks": len(answers),
            "raw_query_p50_ms": percentile(latencies, 50) * 1e3,
            "raw_asks_per_s": len(answers) / wall,
            "query_p95_ms": percentile(scaled, 95) * 1e3,
            "raw_query_p99_ms": percentile(latencies, 99) * 1e3,
            "distinct_pool": len(state.questions),
            "pool_used": len(answers) / len(state.questions),
            "repeated_question_share": 0.0,
            "cross_world_text_share": 1.0 - len(texts) / len(answers),
        },
    )


def finish(state: State, outcome: Outcome) -> List[str]:
    """Grade every answer against gold (exact match)."""
    pairs = state.questions[: len(outcome.outputs)]
    asked = [question for _, question in pairs]
    correct = sum(answer == q.answer for answer, q in zip(outcome.outputs, asked))
    accuracy = correct / len(asked)
    outcome.end_to_end["output_quality"] = accuracy
    problems = []
    if accuracy < MIN_ACCURACY:
        problems.append(f"rag_qa: exact-match accuracy {accuracy:.3f} below {MIN_ACCURACY}")
    if len({(world, q.text) for world, q in pairs}) != len(pairs):
        problems.append("rag_qa: an engine was asked a question twice")
    if len(asked) == len(state.questions):
        problems.append(f"rag_qa: all {len(state.questions)} distinct questions were asked "
                        "before the run's time was up")
    return problems
