"""lake_analytics: closed loop, one client, analytics over the data lake.

``DataAI.analytics`` answers LakeWorkload.mixed questions through the
planner -> executor -> catalog path.  After every PIPELINE_EVERY questions
the client runs one of two ``DocumentAnalytics.run_pipeline`` semantic
pipelines (filter -> map, filter -> filter -> top-k) over the 2,025
rendered documents, which exercises semopt, generate_many and
embed_batch.  The question mix repeats itself and extraction views stay
cached after the warm-up, so this is the workload on which reusing work
shows.

``query_p50_ms`` is the median question and ``work_per_s`` questions over
the summed time of every operation, pipelines included, both in
quiet-machine time (see ``gauge``).  The run ends on a whole cycle of
both pipelines, so each keeps its share of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from common import Outcome, clock, digest, engine_config, percentile, report_failure
from repro.core.engine import DataAI
from repro.datalake.workload import LakeQuestion, LakeWorkload, answer_matches
from repro.semopt import SemFilter, SemMap, SemPipeline, SemTopK

QUESTIONS = 1200  # generated questions; the loop cycles through them
WARMUP = 60
PIPELINE_EVERY = 100  # analytics questions between two pipeline runs
MIN_ACCURACY = 0.5
#: Slope of question time on the gauge's reference time (see ``gauge``): 1.35.
SENSITIVITY = 1.35
PIPELINES = (
    (
        "filter_map",
        SemPipeline([
            SemFilter("is_about software company"),
            SemMap("Summarize the item", output_field="summary"),
        ]),
    ),
    (
        "filter_filter_topk",
        SemPipeline([
            SemFilter("etype == product"),
            SemFilter("is_about electronics"),
            SemTopK("most expensive premium product", k=5, group_size=16),
        ]),
    ),
)
CYCLE = len(PIPELINES) * (PIPELINE_EVERY + 1)  # operations per cycle of every pipeline


@dataclass
class State:
    ai: DataAI
    questions: List[LakeQuestion]


def setup(seed: int, seconds: float) -> State:
    ai = DataAI(engine_config(seed))
    ai.lake_analytics  # lake catalog and linker index
    ai.document_analytics  # documents and the RAG index behind them
    questions = LakeWorkload(ai.world, seed=seed).mixed(QUESTIONS)
    for question in questions[:WARMUP]:
        ai.analytics(question.text)  # materializes the cached extraction views
    return State(ai, questions)


def run(state: State, tracer, gauge, *, seconds=None, ops=None) -> Outcome:
    ai = state.ai
    start = clock()
    deadline = start + seconds if seconds is not None else float("inf")
    outputs: List[object] = []
    latencies: List[float] = []
    pipeline_s: List[float] = []
    asked = failed = 0
    busy = 0.0
    begins: List[float] = []
    elapsed_s: List[float] = []
    question_ops: List[int] = []
    i = 0
    while ops is None or i < ops:
        gauge.tick()
        begin = clock()
        if i % CYCLE == 0 and begin >= deadline:
            break  # only whole cycles, so both pipelines keep their share
        pipeline_turn = i % (PIPELINE_EVERY + 1) == PIPELINE_EVERY
        if pipeline_turn:
            name, pipeline = PIPELINES[(i // (PIPELINE_EVERY + 1)) % len(PIPELINES)]
        else:
            question = state.questions[asked % len(state.questions)]
            asked += 1
        result = None
        try:
            if pipeline_turn:
                with tracer.op("pipeline"):
                    result = ai.document_analytics.run_pipeline(pipeline)
            else:
                with tracer.op("analytics"):
                    result = ai.analytics(question.text)
        except Exception as exc:  # operation boundary: count it and go on
            failed += 1
            report_failure("pipeline" if pipeline_turn else "analytics", exc)
        elapsed = clock() - begin
        busy += elapsed
        begins.append(begin)
        elapsed_s.append(elapsed)
        if pipeline_turn:
            pipeline_s.append(elapsed)
            fingerprint = None if result is None else digest((result.records, result.group_counts))
            outputs.append((name, fingerprint))
        else:
            latencies.append(elapsed)
            question_ops.append(i)
            outputs.append(result)
        i += 1
    wall = clock() - start
    gauge.tick(force=True)
    scaled = gauge.scaled(begins, elapsed_s)
    question_scaled = scaled[question_ops]
    seen = {q.text for q in state.questions[:WARMUP]}
    repeats = 0
    for k in range(asked):
        text = state.questions[k % len(state.questions)].text
        repeats += text in seen
        seen.add(text)
    return Outcome(
        ops=i,
        failed=failed,
        busy_s=busy,
        outputs=outputs,
        end_to_end={
            "query_p50_ms": percentile(question_scaled, 50) * 1e3,
            "work_per_s": asked / float(scaled.sum()),
        },
        info={
            "questions": asked,
            "raw_query_p50_ms": percentile(latencies, 50) * 1e3,
            "raw_questions_per_s": asked / wall,
            "query_p95_ms": percentile(question_scaled, 95) * 1e3,
            "raw_query_p99_ms": percentile(latencies, 99) * 1e3,
            "pipelines": len(pipeline_s),
            "pipeline_p50_ms": percentile(pipeline_s, 50) * 1e3 if pipeline_s else 0.0,
            "repeated_question_share": repeats / asked,
        },
    )


def finish(state: State, outcome: Outcome) -> List[str]:
    """Grade answers against gold; each pipeline must repeat its output."""
    correct = asked = 0
    digests: Dict[str, Set[object]] = {}
    for out in outcome.outputs:
        if isinstance(out, tuple):
            digests.setdefault(out[0], set()).add(out[1])
            continue
        gold = state.questions[asked % len(state.questions)].gold
        asked += 1
        correct += out is not None and answer_matches(out, gold)
    accuracy = correct / asked
    outcome.end_to_end["output_quality"] = accuracy
    problems = []
    if accuracy < MIN_ACCURACY:
        problems.append(f"lake_analytics: accuracy {accuracy:.3f} below {MIN_ACCURACY}")
    if not digests:
        problems.append("lake_analytics: no semantic pipeline ran")
    for name, seen in sorted(digests.items()):
        if len(seen) != 1 or None in seen:
            problems.append(f"lake_analytics: pipeline {name} outputs differ across repeats")
    return problems
