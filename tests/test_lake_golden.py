"""Golden digests of the lake analytics path: answers, pipeline outputs, charges.

The lake's planner, linker, executor and semantic-pipeline kernels are
optimized for speed only: every answer, every pipeline output and every
ledger charge must stay bitwise what it was. These digests were captured
before those optimizations, on the world the ``lake_analytics`` benchmark
uses (world seed 1, engine seed 0, 2,025 rendered documents): the first 300
``LakeWorkload.mixed`` questions, then two rounds of the benchmark's two
semantic pipelines. Any drift means an optimization changed what the
program computes, not only how fast.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.engine import DataAI, DataAIConfig
from repro.data.world import WorldConfig
from repro.datalake.workload import LakeWorkload
from repro.semopt import SemFilter, SemMap, SemPipeline, SemTopK

WORLD = WorldConfig(seed=1, num_cities=200, num_companies=175, num_people=650, num_products=1000)
QUESTIONS = 300
PIPELINES = (
    SemPipeline([
        SemFilter("is_about software company"),
        SemMap("Summarize the item", output_field="summary"),
    ]),
    SemPipeline([
        SemFilter("etype == product"),
        SemFilter("is_about electronics"),
        SemTopK("most expensive premium product", k=5, group_size=16),
    ]),
)

GOLDEN = {
    "answers": "0345b5c66850bcd0",
    "pipelines": "246254af6dc27c74",
    "ledger": "34c787ab31113213",
}


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _usage(usage) -> tuple:
    return (usage.calls, usage.input_tokens, usage.output_tokens, usage.usd)


def _lake_run() -> dict:
    ai = DataAI(DataAIConfig(seed=0, world=WORLD))
    questions = LakeWorkload(ai.world, seed=1).mixed(1200)[:QUESTIONS]
    answers = [ai.analytics(question.text) for question in questions]
    pipelines = []
    for _ in range(2):
        for pipeline in PIPELINES:
            result = ai.document_analytics.run_pipeline(pipeline)
            pipelines.append((result.records, result.group_counts))
    ledger = ai.llm.ledger
    charges = (
        _usage(ledger.total),
        sorted((tag, _usage(usage)) for tag, usage in ledger.by_tag.items()),
    )
    return {"answers": answers, "pipelines": pipelines, "ledger": charges}


@pytest.fixture(scope="module")
def lake_run():
    return _lake_run()


@pytest.mark.parametrize("part", sorted(GOLDEN))
def test_lake_path_matches_its_golden_digest(lake_run, part):
    assert _digest(lake_run[part]) == GOLDEN[part]


def test_golden_run_answers_and_charges_something(lake_run):
    # Guards the digests against pinning a degenerate run.
    assert len(lake_run["answers"]) == QUESTIONS
    assert sum(answer != "unknown" for answer in lake_run["answers"]) > QUESTIONS // 2
    assert all(records for records, _ in lake_run["pipelines"])
    assert lake_run["ledger"][0][0] > 0
