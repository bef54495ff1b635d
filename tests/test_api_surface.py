"""Every public name in ``src/`` has a caller outside ``tests/``.

A public function, method or class that only tests name is code the program
never runs. The census: every ``def`` and ``class`` in ``src/repro`` whose
name does not start with ``_`` must appear as a code identifier somewhere in
``src/``, ``benchmarks/``, ``examples/``, ``perfbench/`` or ``scripts/``,
beyond the definitions of that name and the re-exports in
``src/repro/**/__init__.py``. Code identifiers are names, attributes,
imported names, keyword arguments and string constants that are a whole
identifier (``getattr`` and dispatch tables name code that way); words in
docstrings and comments are not callers.
A name that fails the census is either deleted together with the tests that
check only it, or listed in ``KEEP`` with the reason it stays.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench", "scripts")

# "path::Qualified.name" -> why it stays although only tests name it.
KEEP: Dict[str, str] = {
    "src/repro/analysis/callgraph.py::_Collector.visit_ClassDef":
        "ast.NodeVisitor dispatches it by node type",
    "src/repro/analysis/callgraph.py::_Collector.visit_FunctionDef":
        "ast.NodeVisitor dispatches it by node type",
    "src/repro/analysis/callgraph.py::_Collector.visit_AsyncFunctionDef":
        "ast.NodeVisitor dispatches it by node type",
    "src/repro/dbtasks/plan_selection.py::execute_plan":
        "L19's equivalence check runs every enumerated plan through it",
    "src/repro/inference/pools.py::make_pool_routers":
        "README's pool-fleet entry point for per-pool routers",
    "src/repro/inference/scheduler.py::ShortestJobFirstScheduler":
        "I9, the SJF priority scheduling technique DESIGN.md names",
    "src/repro/llm/embedding.py::EmbeddingModel.stale_docs":
        "the online-IDF staleness invariant reads it as its oracle",
    "src/repro/llm/transformer.py::TinyTransformer.generate_greedy":
        "S9's decode loop: the KV-cache equivalence checks decode through it",
    "src/repro/prep/augmentation.py::Augmenter.augment":
        "D5, the augmentation technique DESIGN.md names",
    "src/repro/prep/augmentation.py::distinct_ngrams":
        "D5's coverage measure: the fair before/after augmentation comparison",
    "src/repro/prep/dedup.py::SignatureStore.kept_doc_ids":
        "the incremental-dedup invariants read it as their oracle",
    "src/repro/prep/instruction.py::SFTPair.is_correct":
        "the ground-truth label the instruction-filter checks score against",
    "src/repro/prep/llm_loop.py::LLMPrepSystem.build_pipeline":
        "the only entry point of the LLM-in-the-loop prep system (open challenge C3)",
    "src/repro/rag/retriever.py::HybridRetriever":
        "L2's hybrid dense+sparse retrieval that DESIGN.md names",
    "src/repro/stream/workload.py::poisson_stream":
        "README's entry point for an open-loop ingest schedule",
    "src/repro/training/checkpoint/formats.py::ArrayFormat.deserialize":
        "the read half of T5's checkpoint format; round trips check it",
    "src/repro/training/checkpoint/formats.py::ArrayFormat.read_partial":
        "T5's per-tensor partial load (ByteCheckpoint, cited by DESIGN.md's T5 row)",
    "src/repro/training/checkpoint/formats.py::FileFormat.deserialize":
        "the read half of T5's checkpoint format; round trips check it",
    "src/repro/training/checkpoint/formats.py::DisaggregatedFormat.deserialize":
        "the read half of T5's checkpoint format; round trips check it",
    "src/repro/vector/database.py::VectorDatabase.get_collection":
        "the vector-database invariants read collections back through it",
    # Named by a docstring or README only until the census counted code
    # identifiers; each keep-or-delete decision is left to a pruning change.
    "src/repro/analysis/driver.py::LintResult.errors":
        "the lint driver's error-severity view, part of LintResult's API",
    "src/repro/dbtasks/plan_selection.py::CostBasedSelector":
        "L19's classical cost-model baseline that LLM plan ranking is compared with",
    "src/repro/faults/plan.py::FaultPlan.covering":
        "the fault-window query the fault-plan invariants read",
    "src/repro/inference/metrics.py::phase_breakdown":
        "per-request phase breakdown behind README's fleet_phase_breakdown",
    "src/repro/llm/model.py::SimLLM.call_log":
        "the batched == looped call-log parity checks read it",
    "src/repro/llm/reasoning.py::best_of_n_grounded":
        "L16's best-of-n X-of-Thought technique DESIGN.md names",
    "src/repro/llm/reasoning.py::chain_of_questions":
        "L16's chain X-of-Thought technique DESIGN.md names",
    "src/repro/prep/augmentation.py::Augmenter":
        "D5, the augmentation technique DESIGN.md names",
    "src/repro/prep/augmentation.py::diversity_score":
        "D5's distinct-n measure of what augmentation adds",
    "src/repro/prep/labeling.py::ActiveLearner":
        "D6's active-learning labeler DESIGN.md names",
    "src/repro/prep/labeling.py::model_label":
        "D6's model-based labeling DESIGN.md names",
    "src/repro/prep/llm_loop.py::LLMPrepSystem":
        "C3, the LLM-in-the-loop prep system DESIGN.md names",
    "src/repro/prep/synthesis.py::TemplateSynthesizer":
        "D7's rule-based synthesis DESIGN.md names",
    "src/repro/prep/synthesis.py::fidelity_report":
        "D7's real-vs-synthetic fidelity measure",
    "src/repro/prompting/templates.py::AutoPrompter":
        "L1's automatic prompt search (the prompting row of DESIGN.md)",
    "src/repro/stream/replay.py::convergence_check":
        "README's stream entry point: incremental state against a full rebuild",
    "src/repro/training/checkpoint/formats.py::ArrayFormat":
        "T5's array checkpoint format DESIGN.md names",
    "src/repro/training/checkpoint/formats.py::ArrayFormat.serialize":
        "the write half of T5's checkpoint format; round trips check it",
    "src/repro/training/checkpoint/formats.py::DisaggregatedFormat":
        "T5's disaggregated checkpoint format DESIGN.md names",
    "src/repro/training/checkpoint/formats.py::DisaggregatedFormat.serialize":
        "the write half of T5's checkpoint format; round trips check it",
    "src/repro/training/checkpoint/formats.py::FileFormat":
        "T5's file checkpoint format DESIGN.md names",
    "src/repro/training/checkpoint/formats.py::FileFormat.serialize":
        "the write half of T5's checkpoint format; round trips check it",
    "src/repro/utils.py::batched":
        "shared helper of the utils module, checked by its own tests",
    "src/repro/utils.py::geometric_mean":
        "shared helper of the utils module, checked by its own tests",
    "src/repro/utils.py::pairwise":
        "shared helper of the utils module, checked by its own tests",
}



def _identifiers(tree: ast.AST) -> Iterator[str]:
    """Every code identifier in ``tree``, definitions' own names included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def _defs(tree: ast.AST, prefix: str = "") -> Iterator[Tuple[str, str]]:
    """(qualified name, name) of every def and class, methods included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.name
            if isinstance(node, ast.ClassDef):
                yield from _defs(node, f"{prefix}{node.name}.")


def census(root: Path) -> set:
    """``path::qualname`` of every public ``src/repro`` def the census fails."""
    words: Counter = Counter()
    definitions: Counter = Counter()
    public = []
    for top in CALLER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            relpath = path.relative_to(root).as_posix()
            if relpath.startswith("src/") and path.name == "__init__.py":
                continue  # re-exports are not callers
            tree = ast.parse(path.read_text())
            defs = list(_defs(tree))
            words.update(_identifiers(tree))
            definitions.update(name for _, name in defs)
            if relpath.startswith("src/repro/"):
                public.extend(
                    (f"{relpath}::{qualname}", name)
                    for qualname, name in defs
                    if not name.startswith("_")
                )
    return {key for key, name in public if words[name] <= definitions[name]}


def test_no_public_name_is_named_only_by_tests():
    unlisted = sorted(census(REPO_ROOT) - set(KEEP))
    assert not unlisted, (
        "public names that only tests call; delete them with their tests, or "
        f"add each to KEEP with a reason: {unlisted}"
    )


def test_keep_entries_are_still_test_only():
    stale = sorted(set(KEEP) - census(REPO_ROOT))
    assert not stale, f"KEEP entries that gained a caller or no longer exist: {stale}"
