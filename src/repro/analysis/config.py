"""Configuration for repro-lint: rule scopes, allowlists, and path anchors.

Everything is expressed as repo-relative posix path prefixes so the checker
is independent of the working directory it is invoked from.  The defaults
encode this repository's invariants; tests construct narrower configs over
fixture trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

ALL_RULE_CODES: Tuple[str, ...] = (
    "R001", "R002", "R003", "R004", "R005", "R006",
    "R007", "R008", "R009", "R010", "R011",
)


def _norm(path: str) -> str:
    return path.replace("\\", "/").strip("/")


@dataclass(frozen=True)
class LintConfig:
    """Scoping and allowlists for the repro-lint rules (R001–R011)."""

    # Which rules run at all (R000, the suppression meta-rule, always runs).
    enabled: FrozenSet[str] = field(default_factory=lambda: frozenset(ALL_RULE_CODES))

    # R001: simulator hot paths that must stay deterministic.  RNG must be an
    # injected, seeded Generator (see repro.utils.derive_rng); wall-clock and
    # global/unseeded random sources are banned under these prefixes.
    hot_path_prefixes: Tuple[str, ...] = (
        "src/repro/data/documents.py",
        "src/repro/data/table.py",
        "src/repro/datalake/executor.py",
        "src/repro/faults",
        "src/repro/inference",
        "src/repro/llm/cache.py",
        "src/repro/llm/embedding.py",
        "src/repro/llm/tokenizer.py",
        "src/repro/prep/dedup.py",
        "src/repro/semopt",
        "src/repro/stream",
        "src/repro/training",
        "src/repro/vector",
    )

    # R002: the closed exception taxonomy.  The driver parses this module and
    # collects every class transitively derived from ``taxonomy_root``.
    taxonomy_module: str = "src/repro/errors.py"
    taxonomy_root: str = "ReproError"
    # Raises scoped to library code only (src/repro covers every subpackage,
    # including the fault-injection framework in src/repro/faults).
    taxonomy_prefixes: Tuple[str, ...] = ("src/repro",)
    # Abstract interface methods conventionally raise NotImplementedError.
    allowed_raises: FrozenSet[str] = field(default_factory=lambda: frozenset({"NotImplementedError"}))

    # R003: kernel code whose bitwise-parity guarantees depend on explicit
    # dtypes (see tests/test_vector_batch.py).
    dtype_prefixes: Tuple[str, ...] = (
        "src/repro/semopt",
        "src/repro/stream",
        "src/repro/vector",
    )
    dtype_files: Tuple[str, ...] = (
        "src/repro/inference/fleet.py",
        "src/repro/inference/kvcache.py",
        "src/repro/inference/pools.py",
        "src/repro/inference/router.py",
        "src/repro/llm/cache.py",
        "src/repro/llm/embedding.py",
        "src/repro/prep/dedup.py",
    )
    dtype_constructors: FrozenSet[str] = field(
        default_factory=lambda: frozenset({"array", "zeros", "empty", "ones", "full"})
    )

    # R005: packages whose ``__init__.py`` re-exports define the public API.
    public_api_root: str = "src/repro"

    # R006: perf tests live here and must never leak into tier-1.
    perf_prefixes: Tuple[str, ...] = ("benchmarks/perf",)
    perf_marker: str = "perf"

    # R007: hot entry points (``relpath::qualname``) whose transitive callees
    # must be free of unseeded randomness and order-escaping set iteration.
    hot_entry_points: Tuple[str, ...] = (
        "src/repro/inference/scheduler.py::ServingEngine.run",
        "src/repro/inference/scheduler.py::ServingEngine.step",
        "src/repro/inference/fleet.py::ClusterFleet.run",
        "src/repro/inference/fleet.py::serve_engines",
        "src/repro/inference/pools.py::run_pool_fleet",
        "src/repro/semopt/executor.py::SemExecutor.run",
        "src/repro/prep/pipeline.py::PrepPipeline.run",
        "src/repro/rag/pipeline.py::RAGPipeline.answer",
        "src/repro/datalake/executor.py::LakeAnalytics.ask",
        "src/repro/stream/corpus.py::StreamingCorpus.ingest",
        "src/repro/stream/corpus.py::StreamingCorpus.search",
    )

    # R008: the one module allowed to construct numpy Generators directly;
    # everything else under ``rng_scope_prefixes`` must go through derive_rng.
    rng_factory_module: str = "src/repro/utils.py"
    rng_scope_prefixes: Tuple[str, ...] = ("src/repro",)

    # R009: ledger-tag conservation.  Dotted string-literal tags charged via
    # ``.charge(..., tag=...)`` or ``.charge_many(..., tag=...)`` must match
    # ``<prefix>.sN.<kind>`` with a registered stage kind, and must be read
    # somewhere in the repo.  Flat (dot-free) tags are the legacy namespace
    # and stay exempt.
    ledger_scope_prefixes: Tuple[str, ...] = ("src/repro",)
    ledger_stage_kinds: Tuple[str, ...] = (
        "filter", "map", "join", "topk", "group_count",
    )

    # R010: per-event driver functions whose while-loops must stay
    # allocation-free (checked one call level deep for numpy allocations).
    hot_loop_functions: Tuple[str, ...] = (
        "src/repro/inference/scheduler.py::ServingEngine.run",
        "src/repro/inference/scheduler.py::ServingEngine.step",
        "src/repro/inference/fleet.py::serve_engines",
        "src/repro/inference/pools.py::run_pool_fleet",
    )

    # R011: resource protocols as (name, acquire methods, release methods).
    # Matching is by method name on any receiver — the allocator handles in
    # scheduler/fleet are deliberately duck-typed, so nominal typing is not
    # available to the analyzer.
    resource_protocols: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
        ("kv-block", ("admit",), ("release",)),
        ("prefix-pin", ("register_prefix",), ("drop_prefix",)),
    )
    resource_scope_prefixes: Tuple[str, ...] = (
        "src/repro/inference",
        "src/repro/faults",
    )

    def is_hot_path(self, relpath: str) -> bool:
        return _starts_with_any(relpath, self.hot_path_prefixes)

    def in_taxonomy_scope(self, relpath: str) -> bool:
        return _starts_with_any(relpath, self.taxonomy_prefixes)

    def in_dtype_scope(self, relpath: str) -> bool:
        rel = _norm(relpath)
        return _starts_with_any(rel, self.dtype_prefixes) or rel in {
            _norm(f) for f in self.dtype_files
        }

    def in_perf_scope(self, relpath: str) -> bool:
        return _starts_with_any(relpath, self.perf_prefixes)

    def in_rng_scope(self, relpath: str) -> bool:
        rel = _norm(relpath)
        if rel == _norm(self.rng_factory_module):
            return False
        return _starts_with_any(rel, self.rng_scope_prefixes)

    def in_ledger_scope(self, relpath: str) -> bool:
        return _starts_with_any(relpath, self.ledger_scope_prefixes)

    def in_resource_scope(self, relpath: str) -> bool:
        return _starts_with_any(relpath, self.resource_scope_prefixes)


def _starts_with_any(relpath: str, prefixes: Tuple[str, ...]) -> bool:
    rel = _norm(relpath)
    for prefix in prefixes:
        norm = _norm(prefix)
        if rel == norm or rel.startswith(norm + "/"):
            return True
    return False
