"""repro.analysis — interprocedural invariant checker ("repro-lint").

The test suite can only spot-check the properties the reproduction's
credibility rests on: deterministic simulators (the golden-metric tests
assume bit-identical trajectories), a closed exception taxonomy rooted at
:class:`repro.errors.ReproError`, and the strict dtype discipline the
vectorized ANN kernels need for bitwise parity.  This package enforces those
invariants statically, at analysis time, so a refactor cannot silently break
a golden test three PRs later.

v2 grew the checker from a per-module AST walker into a repo-wide
interprocedural analyzer: :mod:`~repro.analysis.callgraph` builds a
module-qualified call graph (attribute/self-method resolution, ``__init__``
re-export chasing, subclass-override dispatch), and
:mod:`~repro.analysis.dataflow` extracts per-function summaries and closes
reachability and may-raise fixpoints over it — so an unseeded
draw three calls below ``ServingEngine.step`` is now a finding with a
witness call chain, not a blind spot.

Rules
-----
R001  determinism — no wall-clock or unseeded/global RNG in simulator hot paths
R002  exception taxonomy — only ``ReproError`` subclasses may be raised
R003  dtype discipline — numpy constructors in kernel code need explicit dtype
R004  no mutable default arguments
R005  public-API annotations — re-exported callables must be fully annotated
R006  perf-test hygiene — ``benchmarks/perf`` tests must carry the perf marker
R007  determinism taint — nothing reachable from a hot entry point may use
      unseeded RNG or leak set iteration order into results
R008  RNG-stream discipline — Generators come from ``derive_rng`` with
      distinct static tags; no module-level stream globals or cross-stream
      coupled loops
R009  ledger-tag conservation — dotted literal tags match ``<prefix>.sN.<kind>``
      and are read somewhere
R010  hot-loop allocation hygiene — no array/dict constructors in per-event
      while loops, one call level deep
R011  resource safety — locally-owned acquire/release pairs (KV blocks,
      prefix pins) release on every exit path, including may-raise paths

Usage::

    from repro.analysis import LintConfig, run_lint

    result = run_lint(["src", "benchmarks", "tests"], config=LintConfig())
    for violation in result.violations:
        print(violation.format())

The command-line entry point is ``scripts/lint.py`` (``--format
{text,json,github}``); it passes only with zero findings. See README
"Static analysis" for the suppression syntax.
"""

from .callgraph import CallEdge, CallGraph, ClassNode, FunctionNode, build_callgraph
from .config import LintConfig
from .dataflow import FunctionSummary, ModuleFacts, Program, build_program
from .driver import LintResult, ModuleInfo, collect_files, run_lint
from .report import Severity, Violation, format_github, format_json, format_report
from .rules import ALL_RULES, Rule
from .suppress import SuppressionIndex, scan_suppressions

__all__ = [
    "ALL_RULES",
    "CallEdge",
    "CallGraph",
    "ClassNode",
    "FunctionNode",
    "FunctionSummary",
    "LintConfig",
    "LintResult",
    "ModuleFacts",
    "ModuleInfo",
    "Program",
    "Rule",
    "Severity",
    "SuppressionIndex",
    "Violation",
    "build_callgraph",
    "build_program",
    "collect_files",
    "format_github",
    "format_json",
    "format_report",
    "run_lint",
    "scan_suppressions",
]
