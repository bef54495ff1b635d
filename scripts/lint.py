#!/usr/bin/env python
"""repro-lint CLI: run the AST invariant checker over the repository.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/lint.py                 # gate on every finding
    PYTHONPATH=src python scripts/lint.py --list-rules
    PYTHONPATH=src python scripts/lint.py --select R001,R003 src/repro/vector
    PYTHONPATH=src python scripts/lint.py --format json      # machine-readable
    PYTHONPATH=src python scripts/lint.py --format github    # PR annotations

Exit status: 0 when the run has no findings; 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import (  # noqa: E402
    ALL_RULES,
    LintConfig,
    run_lint,
)
from repro.analysis.report import (  # noqa: E402
    format_github,
    format_json,
    format_report,
    summarize,
)

DEFAULT_PATHS = ("src", "benchmarks", "tests", "scripts")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-lint", description=__doc__)
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories to lint (default: %(default)s)")
    parser.add_argument("--select", default="",
                        help="comma-separated rule codes to run (default: all)")
    parser.add_argument("--ignore", default="",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--quiet", action="store_true", help="summary line only")
    parser.add_argument("--format", choices=("text", "json", "github"), default="text",
                        help="output format: human text, stable JSON, or GitHub "
                        "Actions annotations (default: %(default)s)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.name:<24} [{rule.severity}] {rule.description}")
        print("R000  suppression-hygiene      [error] "
              "suppressions need '# repro-lint: disable=RXXX — justification'")
        return 0

    known = {rule.code for rule in ALL_RULES}
    enabled = set(known)
    if args.select:
        enabled = {code.strip() for code in args.select.split(",") if code.strip()}
    if args.ignore:
        enabled -= {code.strip() for code in args.ignore.split(",") if code.strip()}
    unknown = enabled - known
    if unknown:
        parser.error(f"unknown rule code(s): {', '.join(sorted(unknown))} "
                     f"(known: {', '.join(sorted(known))})")
    config = LintConfig(enabled=frozenset(enabled))

    result = run_lint(args.paths, config=config, repo_root=REPO_ROOT)
    if result.files_checked == 0:
        print(f"repro-lint: error — no .py files found under {args.paths}", file=sys.stderr)
        return 2

    violations = result.violations
    if args.format == "json":
        print(format_json(violations, files_checked=result.files_checked))
        return 1 if violations else 0
    if args.format == "github" and violations:
        print(format_github(violations))
    if args.format == "text" and violations and not args.quiet:
        print(format_report(violations))

    status = "FAIL" if violations else "ok"
    print(
        f"repro-lint: {status} — {result.files_checked} files, "
        f"{len(violations)} finding(s)"
        + (f" | {summarize(violations)}" if violations else "")
    )
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
