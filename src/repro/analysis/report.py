"""Violation records, severities, and ``file:line: CODE message`` rendering.

Besides the human ``text`` format, two machine formats back
``scripts/lint.py --format``: stable sorted JSON (tooling) and GitHub
Actions workflow commands (inline PR annotations when ``CI=1``).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


class Severity(enum.Enum):
    """How strongly a finding gates the build."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Violation:
    """A single finding, addressable by file and line."""

    path: str  # repo-relative posix path
    line: int
    code: str
    message: str
    severity: Severity = field(default=Severity.ERROR, compare=False)

    def format(self) -> str:
        """Render as ``file:line: CODE [severity] message``."""
        return f"{self.path}:{self.line}: {self.code} [{self.severity}] {self.message}"


def format_report(
    violations: Sequence[Violation],
    *,
    max_lines: int = 0,
) -> str:
    """Render violations sorted by location, one per line.

    ``max_lines`` > 0 truncates the listing with an elision note so CI logs
    stay readable when a rule first lands on a legacy codebase.
    """
    ordered = sorted(violations)
    lines: List[str] = [violation.format() for violation in ordered]
    if max_lines and len(lines) > max_lines:
        hidden = len(lines) - max_lines
        lines = lines[:max_lines] + [f"... and {hidden} more"]
    return "\n".join(lines)


def _violation_payload(violation: Violation) -> Dict[str, object]:
    return {
        "path": violation.path,
        "line": violation.line,
        "code": violation.code,
        "severity": str(violation.severity),
        "message": violation.message,
    }


def format_json(violations: Sequence[Violation], *, files_checked: int) -> str:
    """Stable machine-readable report: sorted keys, sorted violations."""
    payload = {
        "files_checked": files_checked,
        "ok": not violations,
        "violations": [_violation_payload(v) for v in sorted(violations)],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _github_escape(text: str) -> str:
    """Escape per GitHub's workflow-command rules (%, CR, LF in messages)."""
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def format_github(violations: Sequence[Violation]) -> str:
    """Render findings as GitHub Actions annotations, one per line.

    ``::error file=src/x.py,line=3,title=R007::message`` renders inline on
    the PR diff; warnings map to ``::warning``.
    """
    lines: List[str] = []
    for violation in sorted(violations):
        level = "error" if violation.severity is Severity.ERROR else "warning"
        lines.append(
            f"::{level} file={_github_escape(violation.path)},"
            f"line={violation.line},title={violation.code}::"
            f"{_github_escape(violation.message)}"
        )
    return "\n".join(lines)


def summarize(violations: Sequence[Violation]) -> str:
    """One-line per-rule tally, e.g. ``R002=3 R005=12 (15 total)``."""
    per_code: Dict[str, int] = {}
    for violation in violations:
        per_code[violation.code] = per_code.get(violation.code, 0) + 1
    parts: Tuple[str, ...] = tuple(f"{code}={per_code[code]}" for code in sorted(per_code))
    return " ".join(parts) + f" ({len(violations)} total)" if parts else "(0 total)"
