"""Render findings as compiler-style text or as the machine JSON report.

The JSON schema (documented in ``docs/linting.md``, versioned like the
``BENCH_*.json`` contract in ``docs/bench_schema.md``)::

    {
      "version": 1,
      "tool": "repro-lint",
      "rules": ["REP102", ...],        # codes that actually ran
      "files_checked": 57,
      "findings": [
        {"code": "REP103", "rule": "engine-determinism",
         "category": "determinism", "path": "src/repro/core/x.py",
         "line": 12, "column": 4, "message": "..."},
        ...
      ]
    }

Findings are sorted by ``(path, line, column, code)`` before rendering, so
both reports are byte-stable for a given tree — CI can diff them.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from repro.devtools.findings import Finding

__all__ = ["REPORT_VERSION", "render_text", "render_json"]

REPORT_VERSION = 1


def render_text(findings: Sequence[Finding], files_checked: int) -> str:
    """One line per finding plus a trailing summary line."""
    lines: List[str] = [f.render() for f in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    files = "file" if files_checked == 1 else "files"
    lines.append(f"{len(findings)} {noun} in {files_checked} {files}")
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding], files_checked: int, rule_codes: Sequence[str]
) -> str:
    """The versioned JSON report (schema above)."""
    payload = {
        "version": REPORT_VERSION,
        "tool": "repro-lint",
        "rules": sorted(rule_codes),
        "files_checked": files_checked,
        "findings": [f.to_dict() for f in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
