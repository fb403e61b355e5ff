"""The lint driver: file discovery, rule dispatch, baseline, output.

:func:`run_lint` is the library entry point (the CLI in
``__main__.py`` is a thin argparse shell over it).  Per file it parses
once, builds the suppression index, and runs the applicable rule
families.
"""

from __future__ import annotations

import ast
import contextlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.baseline import Baseline
from repro.analysis.determinism import (
    DETERMINISTIC_MARKER,
    check_determinism,
    is_deterministic_path,
)
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.hotpath import check_hotpath, routed_classes
from repro.analysis.locks import check_locks
from repro.analysis.suppress import SuppressionIndex

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass
class LintResult:
    """Everything one ``repro-lint`` run produced."""

    new: list[Finding] = field(default_factory=list)
    accepted: list[Finding] = field(default_factory=list)
    stale_baseline: list[dict[str, str]] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0

    def summary(self) -> dict[str, int]:
        return {
            "files_checked": self.files_checked,
            "new": len(self.new),
            "accepted": len(self.accepted),
            "suppressed": self.suppressed,
            "stale_baseline": len(self.stale_baseline),
        }

    def to_dict(self) -> dict:
        return {
            "summary": self.summary(),
            "findings": [f.to_dict() for f in self.new],
            "accepted": [f.to_dict() for f in self.accepted],
            "stale_baseline": self.stale_baseline,
        }

    def render_text(self) -> str:
        lines: list[str] = []
        for finding in self.new:
            lines.append(finding.render())
        if self.accepted:
            lines.append(f"{len(self.accepted)} accepted finding(s) in baseline:")
            for finding in self.accepted:
                lines.append(
                    f"  {finding.location}: {finding.rule} "
                    f"(baselined: {finding.justification})"
                )
        for entry in self.stale_baseline:
            lines.append(
                f"stale baseline entry {entry['fingerprint']} "
                f"({entry.get('rule', '?')} at {entry.get('path', '?')}): "
                "finding no longer fires — remove it from the baseline"
            )
        summary = self.summary()
        lines.append(
            f"repro-lint: {summary['files_checked']} file(s), "
            f"{summary['new']} new, {summary['accepted']} accepted, "
            f"{summary['suppressed']} suppressed, "
            f"{summary['stale_baseline']} stale baseline entr"
            f"{'y' if summary['stale_baseline'] == 1 else 'ies'}"
        )
        return "\n".join(lines)


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    files.append(candidate)
    return files


def lint_file(
    path: Path,
    rel_path: str,
    *,
    rules: frozenset[str] | None = None,
    routed: dict[str, frozenset[str]] | None = None,
) -> tuple[list[Finding], int]:
    """``(findings, suppressed_count)`` for one source file; ``routed``
    maps the run's route-declaring classes to their never-traced
    handlers (see :func:`repro.analysis.hotpath.routed_classes`)."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return (
            [
                Finding(
                    rule="REP000",
                    path=rel_path,
                    line=exc.lineno or 1,
                    message=f"file does not parse: {exc.msg}",
                )
            ],
            0,
        )
    raw: list[Finding] = []
    raw.extend(check_locks(tree, rel_path))
    if is_deterministic_path(rel_path) or DETERMINISTIC_MARKER in source:
        raw.extend(check_determinism(tree, rel_path))
    raw.extend(check_hotpath(tree, rel_path, source, routed))

    suppressions = SuppressionIndex(source)
    for malformed in suppressions.malformed:
        raw.append(
            Finding(
                rule=malformed.rule,
                path=rel_path,
                line=malformed.line,
                column=malformed.column,
                severity=malformed.severity,
                message=malformed.message,
            )
        )

    kept: list[Finding] = []
    suppressed = 0
    for finding in raw:
        if rules is not None and finding.rule not in rules:
            continue
        if suppressions.lookup(finding.rule, finding.line) is not None:
            suppressed += 1
            continue
        kept.append(finding)
    return kept, suppressed


def run_lint(
    paths: list[Path],
    *,
    root: Path | None = None,
    baseline: Baseline | None = None,
    rules: frozenset[str] | None = None,
) -> LintResult:
    """Lint ``paths`` (files or directories) and fold in the baseline.

    ``root`` anchors the relative paths findings report (defaults to
    the current directory).
    """
    root = (root or Path.cwd()).resolve()
    result = LintResult()
    findings: list[Finding] = []
    files = iter_python_files(paths)
    # A route table may serve classes in other modules: gather them all.
    routed: dict[str, frozenset[str]] = {}
    for path in files:
        source = path.read_text(encoding="utf-8")
        if "router.add(" in source:
            with contextlib.suppress(SyntaxError):  # lint_file reports it
                routed.update(routed_classes(ast.parse(source)))
    for path in files:
        resolved = path.resolve()
        try:
            rel = resolved.relative_to(root).as_posix()
        except ValueError:
            rel = resolved.as_posix()
        file_findings, suppressed = lint_file(resolved, rel, rules=rules, routed=routed)
        findings.extend(file_findings)
        result.suppressed += suppressed
        result.files_checked += 1

    findings = sort_findings(findings)
    if baseline is None:
        result.new = findings
    else:
        result.new, result.accepted, result.stale_baseline = baseline.split(findings)
    return result


def render_json(result: LintResult) -> str:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True)


__all__ = [
    "LintResult",
    "iter_python_files",
    "lint_file",
    "render_json",
    "run_lint",
]
