"""``repro.analysis`` — AST-based invariant checker (``repro-lint``).

Three rule families, each encoding a discipline earlier PRs introduced
in prose and this package makes machine-checked:

======  ==========================================================
REP0xx  meta (parse failures, malformed suppression comments)
REP1xx  lock discipline — guarded attributes accessed off-lock
REP2xx  determinism — RNG / wall-clock / set-order / id() in the
        bit-identical packages (engine, kernels, skyline, rtree)
        and marked modules
REP3xx  retired — the registry checks compared dispatch tables
        that ``repro.core.registry`` replaced with one table
REP4xx  hot-path & error hygiene — spans/logs on never-traced
        paths, bare/swallowed except, hand-built error envelopes
======  ==========================================================

Findings are typed (:class:`Finding`), output is text or JSON, and a
checked-in baseline (``repro-lint.baseline.json``) holds reviewed,
justified exceptions: accepted findings pass CI, *new* findings fail
it.  Inline escape hatch: ``# lint: <tag>-ok(reason)`` with a
mandatory reason.
"""

from __future__ import annotations

from repro.analysis.baseline import (
    BASELINE_VERSION,
    DEFAULT_BASELINE_NAME,
    Baseline,
)
from repro.analysis.determinism import (
    DETERMINISTIC_MARKER,
    DETERMINISTIC_PACKAGES,
    check_determinism,
    is_deterministic_path,
)
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.hotpath import (
    ENVELOPE_BOUNDARIES,
    NEVER_TRACED_MARKER,
    check_hotpath,
)
from repro.analysis.locks import check_locks
from repro.analysis.runner import (
    LintResult,
    iter_python_files,
    lint_file,
    render_json,
    run_lint,
)
from repro.analysis.suppress import TAG_RULES, SuppressionIndex

__all__ = [
    "BASELINE_VERSION",
    "Baseline",
    "DEFAULT_BASELINE_NAME",
    "DETERMINISTIC_MARKER",
    "DETERMINISTIC_PACKAGES",
    "ENVELOPE_BOUNDARIES",
    "Finding",
    "LintResult",
    "NEVER_TRACED_MARKER",
    "SuppressionIndex",
    "TAG_RULES",
    "check_determinism",
    "check_hotpath",
    "check_locks",
    "is_deterministic_path",
    "iter_python_files",
    "lint_file",
    "render_json",
    "run_lint",
    "sort_findings",
]
