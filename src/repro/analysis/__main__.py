"""``repro-lint`` — the console entry point of :mod:`repro.analysis`.

Usage::

    repro-lint                         # lint src/repro against the baseline
    repro-lint --json                  # machine-readable output
    repro-lint --write-baseline        # accept current findings
    repro-lint src/repro/analysis      # self-check one package
    repro-lint --no-baseline path.py   # absolute mode: any finding fails

Exit status: 0 when no *new* findings (accepted baseline findings and
justified suppressions don't fail), 1 when new findings exist, 2 on
usage errors.  ``--fail-on-new`` names the default contract explicitly
for CI readability.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.baseline import Baseline, DEFAULT_BASELINE_NAME
from repro.analysis.runner import render_json, run_lint


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for the repro codebase: lock "
            "discipline (REP1xx), determinism (REP2xx), hot-path/error "
            "hygiene (REP4xx)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repo root findings are reported relative to (default: cwd)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE_NAME})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline: every finding is new and fails",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "write current findings to the baseline file (preserving "
            "existing justifications) and exit 0"
        ),
    )
    parser.add_argument(
        "--fail-on-new",
        action="store_true",
        help=(
            "exit non-zero iff findings not in the baseline exist "
            "(the default contract, named for CI clarity)"
        ),
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (e.g. REP101,REP403)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    root = (args.root or Path.cwd()).resolve()
    paths = args.paths or [root / "src" / "repro"]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"repro-lint: no such path: {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2

    baseline_path = args.baseline or root / DEFAULT_BASELINE_NAME
    baseline: Baseline | None = None
    if not args.no_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except ValueError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2

    rules = (
        frozenset(r.strip() for r in args.rules.split(",") if r.strip())
        if args.rules
        else None
    )
    result = run_lint(
        paths,
        root=root,
        baseline=None if args.write_baseline else baseline,
        rules=rules,
    )

    if args.write_baseline:
        ledger = baseline or Baseline()
        ledger.save(baseline_path, result.new)
        print(f"repro-lint: wrote {len(result.new)} finding(s) to {baseline_path}")
        return 0

    print(render_json(result) if args.json else result.render_text())
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
