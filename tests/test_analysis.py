"""Tests for ``repro.analysis`` (the ``repro-lint`` invariant checker).

Each rule family gets seeded-violation fixtures asserting the *exact*
rule ids and line numbers, plus a clean fixture proving no false
positives on the idiomatic form of the same code.  The baseline and
CLI tests run the real pipeline end-to-end in a tmp tree, and the last
test runs the checker over this repository itself — the same contract
CI's ``lint-invariants`` job enforces.
"""

import ast
import json
from pathlib import Path

from repro.analysis import (
    Baseline,
    Finding,
    SuppressionIndex,
    check_determinism,
    check_hotpath,
    check_locks,
    is_deterministic_path,
    run_lint,
)
from repro.analysis.__main__ import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def rules_at(findings: list[Finding]) -> list[tuple[str, int]]:
    return [(f.rule, f.line) for f in findings]


# ---------------------------------------------------------------------------
# REP10x — lock discipline


LOCK_FIXTURE = """\
import threading

class Counter:
    def __init__(self):
        self._guard = threading.Lock()
        self.total = 0
        self.items = []

    def bump(self):
        with self._guard:
            self.total += 1
            self.items.append(self.total)

    def peek(self):
        return self.total

    def reset(self):
        self.total = 0

    def drain(self):
        self.items.clear()
"""


def test_lock_rule_flags_unguarded_accesses_with_exact_lines():
    findings = check_locks(ast.parse(LOCK_FIXTURE), "fixture.py")
    assert rules_at(findings) == [
        ("REP101", 15),  # peek reads self.total off-lock
        ("REP102", 18),  # reset writes self.total off-lock
        ("REP102", 21),  # drain mutates self.items via .clear() off-lock
    ]
    assert findings[0].scope == "Counter.peek"
    assert findings[0].severity == "warning"
    assert findings[1].severity == "error"


LOCK_CLEAN_FIXTURE = """\
import threading

class Counter:
    def __init__(self):
        self._guard = threading.Lock()
        self.total = 0
        self.label = "counter"

    def bump(self):
        with self._guard:
            self.total += 1

    def peek(self):
        with self._guard:
            return self.total

    def name(self):
        return self.label
"""


def test_lock_rule_clean_fixture_has_no_findings():
    # label is never written under the lock, so reading it is fine;
    # every access to the guarded attribute holds the lock.
    assert check_locks(ast.parse(LOCK_CLEAN_FIXTURE), "fixture.py") == []


def test_lock_rule_detects_dataclass_style_locks():
    source = """\
import threading
from dataclasses import dataclass, field

@dataclass
class Record:
    status: str = "queued"
    _guard: threading.Lock = field(default_factory=threading.Lock)

    def flip(self):
        with self._guard:
            self.status = "done"

    def peek(self):
        return self.status
"""
    findings = check_locks(ast.parse(source), "fixture.py")
    assert rules_at(findings) == [("REP101", 14)]


def test_lock_rule_subscript_store_counts_as_write():
    source = """\
import threading

class Table:
    def __init__(self):
        self._guard = threading.Lock()
        self._rows = {}

    def put(self, k, v):
        with self._guard:
            self._rows[k] = v

    def evict(self, k):
        del self._rows[k]
"""
    findings = check_locks(ast.parse(source), "fixture.py")
    assert rules_at(findings) == [("REP102", 13)]


def test_lock_rule_classes_without_locks_are_out_of_scope():
    source = """\
class Plain:
    def __init__(self):
        self.total = 0

    def bump(self):
        self.total += 1
"""
    assert check_locks(ast.parse(source), "fixture.py") == []


# ---------------------------------------------------------------------------
# REP20x — determinism


DETERMINISM_FIXTURE = """\
import time
import random

def pick(deadline, items):
    if time.time() > deadline:
        return None
    seen = {1, 2}
    out = [x for x in seen]
    return sorted(items, key=id)
"""


def test_determinism_rules_fire_with_exact_lines():
    findings = check_determinism(
        ast.parse(DETERMINISM_FIXTURE), "src/repro/kernels/fixture.py"
    )
    assert rules_at(findings) == [
        ("REP201", 2),  # import random
        ("REP202", 5),  # time.time() in a branch condition
        ("REP203", 8),  # comprehension over a bare set
        ("REP204", 9),  # sorted(key=id)
    ]


DETERMINISM_CLEAN_FIXTURE = """\
import time

def solve(items, stats):
    start = time.perf_counter()
    seen = {1, 2}
    out = [x for x in sorted(seen)]
    stats["elapsed"] = time.perf_counter() - start
    return out
"""


def test_determinism_clean_fixture_has_no_findings():
    # Measuring wall time into a counter and iterating sorted(set) are
    # the sanctioned forms; neither may fire.
    assert (
        check_determinism(
            ast.parse(DETERMINISM_CLEAN_FIXTURE),
            "src/repro/kernels/fixture.py",
        )
        == []
    )


def test_deterministic_path_scoping():
    assert is_deterministic_path("src/repro/kernels/configs.py")
    assert is_deterministic_path("src/repro/engine/loop.py")
    # The churn kernel is a bit-identity module: auto-covered by the
    # kernels package scope.
    assert is_deterministic_path("src/repro/kernels/dynamic.py")
    assert not is_deterministic_path("src/repro/server/app.py")
    assert not is_deterministic_path("tests/test_engine.py")


def test_core_dynamic_opts_into_determinism_scope():
    # core/ is not a blanket-deterministic package, but the dynamic
    # maintainer carries the oracle for the vectorized churn backend —
    # it must stay marker-covered by the REP2xx rules.
    from pathlib import Path

    from repro.analysis import DETERMINISTIC_MARKER

    source = Path("src/repro/core/dynamic.py").read_text(encoding="utf-8")
    assert DETERMINISTIC_MARKER in source


# ---------------------------------------------------------------------------
# REP40x — hot-path / hygiene


HOTPATH_FIXTURE = """\
_UNTRACED_PREFIXES = ("/healthz",)
_UNTRACED_GET_PREFIXES = ("/v1/jobs",)

class App:
    def _build(self, router):
        router.add("GET", "/healthz", self._healthz)
        router.add("GET", "/v1/jobs", self._jobs)
        router.add("POST", "/v1/solve", self._solve)

    def _healthz(self, request):
        with span("healthz"):
            log.info("health checked")
        return None

    def _jobs(self, request):
        log.debug("status poll")
        return None

    def _solve(self, request):
        log.info("solving")
        return Response.json({"error": "bad"}, status=422)

    def _dispatch_inner(self, request):
        return Response.error(500, "boom")
"""


def test_hotpath_rules_fire_with_exact_lines():
    tree = ast.parse(HOTPATH_FIXTURE)
    findings = check_hotpath(tree, "fixture.py", HOTPATH_FIXTURE)
    assert rules_at(findings) == [
        ("REP401", 11),  # span() in the /healthz handler
        ("REP402", 12),  # log.info in the /healthz handler
        ("REP402", 16),  # log.debug in the status-poll GET handler
        ("REP405", 21),  # hand-built 422 outside the dispatch boundary
    ]
    # log.info in the traced _solve handler did NOT fire REP402, and
    # _dispatch_inner's Response.error is the exempt boundary.
    assert all(f.line not in (20, 24) for f in findings)


def test_bare_and_swallowed_except():
    source = """\
def risky(work):
    try:
        work()
    except:
        return None
    try:
        work()
    except ValueError:
        pass
"""
    findings = check_hotpath(ast.parse(source), "fixture.py", source)
    assert rules_at(findings) == [("REP403", 4), ("REP404", 8)]


def test_never_traced_marker_opts_in_plain_functions():
    source = """\
# lint: never-traced
def sweep(backends):
    log.info("sweeping")
"""
    findings = check_hotpath(ast.parse(source), "fixture.py", source)
    assert rules_at(findings) == [("REP402", 3)]


def test_never_traced_rules_reach_the_services_on_the_shared_shell(tmp_path):
    """The route table lives in ``server/base.py``, but the handlers it
    marks never-traced are defined in each service's own module: a span
    or log record slipped into one of them must still fire."""
    serving = REPO_ROOT / "src/repro/server"
    (tmp_path / "base.py").write_text(
        (serving / "base.py").read_text(encoding="utf-8"), encoding="utf-8"
    )
    insertions = {
        "server_app.py": (
            serving / "app.py",
            "    async def _get_job(self, request: Request, jid: str) -> Response:\n",
            '        with span("job.poll"):\n            pass\n',
        ),
        "cluster_app.py": (
            REPO_ROOT / "src/repro/cluster/app.py",
            "    async def _health(self, request: Request) -> Response:\n",
            '        log.info("health checked")\n',
        ),
    }
    for name, (source, handler_def, inserted) in insertions.items():
        text = source.read_text(encoding="utf-8")
        assert text.count(handler_def) == 1, name
        patched = text.replace(handler_def, handler_def + inserted)
        (tmp_path / name).write_text(patched, encoding="utf-8")
    result = run_lint([tmp_path], root=tmp_path)
    fired = {
        (f.path, f.rule, f.scope)
        for f in result.new
        if f.rule in ("REP401", "REP402")
    }
    assert fired == {
        ("server_app.py", "REP401", "ReproServer._get_job"),
        ("cluster_app.py", "REP402", "ReproGateway._health"),
    }


# ---------------------------------------------------------------------------
# suppressions


def test_suppression_same_line_and_line_above():
    source = """\
x = build()  # lint: setiter-ok(canonical order restored downstream)
# lint: unguarded-ok(benign racy read of a monotonic counter)
y = peek()
"""
    index = SuppressionIndex(source)
    assert index.lookup("REP203", 1) is not None
    assert index.lookup("REP204", 1) is None  # tag doesn't cover REP204
    assert index.lookup("REP101", 3) is not None  # comment line above
    assert index.lookup("REP102", 3) is not None
    assert index.malformed == []


def test_reasonless_suppression_is_reported_and_not_honoured():
    source = "x = build()  # lint: setiter-ok()\n"
    index = SuppressionIndex(source)
    assert index.lookup("REP203", 1) is None
    assert [f.rule for f in index.malformed] == ["REP001"]


def test_exact_rule_id_works_as_suppression_tag():
    source = "x = build()  # lint: REP203-ok(order is re-sorted below)\n"
    index = SuppressionIndex(source)
    assert index.lookup("REP203", 1) is not None
    assert index.lookup("REP201", 1) is None


# ---------------------------------------------------------------------------
# baseline round-trip


def test_baseline_round_trip_accepts_then_goes_stale(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(LOCK_FIXTURE)
    baseline_path = tmp_path / "baseline.json"

    first = run_lint([bad], root=tmp_path)
    assert [f.rule for f in first.new] == ["REP101", "REP102", "REP102"]

    Baseline().save(baseline_path, first.new)
    payload = json.loads(baseline_path.read_text())
    assert payload["version"] == 1
    assert all(
        e["justification"] == "TODO: justify or fix"
        for e in payload["findings"]
    )

    second = run_lint(
        [bad],
        root=tmp_path,
        baseline=Baseline.load(baseline_path),
    )
    assert second.new == []
    assert len(second.accepted) == 3
    assert second.exit_code == 0

    # Fix one violation: its baseline entry is now stale, nothing new.
    bad.write_text(LOCK_FIXTURE.replace(
        "    def reset(self):\n        self.total = 0\n", ""
    ))
    third = run_lint(
        [bad],
        root=tmp_path,
        baseline=Baseline.load(baseline_path),
    )
    assert third.new == []
    assert len(third.accepted) == 2
    assert len(third.stale_baseline) == 1
    assert third.stale_baseline[0]["rule"] == "REP102"


def test_baseline_fingerprint_survives_line_drift(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(LOCK_FIXTURE)
    first = run_lint([bad], root=tmp_path)

    bad.write_text("# a new leading comment\n\n" + LOCK_FIXTURE)
    drifted = run_lint([bad], root=tmp_path)
    assert [f.fingerprint for f in first.new] == [
        f.fingerprint for f in drifted.new
    ]
    assert [f.line for f in drifted.new] == [f.line + 2 for f in first.new]


def test_suppressions_remove_findings_in_the_pipeline(tmp_path):
    suppressed = LOCK_FIXTURE.replace(
        "        return self.total",
        "        # lint: unguarded-ok(benign racy read for a gauge)\n"
        "        return self.total",
    )
    bad = tmp_path / "bad.py"
    bad.write_text(suppressed)
    result = run_lint([bad], root=tmp_path)
    assert [f.rule for f in result.new] == ["REP102", "REP102"]
    assert result.suppressed == 1


# ---------------------------------------------------------------------------
# CLI


def test_cli_exit_codes_and_json(tmp_path, capsys):
    pkg = tmp_path / "src"
    pkg.mkdir()
    bad = pkg / "bad.py"
    bad.write_text(LOCK_FIXTURE)

    code = lint_main(
        ["--root", str(tmp_path), "--json", "--no-baseline", str(bad)]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["new"] == 3
    assert {f["rule"] for f in payload["findings"]} == {"REP101", "REP102"}
    assert all("fingerprint" in f for f in payload["findings"])

    code = lint_main(["--root", str(tmp_path), "--write-baseline", str(bad)])
    assert code == 0
    capsys.readouterr()
    code = lint_main(
        ["--root", str(tmp_path), "--fail-on-new", str(bad)]
    )
    assert code == 0
    assert "3 accepted" in capsys.readouterr().out

    assert lint_main(["--root", str(tmp_path), str(tmp_path / "nope")]) == 2


def test_cli_rules_filter(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(LOCK_FIXTURE)
    code = lint_main(
        [
            "--root", str(tmp_path), "--no-baseline",
            "--rules", "REP101", "--json", str(bad),
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload["findings"]] == ["REP101"]


# ---------------------------------------------------------------------------
# the repo's own contract (what CI's lint-invariants job enforces)


def test_repo_is_clean_against_checked_in_baseline():
    result = run_lint(
        [REPO_ROOT / "src" / "repro"],
        root=REPO_ROOT,
        baseline=Baseline.load(REPO_ROOT / "repro-lint.baseline.json"),
    )
    assert result.new == [], "\n".join(f.render() for f in result.new)
    assert result.stale_baseline == []
    # Every accepted finding carries a written justification.
    assert all(
        f.justification and "TODO" not in f.justification
        for f in result.accepted
    )


def test_analysis_package_self_check():
    result = run_lint(
        [REPO_ROOT / "src" / "repro" / "analysis"],
        root=REPO_ROOT,
    )
    assert result.new == [], "\n".join(f.render() for f in result.new)
