"""REP20x — determinism discipline in the bit-identity packages.

The engine's headline guarantee is that every engine config, serving
layer and cluster topology returns *bit-identical* solutions, although
the gateway, its backends and their clients each compute answers and
digests in their own process.  The packages
on that path (``engine``, ``kernels``, ``skyline``, ``rtree``, and
marked modules such as the solver table in ``core/registry.py``)
therefore must not let run-to-run-varying state influence results:

- **REP201** — ``random`` / ``uuid`` / ``numpy.random`` usage: seeds
  differ across processes, so any RNG in a solve path breaks
  cross-process identity;
- **REP202** — wall-clock-dependent control flow: ``time.time()`` /
  ``monotonic()`` / ``perf_counter()`` inside an ``if`` / ``while``
  condition or comparison (pure *measurement* — assigning a duration
  to a counter — is fine and common);
- **REP203** — iteration over a bare ``set`` / ``frozenset``: set
  order is salted per process, so any collection built by iterating
  one is a cross-process mismatch waiting to happen; wrap the iterable
  in ``sorted(...)`` or take the ``# lint: setiter-ok(reason)`` hatch;
- **REP204** — ``id()``-keyed ordering or keying: CPython addresses
  vary per run, so ``id()`` in sort keys or as dict/set keys orders
  differently every execution.

Scope: files under the packages above, plus any file carrying a
``# repro-lint: deterministic-module`` marker (fixtures, new hot-path
modules outside the default list).
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding

RULE_RNG = "REP201"
RULE_TIME_CONTROL = "REP202"
RULE_SET_ITERATION = "REP203"
RULE_ID_KEY = "REP204"

#: Packages (relative to ``src/repro``) under determinism discipline.
DETERMINISTIC_PACKAGES = ("engine", "kernels", "skyline", "rtree")

#: File-level marker opting any module into this rule family.
DETERMINISTIC_MARKER = "# repro-lint: deterministic-module"

_RNG_MODULES = {"random", "uuid"}
_CLOCK_ATTRS = {"time", "monotonic", "perf_counter", "monotonic_ns", "time_ns"}


def is_deterministic_path(path: str) -> bool:
    parts = path.replace("\\", "/").split("/")
    if "repro" not in parts:
        return False
    tail = parts[parts.index("repro") + 1 :]
    return bool(tail) and tail[0] in DETERMINISTIC_PACKAGES


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` → "a.b.c" for pure name/attribute chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _scope_of(stack: list[str]) -> str:
    return ".".join(stack) if stack else "<module>"


class _SetTracker:
    """Per-function table of local names statically bound to sets."""

    def __init__(self) -> None:
        self.set_names: set[str] = set()

    @staticmethod
    def is_set_expr(node: ast.expr, known: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else None
            if name in {"set", "frozenset"}:
                return True
        if isinstance(node, ast.Name) and node.id in known:
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return _SetTracker.is_set_expr(
                node.left, known
            ) or _SetTracker.is_set_expr(node.right, known)
        return False

    def observe_assign(self, node: ast.stmt) -> None:
        value = getattr(node, "value", None)
        if value is None:
            return
        targets = (
            node.targets
            if isinstance(node, ast.Assign)
            else [node.target]
            if isinstance(node, (ast.AnnAssign, ast.AugAssign))
            else []
        )
        is_set = self.is_set_expr(value, self.set_names)
        for target in targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self.set_names.add(target.id)
                else:
                    self.set_names.discard(target.id)


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []
        self._scope_stack: list[str] = []
        self._trackers: list[_SetTracker] = [_SetTracker()]
        self._condition_depth = 0

    # -- helpers -------------------------------------------------------

    def _emit(
        self, rule: str, node: ast.AST, message: str, severity: str = "error"
    ) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.path,
                line=node.lineno,
                column=node.col_offset,
                scope=_scope_of(self._scope_stack),
                severity=severity,
                message=message,
            )
        )

    @property
    def _tracker(self) -> _SetTracker:
        return self._trackers[-1]

    # -- scope tracking ------------------------------------------------

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._scope_stack.append(node.name)
        self._trackers.append(_SetTracker())
        self.generic_visit(node)
        self._trackers.pop()
        self._scope_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope_stack.append(node.name)
        self.generic_visit(node)
        self._scope_stack.pop()

    # -- REP201: RNG imports / calls -----------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in _RNG_MODULES:
                self._emit(
                    RULE_RNG,
                    node,
                    f"import of '{alias.name}' in a bit-identity package: "
                    "RNG state varies per process and breaks cross-process "
                    "identity",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if root in _RNG_MODULES:
            self._emit(
                RULE_RNG,
                node,
                f"import from '{node.module}' in a bit-identity package: "
                "RNG state varies per process and breaks cross-process "
                "identity",
            )
        self.generic_visit(node)

    # -- conditions (for REP202) ---------------------------------------

    def _visit_condition(self, test: ast.expr) -> None:
        self._condition_depth += 1
        self.visit(test)
        self._condition_depth -= 1

    def visit_If(self, node: ast.If) -> None:
        self._visit_condition(node.test)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_While(self, node: ast.While) -> None:
        self._visit_condition(node.test)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        self._visit_condition(node.test)
        self.visit(node.body)
        self.visit(node.orelse)

    def visit_Compare(self, node: ast.Compare) -> None:
        self._condition_depth += 1
        self.generic_visit(node)
        self._condition_depth -= 1

    # -- calls: RNG, clocks, id() --------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            root = dotted.split(".")[0]
            if root in _RNG_MODULES:
                self._emit(
                    RULE_RNG,
                    node,
                    f"call to '{dotted}()' in a bit-identity package",
                )
            elif "random" in dotted.split(".")[1:]:
                # numpy.random / np.random chains.
                self._emit(
                    RULE_RNG,
                    node,
                    f"call into '{dotted}()' (RNG) in a bit-identity package",
                )
            elif (
                dotted.startswith("time.")
                and dotted.split(".")[1] in _CLOCK_ATTRS
                and self._condition_depth > 0
            ):
                self._emit(
                    RULE_TIME_CONTROL,
                    node,
                    f"'{dotted}()' feeds control flow: wall-clock-dependent "
                    "branches make runs irreproducible (measuring into a "
                    "counter is fine; branching on it is not)",
                )
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1
        ):
            self._emit(
                RULE_ID_KEY,
                node,
                "'id()' used in a bit-identity package: CPython addresses "
                "vary per run, so id()-keyed maps or sort keys order "
                "differently every execution",
                severity="warning",
            )
        # ``sort(key=id)`` / ``sorted(xs, key=id)``.
        for keyword in node.keywords:
            if (
                keyword.arg == "key"
                and isinstance(keyword.value, ast.Name)
                and keyword.value.id == "id"
            ):
                self._emit(
                    RULE_ID_KEY,
                    node,
                    "'key=id' sorts by memory address — nondeterministic "
                    "across runs",
                )
        self.generic_visit(node)

    # -- REP203: bare-set iteration ------------------------------------

    def _check_iterable(self, iterable: ast.expr) -> None:
        if _SetTracker.is_set_expr(iterable, self._tracker.set_names):
            self._emit(
                RULE_SET_ITERATION,
                iterable,
                "iteration over a bare set: set order is salted per "
                "process; wrap in sorted(...) to pin a canonical order",
                severity="warning",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    # -- statement-level set tracking ----------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self._tracker.observe_assign(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._tracker.observe_assign(node)
        self.generic_visit(node)


def check_determinism(tree: ast.Module, path: str) -> list[Finding]:
    """Run the determinism rules over one parsed module."""
    visitor = _DeterminismVisitor(path)
    visitor.visit(tree)
    return visitor.findings


__all__ = [
    "DETERMINISTIC_MARKER",
    "DETERMINISTIC_PACKAGES",
    "RULE_ID_KEY",
    "RULE_RNG",
    "RULE_SET_ITERATION",
    "RULE_TIME_CONTROL",
    "check_determinism",
    "is_deterministic_path",
]
