"""REP40x — hot-path and error hygiene in the serving tiers.

- **REP401 / REP402** — no span or log-record construction on the
  never-traced paths (PR 8's rule: ``/healthz``, ``/metrics``, the
  observability endpoints, job status-poll GETs, probe sweeps).  These
  arrive tens-per-solve / once-per-interval; tracing or logging them
  would dominate per-request cost and churn the recent trace store.
  The never-traced handler set is read from the route table itself —
  its module's ``_UNTRACED_PREFIXES`` / ``_UNTRACED_GET_PREFIXES``
  constants joined with its ``router.add(method, path, self._handler)``
  calls — gathered across all linted files, so the subclasses of a
  route-declaring class (the services on the shared HTTP shell) are
  checked in their own modules, and a newly registered untraced route
  is covered without touching the linter.  Functions outside a router
  module opt in with a ``# lint: never-traced`` marker on (or above)
  their ``def`` line (probe sweeps).  State-*transition* logging (a
  backend flipping down) lives in the transition methods, which these
  rules do not descend into — per-sweep bodies stay silent, rare flips
  stay loud.
- **REP403** — bare ``except:`` anywhere: it catches
  ``KeyboardInterrupt`` / ``SystemExit`` and makes shutdown hangs.
- **REP404** — swallowed exceptions: an ``except`` whose body is only
  ``pass`` / ``...`` hides failures; re-raise, log, or take the
  ``# lint: except-ok(reason)`` hatch (``contextlib.suppress`` at a
  call site documents intent and is not flagged).
- **REP405** — hand-built ≥400 envelopes in route handlers: error
  responses must be *raised* through the :class:`ReproError` family
  and translated once, at the dispatch boundary — that is what keeps
  every error envelope carrying ``trace_id`` and a stable shape.
  Boundary translators (``_dispatch_inner``, ``_handle_connection``,
  ``_relay_error``, ``_stamp_trace``) are exempt: they *are* the
  translation layer.
"""

from __future__ import annotations

import ast
from collections.abc import Mapping

from repro.analysis.findings import Finding

RULE_SPAN_IN_UNTRACED = "REP401"
RULE_LOG_IN_UNTRACED = "REP402"
RULE_BARE_EXCEPT = "REP403"
RULE_SWALLOWED_EXCEPT = "REP404"
RULE_HANDBUILT_ENVELOPE = "REP405"

#: Marker opting a single function into the never-traced body checks.
NEVER_TRACED_MARKER = "# lint: never-traced"

#: Functions allowed to construct ≥400 responses: the one translation
#: boundary per serving module.
ENVELOPE_BOUNDARIES = frozenset(
    {"_dispatch_inner", "_handle_connection", "_relay_error", "_stamp_trace"}
)

_SPAN_FACTORIES = {"span", "derived_span"}
_LOG_METHODS = {"debug", "info", "warning", "error", "exception", "critical"}


def _dotted_tail(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _str_tuple(node: ast.expr) -> tuple[str, ...]:
    if isinstance(node, (ast.Tuple, ast.List)):
        return tuple(
            e.value
            for e in node.elts
            if isinstance(e, ast.Constant) and isinstance(e.value, str)
        )
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value,)
    return ()


def _module_constants(tree: ast.Module, name: str) -> tuple[str, ...]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return _str_tuple(node.value)
    return ()


def _routes(tree: ast.AST) -> list[tuple[str, str, str]]:
    """``router.add("GET", "/path", self._handler)`` sites →
    ``[(http_method, path, handler_name), ...]``."""
    routes: list[tuple[str, str, str]] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "router"
            and len(node.args) >= 3
        ):
            continue
        method_node, path_node, handler_node = node.args[:3]
        if not (
            isinstance(method_node, ast.Constant)
            and isinstance(path_node, ast.Constant)
        ):
            continue
        handler = (
            handler_node.attr
            if isinstance(handler_node, ast.Attribute)
            else handler_node.id
            if isinstance(handler_node, ast.Name)
            else None
        )
        if handler is not None:
            routes.append((str(method_node.value), str(path_node.value), handler))
    return routes


def untraced_handlers(tree: ast.Module) -> set[str]:
    """Handler names serving never-traced routes, per the module's own
    untraced-prefix constants and route registrations."""
    prefixes = _module_constants(tree, "_UNTRACED_PREFIXES")
    get_prefixes = _module_constants(tree, "_UNTRACED_GET_PREFIXES")
    handlers: set[str] = set()
    for method, path, handler in _routes(tree):
        if path.startswith(prefixes) if prefixes else False:
            handlers.add(handler)
        elif method == "GET" and get_prefixes and path.startswith(get_prefixes):
            handlers.add(handler)
    return handlers


def routed_classes(tree: ast.Module) -> dict[str, frozenset[str]]:
    """Classes declaring routes (``router.add`` calls in their body) →
    the never-traced handlers among those routes."""
    never_traced = untraced_handlers(tree)
    return {
        node.name: frozenset(h for _, _, h in routes if h in never_traced)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and (routes := _routes(node))
    }


def _marked_functions(source: str, tree: ast.Module) -> set[str]:
    """Function names carrying ``# lint: never-traced`` on or directly
    above their ``def`` line."""
    lines = source.splitlines()
    marked: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        for i in range(max(0, first - 2), node.lineno):
            if i < len(lines) and NEVER_TRACED_MARKER in lines[i]:
                marked.add(node.name)
    return marked


def _check_untraced_body(
    func: ast.FunctionDef | ast.AsyncFunctionDef, path: str, scope: str
) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        tail = _dotted_tail(node.func)
        if tail in _SPAN_FACTORIES:
            findings.append(
                Finding(
                    rule=RULE_SPAN_IN_UNTRACED,
                    path=path,
                    line=node.lineno,
                    column=node.col_offset,
                    scope=scope,
                    severity="warning",
                    message=(
                        f"span construction ('{tail}(...)') on a "
                        "never-traced path: probe/poll traffic must not "
                        "churn the trace store (PR 8 discipline)"
                    ),
                )
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _LOG_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in {"log", "logger"}
        ):
            findings.append(
                Finding(
                    rule=RULE_LOG_IN_UNTRACED,
                    path=path,
                    line=node.lineno,
                    column=node.col_offset,
                    scope=scope,
                    severity="warning",
                    message=(
                        f"log record ('log.{node.func.attr}') constructed "
                        "on a never-traced path: per-sweep/per-poll logging "
                        "floods the ring; log state *transitions* instead"
                    ),
                )
            )
    return findings


def _status_of(call: ast.Call) -> int | None:
    """The literal status of a ``Response.error(...)`` /
    ``Response.json(..., status=N)`` construction, if determinable."""
    func = call.func
    if not (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "Response"
    ):
        return None
    if func.attr == "error":
        if call.args and isinstance(call.args[0], ast.Constant):
            value = call.args[0].value
            return value if isinstance(value, int) else None
        for kw in call.keywords:
            if kw.arg == "status" and isinstance(kw.value, ast.Constant):
                value = kw.value.value
                return value if isinstance(value, int) else None
        return 500  # Response.error defaults to an error status
    if func.attr == "json":
        for kw in call.keywords:
            if kw.arg == "status" and isinstance(kw.value, ast.Constant):
                value = kw.value.value
                return value if isinstance(value, int) else None
    return None


class _HygieneVisitor(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        untraced: set[str],
        router_module: bool,
    ) -> None:
        self.path = path
        self.untraced = untraced
        self.router_module = router_module
        self.findings: list[Finding] = []
        self._scope_stack: list[str] = []

    def _scope(self) -> str:
        return ".".join(self._scope_stack) if self._scope_stack else "<module>"

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._scope_stack.append(node.name)
        if node.name in self.untraced:
            self.findings.extend(_check_untraced_body(node, self.path, self._scope()))
        self.generic_visit(node)
        self._scope_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope_stack.append(node.name)
        self.generic_visit(node)
        self._scope_stack.pop()

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.findings.append(
                Finding(
                    rule=RULE_BARE_EXCEPT,
                    path=self.path,
                    line=node.lineno,
                    column=node.col_offset,
                    scope=self._scope(),
                    message=(
                        "bare 'except:' catches KeyboardInterrupt/"
                        "SystemExit; catch Exception (or narrower)"
                    ),
                )
            )
        if all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in node.body
        ):
            self.findings.append(
                Finding(
                    rule=RULE_SWALLOWED_EXCEPT,
                    path=self.path,
                    line=node.lineno,
                    column=node.col_offset,
                    scope=self._scope(),
                    severity="warning",
                    message=(
                        "exception swallowed (except body is only pass): "
                        "re-raise, log, or use contextlib.suppress at the "
                        "call site to document intent"
                    ),
                )
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self.router_module:
            status = _status_of(node)
            enclosing = self._scope_stack[-1] if self._scope_stack else ""
            if (
                status is not None
                and status >= 400
                and enclosing not in ENVELOPE_BOUNDARIES
            ):
                self.findings.append(
                    Finding(
                        rule=RULE_HANDBUILT_ENVELOPE,
                        path=self.path,
                        line=node.lineno,
                        column=node.col_offset,
                        scope=self._scope(),
                        severity="warning",
                        message=(
                            f"hand-built HTTP {status} envelope outside the "
                            "dispatch boundary: raise a ReproError subclass "
                            "and let the boundary translate it (keeps "
                            "trace_id and envelope shape uniform)"
                        ),
                    )
                )
        self.generic_visit(node)


def check_hotpath(
    tree: ast.Module,
    path: str,
    source: str,
    routed: Mapping[str, frozenset[str]] | None = None,
) -> list[Finding]:
    """Run the hot-path / hygiene rules over one parsed module.

    ``routed`` holds the route-declaring classes of the other linted
    modules (see :func:`routed_classes`): a module whose classes
    subclass one serves those routes, so it is a router module and the
    inherited never-traced handlers it defines are checked."""
    routes = _routes(tree)
    untraced = untraced_handlers(tree) if routes else set()
    known = routed or {}
    inherited = [  # never-traced handler sets of route-declaring bases
        known[name]
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for name in map(_dotted_tail, node.bases)
        if name is not None and name in known
    ]
    for handlers in inherited:
        untraced |= handlers
    untraced |= _marked_functions(source, tree)
    visitor = _HygieneVisitor(path, untraced, router_module=bool(routes or inherited))
    visitor.visit(tree)
    return visitor.findings


__all__ = [
    "ENVELOPE_BOUNDARIES",
    "NEVER_TRACED_MARKER",
    "RULE_BARE_EXCEPT",
    "RULE_HANDBUILT_ENVELOPE",
    "RULE_LOG_IN_UNTRACED",
    "RULE_SPAN_IN_UNTRACED",
    "RULE_SWALLOWED_EXCEPT",
    "check_hotpath",
    "routed_classes",
]
