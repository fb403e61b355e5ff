"""REP30x — registry ↔ dispatch consistency.

PR 5 made :data:`repro.planner.registry.REGISTRY` the one table every
layer dispatches from.  These rules keep the satellites that *cannot*
be derived views from drifting away from it:

- **REP302** — registry ↔ ``ENGINE_CONFIGS`` mismatch (an
  engine-backed spec missing from the config map, or a config entry no
  spec claims);
- **REP304** — ``core.solve``'s ``SOLVERS`` / ``SOLVER_OPTIONS``
  tables are no longer *derived* from the registry (a literal dict
  re-introduces the split-brain the registry removed).

REP301, REP303 and REP305 are retired: they checked the planner's
calibration table and forced-pick list, which the fixed
``method="auto"`` rule does not have.

The checks run on a :class:`RegistryView` — by default snapshotted
from the live registry/config tables (they are canonical; re-parsing
them from source would just re-implement Python) — while the
*derived-view* check parses source, because what it verifies is how
the code is written, not what it evaluates to.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding

RULE_ENGINE_CONFIG_MISMATCH = "REP302"
RULE_UNDERIVED_VIEW = "REP304"

#: The derived-view names ``repro.core`` must build from the registry.
DERIVED_VIEWS = ("SOLVERS", "SOLVER_OPTIONS")


@dataclass(frozen=True)
class RegistryView:
    """The cross-checked facts, decoupled from the live modules so
    tests can seed inconsistent views."""

    #: Names of engine-backed specs (``config_factory`` present).
    engine_backed: frozenset[str]
    #: Keys of ``ENGINE_CONFIGS``.
    engine_configs: frozenset[str]
    #: Source anchors (findings point at the drifted artifact).
    configs_path: str = "src/repro/engine/configs.py"
    core_init_path: str = "src/repro/core/__init__.py"
    root: Path = field(default_factory=Path)

    @classmethod
    def live(cls, root: Path) -> "RegistryView":
        """Snapshot the real tables (imports the repro package)."""
        from repro.engine.configs import ENGINE_CONFIGS
        from repro.planner.registry import REGISTRY

        return cls(
            engine_backed=frozenset(s.name for s in REGISTRY if s.engine_backed),
            engine_configs=frozenset(ENGINE_CONFIGS),
            root=root,
        )


def _anchor(root: Path, rel_path: str, symbol: str) -> int:
    """Line of ``symbol``'s (ann)assignment in a source file, for
    anchoring a cross-file finding; 1 when unresolvable."""
    try:
        tree = ast.parse((root / rel_path).read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return 1
    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == symbol:
                return node.lineno
    return 1


def _underived_views(root: Path, rel_path: str) -> list[tuple[str, int]]:
    """Derived-view assignments in ``core/__init__`` whose right-hand
    side never references ``REGISTRY`` → ``[(name, line), ...]``."""
    try:
        tree = ast.parse((root / rel_path).read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return []
    stale: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            if not (isinstance(target, ast.Name) and target.id in DERIVED_VIEWS):
                continue
            references_registry = any(
                isinstance(sub, ast.Name) and sub.id == "REGISTRY"
                for sub in ast.walk(value)
            )
            if not references_registry:
                stale.append((target.id, node.lineno))
    return stale


def check_registry(view: RegistryView) -> list[Finding]:
    """Run every registry-consistency rule over one view."""
    findings: list[Finding] = []
    root = view.root

    configs_line = _anchor(root, view.configs_path, "ENGINE_CONFIGS")
    for name in sorted(view.engine_backed - view.engine_configs):
        findings.append(
            Finding(
                rule=RULE_ENGINE_CONFIG_MISMATCH,
                path=view.configs_path,
                line=configs_line,
                scope="ENGINE_CONFIGS",
                message=(
                    f"engine-backed solver '{name}' has no ENGINE_CONFIGS "
                    "entry: engine_config() and the bench harness cannot "
                    "build it"
                ),
            )
        )
    for name in sorted(view.engine_configs - view.engine_backed):
        findings.append(
            Finding(
                rule=RULE_ENGINE_CONFIG_MISMATCH,
                path=view.configs_path,
                line=configs_line,
                scope="ENGINE_CONFIGS",
                message=(
                    f"ENGINE_CONFIGS entry '{name}' matches no engine-backed "
                    "registry spec: unreachable config (or a spec lost its "
                    "config_factory)"
                ),
            )
        )

    for name, line in _underived_views(root, view.core_init_path):
        findings.append(
            Finding(
                rule=RULE_UNDERIVED_VIEW,
                path=view.core_init_path,
                line=line,
                scope=name,
                message=(
                    f"'{name}' is assigned without referencing REGISTRY: "
                    "core.solve's dispatch tables must stay derived views "
                    "of the solver registry (PR 5), not literal copies"
                ),
            )
        )
    return findings


__all__ = [
    "DERIVED_VIEWS",
    "RULE_ENGINE_CONFIG_MISMATCH",
    "RULE_UNDERIVED_VIEW",
    "RegistryView",
    "check_registry",
]
