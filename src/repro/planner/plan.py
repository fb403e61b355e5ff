"""The :class:`Plan` artifact and the rule that resolves ``auto``.

``method="auto"`` resolves by one fixed rule: every ``auto`` solve
runs ``sb-vec``, the columnar twin of the paper's SB
(:data:`AUTO_PLAN`).  Timed per op on a warm index, it came within a
few percent of the fastest of ``chain``, ``sb-vec`` and
``sb-deltasky-vec`` on every served shape, so ranking candidates
per instance bought nothing (README, "Adaptive planning").  The rule
reads nothing of the instance, so every process resolves every
instance identically — the bit-identical ``auto`` guarantee.
``explicit_plan`` wraps a caller-chosen method in the same artifact
so ``explain()`` works uniformly.

A ``Plan`` is a small, picklable, JSON-serializable value: the service
layer records it per job, the session attaches it to the
:class:`~repro.api.solution.Solution`, and the server ships it in the
solve envelope and counts its picks in ``/metrics``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.errors import SerdeError
from repro.planner.registry import AUTO_METHOD


@dataclass(frozen=True)
class Plan:
    """The method a solve runs, and who chose it."""

    #: What the caller asked for: ``"auto"`` or a concrete name.
    requested: str
    #: The resolved concrete method the engine actually runs.
    method: str
    #: Solver options of the resolved method (sorted items).
    options: tuple[tuple[str, Any], ...] = ()

    @property
    def auto(self) -> bool:
        """Did the rule (rather than the caller) pick the method?"""
        return self.requested == AUTO_METHOD

    def options_dict(self) -> dict[str, Any]:
        return dict(self.options)

    def explain(self) -> str:
        """One line saying which method runs and why."""
        if self.auto:
            return (
                f"planner resolved method='auto' -> {self.method!r} by its "
                "fixed rule: every auto solve runs the columnar SB"
            )
        return (
            f"method {self.method!r} was picked explicitly; "
            "the planner was not consulted"
        )

    # -- serde ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "requested": self.requested,
            "method": self.method,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Plan":
        if not isinstance(payload, Mapping):
            raise SerdeError("plan payload must be a mapping")
        try:
            return cls(
                requested=payload["requested"],
                method=payload["method"],
                options=tuple(sorted(dict(payload.get("options") or {}).items())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerdeError(f"malformed plan payload: {exc}") from exc


#: What ``method="auto"`` resolves to, for every instance.
AUTO_PLAN = Plan(requested=AUTO_METHOD, method="sb-vec")


def explicit_plan(method: str, options: Mapping[str, Any] | None = None) -> Plan:
    """The trivial plan for a caller-chosen method (uniform explain)."""
    return Plan(
        requested=method,
        method=method,
        options=tuple(sorted(dict(options or {}).items())),
    )


__all__ = ["AUTO_PLAN", "Plan", "explicit_plan"]
