"""Versioned dict/JSON serialization shared by the API value objects.

Payloads are plain JSON-compatible dicts tagged with a ``"schema"``
string (``"repro.problem/v1"``, ``"repro.solution/v1"``).  Decoding is
strict: a wrong tag, a missing field, or an unknown field raises
:class:`~repro.errors.SerdeError` instead of guessing — cross-process
payloads that drift should fail loudly at the boundary.

Floats survive the round trip bit-identically: ``json`` serializes via
``repr``, which is exact for finite IEEE-754 doubles.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from typing import Any

from repro.errors import SerdeError

SCHEMA_KEY = "schema"
#: Current problem schema.  v2 (over v1) admits the planner
#: pseudo-method ``"auto"`` in the solver section; v1 payloads remain
#: readable (:data:`PROBLEM_SCHEMAS`) — the sections are otherwise
#: identical.
PROBLEM_SCHEMA = "repro.problem/v2"
PROBLEM_SCHEMA_V1 = "repro.problem/v1"
#: Schema tags of the self-contained problem payloads a reader accepts.
PROBLEM_SCHEMAS = (PROBLEM_SCHEMA, PROBLEM_SCHEMA_V1)
#: A problem that names its catalogue by fingerprint instead of
#: carrying it: the v2 sections with ``"objects"`` replaced by
#: ``"catalogue"``.  It decodes only against a catalogue resolver.
PROBLEM_SCHEMA_V3 = "repro.problem/v3"
#: A catalogue on its own: ``points`` and ``capacities``, the v2
#: ``"objects"`` section.
CATALOGUE_SCHEMA = "repro.catalogue/v1"
SOLUTION_SCHEMA = "repro.solution/v1"


def check_payload(
    payload: Any,
    schema: str | tuple[str, ...],
    required: frozenset[str] | set[str],
    optional: frozenset[str] | set[str] = frozenset(),
) -> None:
    """Validate a decoded payload's schema tag and field names.

    ``schema`` may be a tuple of acceptable tags (newest first) — the
    backward-compatible read path for bumped schemas.
    """
    accepted = (schema,) if isinstance(schema, str) else tuple(schema)
    schema = accepted[0]
    if not isinstance(payload, Mapping):
        raise SerdeError(
            f"expected a mapping payload for {schema!r}, "
            f"got {type(payload).__name__}"
        )
    tag = payload.get(SCHEMA_KEY)
    if tag not in accepted:
        if len(accepted) == 1:
            raise SerdeError(f"expected schema {schema!r}, got {tag!r}")
        raise SerdeError(f"expected schema in {list(accepted)}, got {tag!r}")
    keys = set(payload) - {SCHEMA_KEY}
    missing = set(required) - keys
    if missing:
        raise SerdeError(f"{schema!r} payload missing field(s) {sorted(missing)}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise SerdeError(f"{schema!r} payload has unknown field(s) {sorted(unknown)}")


def to_canonical_json(payload: dict) -> str:
    """Canonical encoding: sorted keys, no insignificant whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def from_json(text: str | bytes) -> Any:
    try:
        return json.loads(text)
    except (TypeError, ValueError) as exc:
        raise SerdeError(f"malformed JSON payload: {exc}") from exc


def canonical_digest(payload: dict) -> str:
    """SHA-256 hex digest of the canonical JSON encoding.

    Because :func:`to_canonical_json` is deterministic (sorted keys,
    fixed separators, exact float ``repr``), structurally identical
    payloads digest equally across processes.  :meth:`Problem.digest`
    hashes a problem's small sections this way, with the catalogue
    section replaced by its binary fingerprint.
    """
    return hashlib.sha256(to_canonical_json(payload).encode("utf-8")).hexdigest()


__all__ = [
    "CATALOGUE_SCHEMA",
    "PROBLEM_SCHEMA",
    "PROBLEM_SCHEMAS",
    "PROBLEM_SCHEMA_V1",
    "PROBLEM_SCHEMA_V3",
    "SCHEMA_KEY",
    "SOLUTION_SCHEMA",
    "canonical_digest",
    "check_payload",
    "from_json",
    "to_canonical_json",
]
