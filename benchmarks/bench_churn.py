"""Churn throughput: events/s of the three `apply(events)` paths.

Seeds a population, generates one deterministic Zipf-skewed
arrival/departure stream (``repro.data.generators.churn_stream``) and
drives it through

- ``interp`` — incremental :class:`DynamicStableMatching` with the
  interpreted suffix-rematch backend;
- ``vec`` — the same maintainer with the columnar kernel backend
  (``repro.kernels.dynamic``);
- ``naive`` — a from-scratch re-solve of the full surviving
  population after every event (the no-maintenance baseline).

Each path is timed separately over the identical stream; an untimed
lockstep pass then asserts the three emitted pair logs (handles,
float scores, units, order) are byte-equal after *every* event — the
throughput numbers are only comparable because the outputs are
identical.  Results land in the ``BENCH_engine.json`` perf trajectory
(row ``pr10_churn``; the vectorized/naive events-per-second ratio is
the headline).

Usage::

    PYTHONPATH=src python benchmarks/bench_churn.py
    PYTHONPATH=src python benchmarks/bench_churn.py --smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.api.events import (
    Event,
    FunctionArrived,
    FunctionDeparted,
    ObjectArrived,
    ObjectDeparted,
)
from repro.core.dynamic import DynamicStableMatching
from repro.data.generators import churn_stream, make_functions, make_objects

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def apply_event(dyn: DynamicStableMatching, event: Event) -> None:
    """One stream event against the maintainer, with the session's
    priority semantics (γ-scaled effective weights)."""
    if isinstance(event, ObjectArrived):
        dyn.add_object(event.point, capacity=event.capacity)
    elif isinstance(event, ObjectDeparted):
        dyn.remove_object(event.oid)
    elif isinstance(event, FunctionArrived):
        effective = tuple(x * event.priority for x in event.weights)
        dyn.add_function(effective, capacity=event.capacity)
    elif isinstance(event, FunctionDeparted):
        dyn.remove_function(event.fid)
    else:
        raise TypeError(f"unknown event type {type(event).__name__}")


def seeded(functions, objects, backend: str) -> DynamicStableMatching:
    return DynamicStableMatching.from_instance(functions, objects, backend=backend)


def fresh_resolve(source: DynamicStableMatching) -> DynamicStableMatching:
    """A from-scratch interpreted solve of ``source``'s population."""
    dyn = DynamicStableMatching()
    for fid in sorted(source._weights):
        dyn._register_function(fid, source._weights[fid], source._f_caps[fid])
    for oid in sorted(source._points):
        dyn._register_object(oid, source._points[oid], source._o_caps[oid])
    dyn._rematch_from(0)
    return dyn


def time_incremental(functions, objects, events, backend: str) -> float:
    dyn = seeded(functions, objects, backend)
    start = time.perf_counter()
    for event in events:
        apply_event(dyn, event)
    return time.perf_counter() - start


def time_naive(functions, objects, events) -> float:
    """Re-solve from scratch after every event (population tracking —
    the dict updates — is untimed-equivalent across paths)."""
    tracker = seeded(functions, objects, "interp")
    elapsed = 0.0
    for event in events:
        apply_event(tracker, event)
        start = time.perf_counter()
        fresh_resolve(tracker)
        elapsed += time.perf_counter() - start
    return elapsed


def verify_identity(functions, objects, events) -> dict:
    """Lockstep pass: after every event, interp == vec == from-scratch
    byte-for-byte.  Returns the vec path's cost counters."""
    interp = seeded(functions, objects, "interp")
    vec = seeded(functions, objects, "vec")
    assert interp._pairs == vec._pairs, "seed matchings diverge"
    for i, event in enumerate(events):
        apply_event(interp, event)
        apply_event(vec, event)
        if interp._pairs != vec._pairs:
            raise AssertionError(f"vec != interp after event {i}: {event}")
        if interp.suffix_rematch_count != vec.suffix_rematch_count:
            raise AssertionError(f"suffix cut diverges at event {i}: {event}")
        scratch = fresh_resolve(interp)
        if interp._pairs != scratch._pairs:
            raise AssertionError(f"incremental != from-scratch after event {i}")
    return vec.churn_info()


def run(args) -> dict:
    functions = make_functions(args.nf, args.dims, seed=2)
    objects = make_objects(args.no_, args.dims, args.distribution, seed=3)
    events = list(
        churn_stream(
            args.events,
            functions,
            objects,
            max_capacity=args.max_capacity,
            max_priority=args.max_priority,
            distribution=args.distribution,
            seed=4,
        )
    )
    info = verify_identity(functions, objects, events)
    interp_s = time_incremental(functions, objects, events, "interp")
    vec_s = time_incremental(functions, objects, events, "vec")
    naive_s = time_naive(functions, objects, events)
    n = len(events)
    return {
        "nf": args.nf,
        "no": args.no_,
        "dims": args.dims,
        "events": n,
        "distribution": args.distribution,
        "max_capacity": args.max_capacity,
        "max_priority": args.max_priority,
        "bit_identical": True,  # verify_identity raised otherwise
        "interp_events_per_s": n / interp_s,
        "vec_events_per_s": n / vec_s,
        "naive_events_per_s": n / naive_s,
        "vec_over_naive": naive_s / vec_s,
        "vec_over_interp": interp_s / vec_s,
        "pairs_rematched": info["pairs_rematched"],
        "full_rematches": info["full_rematches"],
        "kernel_score_cells": info["kernel_score_cells"],
        "kernel_tie_resolutions": info["kernel_tie_resolutions"],
        "python": platform.python_version(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default=None, help="BENCH_engine.json row name")
    parser.add_argument("--nf", type=int, default=100)
    parser.add_argument("--no", type=int, dest="no_", default=1000)
    parser.add_argument("--dims", type=int, default=3)
    parser.add_argument("--events", type=int, default=200)
    parser.add_argument("--max-capacity", type=int, default=2)
    parser.add_argument("--max-priority", type=int, default=2)
    parser.add_argument("--distribution", default="anti-correlated")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI shape; labeled pr10_churn_smoke, result not persisted",
    )
    args = parser.parse_args()

    if args.smoke:
        args.nf, args.no_, args.events = 20, 150, 40
    label = args.label or ("pr10_churn_smoke" if args.smoke else "pr10_churn")
    row = run(args)

    if not args.smoke:
        results = {}
        if RESULT_PATH.exists():
            results = json.loads(RESULT_PATH.read_text())
        results[label] = row
        RESULT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(
        f"{label} {row['nf']}x{row['no']} d={row['dims']} "
        f"({row['events']} events, bit-identical): "
        f"interp {row['interp_events_per_s']:.1f} ev/s, "
        f"vec {row['vec_events_per_s']:.1f} ev/s, "
        f"naive {row['naive_events_per_s']:.1f} ev/s "
        f"-> vec/naive {row['vec_over_naive']:.1f}x, "
        f"vec/interp {row['vec_over_interp']:.1f}x"
    )


if __name__ == "__main__":
    main()
