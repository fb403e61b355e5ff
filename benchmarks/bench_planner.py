"""Regret of the ``method="auto"`` rule against the fastest candidate.

``auto`` always runs ``sb-vec``.  For every grid cell this script
times ``auto`` and each candidate config on a warm index (the tree
loaded and the catalogue's columnar state built before any timed run).
It runs ``--repeats`` rounds of one run per method, so that a slow
spell of the host falls on every method of a round, collects garbage
before each run, so that no run pays for what the previous one left,
and keeps each method's best run.  It reports

- **regret** — ``(t_auto - t_best) / t_best``, where ``t_best`` is the
  fastest candidate's time (``sb-vec`` is a candidate, so the regret
  of a cell it wins is the run-to-run noise between two timings of
  the same code);
- **summed regret** — total ``auto`` time over total per-cell-best
  time, minus one, per grid.

Two grids:

- ``BASE_GRID`` — the paper's axes (|F|/|O| ratio, dimensionality,
  distribution, clustering, capacities, priorities) at the
  ``REPRO_BENCH_SCALE`` size; the candidates are every registry
  method except ``brute-force`` (quadratic) and ``sb-alt`` (a
  different storage model);
- ``SERVED_GRID`` — the shapes the service solves: |F| 1, 4, 16, 64
  and 256 over one catalogue of 2048 and one of 8192 anti-correlated
  3-d objects, each cohort plain and with priorities and capacities
  1–3; the candidates are ``chain``, ``sb-vec`` and
  ``sb-deltasky-vec``.  The interpreted SB variants were never the
  fastest on the base grid and take seconds per cell here.

Results append to ``BENCH_planner.json`` under ``--label``;
``--smoke`` runs one cell of each grid at a tiny size and persists
nothing.

Usage::

    PYTHONPATH=src python benchmarks/bench_planner.py --label my_host
    PYTHONPATH=src python benchmarks/bench_planner.py --smoke
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import statistics
from pathlib import Path

import numpy as np

from repro.bench.config import _SCALES, current_scale
from repro.bench.harness import clear_caches, make_instance, run_cell
from repro.data.generators import make_functions, make_objects
from repro.core.registry import AUTO_METHOD, AUTO_PLAN, REGISTRY

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_planner.json"

#: Instance shapes at ``small`` scale (divisor 50); other scales
#: multiply the cardinalities.  The axes mirror the paper's sweeps:
#: |F|/|O| ratio (Figures 10/11), dimensionality (Figure 9),
#: distribution (Figure 12's clustering analogue), capacities and
#: priorities (Figures 14/15).
BASE_GRID: tuple[dict, ...] = (
    dict(nf=24, no=600, dims=3, distribution="anti-correlated"),
    dict(nf=50, no=1000, dims=4, distribution="anti-correlated"),
    dict(nf=100, no=2000, dims=4, distribution="anti-correlated"),
    dict(nf=200, no=800, dims=4, distribution="anti-correlated"),
    dict(nf=100, no=400, dims=5, distribution="anti-correlated"),
    dict(nf=40, no=1600, dims=3, distribution="correlated"),
    dict(nf=100, no=2000, dims=4, distribution="correlated"),
    dict(nf=100, no=2000, dims=4, distribution="independent"),
    dict(nf=50, no=500, dims=2, distribution="independent"),
    dict(nf=60, no=1200, dims=4, distribution="anti-correlated", n_clusters=3),
    dict(
        nf=80, no=1000, dims=4, distribution="anti-correlated",
        function_capacity=4, object_capacity=2,
    ),
    dict(
        nf=60, no=900, dims=3, distribution="independent",
        max_priority=4,
    ),
)

SERVED_GRID: tuple[dict, ...] = tuple(
    dict(nf=nf, no=no, weighted=weighted)
    for no in (2048, 8192)
    for nf in (1, 4, 16, 64, 256)
    for weighted in (False, True)
)

SMOKE_BASE: tuple[dict, ...] = (
    dict(nf=10, no=120, dims=3, distribution="anti-correlated"),
)
SMOKE_SERVED: tuple[dict, ...] = (dict(nf=4, no=256, weighted=True),)

#: Candidates on the paper's axes, and on the served shapes.
BASE_CANDIDATES = tuple(
    name for name in REGISTRY.names() if name not in ("brute-force", "sb-alt")
)
SERVED_CANDIDATES = ("chain", "sb-vec", "sb-deltasky-vec")


def base_instance(shape: dict):
    return make_instance(seed=17, **shape)


@functools.cache
def served_catalogue(no: int):
    """One catalogue per size, shared by its cells as the service
    reuses its catalogues."""
    return make_objects(no, 3, "anti-correlated", seed=17)


def served_instance(shape: dict):
    """A cohort of ``nf`` functions over the shared catalogue, with
    priorities and capacities drawn from 1–3 when ``weighted``."""
    no, nf = shape["no"], shape["nf"]
    objects = served_catalogue(no)
    gammas = capacities = None
    if shape["weighted"]:
        rng = np.random.default_rng([17, nf])
        gammas = [float(g) for g in rng.integers(1, 4, nf)]
        capacities = [int(c) for c in rng.integers(1, 4, nf)]
    functions = make_functions(
        nf, 3, seed=19 + nf, gammas=gammas, capacities=capacities
    )
    return functions, objects


def measure(grid: str, shapes, candidates, instance, repeats: int) -> list[dict]:
    rows = []
    for shape in shapes:
        functions, objects = instance(shape)
        # Warm the index: the harness loads the tree when it first
        # indexes a catalogue; one untimed columnar solve builds the
        # catalogue's columnar state.
        run_cell(AUTO_PLAN.method, functions, objects)
        timings = dict.fromkeys((*candidates, AUTO_METHOD), float("inf"))
        for _ in range(repeats):
            for method in timings:
                gc.collect()
                seconds = run_cell(method, functions, objects).cpu_seconds
                timings[method] = min(timings[method], seconds)
        best = min(candidates, key=lambda m: (timings[m], m))
        regret = (timings[AUTO_METHOD] - timings[best]) / timings[best]
        rows.append(
            {
                "grid": grid,
                "shape": shape,
                "timings": timings,
                "best_method": best,
                "regret": regret,
            }
        )
        label = " ".join(f"{k}={v}" for k, v in shape.items())
        print(
            f"  {grid:<6} {label:<58} best {best:<16} "
            f"{timings[best] * 1e3:9.2f} ms  auto "
            f"{timings[AUTO_METHOD] * 1e3:9.2f} ms  regret {regret:+7.1%}"
        )
    return rows


def summarize(rows: list[dict]) -> dict:
    regrets = [r["regret"] for r in rows]
    auto = sum(r["timings"][AUTO_METHOD] for r in rows)
    best = sum(r["timings"][r["best_method"]] for r in rows)
    wins: dict[str, int] = {}
    for r in rows:
        wins[r["best_method"]] = wins.get(r["best_method"], 0) + 1
    return {
        "cells": len(rows),
        "median_regret": statistics.median(regrets),
        "max_regret": max(regrets),
        "summed_regret": auto / best - 1.0,
        "best_method_counts": dict(sorted(wins.items())),
    }


def scaled_base_grid() -> list[dict]:
    factor = _SCALES["small"] // _SCALES[current_scale()]
    return [
        {**shape, "nf": shape["nf"] * factor, "no": shape["no"] * factor}
        for shape in BASE_GRID
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default=None, help="snapshot name")
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one tiny cell of each grid (CI)",
    )
    args = parser.parse_args()
    if args.label is None and not args.smoke:
        parser.error("--label is required unless --smoke is given")

    clear_caches()
    base = list(SMOKE_BASE) if args.smoke else scaled_base_grid()
    served = list(SMOKE_SERVED) if args.smoke else list(SERVED_GRID)
    print(
        f"auto -> {AUTO_PLAN.method}; {len(base)} base cells x "
        f"{len(BASE_CANDIDATES)} candidates, {len(served)} served cells x "
        f"{len(SERVED_CANDIDATES)} candidates, best of {args.repeats}"
    )
    rows = measure("base", base, BASE_CANDIDATES, base_instance, args.repeats)
    rows += measure(
        "served", served, SERVED_CANDIDATES, served_instance, args.repeats
    )

    summary = {
        grid: summarize([r for r in rows if r["grid"] == grid])
        for grid in ("base", "served")
    }
    for grid, s in summary.items():
        print(
            f"{grid}: {s['cells']} cells, median regret "
            f"{s['median_regret']:+.1%}, max {s['max_regret']:+.1%}, "
            f"summed {s['summed_regret']:+.1%}, best {s['best_method_counts']}"
        )
    if args.smoke:
        return
    results = {}
    if RESULT_PATH.exists():
        results = json.loads(RESULT_PATH.read_text())
    results[args.label] = {
        "auto": AUTO_PLAN.method,
        "scale": current_scale(),
        "repeats": args.repeats,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "summary": summary,
        "cells": rows,
    }
    RESULT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"{args.label} -> {RESULT_PATH}")


if __name__ == "__main__":
    main()
