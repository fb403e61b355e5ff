"""Perf-trajectory baseline for the engine hot paths.

Runs the paper's Table 2 default configuration (scaled, see
``repro.bench.config``) through one or more registered solvers and
records wall-time / I/O / memory into ``BENCH_engine.json`` next to
this script.  Run once before a refactor with ``--label pre_refactor``
and once after with ``--label post_refactor``; later PRs append
further labelled snapshots so the repo carries its own perf
trajectory.

``--method`` accepts any registry name (see ``repro.core.registry.REGISTRY``)
and comma-separated lists, so one invocation produces comparable
scalar-vs-vectorized rows; ``--nf/--no/--dims`` override the Table 2
shape for sweep points beyond the default cell.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_refactor.py --label post_refactor
    PYTHONPATH=src python benchmarks/bench_engine_refactor.py \
        --label pr6_vectorized --method sb,sb-vec --repeats 5
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
from pathlib import Path

from repro.bench.config import current_scale, defaults
from repro.bench.harness import clear_caches, make_instance, run_cell
from repro.core.registry import REGISTRY

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def measure(
    method: str,
    repeats: int,
    nf: int | None = None,
    no: int | None = None,
    dims: int | None = None,
) -> dict:
    d = defaults()
    nf, no, dims = nf or d.nf, no or d.no, dims or d.dims
    functions, objects = make_instance(nf, no, dims, d.distribution, seed=2)
    cells = [
        run_cell(
            method,
            functions,
            objects,
            buffer_fraction=d.buffer_fraction,
            page_size=d.page_size,
        )
        for _ in range(repeats)
    ]
    times = [c.cpu_seconds for c in cells]
    return {
        "method": method,
        "scale": current_scale(),
        "nf": nf,
        "no": no,
        "dims": dims,
        "repeats": repeats,
        "wall_seconds_median": statistics.median(times),
        "wall_seconds_min": min(times),
        "io_accesses": cells[0].io,
        "peak_memory_bytes": cells[0].memory_bytes,
        "loops": cells[0].loops,
        "pairs": cells[0].pairs,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--label", required=True,
        help="snapshot name, e.g. pre_refactor / post_refactor",
    )
    parser.add_argument(
        "--method", default="sb",
        help="registry method name, or a comma-separated list of them",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--nf", type=int, help="override Table 2 |F|")
    parser.add_argument("--no", type=int, dest="no_", help="override Table 2 |O|")
    parser.add_argument("--dims", type=int, help="override Table 2 D")
    args = parser.parse_args()

    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    for method in methods:
        REGISTRY.resolve(method)

    clear_caches()
    rows = []
    for method in methods:
        snapshot = measure(
            method, args.repeats, nf=args.nf, no=args.no_, dims=args.dims
        )
        snapshot["python"] = platform.python_version()
        rows.append(snapshot)

    results = {}
    if RESULT_PATH.exists():
        results = json.loads(RESULT_PATH.read_text())
    # A single-method run keeps the historical flat-dict snapshot
    # shape; multi-method runs store the comparable rows as a list.
    results[args.label] = rows[0] if len(rows) == 1 else rows
    RESULT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    for snapshot in rows:
        print(
            f"{args.label}[{snapshot['method']}] "
            f"{snapshot['nf']}x{snapshot['no']} d={snapshot['dims']}: "
            f"{snapshot['wall_seconds_median']:.3f}s median "
            f"({snapshot['io_accesses']} page reads) -> {RESULT_PATH}"
        )


if __name__ == "__main__":
    main()
