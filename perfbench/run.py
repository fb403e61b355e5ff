"""The repository's benchmark: three workloads over the served stack.

    python3 perfbench/run.py --workload fleet_wire --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics of one untraced replay of
the seed's ops, with set-up measured ``SETUPS`` times; ``--trace 1``
replays the same inputs once untraced and once with spans around the
calls into each layer, and prints the per-layer metrics and the
tracing overhead.  ``--seconds``
sets the run length through a fixed op count (see
``inputs.OPS_PER_SECOND``), never through the clock, so every run of
one seed does the same work.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` counts
every op of every replay (untraced and traced), and ``failed`` those
that raised or answered wrong.

Every run also stores, under ``.perfbench/``: a result record with the
seed, the host-speed reference timed before and after the run, the
program's exact counts and any check failures; the span dump of traced
runs; and the exact-count guard's memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from common import (
    ROOT,
    SETUPS,
    SRC,
    STATE,
    SpanRecorder,
    host_reference_ms,
    median,
    program_env,
    self_times,
    source_digest,
    span_totals,
    summarize,
)

WORKLOADS = ("fleet_wire", "solve_batch", "churn_live")
#: The span around one whole op, per library workload.
OP_SPAN = {"solve_batch": "op", "churn_live": "session.apply"}
WORKER_TIMEOUT_S = 170

#: Metric names and units come from the benchmark's contract file.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
#: A layer a workload does not run reads 0 there (solve_batch has no
#: wire, churn_live no planner).
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
#: The configs ``method="auto"`` resolves to on these workloads; a
#: planner change that picks another one shows as a drop here (and in
#: the exact-count guard, which records every pick).
PICKED = [
    name.removeprefix("planner.picks.")
    for name in PER_LAYER_UNITS
    if name.startswith("planner.picks.")
]


class BenchmarkError(RuntimeError):
    """The benchmark could not run (not: the program answered wrong)."""


# -- fresh program processes ------------------------------------------------


def run_worker(job: dict) -> dict:
    try:
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=program_env(),
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{job['mode']} worker timed out") from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"{job['mode']} worker exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_solve_batch(inputs: dict, replay: dict) -> list:
    """Check every answer of the timed solve_batch replay against
    reference answers computed in two processes (one per core): the
    checks cost about as much as the replay and run after it, so
    nothing timed shares the host with them."""
    n = len(inputs["ops"])
    methods = replay["op_methods"]
    job = {"mode": "solve_batch_check", "trace": False, **inputs, "op_methods": methods}
    halves = [dict(job, indices=list(range(k, n, 2))) for k in range(2)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(run_worker, halves))
    reference = dict(pair for d in done for pair in d["reference"])
    unchecked = dict(pair for d in done for pair in d["errors"])
    errors = []
    for i, digest in enumerate(replay["digests"]):
        if digest is None:
            continue  # raised: the replay reported it
        if i in unchecked:
            errors.append([0, i, unchecked[i]])
        elif digest != reference[i]:
            errors.append([0, i, f"{methods[i]} answer differs from another method's"])
    return errors


def failed_ops(errors: list) -> int:
    """Failed op executions: each (replay, op) with a raised call or a
    wrong answer, counted once.  An error tied to no op (a determinism
    defect) makes the run incorrect without failing an op."""
    return len({(replay, op) for replay, op, _ in errors if op is not None})


def tag_errors(tag, worker_errors: list) -> list:
    return [[tag, op, message] for op, message in worker_errors]


def _no_ops(workload: str, inputs: dict) -> dict:
    """The inputs of a set-up-only worker: the workload's, with every
    op taken out."""
    if workload == "solve_batch":
        return {"ops": []}
    return {"episodes": [dict(e, events=[], batch_sizes=[]) for e in inputs["episodes"]]}


# -- solve_batch and churn_live ---------------------------------------------


def library_run(workload: str, inputs: dict, trace: bool) -> dict:
    job = {"mode": workload, "trace": False, "check": True, **inputs}
    setup_samples = []
    if not trace:
        setup_job = {**job, "check": False, **_no_ops(workload, inputs)}
        setup_samples = [run_worker(setup_job)["setup_s"] for _ in range(SETUPS - 1)]
    replay = run_worker(job)
    n = len(replay["latencies"])
    errors = tag_errors(0, replay["errors"])
    if workload == "solve_batch":
        errors += check_solve_batch(inputs, replay)
    setup_samples.append(replay["setup_s"])
    summary = summarize(replay)
    summary["setup_s"] = median(setup_samples)
    out = {
        "e2e": summary,
        "setup_samples": setup_samples,
        "latencies": replay["latencies"],
        "attempted": n,
        "errors": errors,
        "counts": replay["counts"],
    }
    if not trace:
        return out

    traced = run_worker({**job, "trace": True, "check": False})
    out["attempted"] += n
    out["errors"] += tag_errors("traced", traced["errors"])
    out["errors"] += _compare_traced(replay, traced)
    spans = traced["spans"]
    ops = max(1, sum(x is not None for x in traced["latencies"]))
    traced_ms = 1000.0 * span_totals(spans)[OP_SPAN[workload]] / ops
    layers = (solve_batch_layers if workload == "solve_batch" else churn_layers)(
        spans, traced, ops
    )
    layers.update(_overhead(traced_ms, summary["latency_mean_ms"]))
    out.update(layers=layers, spans=spans)
    return out


def _compare_traced(replay: dict, traced: dict) -> list:
    """The traced replay must answer like the untraced one, and the
    program's counts must repeat exactly: a difference is a determinism
    defect."""
    errors = [
        ["traced", i, "answered differently from the untraced replay"]
        for i, (a, b) in enumerate(zip(replay["digests"], traced["digests"]))
        if a is not None and b is not None and a != b
    ]
    if traced["counts"] != replay["counts"]:
        errors.append(["traced", None, "determinism defect: the replays counted differently"])
    return errors


def _overhead(traced_ms: float, untraced_ms: float) -> dict:
    return {
        "trace.latency_ms_per_op": traced_ms,
        "trace.untraced_latency_ms_per_op": untraced_ms,
        "trace.overhead_pct": 100.0 * (traced_ms / untraced_ms - 1.0),
    }


def _mean_span(spans: list, name: str) -> float:
    durations = [end - start for _, _, n, _, start, end in spans if n == name]
    return sum(durations) / len(durations) if durations else 0.0


def _setup_layers(spans: list) -> dict:
    return {
        "setup.import_s": _mean_span(spans, "setup.import"),
        "setup.seed_s": _mean_span(spans, "setup.seed"),
        "service.index_build_s": _mean_span(spans, "service.index_build"),
    }


def _solve_layers(spans: list, op_methods: list, ops: int) -> dict:
    """Solve time per op, split by the resolved config's family:
    the interpreted engine or the columnar kernels."""
    engine = kernels = 0.0
    for _sid, _parent, name, op, start, end in spans:
        if name == "session.solve":
            # A failed op (no method) counts as interpreted.
            if (op_methods[op] or "").endswith("-vec"):
                kernels += end - start
            else:
                engine += end - start
    return {
        "engine.solve_ms_per_op": 1000.0 * engine / ops,
        "kernels.solve_ms_per_op": 1000.0 * kernels / ops,
    }


def solve_batch_layers(spans: list, traced: dict, ops: int) -> dict:
    counts = traced["counts"]
    totals = span_totals(spans)
    layers = {
        **_setup_layers(spans),
        **_solve_layers(spans, traced["op_methods"], ops),
        "planner.plan_ms_per_op": 1000.0 * totals.get("planner.plan", 0.0) / ops,
        "api.build_ms_per_op": 1000.0 * totals.get("api.build", 0.0) / ops,
        "service.index_builds": counts["index_builds"],
        "engine.io_accesses_per_op": counts["engine.io_accesses"] / ops,
        "engine.loops_per_op": counts["engine.loops"] / ops,
        "kernels.score_cells_per_op": counts["kernels.score_cells"] / ops,
        "kernels.tie_resolutions_per_op": counts["kernels.tie_resolutions"] / ops,
    }
    for method in PICKED:
        layers[f"planner.picks.{method}"] = counts.get(f"picks.{method}", 0)
    return layers


def churn_layers(spans: list, traced: dict, ops: int) -> dict:
    counts = traced["counts"]
    totals = span_totals(spans)
    events = max(1, traced["events"])
    return {
        **_setup_layers(spans),
        "api.apply_ms_per_op": 1000.0
        * (totals["session.apply"] - totals["dynamic.event"])
        / ops,
        "dynamic.ms_per_event": 1000.0 * totals["dynamic.event"] / events,
        "dynamic.pairs_rematched_per_event": counts["pairs_rematched"] / events,
        "dynamic.score_cells_per_event": counts["kernel_score_cells"] / events,
        "dynamic.full_rematches": counts["full_rematches"],
    }


# -- fleet_wire -------------------------------------------------------------


def fleet_run(inputs: dict, trace: bool) -> dict:
    import fleet
    from repro.api import AssignmentSession, Problem
    from worker import catalogue_problems, output_digest, pair_key

    bases = catalogue_problems(Problem, inputs["catalogues"])
    problems = [bases[op["cat"]].with_functions(op["weights"]) for op in inputs["ops"]]
    n = len(problems)
    boot_samples, setup_samples = [], []
    setups = 1 if trace else SETUPS
    for k in range(setups):
        booted, setup_s = fleet.boot(f"setup{k}", bases)
        setup_samples.append(setup_s)
        boot_samples.extend(booted.boot_seconds())
        with booted:
            # The last fleet runs the timed replay; the others only set up.
            if k == setups - 1:
                replay = fleet.run_phase(booted, problems, None)
    summary = summarize(replay)
    summary["setup_s"] = median(setup_samples)
    out = {
        "e2e": summary,
        "setup_samples": setup_samples,
        "latencies": replay["latencies"],
        "attempted": n,
        "errors": tag_errors(0, replay["errors"]),
        "counts": _fleet_counts(replay),
    }
    phases = [(0, replay)]
    if trace:
        rec = SpanRecorder()
        traced_fleet, _ = fleet.boot("traced", bases)
        boot_samples.extend(traced_fleet.boot_seconds())
        with traced_fleet:
            traced_phase = fleet.run_phase(traced_fleet, problems, rec)
        phases.append(("traced", traced_phase))
        out["attempted"] += n
        out["errors"] += tag_errors("traced", traced_phase["errors"])
        in_process = run_worker(
            {"mode": "wire_replay", "trace": True, **inputs, "check": False}
        )
        out["errors"] += tag_errors("traced", in_process["errors"])
        # One span file: shift the in-process spans' ids past the client's.
        shift = len(rec.spans)
        in_process_spans = [
            (sid + shift, parent and parent + shift, *rest)
            for sid, parent, *rest in in_process["spans"]
        ]
        out.update(
            layers=fleet_layers(traced_phase, rec.spans, in_process, boot_samples, n),
            spans=rec.spans + in_process_spans,
        )
        out["layers"].update(
            _overhead(out["layers"]["trace.latency_ms_per_op"], summary["latency_mean_ms"])
        )

    # Checks, after every fleet is stopped: each wire answer against an
    # in-process AssignmentSession.solve of the same Problem.
    expected: list = []
    by_request: dict = {}
    with AssignmentSession(bases[0]) as session:
        for op, problem in zip(inputs["ops"], problems):
            request = (op["cat"], json.dumps(op["weights"]))
            if request not in by_request:
                try:
                    solution = session.solve(problem)
                    by_request[request] = (solution.method, pair_key(solution.pairs))
                # The reference is the program's own output: if it
                # raises, the op cannot be certified.
                except Exception as exc:
                    by_request[request] = f"reference solve: {type(exc).__name__}: {exc}"
            expected.append(by_request[request])
    for tag, phase in phases:
        for i, answer in enumerate(phase["answers"]):
            if answer is None:
                continue  # raised: the phase reported it
            if isinstance(expected[i], str):
                out["errors"].append([tag, i, expected[i]])
            elif (answer.method, pair_key(answer.pairs)) != expected[i]:
                out["errors"].append([tag, i, "wire answer differs from an in-process solve"])
    if trace:
        for i, digest in enumerate(in_process["digests"]):
            if digest is not None and not isinstance(expected[i], str):
                if digest != output_digest(*expected[i]):
                    out["errors"].append(["traced", i, "in-process replay answered differently"])
    return out


def _delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after, before = after.get(key, {}), before.get(key, {})
    return (after or 0) - (before or 0)


def _fleet_counts(phase: dict) -> dict:
    """Program counters over the timed phase (reported, never compared:
    client interleaving can turn a cache hit into a coalesced solve)."""
    a, b = phase["metrics_after"], phase["metrics_before"]
    picks = a["fleet"].get("planner", {}).get("picks", {})
    old_picks = b["fleet"].get("planner", {}).get("picks", {})
    return {
        "forwards": _delta(a, b, "gateway", "forwards_total"),
        "solution_cache.hits": _delta(a, b, "fleet", "solution_cache", "hits"),
        "solution_cache.misses": _delta(a, b, "fleet", "solution_cache", "misses"),
        "rejected": _delta(a, b, "fleet", "queue", "rejected_total"),
        "index_builds": a["fleet"]["index_cache"]["misses"],
        **{f"picks.{m}": picks[m] - old_picks.get(m, 0) for m in sorted(picks)},
    }


#: The per-layer shares of one traced fleet_wire op, in request order;
#: they sum to ``trace.latency_ms_per_op``.
FLEET_SHARES = (
    "client.encode_ms_per_op",
    "api.decode_ms_per_op",
    "api.digest_ms_per_op",
    "planner.plan_ms_per_op",
    "engine.solve_ms_per_op",
    "kernels.solve_ms_per_op",
    "api.encode_ms_per_op",
    "server.http_residual_ms_per_op",
)


def fleet_layers(
    phase: dict, client_spans: list, replay: dict, boot_samples: list, ops: int
) -> dict:
    """Per-layer shares of the traced round trip.  Client spans come
    from the traced wire phase; the api, planner, engine and kernels
    spans from the in-process replay of the same requests; whatever the
    spans do not cover (HTTP, the gateway's forwarding, queueing) is
    ``server.http_residual_ms_per_op``, so the shares sum to the traced
    latency."""
    counts = _fleet_counts(phase)
    client = span_totals(client_spans)
    server = span_totals(replay["spans"])
    per_op = {name: 1000.0 * total / ops for name, total in {**server, **client}.items()}
    layers = {
        **_setup_layers(replay["spans"]),
        **_solve_layers(replay["spans"], replay["op_methods"], ops),
        "setup.boot_s": median(boot_samples),
        "client.encode_ms_per_op": per_op["client.encode"],
        "client.wire_kb_per_op": phase["wire_bytes"] / 1024.0 / ops,
        "cluster.cpu_ms_per_op": 1000.0
        * sum(v for k, v in phase["cpu_by_process_s"].items() if k.startswith("gateway"))
        / ops,
        "cluster.forwards_per_op": counts["forwards"] / ops,
        "server.cpu_ms_per_op": 1000.0
        * sum(v for k, v in phase["cpu_by_process_s"].items() if k.startswith("backend"))
        / ops,
        "server.cache_hit_ratio": counts["solution_cache.hits"]
        / max(1, counts["solution_cache.hits"] + counts["solution_cache.misses"]),
        "server.rejected_total": counts["rejected"],
        "api.decode_ms_per_op": per_op.get("api.decode", 0.0),
        "api.digest_ms_per_op": per_op.get("api.digest", 0.0),
        "api.encode_ms_per_op": per_op.get("api.encode", 0.0)
        + per_op["client.decode"],
        "planner.plan_ms_per_op": per_op.get("planner.plan", 0.0),
        "service.index_builds": counts["index_builds"],
    }
    for method in PICKED:
        layers[f"planner.picks.{method}"] = counts.get(f"picks.{method}", 0)
    layers["trace.latency_ms_per_op"] = 1000.0 * client["op"] / ops
    covered = sum(layers[name] for name in FLEET_SHARES[:-1])
    layers["server.http_residual_ms_per_op"] = layers["trace.latency_ms_per_op"] - covered
    return layers


# -- one run ------------------------------------------------------------------


def count_guard(workload: str, data: dict, counts: dict) -> list:
    """Exact-count guard: the program's counts for one input must repeat
    exactly between runs of the same program.  The first run records
    them; every later run compares.  A difference is a determinism
    defect, not noise."""
    inputs_digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    guard = STATE / "counts" / f"{workload}-{inputs_digest[:16]}-{source_digest()}.json"
    if guard.exists():
        recorded = json.loads(guard.read_text())
        if recorded != counts:
            return [[None, None, f"determinism defect: counts {counts} != {recorded}"]]
        return []
    guard.parent.mkdir(parents=True, exist_ok=True)
    guard.write_text(json.dumps(counts, sort_keys=True))
    return []


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import inputs as generate

    host_before = host_reference_ms()
    data = generate.GENERATORS[workload](seed, seconds)
    if workload == "fleet_wire":
        outcome = fleet_run(data, trace)
    else:
        outcome = library_run(workload, data, trace)
        outcome["errors"] += count_guard(workload, data, outcome["counts"])
    host_after = host_reference_ms()

    if trace:
        metrics = {k: outcome["layers"].get(k, 0.0) for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        metrics = {k: outcome["e2e"][k] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    errors = outcome["errors"]
    result = {
        "correct": not errors,
        "attempted": outcome["attempted"],
        "failed": failed_ops(errors),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "source_digest": source_digest(),
        "host_reference_ms": {"before": host_before, "after": host_after},
        "end_to_end": outcome["e2e"],
        "setup_samples_s": outcome["setup_samples"],
        "latencies_s": outcome["latencies"],
        "per_layer": outcome.get("layers"),
        "counts": outcome["counts"],
        "errors": errors,
        "result": result,
    }
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}-{stamp}"
    record_path = results / f"{name}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    if trace:
        traces = STATE / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        with open(traces / f"{name}.jsonl", "w") as fh:
            for sid, parent, span_name, op, start, end in outcome["spans"]:
                fh.write(json.dumps([sid, parent, span_name, op, start, end]) + "\n")
        _print_self_times(outcome["spans"])
        if workload == "fleet_wire":
            shares = " + ".join(f"{metrics[k]:.3f}" for k in FLEET_SHARES)
            total = sum(metrics[k] for k in FLEET_SHARES)
            print(
                f"  layer shares {shares} = {total:.3f} ms "
                f"= trace.latency_ms_per_op {metrics['trace.latency_ms_per_op']:.3f} ms"
            )
    _print_table(workload, seed, metrics, units, record)
    print(f"  record {record_path.relative_to(ROOT)}")
    return result


def _print_self_times(spans: list) -> None:
    for name, seconds in sorted(self_times(spans).items()):
        print(f"  self time {name:<22} {seconds * 1000.0:12.3f} ms total")


def _print_table(workload: str, seed: int, metrics: dict, units: dict, record: dict) -> None:
    host = record["host_reference_ms"]
    print(
        f"{workload} seed={seed} host_reference_ms before={host['before']:.2f} "
        f"after={host['after']:.2f} counts={json.dumps(record['counts'], sort_keys=True)}"
    )
    for name, value in metrics.items():
        print(f"  {name:<36} {value:16.6f} {units[name]}")
    for replay, op, message in record["errors"][:20]:
        print(f"  CHECK FAILED: replay {replay} op {op}: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=_SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
