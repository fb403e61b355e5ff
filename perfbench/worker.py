"""One fresh program process: set up, replay a workload's ops, check.

Started by ``run.py`` as ``python perfbench/worker.py`` with only the
checkout's ``src`` on the import path.  It reads one JSON job from
stdin (the generated inputs plus ``mode``, ``trace`` and ``check``)
and prints one JSON result as its last stdout line.

The set-up window opens after the inputs are parsed and before the
first ``repro`` import, and closes when the program is ready for its
first op.  Ops run back to back, with nothing else inside their timed
windows.  Output checks run outside those windows: solve_batch's in
separate check processes after the replay, churn_live's between ops.
A raised op, a wrong answer or a check that raises on the program's
output is an error ``[op, message]``; the worker itself keeps going.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import Counter

from common import NO_SPAN, SpanRecorder, proc_peak_rss_mb

#: The one-function cohort whose solve warms each catalogue's index.
WARM_COHORT = ((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),)


def catalogue_problems(problem_cls, catalogues: list) -> list:
    """One ``method="auto"`` base problem per catalogue; cohorts are
    derived from it with ``with_functions``.  Takes the class so the
    caller decides when ``repro`` is imported."""
    return [
        problem_cls(objects=cat, functions=WARM_COHORT, method="auto")
        for cat in catalogues
    ]


def _no_span(name, op=None):
    return NO_SPAN


def pair_key(pairs) -> list[tuple]:
    """Order-free comparison form: pairs, units and score bits."""
    return sorted((p.fid, p.oid, p.count, p.score.hex()) for p in pairs)


def output_digest(method: str, key: list[tuple]) -> str:
    return hashlib.sha256(repr((method, key)).encode()).hexdigest()[:16]


def _replay_record(lat: list, cpu: list) -> dict:
    """Per-op latency in op order (``None`` where the op failed), and
    the wall and CPU seconds of the completed ops."""
    return {
        "latencies": lat,
        "wall_s": sum(x for x in lat if x is not None),
        "cpu_s": sum(c for c in cpu if c is not None),
        "peak_rss_mb": proc_peak_rss_mb(),
    }


# -- solve_batch ----------------------------------------------------------


def solve_batch(job: dict, rec: SpanRecorder | None) -> dict:
    sp = rec.span if rec else _no_span
    t0 = time.perf_counter()
    with sp("setup.import"):
        from repro.api import AssignmentSession, Problem
    bases = catalogue_problems(Problem, job["catalogues"])
    session = AssignmentSession(bases[0])
    for base in bases:
        with sp("service.index_build"):
            session.solve(base)
    out: dict = {"setup_s": time.perf_counter() - t0}

    ops = job["ops"]
    lat: list = [None] * len(ops)
    cpu: list = [None] * len(ops)
    solved: list = [None] * len(ops)
    errors: list = []
    for i, op in enumerate(ops):
        c0 = time.process_time()
        s0 = time.perf_counter()
        try:
            with sp("op", i):
                with sp("api.build", i):
                    problem = bases[op["cat"]].with_functions(
                        op["weights"], op.get("priorities"), op.get("capacities")
                    )
                with sp("planner.plan", i):
                    problem.plan()
                with sp("session.solve", i):
                    solution = session.solve(problem)
        # A raised op is a failed op, counted against the attempts.
        except Exception as exc:
            errors.append([i, f"{type(exc).__name__}: {exc}"])
            continue
        lat[i] = time.perf_counter() - s0
        cpu[i] = time.process_time() - c0
        # Keep the answer, not the Solution: it references its Problem,
        # which holds its own copy of the catalogue, and retaining those
        # would make peak RSS grow with the run length.
        solved[i] = (solution.method, solution.pairs, solution.stats)
    out.update(_replay_record(lat, cpu))

    answers = [s for s in solved if s is not None]
    methods = Counter(method for method, _, _ in answers)
    engine = [st for method, _, st in answers if not method.endswith("-vec")]
    kernels = [st for method, _, st in answers if method.endswith("-vec")]
    out["counts"] = {
        **{f"picks.{m}": n for m, n in sorted(methods.items())},
        "engine.loops": sum(st.loops for st in engine),
        "engine.io_accesses": sum(st.io_accesses for st in engine),
        "kernels.loops": sum(st.loops for st in kernels),
        "kernels.score_cells": sum(
            st.counters.get("kernel_score_cells", 0) for st in kernels
        ),
        "kernels.tie_resolutions": sum(
            st.counters.get("kernel_tie_resolutions", 0) for st in kernels
        ),
        "index_builds": session.cache_info()["misses"],
    }
    out["op_methods"] = [s[0] if s else None for s in solved]
    out["digests"] = [output_digest(s[0], pair_key(s[1])) if s else None for s in solved]
    out["errors"] = errors
    session.close()
    return out


def solve_batch_check(job: dict, rec: SpanRecorder | None) -> dict:
    """Reference answers for a share of solve_batch's ops: each op
    solved again by another registry method (the stable matching is
    unique, so all solvers agree pair for pair), and ``verify()`` on
    the seeded sample.  Runs after the timed replay, two at a time."""
    from repro.api import AssignmentSession, Problem

    bases = catalogue_problems(Problem, job["catalogues"])
    reference, errors = [], []
    with AssignmentSession(bases[0]) as session:
        for i in job["indices"]:
            method = job["op_methods"][i]
            if method is None:
                continue
            op = job["ops"][i]
            other = "sb-vec" if method == "sb-deltasky-vec" else "sb-deltasky-vec"
            try:
                problem = bases[op["cat"]].with_functions(
                    op["weights"], op.get("priorities"), op.get("capacities")
                )
                answer = session.solve(problem.with_method(other))
                if i in job["verify_sample"]:
                    answer.verify()
            # The reference is the program's own output: if it raises
            # or fails verify(), the op cannot be certified.
            except Exception as exc:
                errors.append([i, f"check by {other}: {type(exc).__name__}: {exc}"])
                continue
            reference.append([i, output_digest(method, pair_key(answer.pairs))])
    return {"reference": reference, "errors": errors}


# -- churn_live -----------------------------------------------------------


def churn_live(job: dict, rec: SpanRecorder | None) -> dict:
    """Seed one session per episode (set-up), then apply each episode's
    batches in turn.  Ops are numbered across episodes."""
    sp = rec.span if rec else _no_span
    t0 = time.perf_counter()
    with sp("setup.import"):
        from repro.api import AssignmentSession, Problem
        from repro.api.events import (
            FunctionArrived,
            FunctionDeparted,
            ObjectArrived,
            ObjectDeparted,
        )
    sessions = []
    for episode in job["episodes"]:
        problem = Problem(
            objects=episode["objects"], functions=episode["functions"], method="auto"
        )
        session = AssignmentSession(problem, churn_backend="auto")
        with sp("setup.seed"):
            session.current()
        sessions.append(session)
    out: dict = {"setup_s": time.perf_counter() - t0}

    kinds = {
        "oa": lambda e: ObjectArrived(point=tuple(e[1]), capacity=e[2]),
        "od": lambda e: ObjectDeparted(oid=e[1]),
        "fa": lambda e: FunctionArrived(weights=tuple(e[1]), priority=e[2], capacity=e[3]),
        "fd": lambda e: FunctionDeparted(fid=e[1]),
    }
    n = sum(len(episode["batch_sizes"]) for episode in job["episodes"])
    lat: list = [None] * n
    cpu: list = [None] * n
    digests: list = [None] * n
    errors: list = []
    counts: Counter = Counter()
    backends = set()
    first = 0
    for episode, session in zip(job["episodes"], sessions):
        events = [kinds[e[0]](e) for e in episode["events"]]
        batches, cursor = [], 0
        for size in episode["batch_sizes"]:
            batches.append(events[cursor : cursor + size])
            cursor += size
        last = first + len(batches) - 1
        population = _Population(session.problem)
        direct = _DirectReplay(session, rec) if rec is not None else None
        for k, batch in enumerate(batches):
            op = first + k
            c0 = time.process_time()
            s0 = time.perf_counter()
            try:
                with sp("session.apply", op):
                    solution = session.apply(batch)
                lat[op] = time.perf_counter() - s0
                cpu[op] = time.process_time() - c0
                digests[op] = output_digest("dynamic", pair_key(solution.pairs))
                if direct is not None:
                    direct.apply(batch)
                population.apply(batch, session.last_arrival_handles)
                if job["check"]:
                    errors.extend([op, e] for e in population.check(solution))
            # A raised op, or a check raising on its output, fails the
            # op; the benchmark's record of the population is out of
            # step with the session afterwards, so the episode's later
            # ops are not run and fail too.
            except Exception as exc:
                errors.append([op, f"{type(exc).__name__}: {exc}"])
                errors.extend(
                    [j, f"not run: op {op} of its episode failed"]
                    for j in range(op + 1, last + 1)
                )
                break
        else:
            try:
                if job["check"]:
                    errors.extend(
                        [last, e]
                        for e in _check_churn_final(
                            session, population, episode["verify"], Problem, AssignmentSession
                        )
                    )
                if direct is not None and not direct.agrees_with(session):
                    errors.append([last, "direct DynamicStableMatching replay diverged"])
            except Exception as exc:
                errors.append([last, f"final check: {type(exc).__name__}: {exc}"])
        info = session.churn_info()
        counts.update(
            {
                k: info[k]
                for k in (
                    "events_applied",
                    "pairs_rematched",
                    "full_rematches",
                    "kernel_score_cells",
                    "kernel_tie_resolutions",
                )
            }
        )
        backends.add(info["backend"])
        first = last + 1
    out.update(_replay_record(lat, cpu))
    out["counts"] = dict(counts)
    out["backends"] = sorted(backends)
    out["events"] = counts["events_applied"]
    out["digests"] = digests
    out["errors"] = errors
    for session in sessions:
        session.close()
    return out


class _Population:
    """The surviving functions and objects, by handle, as the
    benchmark's own record of what the event stream left alive."""

    def __init__(self, problem) -> None:
        self.functions = {
            fid: (tuple(w), 1.0, 1) for fid, w in enumerate(problem.functions)
        }
        self.objects = {oid: (tuple(p), 1) for oid, p in enumerate(problem.objects)}

    def apply(self, batch, arrival_handles) -> None:
        handles = iter(arrival_handles)
        for event in batch:
            kind = type(event).__name__
            if kind == "ObjectArrived":
                self.objects[next(handles)] = (tuple(event.point), event.capacity)
            elif kind == "ObjectDeparted":
                del self.objects[event.oid]
            elif kind == "FunctionArrived":
                self.functions[next(handles)] = (
                    tuple(event.weights),
                    event.priority,
                    event.capacity,
                )
            else:
                del self.functions[event.fid]

    def check(self, solution) -> list[str]:
        """Cheap per-op invariants: pairs name live handles, no side
        exceeds its capacity, and the matching is maximal (with
        complete preference lists, a free function unit and a free
        object unit would block each other)."""
        used_f: Counter = Counter()
        used_o: Counter = Counter()
        for p in solution.pairs:
            if p.fid not in self.functions or p.oid not in self.objects:
                return [f"pair ({p.fid}, {p.oid}) names a departed handle"]
            if p.count < 1:
                return [f"pair ({p.fid}, {p.oid}) has {p.count} units"]
            used_f[p.fid] += p.count
            used_o[p.oid] += p.count
        errors = [
            f"function {f} over capacity"
            for f, n in used_f.items()
            if n > self.functions[f][2]
        ] + [f"object {o} over capacity" for o, n in used_o.items() if n > self.objects[o][1]]
        demand = sum(v[2] for v in self.functions.values())
        supply = sum(v[1] for v in self.objects.values())
        if sum(used_f.values()) != min(demand, supply):
            errors.append("matching is not maximal")
        return errors


def _check_churn_final(
    session, population, verify: bool, Problem, AssignmentSession
) -> list[str]:
    """Equality with a from-scratch solve of the surviving population
    (handles remapped positionally), and ``verify_current()`` if asked."""
    current = session.current()
    if verify:
        try:
            session.verify_current()
        except AssertionError as exc:
            return [f"final verify_current() failed: {exc}"]
    fids = sorted(population.functions)
    oids = sorted(population.objects)
    scratch_problem = Problem(
        objects=[population.objects[o][0] for o in oids],
        functions=[population.functions[f][0] for f in fids],
        object_capacities=[population.objects[o][1] for o in oids],
        function_capacities=[population.functions[f][2] for f in fids],
        priorities=[population.functions[f][1] for f in fids],
        method="auto",
    )
    with AssignmentSession(scratch_problem) as scratch_session:
        scratch = scratch_session.solve()
    f_pos = {f: i for i, f in enumerate(fids)}
    o_pos = {o: i for i, o in enumerate(oids)}
    remapped = sorted(
        (f_pos[p.fid], o_pos[p.oid], p.count, p.score.hex()) for p in current.pairs
    )
    if remapped != pair_key(scratch.pairs):
        return ["final matching differs from a from-scratch solve"]
    return []


class _DirectReplay:
    """The same events applied straight to a ``DynamicStableMatching``
    right after each ``apply()``, a span per event, so ``api.apply``
    self time can be split from the churn engine's under the same host
    conditions."""

    def __init__(self, session, rec: SpanRecorder) -> None:
        from repro.core.dynamic import DynamicStableMatching

        problem = session.problem
        self.rec = rec
        self.dyn = DynamicStableMatching.from_instance(
            problem.function_set,
            problem.object_set,
            backend=session.churn_info()["backend"],
        )

    def apply(self, batch) -> None:
        dyn = self.dyn
        for event in batch:
            kind = type(event).__name__
            with self.rec.span("dynamic.event"):
                if kind == "ObjectArrived":
                    dyn.add_object(tuple(event.point), capacity=event.capacity)
                elif kind == "ObjectDeparted":
                    dyn.remove_object(event.oid)
                elif kind == "FunctionArrived":
                    dyn.add_function(
                        tuple(x * event.priority for x in event.weights),
                        capacity=event.capacity,
                    )
                else:
                    dyn.remove_function(event.fid)

    def agrees_with(self, session) -> bool:
        return pair_key(self.dyn.matching.pairs) == pair_key(session.current().pairs)


# -- fleet_wire's in-process replay -----------------------------------------


def wire_replay(job: dict, rec: SpanRecorder) -> dict:
    """What the fleet does per request, in one process and without the
    wire: decode + digest at the gateway and again at the backend,
    plan, solution-cache lookup, solve on a miss, encode."""
    sp = rec.span
    with sp("setup.import"):
        from repro.api import AssignmentSession, Problem, Solution
    bases = catalogue_problems(Problem, job["catalogues"])
    session = AssignmentSession(bases[0])
    for base in bases:
        with sp("service.index_build"):
            session.solve(base)
    bodies = [
        json.dumps(bases[op["cat"]].with_functions(op["weights"]).to_dict())
        for op in job["ops"]
    ]
    cache: dict = {}
    methods: list = [None] * len(bodies)
    digests: list = [None] * len(bodies)
    errors = []
    for i, body in enumerate(bodies):
        try:
            with sp("op", i):
                for _hop in ("gateway", "backend"):
                    with sp("api.decode", i):
                        problem = Problem.from_dict(json.loads(body))
                    with sp("api.digest", i):
                        problem.digest()
                        problem.instance_digest()
                with sp("planner.plan", i):
                    problem.plan()
                key = problem.solve_key()
                solution = cache.get(key)
                if solution is None:
                    with sp("session.solve", i):
                        solution = cache[key] = session.solve(problem)
                with sp("api.encode", i):
                    text = json.dumps({"solution": solution.to_dict()}, sort_keys=True)
            decoded = Solution.from_dict(json.loads(text)["solution"])
        # A raised op is a failed op, counted against the attempts.
        except Exception as exc:
            errors.append([i, f"{type(exc).__name__}: {exc}"])
            continue
        methods[i] = solution.method
        digests[i] = output_digest(decoded.method, pair_key(decoded.pairs))
    out = {
        "op_methods": methods,
        "digests": digests,
        "index_builds": session.cache_info()["misses"],
        "errors": errors,
    }
    session.close()
    return out


MODES = {
    "solve_batch": solve_batch,
    "solve_batch_check": solve_batch_check,
    "churn_live": churn_live,
    "wire_replay": wire_replay,
}


def main() -> None:
    job = json.load(sys.stdin)
    rec = SpanRecorder() if job["trace"] else None
    out = MODES[job["mode"]](job, rec)
    if rec is not None:
        out["spans"] = rec.spans
    print(json.dumps(out))


if __name__ == "__main__":
    main()
