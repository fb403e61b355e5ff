"""Seeded inputs for every workload.

Everything a workload feeds the program derives from the one
``--seed``: catalogues, cohorts, replay picks, churn stream and batch
sizes.  Skewed draws (cohort sizes, catalogue popularity, batch sizes)
are *stratified*: one inverse-CDF draw per equal-probability stratum,
then a seeded shuffle.  Subsets picked from the ops (solve_batch's
prioritized cohorts, fleet_wire's replayed requests) are taken at
evenly spaced ranks of cohort size, so they carry the same size mix
too.  Each run thus does the same mix of work up to rounding, and the
seed moves the order, the weights and the points; otherwise one seed
with three extra 256-function cohorts would read as a slower program.

Inputs are plain lists so ``run.py`` can hand them to a fresh program
process as JSON; the process builds the program's objects from them.
"""

from __future__ import annotations

import numpy as np

from repro.data.generators import (
    anti_correlated_points,
    churn_stream,
    make_functions,
    make_objects,
    uniform_weights,
    zipf_probabilities,
)
from repro.api.events import (
    FunctionArrived,
    FunctionDeparted,
    ObjectArrived,
    ObjectDeparted,
)

DIMS = 3

#: Ops per requested second, fitted to a 2-core host so that a run's
#: timed replay lasts about ``--seconds``.  The op count is a pure
#: function of ``--seconds``: every run of one setting does the same
#: work, whatever the host's speed.
OPS_PER_SECOND = {"fleet_wire": 14, "solve_batch": 18, "churn_live": 28}


def op_count(workload: str, seconds: int) -> int:
    # p90 needs ten samples beyond it.
    return max(100, round(OPS_PER_SECOND[workload] * seconds))


def spaced_ranks(rng: np.random.Generator, keys: list, k: int) -> list[int]:
    """``k`` indices into ``keys`` at evenly spaced ranks of their
    sorted order (seeded offset): a subset with the same mix of keys."""
    order = sorted(range(len(keys)), key=lambda i: (keys[i], i))
    step = len(keys) / k
    offset = rng.random()
    return [order[int((j + offset) * step)] for j in range(k)]


def stratified_choice(
    rng: np.random.Generator, values: np.ndarray, p: np.ndarray, n: int
) -> list:
    """``n`` draws from ``values`` with pmf ``p``, one per stratum."""
    u = (np.arange(n) + rng.random(n)) / n
    idx = np.searchsorted(np.cumsum(p), u, side="right")
    idx = np.minimum(idx, len(values) - 1)
    picks = values[idx]
    rng.shuffle(picks)
    return [int(v) for v in picks]


def _points(rng: np.random.Generator, n: int) -> list[list[float]]:
    return anti_correlated_points(n, DIMS, seed=rng).tolist()


def _cohort(rng: np.random.Generator, size: int) -> list[list[float]]:
    return uniform_weights(size, DIMS, seed=rng).tolist()


def solve_batch(seed: int, seconds: int) -> dict:
    """2 catalogues x 8192 objects; cohorts of Zipf sizes 1..256, a
    fixed fifth of them with priorities and multi-unit capacities."""
    rng = np.random.default_rng([seed, 1])
    n = op_count("solve_batch", seconds)
    catalogues = [_points(rng, 8192) for _ in range(2)]
    cats = stratified_choice(rng, np.arange(2), zipf_probabilities(2, 1.1), n)
    sizes = stratified_choice(
        rng, np.arange(1, 257), zipf_probabilities(256, 1.0), n
    )
    weighted = set(spaced_ranks(rng, sizes, n // 5))
    ops = []
    for i in range(n):
        op = {"cat": cats[i], "weights": _cohort(rng, sizes[i])}
        if i in weighted:
            op["priorities"] = [float(g) for g in rng.integers(1, 4, sizes[i])]
            op["capacities"] = [int(c) for c in rng.integers(1, 4, sizes[i])]
        ops.append(op)
    return {
        "catalogues": catalogues,
        "ops": ops,
        "verify_sample": _verify_sample(rng, sizes, budget=64, limit=4),
    }


def _verify_sample(
    rng: np.random.Generator, sizes: list[int], budget: int, limit: int
) -> list[int]:
    """A seeded sample of ops for ``Solution.verify()``, whose cost is
    |cohort| x |catalogue|: take ops in seeded order while the summed
    cohort size stays within ``budget`` (a 256-function verify alone
    takes seconds)."""
    picked, spent = [], 0
    for i in rng.permutation(len(sizes)).tolist():
        if spent + sizes[i] <= budget:
            picked.append(i)
            spent += sizes[i]
            if len(picked) == limit:
                break
    return sorted(picked)


def fleet_wire(seed: int, seconds: int) -> dict:
    """4 catalogues x 2048 objects with Zipf popularity; cohorts of Zipf
    sizes 1..32; 30% of requests exactly replay an earlier cohort.

    Catalogues and sizes are stratified over the original requests;
    the replayed ones are originals at evenly spaced size ranks, each
    placed at a seeded position after its original."""
    rng = np.random.default_rng([seed, 2])
    n = op_count("fleet_wire", seconds)
    n_replays = round(0.3 * n)
    n_originals = n - n_replays
    catalogues = [_points(rng, 2048) for _ in range(4)]
    cats = stratified_choice(rng, np.arange(4), zipf_probabilities(4, 1.1), n_originals)
    sizes = stratified_choice(
        rng, np.arange(1, 33), zipf_probabilities(32, 1.0), n_originals
    )
    originals = [
        {"cat": cats[i], "weights": _cohort(rng, sizes[i])} for i in range(n_originals)
    ]
    replays_after: list[list[int]] = [[] for _ in range(n_originals)]
    for source in spaced_ranks(rng, list(zip(sizes, cats)), n_replays):
        replays_after[int(rng.integers(source, n_originals))].append(source)
    ops: list[dict] = []
    for i, original in enumerate(originals):
        ops.append(original)
        ops.extend(dict(originals[s]) for s in replays_after[i])
    return {"catalogues": catalogues, "ops": ops}


#: churn_live's independent episodes per run.  An episode's cost
#: depends on its population: the mean single-event ``apply()`` of one
#: episode repeats within 10% between runs, but ranged 8-16 ms between
#: the episodes of one seed.  A run therefore averages over many short
#: episodes rather than following a few long ones.
CHURN_EPISODES = 16
#: Episodes whose final state also passes ``verify_current()``, which
#: takes about 0.3 s on this shape.
CHURN_VERIFIED = 4


def churn_live(seed: int, seconds: int) -> dict:
    """Per episode: 100 functions x 1000 objects, then a churn stream
    (capacities and priorities <= 2) cut into apply() batches of Zipf
    sizes 1..16."""
    rng = np.random.default_rng([seed, 3])
    n = op_count("churn_live", seconds)
    sizes = stratified_choice(rng, np.arange(1, 17), zipf_probabilities(16, 1.7), n)
    verified = set(rng.permutation(CHURN_EPISODES)[:CHURN_VERIFIED].tolist())
    episodes = []
    for k in range(CHURN_EPISODES):
        functions = make_functions(100, DIMS, seed=rng)
        objects = make_objects(1000, DIMS, "anti-correlated", seed=rng)
        batch_sizes = sizes[k::CHURN_EPISODES]
        events = churn_stream(
            sum(batch_sizes),
            functions,
            objects,
            max_capacity=2,
            max_priority=2,
            seed=rng,
        )
        episodes.append(
            {
                "functions": [list(w) for w in functions.weights],
                "objects": [list(p) for p in objects.points],
                "events": [_encode_event(e) for e in events],
                "batch_sizes": batch_sizes,
                "verify": k in verified,
            }
        )
    return {"episodes": episodes}


def _encode_event(event) -> list:
    if isinstance(event, ObjectArrived):
        return ["oa", list(event.point), event.capacity]
    if isinstance(event, ObjectDeparted):
        return ["od", event.oid]
    if isinstance(event, FunctionArrived):
        return ["fa", list(event.weights), event.priority, event.capacity]
    if isinstance(event, FunctionDeparted):
        return ["fd", event.fid]
    raise TypeError(f"unknown event {event!r}")


GENERATORS = {
    "fleet_wire": fleet_wire,
    "solve_batch": solve_batch,
    "churn_live": churn_live,
}
