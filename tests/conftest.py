"""Shared fixtures and instance builders for the test suite."""

from __future__ import annotations

import contextlib
import math
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.cluster import GatewayConfig, serve_gateway_in_thread
from repro.core.vectorized import CELL_BUDGET
from repro.data.instances import FunctionSet, ObjectSet
from repro.server import ServerConfig, serve_in_thread

#: The deep identity run: ``pytest --hypothesis-profile=churn-deep``
#: runs every property that takes its budget from :func:`deep_settings`
#: on 500 derandomized examples (the churn three-way property and the
#: static solver properties; a CI step).
DEEP_PROFILE = "churn-deep"
settings.register_profile(
    DEEP_PROFILE, max_examples=500, derandomize=True, deadline=None
)


def deep_settings(max_examples: int, **fixed) -> settings:
    """Tier-1's budget of ``max_examples`` without a deadline, or the
    deep profile's budget when pytest selected that profile; ``fixed``
    settings apply to both."""
    if settings.get_current_profile_name() == DEEP_PROFILE:
        return settings(**fixed)
    return settings(max_examples=max_examples, deadline=None, **fixed)

# ---------------------------------------------------------------------------
# Random instance builders (plain `random`, used by seeded loop tests)
# ---------------------------------------------------------------------------

TIE_VALUES = [0.0, 0.25, 0.5, 0.75, 1.0]


def random_points(n: int, dims: int, rng: random.Random, tie_heavy: bool = False):
    if tie_heavy:
        return [
            tuple(rng.choice(TIE_VALUES) for _ in range(dims)) for _ in range(n)
        ]
    return [tuple(rng.random() for _ in range(dims)) for _ in range(n)]


def random_weights(n: int, dims: int, rng: random.Random, tie_heavy: bool = False):
    out = []
    for _ in range(n):
        if tie_heavy:
            w = [rng.choice(TIE_VALUES) for _ in range(dims)]
        else:
            w = [rng.random() for _ in range(dims)]
        s = sum(w)
        out.append(tuple(x / s for x in w) if s > 0 else tuple([1.0 / dims] * dims))
    return out


def random_instance(
    nf: int,
    no: int,
    dims: int,
    seed: int = 0,
    capacities: bool = False,
    priorities: bool = False,
    tie_heavy: bool = False,
) -> tuple[FunctionSet, ObjectSet]:
    rng = random.Random(seed)
    points = random_points(no, dims, rng, tie_heavy)
    weights = random_weights(nf, dims, rng, tie_heavy)
    fcaps = [rng.randint(1, 3) for _ in range(nf)] if capacities else None
    ocaps = [rng.randint(1, 3) for _ in range(no)] if capacities else None
    gammas = [float(rng.randint(1, 4)) for _ in range(nf)] if priorities else None
    return (
        FunctionSet(weights, gammas=gammas, capacities=fcaps),
        ObjectSet(points, capacities=ocaps),
    )


def near_tie_instance(seed: int) -> tuple[FunctionSet, ObjectSet]:
    """Near-ties far from the origin: 2-6 objects within 1.0 of a base
    point of about 1e12 per dimension (either sign), and 2-6 functions,
    about 70% of them one weight vector perturbed by 0-3 ulps per
    coefficient.  A matmul's rounding error there dwarfs ``SCORE_EPS``
    while the exact scores still differ."""
    rng = random.Random(seed)
    dims = rng.randint(2, 4)
    base = [
        rng.choice((-1.0, 1.0)) * 1e12 * rng.uniform(0.5, 1.5) for _ in range(dims)
    ]
    points = [tuple(b + rng.random() for b in base) for _ in range(rng.randint(2, 6))]
    shared = [rng.uniform(0.1, 1.0) for _ in range(dims)]
    weights = []
    for _ in range(rng.randint(2, 6)):
        if rng.random() < 0.7:
            w = list(shared)
            for i in range(dims):
                for _ in range(rng.randint(0, 3)):
                    w[i] = math.nextafter(w[i], math.inf)
        else:
            w = [rng.uniform(0.1, 1.0) for _ in range(dims)]
        total = sum(w)
        weights.append(tuple(x / total for x in w))
    return FunctionSet(weights), ObjectSet(points)


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

coord = st.one_of(
    st.sampled_from(TIE_VALUES),  # force ties/duplicates often
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32),
)


#: The shipped score-block budget, or budgets small enough that every
#: scan runs in blocks of one or a few rows.  Tests patch a drawn budget
#: into ``repro.core.vectorized.CELL_BUDGET``, which both kernels read
#: at call time.
block_budgets = st.one_of(st.just(CELL_BUDGET), st.integers(1, 2000))


def points_strategy(dims: int, min_size=1, max_size=40):
    return st.lists(
        st.tuples(*([coord] * dims)), min_size=min_size, max_size=max_size
    )


def weights_strategy(dims: int, min_size=1, max_size=15):
    raw = st.tuples(*([coord] * dims)).filter(lambda w: sum(w) > 0)
    return st.lists(
        raw.map(lambda w: tuple(x / sum(w) for x in w)),
        min_size=min_size,
        max_size=max_size,
    )


@pytest.fixture
def rng():
    return random.Random(1234)


# ---------------------------------------------------------------------------
# The two services on the shared HTTP shell
# ---------------------------------------------------------------------------

#: Parametrize a shell test over both services with these ids.
SHELL_TARGETS = ("server", "gateway")


@contextlib.contextmanager
def serving(target: str, **settings):
    """A thread-hosted service of ``target`` taking the shared
    ``settings``: the server itself, or a gateway in front of one
    embedded backend (which keeps its defaults)."""
    if target == "server":
        with serve_in_thread(ServerConfig(port=0, **settings)) as handle:
            yield handle
        return
    with serve_in_thread(ServerConfig(port=0)) as backend:
        config = GatewayConfig(
            backends=(f"127.0.0.1:{backend.port}",), port=0, **settings
        )
        with serve_gateway_in_thread(config) as handle:
            yield handle
