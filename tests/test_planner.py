"""Unit coverage of :mod:`repro.core.registry`: the solver table, its
option checks, the ``auto`` rule, plans, and the Problem-level auto
surface."""

import pytest

from repro.api import Problem
from repro.core import build_object_index, greedy_assign, solve
from repro.core.registry import AUTO_METHOD, AUTO_PLAN, REGISTRY, Plan, engine_config
from repro.errors import (
    InvalidProblemError,
    InvalidSolverOptionError,
    UnknownSolverError,
)

from .conftest import random_instance

#: A valid value for every option some spec accepts, unlike each
#: option's default where the type allows.
VALID_OPTION_VALUES = {
    "omega_fraction": 0.05,
    "multi_pair": False,
    "biased": False,
    "resume": False,
    "maintenance": "deltasky",
    "paged_function_lists": 256,
    "page_size": 256,
    "function_scan_pages": 2,
    "disk_function_tree": True,
}

#: Values each option's check must reject, the wrong type first.
INVALID_OPTION_VALUES = {
    "omega_fraction": ["x", True, float("nan"), float("inf")],
    "multi_pair": ["no", 0, 1.0],
    "biased": ["yes", 1],
    "resume": [0],
    "maintenance": ["bogus", 1],
    "paged_function_lists": ["big", 0, 2.0, True],
    "page_size": ["big", 0, 4096.0, None],
    "function_scan_pages": ["x", -1, 1.5, False],
    "disk_function_tree": ["true", 1, None],
}

# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    @pytest.mark.parametrize("name", REGISTRY.names())
    def test_every_spec_runs_with_every_option(self, name):
        """The table's one guarantee: every spec builds and solves with
        each of its accepted options set, through the named config and
        through ``solve``, and matches the greedy oracle."""
        spec = REGISTRY.get(name)
        options = {option: VALID_OPTION_VALUES[option] for option in spec.options}
        fs, os_ = random_instance(6, 14, 3, seed=3, capacities=True, priorities=True)
        expected = greedy_assign(fs, os_).matching.as_dict()
        memory = name == "sb-alt"
        got = solve(fs, build_object_index(os_, page_size=512, memory=memory),
                    method=name, **options)
        assert got.matching.as_dict() == expected
        if spec.engine_backed:
            config = engine_config(name, **options)
            assert config.name == name
            index = build_object_index(os_, page_size=512, memory=memory)
            assert solve(fs, index, method=config).matching.as_dict() == expected

    @pytest.mark.parametrize("option", sorted(INVALID_OPTION_VALUES))
    def test_option_values_are_checked(self, option):
        for spec in REGISTRY:
            if option not in spec.options:
                continue
            for value in INVALID_OPTION_VALUES[option]:
                with pytest.raises(InvalidProblemError, match=repr(option)):
                    REGISTRY.resolve(spec.name, {option: value})

    def test_none_is_accepted_only_where_it_keeps_a_preset(self):
        for option in ("omega_fraction", "multi_pair", "maintenance"):
            assert REGISTRY.resolve("sb", {option: None}).options_dict() == {
                option: None
            }
        # sb-vec would read multi_pair=None as single-pair.
        with pytest.raises(InvalidProblemError):
            REGISTRY.resolve("sb-vec", {"multi_pair": None})

    def test_auto_picks_a_vectorized_config_on_a_grid_shape(self):
        """The default Table 2 cell (anti-correlated 100x2000, dims=4)
        resolves to the columnar SB, like every other instance."""
        from repro.bench.harness import make_instance

        fs, os_ = make_instance(100, 2000, 4, "anti-correlated", seed=17)
        plan = Problem.from_sets(os_, fs, method="auto").plan()
        assert plan is AUTO_PLAN
        assert plan.method == "sb-vec"

    def test_unknown_method_lists_auto(self):
        with pytest.raises(UnknownSolverError) as exc:
            REGISTRY.get("nope")
        assert "auto" in exc.value.known

    def test_auto_accepts_no_options(self):
        assert REGISTRY.resolve(AUTO_METHOD, None) is AUTO_PLAN
        assert REGISTRY.resolve(AUTO_METHOD, {}) is AUTO_PLAN
        with pytest.raises(InvalidSolverOptionError):
            REGISTRY.resolve(AUTO_METHOD, {"omega_fraction": 0.1})

    def test_validate_matches_legacy_semantics(self):
        REGISTRY.resolve("sb", {"omega_fraction": 0.1})
        with pytest.raises(UnknownSolverError):
            REGISTRY.resolve("nope", None)
        with pytest.raises(InvalidSolverOptionError):
            REGISTRY.resolve("chain", {"omega_fraction": 0.1})
        with pytest.raises(InvalidSolverOptionError):
            REGISTRY.resolve("sb", {"variant": "sb-update"})

    def test_engine_config_factories(self):
        for spec in REGISTRY:
            if spec.engine_backed:
                assert engine_config(spec.name).name == spec.name
        with pytest.raises(UnknownSolverError, match="engine config"):
            engine_config("brute-force")

    def test_spec_solve_entry_points_run(self):
        fs, os_ = random_instance(4, 8, 2, seed=1)
        reference = None
        for spec in REGISTRY:
            index = build_object_index(
                os_, page_size=512, memory=(spec.name == "sb-alt")
            )
            result = solve(fs, index, method=spec.name)
            pairs = result.matching.as_dict()
            if reference is None:
                reference = pairs
            assert pairs == reference, spec.name


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class TestPlan:
    def test_plan_is_deterministic(self):
        """The rule reads nothing of the instance: every shape, with or
        without priorities and capacities, gets the same plan."""
        shapes = [
            random_instance(15, 60, 3, seed=11),
            random_instance(1, 2, 2, seed=12),
            random_instance(40, 30, 4, seed=13, capacities=True, priorities=True),
        ]
        plans = {
            Problem.from_sets(os_, fs, method="auto").plan() for fs, os_ in shapes
        }
        assert plans == {AUTO_PLAN}
        assert AUTO_PLAN.auto
        assert (AUTO_PLAN.method, AUTO_PLAN.options) == ("sb-vec", ())

    def test_explicit_plan_is_trivial(self):
        plan = REGISTRY.resolve("chain", {"disk_function_tree": True})
        assert not plan.auto
        assert plan.method == "chain"
        assert plan.options_dict() == {"disk_function_tree": True}
        assert "explicitly" in plan.explain()

    def test_plan_serde_round_trip(self):
        explicit = REGISTRY.resolve("chain", {"disk_function_tree": True})
        for plan in (AUTO_PLAN, explicit):
            assert Plan.from_dict(plan.to_dict()) == plan
        # A payload with fields this version does not keep still reads.
        legacy = {**AUTO_PLAN.to_dict(), "candidates": [], "profile": None}
        assert Plan.from_dict(legacy) == AUTO_PLAN

    def test_plan_explain_mentions_decision(self):
        text = AUTO_PLAN.explain()
        assert "\n" not in text
        assert "method='auto'" in text
        assert "'sb-vec'" in text
        assert "rule" in text

    def test_plan_is_picklable(self):
        import pickle

        assert pickle.loads(pickle.dumps(AUTO_PLAN)) == AUTO_PLAN


# ---------------------------------------------------------------------------
# Problem-level auto surface
# ---------------------------------------------------------------------------


class TestProblemAuto:
    def _problem(self, method="auto", seed=16):
        fs, os_ = random_instance(6, 20, 3, seed=seed)
        return Problem.from_sets(os_, fs, method=method)

    def test_auto_validates_and_rejects_options(self):
        assert self._problem().method == "auto"
        with pytest.raises(InvalidSolverOptionError):
            fs, os_ = random_instance(3, 5, 2, seed=17)
            Problem.from_sets(os_, fs, method="auto", options={"multi_pair": True})

    def test_resolved_method_and_plan_memo(self):
        problem = self._problem()
        plan = problem.plan()
        assert problem.plan() is plan  # memoized
        assert problem.resolved_method == plan.method == "sb-vec"

    def test_solve_key_shared_with_explicit_pick(self):
        problem = self._problem()
        explicit = problem.with_method(problem.resolved_method)
        assert problem.solve_key() == explicit.solve_key()

    def test_explicit_problem_plan_is_trivial(self):
        problem = self._problem(method="sb")
        assert problem.resolved_method == "sb"
        assert not problem.plan().auto
        assert "explicitly" in problem.explain()
