"""Unit coverage of :mod:`repro.planner`: registry, the ``auto`` rule,
plans, and the Problem-level auto surface."""

import pytest

from repro.api import Problem
from repro.core import SOLVER_OPTIONS, SOLVERS
from repro.errors import InvalidSolverOptionError, UnknownSolverError
from repro.planner import (
    AUTO_METHOD,
    AUTO_PLAN,
    REGISTRY,
    Plan,
    explicit_plan,
)

from .conftest import random_instance

# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_legacy_tables_are_registry_views(self):
        assert set(SOLVERS) == set(REGISTRY.names())
        assert SOLVER_OPTIONS == REGISTRY.option_schema()

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
        REGISTRY.validate(AUTO_METHOD, None)
        REGISTRY.validate(AUTO_METHOD, {})
        with pytest.raises(InvalidSolverOptionError):
            REGISTRY.validate(AUTO_METHOD, {"omega_fraction": 0.1})

    def test_validate_matches_legacy_semantics(self):
        REGISTRY.validate("sb", {"omega_fraction": 0.1})
        with pytest.raises(UnknownSolverError):
            REGISTRY.validate("nope", None)
        with pytest.raises(InvalidSolverOptionError):
            REGISTRY.validate("chain", {"omega_fraction": 0.1})

    def test_engine_config_factories(self):
        for spec in REGISTRY:
            if spec.engine_backed:
                config = spec.engine_config()
                assert config.name == spec.name
        with pytest.raises(UnknownSolverError):
            REGISTRY.get("brute-force").engine_config()

    def test_spec_solve_entry_points_run(self):
        from repro.core import build_object_index

        fs, os_ = random_instance(4, 8, 2, seed=1)
        reference = None
        for spec in REGISTRY:
            index = build_object_index(
                os_, page_size=512, memory=(spec.name == "sb-alt")
            )
            result = spec.solve(fs, index)
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
        plan = explicit_plan("chain", {"disk_function_tree": True})
        assert not plan.auto
        assert plan.method == "chain"
        assert plan.options_dict() == {"disk_function_tree": True}
        assert "explicitly" in plan.explain()

    def test_plan_serde_round_trip(self):
        explicit = explicit_plan("chain", {"disk_function_tree": True})
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
