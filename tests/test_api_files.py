"""Problem/Solution file round trips and the content-address helpers."""

import math

import pytest

from repro.api import (
    AssignmentSession,
    InvalidProblemError,
    Problem,
    SerdeError,
    Solution,
    UnknownCatalogueError,
    canonical_digest,
    catalogue_from_dict,
    catalogue_to_dict,
)
from repro.data import object_set_fingerprint


def make_problem(method="sb", **options):
    return (
        Problem.builder()
        .add_objects([(0.5, 0.6), (0.2, 0.7), (0.8, 0.2), (0.4, 0.4)])
        .add_functions(
            [(0.8, 0.2), (0.2, 0.8), (0.5, 0.5)],
            priorities=[2.0, 1.0, 1.0],
            capacities=[1, 2, 1],
        )
        .solver(method, **options)
        .build()
    )


def test_problem_file_round_trip(tmp_path):
    problem = make_problem()
    path = problem.to_file(tmp_path / "problem.json")
    assert path.read_text().endswith("\n")
    assert Problem.from_file(path) == problem
    assert Problem.from_file(str(path)).digest() == problem.digest()


def test_solution_file_round_trip(tmp_path):
    problem = make_problem()
    with AssignmentSession(problem) as session:
        solution = session.solve()
    path = solution.to_file(tmp_path / "solution.json")
    loaded = Solution.from_file(path)
    assert loaded == solution
    assert loaded.to_dict() == solution.to_dict()  # stats round-trip too


def test_from_file_missing_path_raises_serde_error(tmp_path):
    with pytest.raises(SerdeError):
        Problem.from_file(tmp_path / "nope.json")
    with pytest.raises(SerdeError):
        Solution.from_file(tmp_path / "nope.json")


def test_from_file_rejects_wrong_schema(tmp_path):
    problem = make_problem()
    path = problem.to_file(tmp_path / "p.json")
    with pytest.raises(SerdeError):
        Solution.from_file(path)  # a problem payload is not a solution


def test_digest_is_content_addressed():
    assert make_problem().digest() == make_problem().digest()
    assert make_problem().digest() != make_problem("chain").digest()
    # digest memoization survives repeated calls
    p = make_problem()
    assert p.digest() is p.digest()


def test_instance_digest_ignores_solver_selection():
    base = make_problem()
    assert base.instance_digest() == make_problem("chain").instance_digest()
    assert (
        base.with_method("sb", omega_fraction=0.1).instance_digest()
        == base.instance_digest()
    )
    other = base.with_objects([(0.1, 0.1), (0.9, 0.9), (0.3, 0.8)])
    assert other.instance_digest() != base.instance_digest()


def test_solve_key_separates_method_and_options():
    base = make_problem()
    same = make_problem()
    assert base.solve_key() == same.solve_key()
    assert base.solve_key() != base.with_method("chain").solve_key()
    assert base.solve_key() != base.with_options(omega_fraction=0.1).solve_key()


def test_canonical_digest_is_order_insensitive():
    assert canonical_digest({"a": 1, "b": 2}) == canonical_digest({"b": 2, "a": 1})
    assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})


def pinned_problem(**changes):
    """A tiny fixed problem whose addresses are pinned below."""
    fields = dict(
        objects=[(0.5, 0.6), (0.2, 0.7), (0.8, 0.2)],
        object_capacities=[1, 2, 1],
        functions=[(0.75, 0.25), (0.25, 0.75)],
        priorities=[2.0, 1.0],
        method="sb",
    )
    fields.update(changes)
    return Problem(**fields)


def test_content_addresses_are_pinned():
    """A problem id crosses processes and hosts: a gateway and a backend
    that address one problem differently cannot route to each other, so
    changing the address must be a deliberate edit of these values."""
    problem = pinned_problem()
    assert object_set_fingerprint(problem.object_set) == (
        "bf1c5297348e283e145e93d3c7399ecde3de381ca3dd02b55d2bad029e22a277"
    )
    assert problem.digest() == (
        "ff4ca9e16185f7f2e35c595639019e09a73b5efd8905db3fb898857724c4c385"
    )
    assert problem.instance_digest() == (
        "d4fb7ea6e205ce281c7a91137edd9c3833b6c9365f902031e8b170f66c8ca8e2"
    )


def test_v1_and_v2_payloads_of_one_problem_address_equally():
    """Every spelling of one problem has one address: v1, v2 and the v3
    payload that names the catalogue by its fingerprint."""
    problem = pinned_problem()
    v2 = problem.to_dict()
    v1 = {**v2, "schema": "repro.problem/v1"}
    v3 = problem.to_reference_dict()
    catalogue = catalogue_from_dict(catalogue_to_dict(problem.object_set))
    held = {v3["catalogue"]: catalogue}
    for payload in (v1, v2, v3):
        decoded = Problem.from_dict(payload, catalogues=held)
        assert decoded == problem
        assert decoded.digest() == problem.digest()
        assert decoded.instance_digest() == problem.instance_digest()
    assert Problem.from_dict(v3, catalogues=held).object_set is catalogue


def test_v3_payloads_decode_only_against_held_catalogues():
    problem = pinned_problem()
    v3 = problem.to_reference_dict()
    assert "objects" not in v3
    assert v3["catalogue"] == object_set_fingerprint(problem.object_set)
    with pytest.raises(SerdeError, match="catalogue"):
        Problem.from_dict(v3)
    with pytest.raises(UnknownCatalogueError) as excinfo:
        Problem.from_dict(v3, catalogues={})
    assert excinfo.value.fingerprint == v3["catalogue"]
    with pytest.raises(SerdeError):
        Problem.from_dict({**v3, "catalogue": 7}, catalogues={})
    # The cohort is still checked against the held catalogue.
    held = {v3["catalogue"]: problem.object_set}
    three_d = {**v3, "functions": {"weights": [[0.2, 0.3, 0.5]]}}
    with pytest.raises(InvalidProblemError, match="dimensional"):
        Problem.from_dict(three_d, catalogues=held)


@pytest.mark.parametrize(
    "payload",
    [
        None,
        {"schema": "repro.catalogue/v1"},
        {"schema": "repro.catalogue/v1", "points": None},
        {"schema": "repro.catalogue/v1", "points": 5},
        {"schema": "repro.catalogue/v1", "points": []},
        {"schema": "repro.catalogue/v1", "points": [[0.5, float("nan")]]},
        {"schema": "repro.catalogue/v1", "points": [[0.5]], "capacities": [0]},
        {"schema": "repro.catalogue/v1", "points": [[0.5]], "extra": 1},
    ],
)
def test_malformed_catalogue_payloads_are_typed_errors(payload):
    with pytest.raises((SerdeError, InvalidProblemError)):
        catalogue_from_dict(payload)


def test_normalized_equal_problems_address_equally():
    """All-1 capacity and priority vectors are ``None`` in every
    address, whichever way they were spelled."""
    implicit = pinned_problem(object_capacities=None, priorities=None)
    explicit = pinned_problem(
        object_capacities=[1, 1, 1],
        priorities=[1.0, 1.0],
        function_capacities=[1, 1],
    )
    assert explicit.digest() == implicit.digest()
    assert explicit.instance_digest() == implicit.instance_digest()
    assert object_set_fingerprint(explicit.object_set) == object_set_fingerprint(
        implicit.object_set
    )


@pytest.mark.parametrize(
    "changes",
    [
        {"objects": [(0.5, 0.6), (math.nextafter(0.2, 1.0), 0.7), (0.8, 0.2)]},
        {"object_capacities": [1, 3, 1]},
        {"functions": [(math.nextafter(0.75, 1.0), 0.25), (0.25, 0.75)]},
        {"priorities": [math.nextafter(2.0, 3.0), 1.0]},
        {"function_capacities": [1, 2]},
    ],
    ids=["coordinate", "object-capacity", "weight", "priority", "function-capacity"],
)
def test_smallest_instance_change_moves_both_addresses(changes):
    base, changed = pinned_problem(), pinned_problem(**changes)
    assert changed.digest() != base.digest()
    assert changed.instance_digest() != base.instance_digest()
    catalogue_changed = "objects" in changes or "object_capacities" in changes
    assert catalogue_changed == (
        object_set_fingerprint(changed.object_set)
        != object_set_fingerprint(base.object_set)
    )


def test_variants_of_one_catalogue_share_its_fingerprint():
    """Derived problems share the frozen ObjectSet, so its memoized
    fingerprint addresses every variant."""
    base = pinned_problem()
    variant = base.with_functions([(0.5, 0.5)]).with_method("chain")
    assert variant.object_set is base.object_set
    assert variant.digest() != base.digest()
    assert variant.instance_digest() != base.instance_digest()
    assert base.with_method("chain").instance_digest() == base.instance_digest()
