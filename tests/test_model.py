import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dlqr
from dlqr import (
    AssumptionViolated,
    Controller,
    DimensionMismatch,
    NotStabilizing,
    Plant,
    SchemaError,
    SecondMoment,
)

from conftest import EX1, CROSS_X, problem_dict, wire
from oracles import closed_loop_oracle, series_cost_oracle, stage_weight_oracle


def test_plant_scalar_coercion_and_dimensions(ex1_plant):
    assert ex1_plant.n == 1
    assert ex1_plant.m == 1
    assert ex1_plant.d == 1
    assert ex1_plant.A.shape == (1, 1)


def test_plant_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        Plant(A=np.eye(2), B=np.ones((3, 1)), C=np.ones((1, 2)), Q=np.eye(2), R=1.0)
    with pytest.raises(DimensionMismatch):
        Plant(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)), Q=np.eye(3), R=1.0)
    with pytest.raises(DimensionMismatch):
        Plant(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)), Q=np.eye(2), R=np.eye(2))


def test_plant_rejects_assumption_violations():
    with pytest.raises(AssumptionViolated):  # Q not PSD
        Plant(A=0.5, B=1.0, C=1.0, Q=-1.0, R=1.0)
    with pytest.raises(AssumptionViolated):  # R singular
        Plant(A=0.5, B=1.0, C=1.0, Q=1.0, R=0.0)
    with pytest.raises(AssumptionViolated):  # C row-rank deficient
        Plant(
            A=np.eye(2) * 0.5,
            B=np.ones((2, 1)),
            C=np.array([[1.0, 0.0], [2.0, 0.0]]),
            Q=np.eye(2),
            R=1.0,
        )
    with pytest.raises(AssumptionViolated):  # (A, B) uncontrollable
        Plant(
            A=np.diag([2.0, 0.5]),
            B=np.array([[1.0], [0.0]]),
            C=np.array([[1.0, 1.0]]),
            Q=np.eye(2),
            R=1.0,
        )
    with pytest.raises(AssumptionViolated):  # Q asymmetric
        Plant(
            A=np.eye(2) * 0.5,
            B=np.ones((2, 1)),
            C=np.array([[1.0, 0.0]]),
            Q=np.array([[1.0, 0.5], [0.0, 1.0]]),
            R=1.0,
        )


def test_controller_validation():
    with pytest.raises(DimensionMismatch):
        Controller(A_K=np.ones((2, 3)), B_K=np.ones((2, 1)), C_K=np.ones((1, 2)))
    with pytest.raises(DimensionMismatch):
        Controller(A_K=np.eye(2), B_K=np.ones((3, 1)), C_K=np.ones((1, 2)))
    with pytest.raises(DimensionMismatch):
        Controller(A_K=np.eye(2), B_K=np.ones((2, 1)), C_K=np.ones((1, 3)))
    k = Controller(A_K=-0.9, B_K=1.0, C_K=-0.5)
    assert k.n == 1


def test_controller_vector_round_trip():
    k = Controller(A_K=np.eye(2) * 0.3, B_K=np.ones((2, 1)), C_K=np.ones((1, 2)))
    v = dlqr.controller_to_vector(k)
    assert v.shape == (8,)
    back = dlqr.controller_from_vector(k, v)
    assert_allclose(back.A_K, k.A_K)
    assert_allclose(back.B_K, k.B_K)
    assert_allclose(back.C_K, k.C_K)
    with pytest.raises(DimensionMismatch):
        dlqr.controller_from_vector(k, v[:-1])


def test_second_moment_validation_and_blocks(cross_X):
    X = SecondMoment(cross_X)
    assert X.n == 1
    assert X.X11[0, 0] == 1.0
    assert X.X12[0, 0] == 0.25
    assert X.X22[0, 0] == 1.0
    with pytest.raises(DimensionMismatch):  # odd size cannot split in two
        SecondMoment(np.eye(3))
    with pytest.raises(AssumptionViolated):  # asymmetric
        SecondMoment(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(AssumptionViolated):  # indefinite
        SecondMoment(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_as_second_moment_size_check(cross_X):
    X = dlqr.as_second_moment(cross_X, 1)
    assert isinstance(X, SecondMoment)
    with pytest.raises(DimensionMismatch):
        dlqr.as_second_moment(cross_X, 2)


def test_assemble_matches_block_construction(ex1_plant, rounded_k1):
    loop = dlqr.assemble(ex1_plant, rounded_k1)
    assert_allclose(
        loop.A_cl,
        closed_loop_oracle(1.1, 1.0, 1.0, -0.944, 1.1, -0.944),
        rtol=1e-15,
    )
    assert_allclose(loop.W_cl, stage_weight_oracle(5.0, 1.0, -0.944), rtol=1e-15)
    assert loop.A_cl.shape == loop.W_cl.shape == (2, 2)


def test_assemble_rejects_mismatched_controller(ex1_plant):
    with pytest.raises(DimensionMismatch):  # controller order 2 vs plant order 1
        dlqr.assemble(
            ex1_plant,
            Controller(A_K=np.eye(2) * 0.1, B_K=np.ones((2, 1)), C_K=np.ones((1, 2))),
        )
    with pytest.raises(DimensionMismatch):  # B_K has too many columns
        dlqr.assemble(
            ex1_plant, Controller(A_K=0.1, B_K=np.ones((1, 2)), C_K=np.ones((1, 1)))
        )
    with pytest.raises(DimensionMismatch):  # C_K has too many rows
        dlqr.assemble(
            ex1_plant, Controller(A_K=0.1, B_K=np.ones((1, 1)), C_K=np.ones((2, 1)))
        )


def test_is_stabilizing(ex1_plant, rounded_k1):
    assert dlqr.is_stabilizing(ex1_plant, rounded_k1)
    zero = Controller(A_K=0.0, B_K=0.0, C_K=0.0)
    assert not dlqr.is_stabilizing(ex1_plant, zero)


def test_is_observable_controller():
    assert dlqr.is_observable_controller(Controller(A_K=0.5, B_K=1.0, C_K=1.0))
    assert not dlqr.is_observable_controller(Controller(A_K=0.5, B_K=1.0, C_K=0.0))


def test_observer_based_structure(ex1_plant):
    k = dlqr.observer_based(ex1_plant, 0.9437, 1.1)
    assert k.A_K[0, 0] == pytest.approx(1.1 - 0.9437 - 1.1)
    assert k.B_K[0, 0] == 1.1
    assert k.C_K[0, 0] == -0.9437
    with pytest.raises(DimensionMismatch):
        dlqr.observer_based(ex1_plant, np.ones((2, 1)), 1.1)


def test_rollout_cost_first_term_and_series(ex1_plant, rounded_k1, cross_X):
    loop = dlqr.assemble(ex1_plant, rounded_k1)
    one = dlqr.rollout_cost(ex1_plant, rounded_k1, cross_X, 1)
    assert one == pytest.approx(float(np.trace(loop.W_cl @ cross_X)), rel=1e-14)
    rolled = dlqr.rollout_cost(ex1_plant, rounded_k1, cross_X, 300)
    series = series_cost_oracle(
        1.1, 1.0, 1.0, 5.0, 1.0, -0.944, 1.1, -0.944, cross_X, terms=300
    )
    assert rolled == pytest.approx(series, rel=1e-13)


def test_rollout_cost_rejects_bad_inputs(ex1_plant, rounded_k1, cross_X):
    with pytest.raises(ValueError):
        dlqr.rollout_cost(ex1_plant, rounded_k1, cross_X, 0)
    with pytest.raises(NotStabilizing):
        dlqr.rollout_cost(
            ex1_plant, Controller(A_K=0.0, B_K=0.0, C_K=0.0), cross_X, 10
        )


def test_matrix_wire_round_trip():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(dlqr.matrix_from_wire(dlqr.matrix_to_wire(M), "M"), M)


def test_matrix_from_wire_schema_errors():
    with pytest.raises(SchemaError):
        dlqr.matrix_from_wire([1, 2], "M")  # not an object
    with pytest.raises(SchemaError):
        dlqr.matrix_from_wire({"rows": 1, "cols": 1}, "M")  # missing data
    with pytest.raises(SchemaError):
        dlqr.matrix_from_wire(
            {"rows": 1, "cols": 1, "data": [1.0], "extra": 0}, "M"
        )
    with pytest.raises(SchemaError):
        dlqr.matrix_from_wire({"rows": 2, "cols": 1, "data": [1.0]}, "M")
    with pytest.raises(SchemaError):
        dlqr.matrix_from_wire({"rows": 0, "cols": 1, "data": []}, "M")
    with pytest.raises(SchemaError):
        dlqr.matrix_from_wire({"rows": 1, "cols": 1, "data": ["x"]}, "M")
    with pytest.raises(SchemaError):
        dlqr.matrix_from_wire({"rows": 1, "cols": 1, "data": [float("nan")]}, "M")


def test_parse_problem_round_trip(rounded_k1):
    obj = problem_dict(EX1, CROSS_X, rounded_k1)
    problem = dlqr.parse_problem(obj)
    assert problem.plant.A[0, 0] == 1.1
    assert_allclose(problem.X.X, CROSS_X)
    assert problem.seed_controller.B_K[0, 0] == 1.1
    no_seed = dlqr.parse_problem(problem_dict(EX1, CROSS_X))
    assert no_seed.seed_controller is None


def test_parse_problem_schema_errors():
    good = problem_dict(EX1, CROSS_X)
    with pytest.raises(SchemaError):
        dlqr.parse_problem([])
    missing = dict(good)
    del missing["Q"]
    with pytest.raises(SchemaError):
        dlqr.parse_problem(missing)
    extra = dict(good)
    extra["unknown"] = 1
    with pytest.raises(SchemaError):
        dlqr.parse_problem(extra)
    bad_seed = dict(good)
    bad_seed["seed_controller"] = {"A_K": wire(0.1), "B_K": wire(1.0)}
    with pytest.raises(SchemaError):
        dlqr.parse_problem(bad_seed)


def test_load_problem_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        dlqr.load_problem(str(bad))
    with pytest.raises(OSError):
        dlqr.load_problem(str(tmp_path / "missing.json"))


def test_load_problem_happy_path(ex1_problem_file):
    problem = dlqr.load_problem(ex1_problem_file)
    assert problem.plant.n == 1
    assert problem.seed_controller is not None
    assert json.loads(json.dumps(dlqr.matrix_to_wire(problem.X.X)))["rows"] == 2
