import numpy as np
import pytest
from numpy.testing import assert_allclose

import dlqr
from dlqr import (
    AssumptionViolated,
    Controller,
    NonSquare,
    NotObservable,
    OptimalTransformNotFound,
    SingularTransform,
    Transform,
)

from oracles import random_invertible, random_plant_arrays


def test_from_matrix_validates():
    t = Transform.from_matrix([[2.0]])
    assert t.T_inv[0, 0] == pytest.approx(0.5)
    with pytest.raises(SingularTransform):
        Transform.from_matrix(np.zeros((2, 2)))
    with pytest.raises(NonSquare):
        Transform.from_matrix(np.ones((2, 3)))
    eye = Transform.from_matrix(np.eye(3))
    assert_allclose(eye.T_inv, np.eye(3))
    assert eye.n == 3


def test_apply_scalar_rescaling(ex1_plant, cross_X):
    cert = dlqr.stationary_candidate(ex1_plant, cross_X)
    moved = dlqr.apply(cert.K_dagger, Transform.from_matrix([[4.0]]))
    # scalar similarity leaves A_K alone, scales B_K up and C_K down
    assert moved.A_K[0, 0] == pytest.approx(cert.K_dagger.A_K[0, 0])
    assert moved.B_K[0, 0] == pytest.approx(4.0 * cert.K_dagger.B_K[0, 0])
    assert moved.C_K[0, 0] == pytest.approx(cert.K_dagger.C_K[0, 0] / 4.0)


def test_apply_preserves_closed_loop_spectrum():
    rng = np.random.default_rng(41)
    plant = dlqr.Plant(**random_plant_arrays(rng, 3, 2, 2))
    controller = dlqr.random_stabilizing_init(plant, 2)
    T = Transform.from_matrix(random_invertible(rng, 3))
    base = np.sort(np.linalg.eigvals(dlqr.assemble(plant, controller).A_cl))
    moved = np.sort(np.linalg.eigvals(dlqr.assemble(plant, dlqr.apply(controller, T)).A_cl))
    assert_allclose(moved, base, rtol=1e-9, atol=1e-9)


def test_apply_round_trip():
    rng = np.random.default_rng(43)
    plant = dlqr.Plant(**random_plant_arrays(rng, 2, 1, 1))
    controller = dlqr.random_stabilizing_init(plant, 0)
    T = Transform.from_matrix(random_invertible(rng, 2))
    inverse = Transform.from_matrix(T.T_inv)
    back = dlqr.apply(dlqr.apply(controller, T), inverse)
    assert_allclose(back.A_K, controller.A_K, rtol=1e-10, atol=1e-12)
    assert_allclose(back.B_K, controller.B_K, rtol=1e-10, atol=1e-12)
    assert_allclose(back.C_K, controller.C_K, rtol=1e-10, atol=1e-12)


def test_apply_rejects_order_mismatch(rounded_k1):
    with pytest.raises(NonSquare):
        dlqr.apply(rounded_k1, Transform.from_matrix(np.eye(2)))


def test_transformed_cost_equals_direct_evaluation(ex1_plant, rounded_k1, cross_X):
    report = dlqr.evaluate(ex1_plant, rounded_k1, cross_X)
    for t in (0.5, 2.0, 4.0, -3.0):
        transform = Transform.from_matrix([[t]])
        surrogate = dlqr.transformed_cost(
            ex1_plant, rounded_k1, cross_X, transform, report=report
        )
        direct = dlqr.evaluate(
            ex1_plant, dlqr.apply(rounded_k1, transform), cross_X
        ).J
        assert abs(surrogate - direct) <= 1e-9 * (1.0 + direct)


def test_g_surrogate_at_identity_recovers_cost(ex1_plant, rounded_k1, cross_X):
    report = dlqr.evaluate(ex1_plant, rounded_k1, cross_X)
    assert dlqr.g_surrogate(report, np.eye(1)) == pytest.approx(report.J, rel=1e-12)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_g_surrogate_over_a_stack_equals_each_slice(n):
    rng = np.random.default_rng(50 + n)
    plant = dlqr.Plant(**random_plant_arrays(rng, n, 1, 1))
    controller = dlqr.random_stabilizing_init(plant, 0)
    report = dlqr.evaluate(plant, controller, np.eye(2 * n) + 0.1)
    H = rng.normal(size=(7, n, n))
    J = dlqr.g_surrogate(report, H)
    assert J.shape == (7,)
    singles = [dlqr.g_surrogate(report, Hk) for Hk in H]
    assert all(type(Jk) is float for Jk in singles)
    assert J.tolist() == singles


def test_g_gradient_matches_finite_differences(ex1_plant, rounded_k1, cross_X):
    report = dlqr.evaluate(ex1_plant, rounded_k1, cross_X)
    rng = np.random.default_rng(47)
    H = rng.normal(size=(1, 1))
    grad = dlqr.g_gradient(report, H)
    h = 1e-6
    for idx in np.ndindex(H.shape):
        Hp, Hm = H.copy(), H.copy()
        Hp[idx] += h
        Hm[idx] -= h
        fd = (dlqr.g_surrogate(report, Hp) - dlqr.g_surrogate(report, Hm)) / (2 * h)
        assert grad[idx] == pytest.approx(fd, rel=1e-7)


def test_optimal_transform_frozen_values(ex1_plant, rounded_k1, cross_X):
    T = dlqr.optimal_transform(ex1_plant, rounded_k1, cross_X)
    assert T.T[0, 0] == pytest.approx(4.001240446047016, abs=1e-9)
    cert = dlqr.stationary_candidate(ex1_plant, cross_X)
    T_dagger = dlqr.optimal_transform(ex1_plant, cert.K_dagger, cross_X)
    assert T_dagger.T[0, 0] == pytest.approx(4.0, abs=1e-9)
    # the stationary controller already sits at its orbit minimum
    T_star = dlqr.optimal_transform(ex1_plant, cert.K_star, cross_X)
    assert T_star.T[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_optimal_transform_is_orbit_minimum(ex1_plant, rounded_k1, cross_X):
    report = dlqr.evaluate(ex1_plant, rounded_k1, cross_X)
    T_opt = dlqr.optimal_transform(ex1_plant, rounded_k1, cross_X, report=report)
    J_opt = dlqr.transformed_cost(ex1_plant, rounded_k1, cross_X, T_opt, report=report)
    assert dlqr.g_gradient(report, T_opt.T_inv) == pytest.approx(0.0, abs=1e-9)
    rng = np.random.default_rng(53)
    for _ in range(10):
        t = float(rng.uniform(0.2, 10.0)) * float(rng.choice([-1.0, 1.0]))
        J_other = dlqr.transformed_cost(
            ex1_plant, rounded_k1, cross_X, Transform.from_matrix([[t]]), report=report
        )
        assert J_opt <= J_other + 1e-12


def test_optimal_transform_matrix_case():
    rng = np.random.default_rng(59)
    plant = dlqr.Plant(**random_plant_arrays(rng, 2, 1, 1))
    controller = dlqr.random_stabilizing_init(plant, 3)
    M = rng.normal(size=(4, 4))
    X = M @ M.T + 0.5 * np.eye(4)
    report = dlqr.evaluate(plant, controller, X)
    T_opt = dlqr.optimal_transform(plant, controller, X, report=report)
    J_opt = dlqr.transformed_cost(plant, controller, X, T_opt, report=report)
    assert abs(np.linalg.det(T_opt.T)) > 0.0
    for k in range(10):
        Z = Transform.from_matrix(random_invertible(rng, 2))
        assert J_opt <= dlqr.transformed_cost(
            plant, controller, X, Z, report=report
        ) + 1e-12


def test_optimal_transform_nonexistence_when_cross_block_vanishes(
    ex1_plant, rounded_k1
):
    with pytest.raises(OptimalTransformNotFound):
        dlqr.optimal_transform(ex1_plant, rounded_k1, np.eye(2))


def test_orbit_cost_decreases_to_unattained_infimum(ex1_plant, rounded_k1):
    # with a vanishing cross block the orbit cost strictly decreases toward
    # Tr(P11 X11): the infimum is approached but never attained
    X = np.eye(2)
    report = dlqr.evaluate(ex1_plant, rounded_k1, X)
    infimum = float(np.trace(report.P11 @ np.eye(1)))
    ts = np.logspace(0.0, 4.0, 40)
    costs = [
        dlqr.transformed_cost(
            ex1_plant, rounded_k1, X, Transform.from_matrix([[t]]), report=report
        )
        for t in ts
    ]
    assert all(a > b for a, b in zip(costs, costs[1:]))
    assert all(c > infimum for c in costs)
    assert costs[-1] - infimum < 1e-4


def test_optimal_transform_requires_observable_controller(cross_X):
    plant = dlqr.Plant(A=0.5, B=1.0, C=1.0, Q=1.0, R=1.0)
    deaf = Controller(A_K=0.3, B_K=0.5, C_K=0.0)
    with pytest.raises(NotObservable):
        dlqr.optimal_transform(plant, deaf, cross_X)


def test_optimal_transform_requires_definite_second_moment():
    plant = dlqr.Plant(A=0.5, B=1.0, C=1.0, Q=1.0, R=1.0)
    controller = dlqr.random_stabilizing_init(plant, 0)
    X_singular = np.array([[1.0, 0.5], [0.5, 0.25]])
    with pytest.raises(AssumptionViolated):
        dlqr.optimal_transform(plant, controller, X_singular)
