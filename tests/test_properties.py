"""Property tests of the cost layer on random plants of order 1 to 8, whose
closed loops of size 2 to 16 cross the Kronecker/doubling switch.

Each example draws a plant from a seed, the observer-based controller of
its two Riccati gains (stabilizing by separation) and a random X > 0. The
backward-error certificate must hold for both Lyapunov routes and reject
a solution scaled by 1 + delta, for delta 100 times the certificate's
resolution; J_error must cover both the gap between the two trace forms
and J's distance to an extended-precision sum; the cost must be invariant under a similarity transform of the
controller state that carries X along, and transformed_cost must match
evaluate on the transformed controller."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dlqr
from dlqr import matops
from dlqr.matops import (
    KRON_DIM_LIMIT,
    _doubling_route,
    _kron_route,
    _solve_dlyap_certified,
    _symmetrize,
)

from oracles import (
    extended_cost_oracle,
    random_invertible,
    random_pd_second_moment,
    random_plant_arrays,
)

MIN_ORDER, MAX_ORDER = 1, 8
ORDERS = st.integers(MIN_ORDER, MAX_ORDER)
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _instance(seed, n):
    rng = np.random.default_rng(seed)
    inputs = int(rng.integers(1, n + 1))
    outputs = int(rng.integers(1, n + 1))
    plant = dlqr.Plant(**random_plant_arrays(rng, n, inputs, outputs))
    P_hat = dlqr.solve_dare_control(plant.A, plant.B, plant.Q, plant.R)
    K = dlqr.lqr_gain(plant.A, plant.B, plant.R, P_hat)
    Sigma_hat = dlqr.solve_dare_filter(plant.A, plant.C, np.eye(n))
    L = dlqr.filter_gain(plant.A, plant.C, Sigma_hat)
    return plant, dlqr.observer_based(plant, K, L), random_pd_second_moment(rng, n), rng


def _loop(plant, controller):
    loop = dlqr.assemble(plant, controller)
    return loop.A_cl, _symmetrize(loop.W_cl)


def _fro(M):
    return float(np.linalg.norm(M))


def _backward_bound(A, W, P):
    """The certificate's bound SOLVER_RTOL (||W|| + (1 + ||A||^2) ||P||)."""
    return matops.SOLVER_RTOL * (_fro(W) + (1.0 + _fro(A) ** 2) * _fro(P))


def test_orders_cross_the_route_switch():
    assert 2 * MIN_ORDER <= KRON_DIM_LIMIT < 2 * MAX_ORDER


@PROPERTY
@given(seed=SEEDS, n=ORDERS)
def test_routes_agree_within_the_certificate(seed, n):
    # Both routes pass the backward-error certificate, so their difference
    # D solves D - A^T D A = r_kron - r_doubling, and ||D|| is at most the
    # sum of the two bounds times ||(I - kron(A^T, A^T))^-1||_2.
    plant, controller, _, _ = _instance(seed, n)
    A, W = _loop(plant, controller)
    P_kron = _kron_route(A[None], W[None])[0]
    P_doubling, unconverged = _doubling_route(A[None], W[None])
    P_doubling = P_doubling[0]
    assert len(unconverged) == 0
    bounds = []
    for P in (P_kron, P_doubling):
        bounds.append(_backward_bound(A, W, P))
        assert _fro(P - W - A.T @ P @ A) <= bounds[-1]
    m = A.shape[0]
    inverse_norm = np.linalg.norm(
        np.linalg.inv(np.eye(m * m) - np.kron(A.T, A.T)), 2
    )
    assert _fro(P_kron - P_doubling) <= inverse_norm * sum(bounds)


def _errors_when_scaled(stack, scales):
    """The certificate's failures on the stack when its route returns each
    slice's solution times that slice's entry of scales."""
    kron, doubling = matops._kron_route, matops._doubling_route
    s = np.asarray(scales)[:, None, None]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matops, "_kron_route", lambda A, W: s * kron(A, W))
        mp.setattr(matops, "_doubling_route", lambda A, W: (s * doubling(A, W)[0], ()))
        return _solve_dlyap_certified(*stack)[3]


@PROPERTY
@given(seed=SEEDS, n=ORDERS, sign=st.sampled_from([1.0, -1.0]))
# rho = 0.559 but ||A_cl||_F = 44.3 and ||P|| / ||W|| = 5519: P's
# resolution is 1.1e-5, far above a scaling by 1e-8
@example(seed=3784211, n=2, sign=1.0)
def test_certificate_rejects_a_scaled_solution(seed, n, sign):
    # P scaled by 1 + delta leaves the residual delta W plus its own
    # rounding, so the certificate resolves delta down to its bound over
    # ||W||, the slice's resolution: it must reject 100 times that on the
    # route of the loop's size, and 1e-8 on every slice resolved below 1e-9
    plant, controller, X, _ = _instance(seed, n)
    A, W = _loop(plant, controller)
    stack = np.stack([A, A.T]), np.stack([W, X])
    solutions, _, _, errors = _solve_dlyap_certified(*stack)
    assert not errors
    resolution = np.array(
        [_backward_bound(a, w, p) / _fro(w) for a, w, p in zip(*stack, solutions)]
    )
    errors = _errors_when_scaled(stack, 1.0 + sign * 100.0 * resolution)
    assert sorted(errors) == [0, 1]
    assert all("Lyapunov residual" in str(exc) for exc in errors.values())
    fine = np.flatnonzero(resolution < 1e-9).tolist()
    errors = _errors_when_scaled(stack, np.full(2, 1.0 + sign * 1e-8))
    assert set(fine) <= set(errors)


@PROPERTY
@given(seed=SEEDS, n=ORDERS)
def test_trace_forms_agree(seed, n):
    # Tr(P X) and Tr(W_cl Sigma) are the same cost, and their gap is
    # Tr(r_P Sigma) - Tr(P r_Sigma), which J_error bounds; a P and a Sigma
    # of different loops would not agree
    plant, controller, X, _ = _instance(seed, n)
    report = dlqr.evaluate(plant, controller, X)
    W_cl = dlqr.assemble(plant, controller).W_cl
    J_value = float(np.trace(report.P @ X))
    J_correlation = float(np.trace(W_cl @ report.Sigma))
    assert J_value == report.J
    assert abs(J_value - J_correlation) <= report.J_error


@PROPERTY
@given(seed=SEEDS, n=ORDERS)
def test_j_error_covers_the_forward_error(seed, n):
    plant, controller, X, _ = _instance(seed, n)
    report = dlqr.evaluate(plant, controller, X)
    k = controller
    arrays = {name: getattr(plant, name) for name in "ABCQR"}
    J = extended_cost_oracle(**arrays, A_K=k.A_K, B_K=k.B_K, C_K=k.C_K, X=X)
    assert abs(report.J - J) <= report.J_error


@PROPERTY
@given(seed=SEEDS, n=ORDERS)
def test_cost_is_invariant_under_similarity(seed, n):
    # xi' = T xi maps X to D X D^T with D = blockdiag(I, T) and leaves the
    # closed-loop spectrum and the cost unchanged
    plant, controller, X, rng = _instance(seed, n)
    T = random_invertible(rng, n, min_sv=0.3)
    moved = dlqr.apply(controller, dlqr.Transform.from_matrix(T))
    D = np.eye(2 * n)
    D[n:, n:] = T
    base = dlqr.evaluate(plant, controller, X)
    report = dlqr.evaluate(plant, moved, D @ X @ D.T)
    tol = 1e-9 * np.linalg.cond(T) ** 2 * (1.0 + _fro(base.P) * _fro(X))
    assert abs(report.J - base.J) <= tol
    assert report.rho == pytest.approx(base.rho, rel=1e-8 * np.linalg.cond(T))


@PROPERTY
@given(seed=SEEDS, n=ORDERS)
def test_transformed_cost_equals_evaluate(seed, n):
    # the orbit surrogate from the base pair against a fresh evaluation of
    # the transformed controller with the same X
    plant, controller, X, rng = _instance(seed, n)
    T = random_invertible(rng, n, min_sv=0.3)
    transform = dlqr.Transform.from_matrix(T)
    J_T = dlqr.transformed_cost(plant, controller, X, transform)
    report = dlqr.evaluate(plant, dlqr.apply(controller, transform), X)
    tol = 1e-9 * np.linalg.cond(T) ** 2 * (1.0 + _fro(report.P) * _fro(X))
    assert abs(J_T - report.J) <= tol
