import numpy as np
import pytest

import dlqr
from dlqr import Controller, NotStabilizing, SolverDiverged
from dlqr import descent as descent_mod
from dlqr import gradient as gradient_mod
from dlqr import matops

from oracles import (
    draw_plant,
    finite_difference_oracle,
    random_pd_second_moment,
    random_plant_arrays,
)


def stacked_diff(ga, gf):
    return float(
        np.sqrt(
            np.sum((ga.dA_K - gf.dA_K) ** 2)
            + np.sum((ga.dB_K - gf.dB_K) ** 2)
            + np.sum((ga.dC_K - gf.dC_K) ** 2)
        )
    )


def gradcheck_bound(plant, controller, X):
    """gradcheck's pass bound SOLVER_RTOL ||T||_F, with T the closed form
    on the absolute value of every factor."""
    report = dlqr.evaluate(plant, controller, X)
    factors = gradient_mod._factors(plant, controller, report)
    return matops.SOLVER_RTOL * gradient_mod._closed_form(*map(np.abs, factors)).norm


def test_gradient_norm_at_rounded_controllers(ex1_plant, ex2_plant, cross_X):
    # 3-decimal rounding leaves the displayed stationary controllers
    # measurably off stationarity; these magnitudes pin the gradient
    # normalization (a factor-of-2 bug would double them)
    k1 = dlqr.Controller(A_K=-0.944, B_K=4.4, C_K=-0.236)
    g1 = dlqr.analytic_gradient(ex1_plant, k1, cross_X)
    assert g1.norm == pytest.approx(0.023232921531424408, rel=1e-6)
    k2 = dlqr.Controller(A_K=-0.765, B_K=3.6, C_K=-0.191)
    g2 = dlqr.analytic_gradient(ex2_plant, k2, cross_X)
    assert g2.norm == pytest.approx(0.10296478563097629, rel=1e-6)


def test_gradient_matches_finite_differences_scalar(ex1_plant, rounded_k1, cross_X):
    ga = dlqr.analytic_gradient(ex1_plant, rounded_k1, cross_X)
    gf = dlqr.finite_difference_gradient(ex1_plant, rounded_k1, cross_X)
    assert stacked_diff(ga, gf) <= 1e-6 * (1.0 + ga.norm)


def test_gradient_matches_finite_differences_matrix_case():
    rng = np.random.default_rng(23)
    for n, m, d in ((2, 1, 1), (2, 2, 2), (3, 1, 2)):
        plant = dlqr.Plant(**random_plant_arrays(rng, n, m, d))
        M = rng.normal(size=(2 * n, 2 * n))
        X = M @ M.T + 0.5 * np.eye(2 * n)
        for seed in (0, 1):
            controller = dlqr.random_stabilizing_init(plant, seed)
            ga = dlqr.analytic_gradient(plant, controller, X)
            gf = dlqr.finite_difference_gradient(plant, controller, X)
            assert stacked_diff(ga, gf) <= 1e-5 * (1.0 + ga.norm)


def test_gradient_vanishes_at_stationary_point(ex1_plant, cross_X):
    cert = dlqr.stationary_candidate(ex1_plant, cross_X)
    grad = dlqr.analytic_gradient(ex1_plant, cert.K_star, cross_X)
    assert grad.norm <= 1e-9
    assert cert.residuals["gradient_norm"] == grad.norm


def test_gradient_report_reuse(ex1_plant, rounded_k1, cross_X):
    report = dlqr.evaluate(ex1_plant, rounded_k1, cross_X)
    direct = dlqr.analytic_gradient(ex1_plant, rounded_k1, cross_X)
    reused = dlqr.analytic_gradient(ex1_plant, rounded_k1, cross_X, report=report)
    assert stacked_diff(direct, reused) == 0.0
    # with a report, X is not read: no Lyapunov solve happens
    from_report = dlqr.analytic_gradient(ex1_plant, rounded_k1, None, report=report)
    assert stacked_diff(direct, from_report) == 0.0


def test_gradient_triple_shapes_and_direction():
    rng = np.random.default_rng(31)
    plant = dlqr.Plant(**random_plant_arrays(rng, 2, 2, 1))
    controller = dlqr.random_stabilizing_init(plant, 5)
    grad = dlqr.analytic_gradient(plant, controller, np.eye(4))
    assert grad.dA_K.shape == controller.A_K.shape
    assert grad.dB_K.shape == controller.B_K.shape
    assert grad.dC_K.shape == controller.C_K.shape
    # descent flattens the gradient in the order of the controller's vector
    direction = Controller(A_K=grad.dA_K, B_K=grad.dB_K, C_K=grad.dC_K)
    flat = dlqr.controller_to_vector(direction)
    assert descent_mod._grad_vector(grad).tobytes() == flat.tobytes()
    manual = np.sqrt(
        np.sum(grad.dA_K**2) + np.sum(grad.dB_K**2) + np.sum(grad.dC_K**2)
    )
    assert grad.norm == pytest.approx(float(manual), rel=1e-15)


def find_near_boundary_controller(plant, bisections=30, back_off=1e-6):
    # push C_K toward the instability boundary by bisection, then back off
    # a hair so the base point itself is comfortably inside while a real
    # step of 1e-4 still crosses out
    def stabilizing(c):
        return dlqr.is_stabilizing(plant, Controller(A_K=-0.944, B_K=1.1, C_K=c))

    lo, hi = -0.944, 0.0
    assert stabilizing(lo) and not stabilizing(hi)
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        if stabilizing(mid):
            lo = mid
        else:
            hi = mid
    return Controller(A_K=-0.944, B_K=1.1, C_K=lo - back_off)


def test_complex_step_is_exact_near_stability_boundary(ex1_plant, cross_X):
    # a real step of 1e-4 leaves the stabilizing set here, and central
    # differences would have to shrink it; the complex step keeps the real
    # part of every probe on the base loop, so it needs no smaller step
    controller = find_near_boundary_controller(ex1_plant)
    h = 1e-4 * (1.0 + abs(controller.C_K[0, 0]))
    bumped = Controller(
        A_K=controller.A_K, B_K=controller.B_K, C_K=controller.C_K + h
    )
    with pytest.raises(NotStabilizing):
        dlqr.evaluate(ex1_plant, bumped, cross_X)
    ga = dlqr.analytic_gradient(ex1_plant, controller, cross_X)
    gf = dlqr.finite_difference_gradient(ex1_plant, controller, cross_X)
    assert stacked_diff(ga, gf) <= 1e-10 * (1.0 + ga.norm)


def test_complex_step_on_the_boundary_to_rounding(ex1_plant, cross_X):
    # rho within a few rounding errors of 1 - STABILITY_MARGIN, where a
    # real step leaves the stabilizing set even after 20 halvings: every
    # complex probe is as stable as the base, and the check passes within
    # gradcheck's bound
    controller = find_near_boundary_controller(ex1_plant, bisections=80, back_off=0.0)
    ga = dlqr.analytic_gradient(ex1_plant, controller, cross_X)
    gf = dlqr.finite_difference_gradient(ex1_plant, controller, cross_X)
    assert ga.norm > 1e15
    assert stacked_diff(ga, gf) <= gradcheck_bound(ex1_plant, controller, cross_X)


def test_finite_differences_reject_nonstabilizing_base(ex1_plant, cross_X):
    with pytest.raises(NotStabilizing):
        dlqr.finite_difference_gradient(
            ex1_plant, Controller(A_K=0.0, B_K=0.0, C_K=0.0), cross_X
        )


@pytest.mark.parametrize("step", [0.0, -1e-6, np.nan, np.inf])
def test_finite_differences_reject_a_step_that_is_not_positive_and_finite(
    ex1_plant, rounded_k1, cross_X, step
):
    # the complex step h is the module constant COMPLEX_STEP, not a
    # parameter: no step is taken, whatever its value
    with pytest.raises(TypeError, match="step"):
        dlqr.finite_difference_gradient(ex1_plant, rounded_k1, cross_X, step=step)


def assert_exact_gradient(plant, controller, X):
    """The complex-step gradient matches the closed form to 1e-10 and the
    central-difference oracle to its truncation error, relative to
    1 + ||grad||."""
    grad = dlqr.finite_difference_gradient(plant, controller, X)
    ga = dlqr.analytic_gradient(plant, controller, X)
    assert stacked_diff(ga, grad) <= 1e-10 * (1.0 + ga.norm)
    central = finite_difference_oracle(plant, controller, X)
    assert stacked_diff(central, grad) <= 1e-6 * (1.0 + ga.norm)
    return grad


def test_batched_finite_differences_match_per_coordinate_loop(
    ex1_plant, ex2_plant, rounded_k1, rounded_k2, cross_X
):
    for plant, controller in ((ex1_plant, rounded_k1), (ex2_plant, rounded_k2)):
        assert_exact_gradient(plant, controller, cross_X)


def test_batched_finite_differences_match_loop_two_inputs_two_outputs():
    rng = np.random.default_rng(41)
    for n in (2, 3):
        plant = dlqr.Plant(**random_plant_arrays(rng, n, 2, 2))
        X = random_pd_second_moment(rng, n)
        controller = dlqr.random_stabilizing_init(plant, 3)
        assert controller.B_K.shape == (n, 2) and controller.C_K.shape == (2, n)
        assert_exact_gradient(plant, controller, X)


def _observer_instance(arrays):
    """The plant of arrays with the observer-based controller of its
    Riccati gains, the filter gain for unit process noise."""
    plant = dlqr.Plant(**arrays)
    _, K = dlqr.solve_dare_control(plant)
    _, L = dlqr.solve_dare_filter(plant, np.eye(plant.n))
    return plant, dlqr.observer_based(plant, K, L)


def test_complex_step_passes_gradcheck_on_a_stiff_loop():
    # rho = 0.961 and ||grad J|| = 2.8e7: central differences at a step of
    # 1e-6 leave a discrepancy of 7.3e-5 relative to 1 + ||grad J|| on this
    # correct gradient, and the complex step is within gradcheck's bound
    arrays, X = draw_plant(np.random.default_rng((13, 5)), 5)
    plant, controller = _observer_instance(arrays)
    ga = dlqr.analytic_gradient(plant, controller, X)
    gf = dlqr.finite_difference_gradient(plant, controller, X)
    assert ga.norm > 1e7
    assert stacked_diff(ga, gf) <= 1e-10 * (1.0 + ga.norm)
    assert stacked_diff(ga, gf) <= gradcheck_bound(plant, controller, X)


def _route_slices(monkeypatch):
    """The sizes of the stacks that reach either Lyapunov route, in call
    order."""
    kron, doubling = matops._kron_route, matops._doubling_route
    sizes = []

    def counted(route):
        def call(A, W):
            sizes.append(len(W))
            return route(A, W)

        return call

    monkeypatch.setattr(matops, "_kron_route", counted(kron))
    monkeypatch.setattr(matops, "_doubling_route", counted(doubling))
    return sizes


def test_the_check_makes_one_lyapunov_solve_beyond_its_base_evaluate(
    ex1_plant, rounded_k1, cross_X, monkeypatch
):
    # one slice for Sigma~, whatever the number q of coordinates: q = 3 on
    # Example 1, q = 21 on a 3-state plant with two inputs and two outputs
    rng = np.random.default_rng(41)
    plant = dlqr.Plant(**random_plant_arrays(rng, 3, 2, 2))
    controller = dlqr.random_stabilizing_init(plant, 3)
    cases = [
        (ex1_plant, rounded_k1, cross_X, 3),
        (plant, controller, random_pd_second_moment(rng, 3), 21),
    ]
    for plant, controller, X, q in cases:
        assert dlqr.controller_to_vector(controller).size == q
        with monkeypatch.context() as patch:
            sizes = _route_slices(patch)
            dlqr.evaluate(plant, controller, X)
            base = sum(sizes)
            sizes.clear()
            dlqr.finite_difference_gradient(plant, controller, X)
        assert sum(sizes) == base + 1


@pytest.mark.parametrize("n", range(1, 8))
def test_the_checks_sigma_is_bit_identical_to_evaluates(n, monkeypatch):
    # the check solves Sigma~ itself, on both routes (loops of 2 to 14
    # states), and gets the bits of the report's Sigma
    rng = np.random.default_rng((0, n))
    arrays = random_plant_arrays(rng, n, min(n, 2), min(n, 2))
    plant, controller = _observer_instance(arrays)
    X = random_pd_second_moment(rng, n)
    solved = []
    original = gradient_mod._solve_dlyap_certified

    def recording(A, W):
        result = original(A, W)
        solved.append(result[0])
        return result

    monkeypatch.setattr(gradient_mod, "_solve_dlyap_certified", recording)
    dlqr.finite_difference_gradient(plant, controller, X)
    (Sigma,) = solved
    assert Sigma.shape == (1, 2 * n, 2 * n)
    assert Sigma[0].tobytes() == dlqr.evaluate(plant, controller, X).Sigma.tobytes()


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize(
    "factor, message",
    [(1.0 + 1e-6, "Lyapunov residual"), (np.nan, "Lyapunov solution is not finite")],
)
def test_sigma_tilde_is_certified(n, factor, message, monkeypatch):
    # Sigma~, the one single-slice solve, off by 1e-6 of itself or NaN in
    # its route (Kronecker at n = 1, doubling at n = 3), while the base
    # evaluate's pair is left alone: the check raises, and returns nothing
    rng = np.random.default_rng((0, n))
    plant, controller = _observer_instance(random_plant_arrays(rng, n, 1, 1))
    X = random_pd_second_moment(rng, n)
    kron, doubling = matops._kron_route, matops._doubling_route

    def scaled(P):
        return factor * P if len(P) == 1 else P

    monkeypatch.setattr(matops, "_kron_route", lambda A, W: scaled(kron(A, W)))
    monkeypatch.setattr(
        matops, "_doubling_route", lambda A, W: (scaled(doubling(A, W)[0]), ())
    )
    dlqr.evaluate(plant, controller, X)
    with pytest.raises(SolverDiverged, match=message):
        dlqr.finite_difference_gradient(plant, controller, X)


def test_complex_probes_need_no_eigen_decomposition(monkeypatch):
    # generated-certify's first 6-state plant at seed 1: the base evaluate
    # takes one eigvals and one eigvalsh (X is validated beforehand), and
    # no probe takes either
    arrays, X = draw_plant(np.random.default_rng((1, 6, 0, 0)), 6)
    plant, controller = _observer_instance(arrays)
    X = dlqr.SecondMoment(X)
    calls = {"eigvals": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    dlqr.finite_difference_gradient(plant, controller, X)
    assert calls == {"eigvals": 1, "eigvalsh": 1}
    monkeypatch.undo()
    assert_exact_gradient(plant, controller, X.X)
