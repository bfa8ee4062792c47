import numpy as np
import pytest

import dlqr
from dlqr import Controller, NotStabilizing, SolverDiverged
from dlqr import gradient as gradient_mod

from oracles import finite_difference_oracle, random_pd_second_moment, random_plant_arrays


def stacked_diff(ga, gf):
    return float(
        np.sqrt(
            np.sum((ga.dA_K - gf.dA_K) ** 2)
            + np.sum((ga.dB_K - gf.dB_K) ** 2)
            + np.sum((ga.dC_K - gf.dC_K) ** 2)
        )
    )


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
    direction = grad.as_controller_direction()
    assert direction.A_K is grad.dA_K
    manual = np.sqrt(
        np.sum(grad.dA_K**2) + np.sum(grad.dB_K**2) + np.sum(grad.dC_K**2)
    )
    assert grad.norm == pytest.approx(float(manual), rel=1e-15)


def find_near_boundary_controller(plant, lo=-0.944, hi=0.0):
    # push C_K toward the instability boundary by bisection, then back off
    # a hair so the base point itself is comfortably inside while the
    # default finite-difference step still crosses out
    def stabilizing(c):
        return dlqr.is_stabilizing(plant, Controller(A_K=-0.944, B_K=1.1, C_K=c))

    assert stabilizing(lo) and not stabilizing(hi)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if stabilizing(mid):
            lo = mid
        else:
            hi = mid
    return Controller(A_K=-0.944, B_K=1.1, C_K=lo - 1e-6)


def test_finite_differences_shrink_near_stability_boundary(ex1_plant, cross_X):
    # at the boundary the requested step leaves the stabilizing set, so the
    # halving fallback must engage. The cost has a pole there, so central
    # differences cannot be metrically accurate once the step is comparable
    # to the pole distance; the check is that the probe succeeds and points
    # the same way as the analytic gradient.
    controller = find_near_boundary_controller(ex1_plant)
    h = 1e-4 * (1.0 + abs(controller.C_K[0, 0]))
    bumped = Controller(
        A_K=controller.A_K, B_K=controller.B_K, C_K=controller.C_K + h
    )
    with pytest.raises(NotStabilizing):
        dlqr.evaluate(ex1_plant, bumped, cross_X)

    ga = dlqr.analytic_gradient(ex1_plant, controller, cross_X)
    gf = dlqr.finite_difference_gradient(ex1_plant, controller, cross_X, step=1e-4)
    va = np.concatenate([gf.dA_K.ravel(), gf.dB_K.ravel(), gf.dC_K.ravel()])
    vb = np.concatenate([ga.dA_K.ravel(), ga.dB_K.ravel(), ga.dC_K.ravel()])
    assert np.all(np.isfinite(va))
    cosine = float(va @ vb) / (np.linalg.norm(va) * np.linalg.norm(vb))
    assert cosine >= 0.9


def test_finite_differences_reject_nonstabilizing_base(ex1_plant, cross_X):
    with pytest.raises(NotStabilizing):
        dlqr.finite_difference_gradient(
            ex1_plant, Controller(A_K=0.0, B_K=0.0, C_K=0.0), cross_X
        )


@pytest.mark.parametrize("step", [0.0, -1e-6, np.nan, np.inf])
def test_finite_differences_reject_a_step_that_is_not_positive_and_finite(
    ex1_plant, rounded_k1, cross_X, step
):
    with pytest.raises(ValueError, match="step must be positive and finite"):
        dlqr.finite_difference_gradient(ex1_plant, rounded_k1, cross_X, step=step)


def assert_same_gradient(ga, gb):
    for a, b in zip((ga.dA_K, ga.dB_K, ga.dC_K), (gb.dA_K, gb.dB_K, gb.dC_K)):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_batched_finite_differences_match_per_coordinate_loop(
    ex1_plant, ex2_plant, rounded_k1, rounded_k2, cross_X
):
    for plant, controller in ((ex1_plant, rounded_k1), (ex2_plant, rounded_k2)):
        assert_same_gradient(
            dlqr.finite_difference_gradient(plant, controller, cross_X),
            finite_difference_oracle(plant, controller, cross_X),
        )


def test_batched_finite_differences_match_loop_through_halvings(ex1_plant, cross_X):
    controller = find_near_boundary_controller(ex1_plant)
    assert_same_gradient(
        dlqr.finite_difference_gradient(ex1_plant, controller, cross_X, step=1e-4),
        finite_difference_oracle(ex1_plant, controller, cross_X, step=1e-4),
    )


def test_batched_finite_differences_match_loop_two_inputs_two_outputs():
    rng = np.random.default_rng(41)
    for n in (2, 3):
        plant = dlqr.Plant(**random_plant_arrays(rng, n, 2, 2))
        X = random_pd_second_moment(rng, n)
        controller = dlqr.random_stabilizing_init(plant, 3)
        assert controller.B_K.shape == (n, 2) and controller.C_K.shape == (2, n)
        assert_same_gradient(
            dlqr.finite_difference_gradient(plant, controller, X),
            finite_difference_oracle(plant, controller, X),
        )


def _raised(fn):
    try:
        fn()
    except dlqr.DlqrError as exc:
        return type(exc), str(exc)
    raise AssertionError("no error raised")


def test_exhausted_halvings_raise_as_the_loop_does(ex1_plant, cross_X):
    # on the boundary to rounding, some coordinate leaves the stabilizing
    # set even after 20 halvings of a large step
    lo, hi = -0.944, 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if dlqr.is_stabilizing(ex1_plant, Controller(A_K=-0.944, B_K=1.1, C_K=mid)):
            lo = mid
        else:
            hi = mid
    controller = Controller(A_K=-0.944, B_K=1.1, C_K=lo)
    batched = _raised(
        lambda: dlqr.finite_difference_gradient(ex1_plant, controller, cross_X, step=1e-2)
    )
    loop = _raised(lambda: finite_difference_oracle(ex1_plant, controller, cross_X, step=1e-2))
    assert batched == loop
    assert batched[0] is NotStabilizing
    assert "kept leaving the stabilizing set" in batched[1]


def _inject(monkeypatch, probes):
    """Make the probes named in probes, (A_K, B_K, C_K) scalar triples, fail
    with SolverDiverged naming the probe, in the batched gradient and in
    the loop's evaluate alike."""
    original_costs = gradient_mod._stacked_costs
    original_evaluate = dlqr.evaluate

    def message(triple):
        return f"injected at {tuple(float(v) for v in triple)}"

    def stacked(plant, gains, X):
        J, rho, errors = original_costs(plant, gains, X)
        for k in range(len(gains.A_K)):
            triple = (gains.A_K[k, 0, 0], gains.B_K[k, 0, 0], gains.C_K[k, 0, 0])
            if triple in probes and k not in errors:
                errors[k] = SolverDiverged(message(triple))
        return J, rho, errors

    def evaluate(plant, controller, X):
        triple = (controller.A_K[0, 0], controller.B_K[0, 0], controller.C_K[0, 0])
        report = original_evaluate(plant, controller, X)
        if triple in probes:
            raise SolverDiverged(message(triple))
        return report

    monkeypatch.setattr(gradient_mod, "_stacked_costs", stacked)
    monkeypatch.setattr(dlqr, "evaluate", evaluate)


def test_solver_failure_of_minus_probe_after_unstable_plus_probe_halves(
    ex1_plant, cross_X, monkeypatch
):
    # the loop never evaluates -h once +h left the stabilizing set, so a
    # failure there must halve the step, not raise
    controller = find_near_boundary_controller(ex1_plant)
    a, b, c = (float(M[0, 0]) for M in (controller.A_K, controller.B_K, controller.C_K))
    h = 1e-4 * (1.0 + abs(c))
    assert not dlqr.is_stabilizing(ex1_plant, Controller(A_K=a, B_K=b, C_K=c + h))
    expected = dlqr.finite_difference_gradient(ex1_plant, controller, cross_X, step=1e-4)
    _inject(monkeypatch, {(a, b, c - h)})
    assert_same_gradient(
        dlqr.finite_difference_gradient(ex1_plant, controller, cross_X, step=1e-4),
        finite_difference_oracle(ex1_plant, controller, cross_X, step=1e-4),
    )
    assert_same_gradient(
        dlqr.finite_difference_gradient(ex1_plant, controller, cross_X, step=1e-4),
        expected,
    )


def test_solver_failures_raise_in_coordinate_order(ex1_plant, rounded_k1, cross_X, monkeypatch):
    a, b, c = (float(M[0, 0]) for M in (rounded_k1.A_K, rounded_k1.B_K, rounded_k1.C_K))
    step = lambda v: 1e-6 * (1.0 + abs(v))  # noqa: E731
    # -h of C_K and +h of B_K fail; B_K comes first
    _inject(monkeypatch, {(a, b, c - step(c)), (a, b + step(b), c)})
    batched = _raised(lambda: dlqr.finite_difference_gradient(ex1_plant, rounded_k1, cross_X))
    loop = _raised(lambda: finite_difference_oracle(ex1_plant, rounded_k1, cross_X))
    assert batched == loop == (SolverDiverged, f"injected at {(a, b + step(b), c)}")
