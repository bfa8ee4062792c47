import numpy as np
import pytest
from numpy.testing import assert_allclose

import dlqr
from dlqr import (
    AssumptionViolated,
    Controller,
    NotStabilizing,
    SingularX12,
    Transform,
)

from oracles import (
    random_pd_second_moment,
    random_plant_arrays,
    scalar_dare_control_root,
    scalar_lqr_gain,
)

RESIDUAL_KEYS = {
    "gradient_norm",
    "coupling_sigma",
    "coupling_x",
    "first_order_A_K",
    "first_order_B_K",
    "first_order_C_K",
    "observer_normalization",
}


def test_candidate_example1_closed_form(ex1_plant, cross_X):
    cert = dlqr.stationary_candidate(ex1_plant, cross_X)
    p = scalar_dare_control_root(1.1, 1.0, 5.0, 1.0)
    assert cert.P_hat[0, 0] == pytest.approx(p, rel=1e-10)
    assert cert.K_gain[0, 0] == pytest.approx(scalar_lqr_gain(1.1, 1.0, 1.0, p), rel=1e-9)
    # with full scalar observation the filter equation collapses: the
    # solution is the Schur complement of X itself and the gain is A
    assert cert.Sigma_hat[0, 0] == pytest.approx(1.0 - 0.25**2, rel=1e-12)
    assert cert.L_gain[0, 0] == pytest.approx(1.1, rel=1e-12)
    assert cert.T_star.T[0, 0] == pytest.approx(4.0, rel=1e-12)
    assert cert.J == pytest.approx(11.914324683979915, rel=1e-12)


def test_candidate_example2_closed_form(ex2_plant, cross_X):
    cert = dlqr.stationary_candidate(ex2_plant, cross_X)
    p = scalar_dare_control_root(0.9, 1.0, 5.0, 1.0)
    assert cert.P_hat[0, 0] == pytest.approx(p, rel=1e-10)
    assert cert.K_gain[0, 0] == pytest.approx(scalar_lqr_gain(0.9, 1.0, 1.0, p), rel=1e-9)
    assert cert.L_gain[0, 0] == pytest.approx(0.9, rel=1e-12)
    assert cert.J == pytest.approx(9.36306791478213, rel=1e-12)


def test_candidate_structure_invariants(ex1_plant, cross_X):
    cert = dlqr.stationary_candidate(ex1_plant, cross_X)
    rebuilt = dlqr.apply(cert.K_dagger, cert.T_star)
    assert_allclose(rebuilt.A_K, cert.K_star.A_K)
    assert_allclose(rebuilt.B_K, cert.K_star.B_K)
    assert_allclose(rebuilt.C_K, cert.K_star.C_K)
    # separation: both design loops are stable on their own
    assert dlqr.spectral_radius(ex1_plant.A - ex1_plant.B @ cert.K_gain) < 1.0
    assert dlqr.spectral_radius(ex1_plant.A - cert.L_gain @ ex1_plant.C) < 1.0
    # the observer form is the observer-based assembly of the two gains
    obs = dlqr.observer_based(ex1_plant, cert.K_gain, cert.L_gain)
    assert_allclose(obs.A_K, cert.K_dagger.A_K)


def test_candidate_residuals_small(ex1_plant, ex2_plant, cross_X):
    for plant in (ex1_plant, ex2_plant):
        cert = dlqr.stationary_candidate(plant, cross_X)
        assert set(cert.residuals) == RESIDUAL_KEYS
        for name, value in cert.residuals.items():
            assert value <= 1e-8, f"{name} = {value}"


def test_candidate_carries_its_riccati_and_cost_evidence(ex1_plant, cross_X):
    # each Riccati solution's residual over its certificate bound, from the
    # stop rule's own helper, and the cost's error bar from evaluate
    cert = dlqr.stationary_candidate(ex1_plant, cross_X)
    assert sorted(cert.riccati_residuals) == ["control", "filter"]
    assert all(0.0 <= r <= 1.0 for r in cert.riccati_residuals.values())
    report = dlqr.evaluate(ex1_plant, cert.K_star, cross_X)
    assert cert.J_error == report.J_error


def test_candidate_matrix_case_residuals():
    rng = np.random.default_rng(61)
    plant = dlqr.Plant(**random_plant_arrays(rng, 2, 1, 1))
    X = random_pd_second_moment(rng, 2)
    cert = dlqr.stationary_candidate(plant, X)
    assert dlqr.is_stabilizing(plant, cert.K_star)
    for name, value in cert.residuals.items():
        assert value <= 1e-8, f"{name} = {value}"


def test_gain_matches_state_feedback_design(ex1_plant, cross_X):
    # the state-feedback half of the candidate is the classical design for
    # (A, B, Q, R), independently recomputed here
    cert = dlqr.stationary_candidate(ex1_plant, cross_X)
    _, K = dlqr.solve_dare_control(ex1_plant)
    assert_allclose(cert.K_gain, K)


def test_verify_rejects_nonstabilizing(ex1_plant, cross_X):
    with pytest.raises(NotStabilizing):
        dlqr.verify_stationary(
            ex1_plant, cross_X, Controller(A_K=0.0, B_K=0.0, C_K=0.0)
        )


def test_verify_flags_generic_controller(ex1_plant, cross_X):
    # random stabilizing controllers are nowhere near stationary
    for seed in range(5):
        controller = dlqr.random_stabilizing_init(ex1_plant, seed)
        residuals = dlqr.verify_stationary(ex1_plant, cross_X, controller)
        assert residuals["gradient_norm"] > 1e-3


def test_verify_detects_wrong_transform(ex1_plant, cross_X):
    # doubling the transform leaves the orbit but breaks the alignment
    # identity with X, which verify must flag
    cert = dlqr.stationary_candidate(ex1_plant, cross_X)
    doubled = dlqr.apply(
        cert.K_dagger, Transform.from_matrix(2.0 * cert.T_star.T)
    )
    residuals = dlqr.verify_stationary(ex1_plant, cross_X, doubled)
    assert residuals["coupling_x"] > 1e-2


def test_verify_report_reuse(ex1_plant, cross_X):
    cert = dlqr.stationary_candidate(ex1_plant, cross_X)
    report = dlqr.evaluate(ex1_plant, cert.K_star, cross_X)
    direct = dlqr.verify_stationary(ex1_plant, cross_X, cert.K_star)
    reused = dlqr.verify_stationary(
        ex1_plant, cross_X, cert.K_star, report=report
    )
    assert direct == reused


def test_candidate_rejects_singular_cross_block(ex1_plant):
    with pytest.raises(SingularX12):
        dlqr.stationary_candidate(ex1_plant, np.eye(2))


def test_candidate_rejects_semidefinite_second_moment(ex1_plant):
    X = np.array([[1.0, 0.5], [0.5, 0.25]])
    with pytest.raises(AssumptionViolated):
        dlqr.stationary_candidate(ex1_plant, X)


def test_observer_normalization_residual_infinite_when_unverifiable(ex2_plant):
    # X22 = 0 leaves no way to pull the candidate back to observer
    # coordinates; the residual reports +inf instead of failing
    controller = dlqr.random_stabilizing_init(ex2_plant, 1)
    X = np.diag([1.0, 0.0])
    residuals = dlqr.verify_stationary(ex2_plant, X, controller)
    assert residuals["observer_normalization"] == float("inf")


def test_first_order_residuals_infinite_when_unverifiable(ex2_plant):
    # with B_K = C_K = 0 and X22 = 0 the controller state never moves, so
    # P22 and Sigma22 vanish and no Schur complement exists: each residual
    # that needs one reports +inf instead of failing
    controller = dlqr.Controller(A_K=0.5, B_K=0.0, C_K=0.0)
    residuals = dlqr.verify_stationary(ex2_plant, np.diag([1.0, 0.0]), controller)
    for name in ("first_order_A_K", "first_order_B_K", "first_order_C_K",
                 "observer_normalization"):
        assert residuals[name] == float("inf")
    assert np.isfinite(residuals["gradient_norm"])
