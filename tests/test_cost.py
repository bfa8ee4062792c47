import numpy as np
import pytest
from numpy.testing import assert_allclose

import dlqr
from dlqr import Controller, CostReport, NotStabilizing

from oracles import cost_oracle, lyap_dual_oracle, random_plant_arrays

# Value matrix of the rounded Example-1 controller against the shared X,
# computed from the scalar closed loop with an independent direct solve.
P_ROUNDED_K1 = np.array(
    [
        [12.306075206218534, -6.269940904245723],
        [-6.269940904245723, 6.271885285098147],
    ]
)


def test_evaluate_rounded_example1(ex1_plant, rounded_k1, cross_X):
    report = dlqr.evaluate(ex1_plant, rounded_k1, cross_X)
    assert report.J == pytest.approx(15.44299003919382, rel=1e-12)
    assert_allclose(report.P, P_ROUNDED_K1, rtol=1e-9)
    assert report.n == 1
    # both trace forms measure the same cost
    loop = dlqr.assemble(ex1_plant, rounded_k1)
    assert float(np.trace(loop.W_cl @ report.Sigma)) == pytest.approx(
        report.J, rel=1e-12
    )


def test_report_block_accessors(ex1_plant, rounded_k1, cross_X):
    report = dlqr.evaluate(ex1_plant, rounded_k1, cross_X)
    assert_allclose(report.P11, report.P[:1, :1])
    assert_allclose(report.P12, report.P[:1, 1:])
    assert_allclose(report.P22, report.P[1:, 1:])
    assert_allclose(report.Sigma12, report.Sigma[:1, 1:])
    assert_allclose(report.X, cross_X)


def test_evaluate_matches_independent_oracle():
    rng = np.random.default_rng(17)
    for n, m, d in ((2, 1, 1), (2, 2, 2), (3, 2, 1)):
        mats = random_plant_arrays(rng, n, m, d)
        plant = dlqr.Plant(**mats)
        controller = dlqr.random_stabilizing_init(plant, seed=int(rng.integers(1 << 30)))
        M = rng.normal(size=(2 * n, 2 * n))
        X = M @ M.T + 0.5 * np.eye(2 * n)
        report = dlqr.evaluate(plant, controller, X)
        expected = cost_oracle(
            mats["A"],
            mats["B"],
            mats["C"],
            mats["Q"],
            mats["R"],
            controller.A_K,
            controller.B_K,
            controller.C_K,
            X,
        )
        assert report.J == pytest.approx(expected, rel=1e-10)


def test_evaluate_rejects_nonstabilizing(ex1_plant, cross_X):
    with pytest.raises(NotStabilizing):
        dlqr.evaluate(ex1_plant, Controller(A_K=0.0, B_K=0.0, C_K=0.0), cross_X)


def test_evaluate_rejects_a_non_finite_lyapunov_pair(cross_X):
    # a stable loop (rho 0.59) whose stage weight C_K^T R C_K overflows:
    # the pair is NaN, and no certificate may pass it
    plant = dlqr.Plant(A=0.5, B=1.0, C=1.0, Q=1.0, R=1.0)
    controller = Controller(A_K=-0.5, B_K=1e-161, C_K=1e160)
    with np.errstate(all="ignore"), pytest.raises(dlqr.SolverDiverged, match="not finite"):
        dlqr.evaluate(plant, controller, cross_X)


def test_evaluate_sigma_solves_primal_equation(ex1_plant, rounded_k1, cross_X):
    report = dlqr.evaluate(ex1_plant, rounded_k1, cross_X)
    loop = dlqr.assemble(ex1_plant, rounded_k1)
    resid = report.Sigma - cross_X - loop.A_cl @ report.Sigma @ loop.A_cl.T
    assert np.linalg.norm(resid) <= 1e-12 * (1.0 + np.linalg.norm(report.Sigma))


def test_block_residuals_near_zero_for_true_report(ex1_plant, rounded_k1, cross_X):
    report = dlqr.evaluate(ex1_plant, rounded_k1, cross_X)
    residuals = dlqr.block_lyapunov_residuals(ex1_plant, rounded_k1, report)
    assert set(residuals) == {"rP11", "rP12", "rP22", "rS11", "rS12", "rS22"}
    for value in residuals.values():
        assert value <= 1e-12


def test_block_residuals_detect_corrupted_value_matrix(
    ex1_plant, rounded_k1, cross_X
):
    report = dlqr.evaluate(ex1_plant, rounded_k1, cross_X)
    P_bad = report.P.copy()
    P_bad[0, 1] += 1e-3
    P_bad[1, 0] += 1e-3
    doctored = CostReport(
        P=P_bad, Sigma=report.Sigma, X=report.X, J=report.J, n=report.n
    )
    residuals = dlqr.block_lyapunov_residuals(ex1_plant, rounded_k1, doctored)
    assert residuals["rP12"] >= 1e-4
    # the correlation recursion does not involve P and must stay clean
    assert residuals["rS12"] <= 1e-12


def test_cost_agrees_with_rollout(ex1_plant, rounded_k1, cross_X):
    report = dlqr.evaluate(ex1_plant, rounded_k1, cross_X)
    rolled = dlqr.rollout_cost(ex1_plant, rounded_k1, cross_X, 500)
    assert abs(report.J - rolled) <= 1e-6 * (1.0 + report.J)


def test_dual_value_matrix_matches_direct_solve(ex2_plant, rounded_k2, cross_X):
    report = dlqr.evaluate(ex2_plant, rounded_k2, cross_X)
    loop = dlqr.assemble(ex2_plant, rounded_k2)
    assert_allclose(
        report.P, lyap_dual_oracle(loop.A_cl, loop.W_cl), rtol=1e-10, atol=1e-12
    )
