"""Closed-form stationary controller and verification of its identities.

For X positive definite with invertible cross block X12, a stationary
point of the dLQR cost is built from two decoupled Riccati solutions: a
state-feedback gain K from the control equation, an observer gain L from
the filter equation driven by the Schur complement of X, assembled as an
observer-based controller and pushed along the orbit by T* = X22 X12^-1.
verify_stationary re-derives every identity that construction promises and
reports one residual per identity, so certificates are checkable without
trusting the construction."""

from dataclasses import dataclass

import numpy as np

from .cost import evaluate
from .errors import SingularInnovation, SingularX12
from .gradient import analytic_gradient
from .matops import (
    _check_psd,
    _filter_gain,
    _is_singular,
    _lqr_gain,
    _riccati_residual,
    _symmetrize,
    solve_dare_control,
    solve_dare_filter,
)
from .model import Controller, as_second_moment, observer_based
from .similarity import Transform, apply


@dataclass(frozen=True, eq=False)
class StationaryCertificate:
    """Stationary controller K_star with the ingredients it was built from
    and the residuals of the identities that certify stationarity.

    K_dagger is the observer-based realization; K_star = apply(K_dagger,
    T_star). P_hat and Sigma_hat are the Riccati solutions behind the
    gains, and riccati_residuals maps "control" and "filter" to each
    solution's Riccati residual over its certificate bound (at most 1).
    J is the cost at K_star and J_error its error bound from evaluate.
    residuals maps identity names to Frobenius-norm violations.
    """

    K_star: Controller
    K_dagger: Controller
    T_star: Transform
    K_gain: np.ndarray
    L_gain: np.ndarray
    P_hat: np.ndarray
    Sigma_hat: np.ndarray
    J: float
    J_error: float
    riccati_residuals: dict
    residuals: dict


def _right_divide(M, D):
    # M @ inv(D) without forming the inverse.
    return np.linalg.solve(D.T, M.T).T


def stationary_candidate(plant, X):
    """Construct the observable stationary controller for (plant, X).

    Parameters
    ----------
    plant : Plant
    X : SecondMoment or (2n, 2n) array_like
        Must be positive definite with invertible cross block X12.

    Returns
    -------
    StationaryCertificate

    Raises
    ------
    AssumptionViolated
        If X is not positive definite.
    SingularX12
        If X12 is singular; no observable stationary point of this form
        exists, and no regularized fallback is attempted.
    SolverDiverged
        If either Riccati solve fails.
    """
    X = as_second_moment(X, plant.n)
    _check_psd(X.X, "X", definite=True)
    if _is_singular(X.X12):
        raise SingularX12("X12 is singular; no observable stationary point exists")

    P_hat, K = solve_dare_control(plant)

    # Schur complement of X22 in X: the part of the plant-state second
    # moment not explained by the controller state.
    Delta_X = _symmetrize(X.X11 - X.X12 @ np.linalg.solve(X.X22, X.X12.T))
    Sigma_hat, L = solve_dare_filter(plant, Delta_X)
    A, B, C = plant.A, plant.B, plant.C
    riccati_residuals = {
        "control": _riccati_residual(A, B, plant.Q, plant.R, P_hat, K),
        "filter": _riccati_residual(A.T, C.T, Delta_X, None, Sigma_hat, L.T),
    }

    K_dagger = observer_based(plant, K, L)
    T_star = Transform.from_matrix(_right_divide(X.X22, X.X12))
    K_star = apply(K_dagger, T_star)
    report = evaluate(plant, K_star, X)
    residuals = verify_stationary(plant, X, K_star, report=report)
    return StationaryCertificate(
        K_star=K_star,
        K_dagger=K_dagger,
        T_star=T_star,
        K_gain=K,
        L_gain=L,
        P_hat=P_hat,
        Sigma_hat=Sigma_hat,
        J=report.J,
        J_error=report.J_error,
        riccati_residuals=riccati_residuals,
        residuals=residuals,
    )


def _guarded(compute, *names):
    # Residuals are diagnostics: a singular block means the identities
    # cannot hold, reported as infinite violations rather than an error.
    try:
        values = compute()
    except (np.linalg.LinAlgError, SingularInnovation):
        values = [np.inf] * len(names)
    return {name: float(value) for name, value in zip(names, values)}


def verify_stationary(plant, X, candidate, report=None):
    """Residuals of every stationarity identity at a candidate controller.

    Returns
    -------
    dict
        gradient_norm: norm of the analytic cost gradient;
        coupling_sigma: ||P12^T Sigma12 + P22 Sigma22||_F, relative to the
        magnitudes of the two products;
        coupling_x: ||P12^T X12 + P22 X22||_F, same normalization;
        first_order_A_K / first_order_B_K / first_order_C_K: distance of
        each controller matrix from its frozen-coefficient first-order
        condition, rebuilt from Schur complements of the candidate's own
        Lyapunov pair;
        observer_normalization: distance of -P22^-1 P12^T from the
        identity after pulling the candidate back to observer coordinates
        with X12 X22^-1 (exact zero only in that normalization).

    A residual is +inf when the block inverse it needs does not exist.

    Raises
    ------
    NotStabilizing
        If the candidate does not stabilize the plant.
    """
    X = as_second_moment(X, plant.n)
    if report is None:
        report = evaluate(plant, candidate, X)
    A, B, C = plant.A, plant.B, plant.C
    P12, P22 = report.P12, report.P22
    S11, S12, S22 = report.Sigma11, report.Sigma12, report.Sigma22

    def coupling(left, right):
        # Relative cancellation: the identity asks two products to cancel,
        # so the violation is measured against their own magnitudes.
        a, b = P12.T @ left, P22 @ right
        scale = 1.0 + np.linalg.norm(a) + np.linalg.norm(b)
        return float(np.linalg.norm(a + b) / scale)

    residuals = {
        "gradient_norm": analytic_gradient(plant, candidate, X, report=report).norm,
        "coupling_sigma": coupling(S12, S22),
        "coupling_x": coupling(X.X12, X.X22),
    }

    def frozen_conditions():
        P_schur = report.P11 - P12 @ np.linalg.solve(P22, P12.T)
        S_schur = S11 - S12 @ np.linalg.solve(S22, S12.T)
        K_hat = _lqr_gain(A, B, plant.R, P_schur)
        L_hat = _filter_gain(A, C, S_schur)
        shift = np.linalg.solve(P22, P12.T)
        mix = S12 @ np.linalg.solve(S22, np.eye(plant.n))
        return (
            np.linalg.norm(candidate.A_K + shift @ (A - L_hat @ C - B @ K_hat) @ mix),
            np.linalg.norm(candidate.B_K + shift @ L_hat),
            np.linalg.norm(candidate.C_K + K_hat @ mix),
        )

    names = ("first_order_A_K", "first_order_B_K", "first_order_C_K")
    residuals.update(_guarded(frozen_conditions, *names))

    def observer_normalization():
        # In observer coordinates -P22^-1 P12^T is the identity; pulling
        # the candidate back with S = X12 X22^-1 maps that block to
        # S @ (-P22^-1 P12^T) by congruence, so no second solve is needed.
        S = _right_divide(X.X12, X.X22)
        M = -np.linalg.solve(P22, P12.T)
        return [np.linalg.norm(S @ M - np.eye(plant.n))]

    residuals.update(_guarded(observer_normalization, "observer_normalization"))
    return residuals
