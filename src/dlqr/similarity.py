"""Similarity transforms of the controller state and the cost along an orbit.

Changing controller coordinates by an invertible T maps (A_K, B_K, C_K) to
(T A_K T^-1, T B_K, C_K T^-1) without changing the transfer function, but
the cost against a fixed cross-correlated second moment X does change. On
the orbit the cost reduces to a quadratic-over-linear surrogate g in
H = T^-1, which yields the optimal transform in closed form."""

from dataclasses import dataclass

import numpy as np

from .cost import evaluate
from .errors import (
    NonSquare,
    NotObservable,
    OptimalTransformNotFound,
    SingularTransform,
)
from .matops import _as_matrix, _check_psd, _is_singular
from .model import Controller, is_observable_controller

# Scaled stationarity residual allowed for the returned optimal transform.
OPTIMALITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Transform:
    """Invertible change of controller coordinates, with cached inverse."""

    T: np.ndarray
    T_inv: np.ndarray

    @classmethod
    def from_matrix(cls, T):
        """Validate and wrap a transform matrix.

        Raises
        ------
        NonSquare
            If T is not a square 2-d array.
        AssumptionViolated
            If T has non-finite entries.
        SingularTransform
            If T is numerically singular.
        """
        T = _as_matrix(T, "transform", square=True)
        if _is_singular(T):
            raise SingularTransform("transform is numerically singular")
        return cls(T=T, T_inv=np.linalg.solve(T, np.eye(T.shape[0])))

    @property
    def n(self):
        return self.T.shape[0]


def apply(controller, transform):
    """Controller in the new coordinates xi' = T xi."""
    T, T_inv = transform.T, transform.T_inv
    if transform.n != controller.n:
        raise NonSquare(
            f"transform order {transform.n} != controller order {controller.n}"
        )
    return Controller(
        A_K=T @ controller.A_K @ T_inv,
        B_K=T @ controller.B_K,
        C_K=controller.C_K @ T_inv,
    )


def g_surrogate(report, H):
    """Cost of the transformed controller as a function of H = T^-1.

    Equals evaluate(plant, apply(controller, T), X).J without re-solving
    any Lyapunov equation, because the transformed Lyapunov pair is a
    congruence of the base pair. A stack of H, shape (N, n, n), gives the N
    costs as an array, each computed as for its slice alone."""
    P11, P12, P22 = report.P11, report.P12, report.P22
    n = report.n
    X11 = report.X[:n, :n]
    X12 = report.X[:n, n:]
    X22 = report.X[n:, n:]
    H = np.asarray(H)
    J = (
        np.trace(P11 @ X11)
        + 2.0 * np.trace(P12 @ H @ X12.T, axis1=-2, axis2=-1)
        + np.trace(P22 @ H @ X22 @ np.swapaxes(H, -1, -2), axis1=-2, axis2=-1)
    )
    return float(J) if H.ndim == 2 else J


def g_gradient(report, H):
    """Gradient of the orbit surrogate with respect to H = T^-1."""
    n = report.n
    X12 = report.X[:n, n:]
    X22 = report.X[n:, n:]
    return 2.0 * (report.P12.T @ X12 + report.P22 @ H @ X22)


def g_hessian_form(report, Z):
    """Quadratic form of the (constant) orbit Hessian in direction Z.

    The surrogate is quadratic in H, so its Hessian acts on a direction Z
    as 2 Tr(P22 Z X22 Z^T). Positive for every nonzero Z exactly when P22
    and X22 are both positive definite, which makes the orbit problem
    strictly convex."""
    n = report.n
    X22 = report.X[n:, n:]
    return float(2.0 * np.trace(report.P22 @ Z @ X22 @ Z.T))


def transformed_cost(plant, controller, X, transform, report=None):
    """Cost of apply(controller, transform) against the same X.

    Reuses the base controller's cost report (computing it on demand), so
    sweeping many transforms costs one Lyapunov pair total."""
    if report is None:
        report = evaluate(plant, controller, X)
    return g_surrogate(report, transform.T_inv)


def optimal_transform(plant, controller, X, report=None):
    """Minimizer T* of the cost over the similarity orbit of the controller.

    Solving grad g(H) = 0 gives H* = -P22^-1 P12^T X12 X22^-1 and
    T* = inv(H*) = -X22 X12^-1 P12^-T P22. Existence needs X12 and P12
    invertible; strict convexity of the orbit problem needs X22 and P22
    positive definite.

    Raises
    ------
    NotStabilizing
        If the controller does not stabilize the plant.
    NotObservable
        If the controller realization is unobservable (P22 singular).
    AssumptionViolated
        If X is not positive definite (X22 must be invertible).
    OptimalTransformNotFound
        If X12 or P12 is singular, or the candidate fails the
        stationarity postcondition.
    """
    if report is None:
        report = evaluate(plant, controller, X)
    n = report.n
    X12 = report.X[:n, n:]
    X22 = report.X[n:, n:]
    if not is_observable_controller(controller):
        raise NotObservable("controller realization is unobservable")
    _check_psd(report.X, "second moment", definite=True)
    for name, M in (("X12", X12), ("P12", report.P12)):
        if _is_singular(M):
            raise OptimalTransformNotFound(
                f"{name} is singular; the orbit minimum is not attained"
            )
    H_star = -np.linalg.solve(report.P22, report.P12.T @ X12) @ np.linalg.solve(
        X22, np.eye(n)
    )
    grad = g_gradient(report, H_star)
    scale = 1.0 + float(np.linalg.norm(report.P12.T @ X12))
    if float(np.linalg.norm(grad)) > OPTIMALITY_TOL * scale:
        raise OptimalTransformNotFound(
            f"candidate transform misses stationarity by {np.linalg.norm(grad)}"
        )
    try:
        return Transform.from_matrix(np.linalg.solve(H_star, np.eye(n)))
    except SingularTransform:
        raise OptimalTransformNotFound("optimal H is singular") from None
