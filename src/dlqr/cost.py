"""Exact cost of a stabilizing dynamic controller via its Lyapunov pair.

The cost J = Tr(P X) = Tr(W_cl Sigma) is computed from two independent
Lyapunov solves: the value matrix P = W_cl + A_cl^T P A_cl and the state
correlation Sigma = X + A_cl Sigma A_cl^T. Solving both and reconciling
the two trace forms cross-validates the solver on every call.

evaluate is the one closed-loop pass: it assembles the loop and takes its
spectral radius once, and its report carries rho and the PSD margins, so
callers read them instead of recomputing them."""

from dataclasses import dataclass

import numpy as np

from .errors import NotStabilizing, SolverDiverged
from .matops import (
    DEFAULT_CONFIG,
    _check_psd,
    _solve_dlyap_certified,
    _symmetrize,
    spectral_radius,
)
from .model import as_second_moment, assemble

# Relative agreement required between the two trace forms of J. Near the
# stability boundary both traces accumulate cancellation error of order
# eps * ||P|| * ||Sigma||, so this stays looser than the per-solve residual
# certificates; genuine route bugs disagree at O(1).
TRACE_MATCH_RTOL = 1e-7


@dataclass(frozen=True, eq=False)
class CostReport:
    """Cost value J with its certificate matrices P (value) and Sigma
    (state correlation), the second moment X they were computed for, and
    named 2x2 block accessors.

    evaluate also records the closed-loop spectral radius rho and the
    smallest eigenvalues lambda_min_P and lambda_min_Sigma of its PSD
    checks; they are None on a report built by hand."""

    P: np.ndarray
    Sigma: np.ndarray
    X: np.ndarray
    J: float
    n: int
    rho: float | None = None
    lambda_min_P: float | None = None
    lambda_min_Sigma: float | None = None

    @property
    def P11(self):
        return self.P[: self.n, : self.n]

    @property
    def P12(self):
        return self.P[: self.n, self.n :]

    @property
    def P22(self):
        return self.P[self.n :, self.n :]

    @property
    def Sigma11(self):
        return self.Sigma[: self.n, : self.n]

    @property
    def Sigma12(self):
        return self.Sigma[: self.n, self.n :]

    @property
    def Sigma22(self):
        return self.Sigma[self.n :, self.n :]


def evaluate(plant, controller, X, cfg=DEFAULT_CONFIG):
    """Cost report for a stabilizing controller.

    Parameters
    ----------
    plant : Plant
    controller : Controller
    X : SecondMoment or (2n, 2n) array_like

    Returns
    -------
    CostReport

    Raises
    ------
    NotStabilizing
        If the closed loop is not stable (the cost is infinite).
    SolverDiverged
        If a Lyapunov solve fails or the two trace forms disagree.
    """
    X = as_second_moment(X, plant.n)
    loop = assemble(plant, controller)
    rho = spectral_radius(loop.A_cl)
    if rho >= 1.0 - cfg.stability_margin:
        raise NotStabilizing(f"closed-loop spectral radius {rho} >= 1", rho=rho)
    # The same certified solves as solve_dlyap_dual and solve_dlyap_primal,
    # without their input checks: the loop is well formed and already
    # known to be stable, and X is symmetric.
    P = _solve_dlyap_certified(loop.A_cl, _symmetrize(loop.W_cl), cfg)
    Sigma = _solve_dlyap_certified(loop.A_cl.T, X.X, cfg)
    J_value = float(np.trace(P @ X.X))
    J_correlation = float(np.trace(loop.W_cl @ Sigma))
    if abs(J_value - J_correlation) > TRACE_MATCH_RTOL * (1.0 + abs(J_value)):
        raise SolverDiverged(f"trace forms disagree: {J_value} vs {J_correlation}")
    return CostReport(
        P=P,
        Sigma=Sigma,
        X=X.X,
        J=J_value,
        n=plant.n,
        rho=rho,
        lambda_min_P=_check_psd(P, "P", SolverDiverged),
        lambda_min_Sigma=_check_psd(Sigma, "Sigma", SolverDiverged),
    )


def block_lyapunov_residuals(plant, controller, report):
    """Frobenius residuals of the six block Lyapunov equations.

    Partitioning P = W_cl + A_cl^T P A_cl and Sigma = X + A_cl Sigma A_cl^T
    into n x n blocks gives three independent equations each (the 21 block
    duplicates the 12 block by symmetry). Keys: rP11, rP12, rP22 for the
    value recursion and rS11, rS12, rS22 for the correlation recursion.
    """
    loop = assemble(plant, controller)
    n = report.n
    P_res = report.P - loop.W_cl - loop.A_cl.T @ report.P @ loop.A_cl
    S_res = report.Sigma - report.X - loop.A_cl @ report.Sigma @ loop.A_cl.T
    return {
        "rP11": float(np.linalg.norm(P_res[:n, :n])),
        "rP12": float(np.linalg.norm(P_res[:n, n:])),
        "rP22": float(np.linalg.norm(P_res[n:, n:])),
        "rS11": float(np.linalg.norm(S_res[:n, :n])),
        "rS12": float(np.linalg.norm(S_res[:n, n:])),
        "rS22": float(np.linalg.norm(S_res[n:, n:])),
    }
