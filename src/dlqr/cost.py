"""Exact cost of a stabilizing dynamic controller via its Lyapunov pair.

The cost J = Tr(P X) = Tr(W_cl Sigma) is computed from two independent
Lyapunov solves: the value matrix P = W_cl + A_cl^T P A_cl and the state
correlation Sigma = X + A_cl Sigma A_cl^T. Solving both and reconciling
the two trace forms cross-validates the solver on every call.

One stacked closed-loop pass does this for N controllers of one plant at
once: it assembles the N loops, screens them with one stacked eigvals,
solves the stable ones' Lyapunov pairs by stacked routes and checks every
certificate slice by slice. evaluate is its N = 1 call; the
finite-difference gradient and the landscape sweeps run many slices
through it in chunks. evaluate's report carries rho and the PSD margins,
so callers read them instead of recomputing them."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotStabilizing, SolverDiverged
from .matops import (
    DEFAULT_CONFIG,
    STABILITY_MARGIN,
    _below_psd_floor,
    _min_eig,
    _route_bytes,
    _solve_dlyap_certified,
    _spectral_radii,
    _symmetrize,
)
from .model import as_second_moment, assemble

# Relative agreement required between the two trace forms of J. Near the
# stability boundary both traces accumulate cancellation error of order
# eps * ||P|| * ||Sigma||, so this stays looser than the per-solve residual
# certificates; genuine route bugs disagree at O(1).
TRACE_MATCH_RTOL = 1e-7

# Chunks of a many-slice pass hold at most _STACK_BYTES of the largest
# per-slice array of their Lyapunov route (matops._route_bytes) and at most
# _STACK_SLICES slices. Measured on the finite-difference gradients of the
# 73 generated-certify plants (seed 1, one BLAS thread, 2-core x86
# machine): one-by-one evaluation took 2.22 s and raised peak memory by
# 0.75 MB; chunks of 32 KiB took 1.11 s and +0.88 MB, 64 KiB 1.05 s and
# +1.00 MB, 128 KiB 1.03 s and +1.84 MB, one unchunked pass 0.98 s and
# +46.4 MB. On small loops the other per-slice arrays outweigh the largest
# one: 101-slice chunks of 2-state loops (scalar-landscape rows, 30 s runs)
# left peak memory 3.2% above one-by-one evaluation, 32-slice chunks 1.7%.
_STACK_BYTES = 64 * 1024
_STACK_SLICES = 32


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


class _Gains(NamedTuple):
    """N controllers of one plant as stacked (N, n, n), (N, n, d) and
    (N, m, n) arrays."""

    A_K: np.ndarray
    B_K: np.ndarray
    C_K: np.ndarray


class _Slices(NamedTuple):
    """Per-slice results of one stacked pass of N slices: rho and J over all
    N (J of an unstable slice is NaN), and P, Sigma and the PSD margins
    over the stable slices in order, None if no slice is stable. errors
    maps the index of each failed slice to the exception evaluate raises
    for it; the other results of a failed slice, except rho, are
    undefined."""

    rho: np.ndarray
    J: np.ndarray
    P: np.ndarray | None
    Sigma: np.ndarray | None
    lambda_min_P: np.ndarray | None
    lambda_min_Sigma: np.ndarray | None
    errors: dict


def _certified_pair(A_cl, W_cl, X, cfg):
    """J, the Lyapunov pair and the PSD margins of a stack of stable loops,
    and a dict of per-slice failures, each slice's first in evaluate's
    order: P solve, Sigma solve, trace match, PSD of P, PSD of Sigma."""
    P, P_norms, errors = _solve_dlyap_certified(A_cl, _symmetrize(W_cl), cfg)
    Sigma, Sigma_norms, sigma_errors = _solve_dlyap_certified(
        A_cl.swapaxes(-1, -2), X, cfg
    )
    J_value = (P @ X).trace(axis1=1, axis2=2)
    J_correlation = (W_cl @ Sigma).trace(axis1=1, axis2=2)
    lam_P, lam_Sigma = _min_eig(P), _min_eig(Sigma)
    slices = zip(
        J_value.tolist(),
        J_correlation.tolist(),
        lam_P.tolist(),
        P_norms,
        lam_Sigma.tolist(),
        Sigma_norms,
    )
    for k, (J_v, J_c, lam_p, norm_p, lam_s, norm_s) in enumerate(slices):
        if k in errors:
            continue
        if k in sigma_errors:
            errors[k] = sigma_errors[k]
        elif not abs(J_v - J_c) <= TRACE_MATCH_RTOL * (1.0 + abs(J_v)):
            errors[k] = SolverDiverged(f"trace forms disagree: {J_v} vs {J_c}")
        elif _below_psd_floor(lam_p, norm_p):
            errors[k] = SolverDiverged("P is not positive semidefinite")
        elif _below_psd_floor(lam_s, norm_s):
            errors[k] = SolverDiverged("Sigma is not positive semidefinite")
    return J_value, P, Sigma, lam_P, lam_Sigma, errors


def _closed_loop_pass(plant, gains, X, cfg):
    """evaluate over a stack of N controllers of one plant, slice by slice.

    gains is a _Gains stack and X the (2n, 2n) second-moment array. Each
    slice's loop is screened by its spectral radius against
    1 - STABILITY_MARGIN; the stable slices' Lyapunov pairs are solved by
    the route of their size and checked by the residual certificate, the
    trace match and the PSD floors, each of which a NaN fails. A slice's
    results are bit-identical to evaluating it alone, and a failure is
    reported per slice, never raised. Returns _Slices.
    """
    loop = assemble(plant, gains)
    rho = _spectral_radii(loop.A_cl)
    threshold = 1.0 - STABILITY_MARGIN
    errors = {
        k: NotStabilizing(f"closed-loop spectral radius {r} >= 1", rho=r)
        for k, r in enumerate(rho.tolist())
        if r >= threshold
    }
    if not errors:
        return _Slices(rho, *_certified_pair(loop.A_cl, loop.W_cl, X, cfg))
    J = np.full(len(rho), np.nan)
    if len(errors) == len(rho):
        return _Slices(rho, J, None, None, None, None, errors)
    live = np.array([k for k in range(len(rho)) if k not in errors])
    J_live, P, Sigma, lam_P, lam_Sigma, live_errors = _certified_pair(
        loop.A_cl[live], loop.W_cl[live], X, cfg
    )
    J[live] = J_live
    errors.update((int(live[k]), exc) for k, exc in live_errors.items())
    return _Slices(rho, J, P, Sigma, lam_P, lam_Sigma, errors)


def _stacked_costs(plant, gains, X, cfg):
    """J, rho and the per-slice failures of N controllers, as arrays of N
    and a dict from slice index to exception, from _closed_loop_pass run
    in chunks of at most _STACK_SLICES slices whose largest per-slice
    arrays fit _STACK_BYTES. J of a failed slice is undefined."""
    N = len(gains.A_K)
    size = max(1, min(_STACK_SLICES, _STACK_BYTES // _route_bytes(2 * plant.n)))
    J, rho, errors = np.empty(N), np.empty(N), {}
    for start in range(0, N, size):
        chunk = _Gains(*(g[start : start + size] for g in gains))
        out = _closed_loop_pass(plant, chunk, X, cfg)
        J[start : start + size] = out.J
        rho[start : start + size] = out.rho
        errors.update((start + k, exc) for k, exc in out.errors.items())
    return J, rho, errors


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
        If a Lyapunov solve fails or is not finite, the two trace forms
        disagree, or P or Sigma is not PSD.
    """
    X = as_second_moment(X, plant.n)
    gains = _Gains(controller.A_K[None], controller.B_K[None], controller.C_K[None])
    out = _closed_loop_pass(plant, gains, X.X, cfg)
    if out.errors:
        # popped, so that the frame its traceback holds does not keep the
        # exception alive in a reference cycle
        raise out.errors.pop(0)
    return CostReport(
        P=out.P[0],
        Sigma=out.Sigma[0],
        X=X.X,
        J=float(out.J[0]),
        n=plant.n,
        rho=float(out.rho[0]),
        lambda_min_P=float(out.lambda_min_P[0]),
        lambda_min_Sigma=float(out.lambda_min_Sigma[0]),
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
