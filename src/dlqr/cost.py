"""Exact cost of a stabilizing dynamic controller via its Lyapunov pair.

The cost J = Tr(P X) = Tr(W_cl Sigma) is computed from one Lyapunov pair:
the value matrix P = W_cl + A_cl^T P A_cl and the state correlation
Sigma = X + A_cl Sigma A_cl^T. Each solution is judged by its
backward-error certificate alone. The two trace forms differ by exactly
Tr(r_P Sigma) - Tr(P r_Sigma), where r_P and r_Sigma are the residual
matrices those certificates computed, and the same two traces bound J's
forward error to first order; evaluate reports that bound as J_error.

One stacked closed-loop pass does this for N controllers of one plant at
once: it assembles the N loops, screens them with one stacked eigvals,
solves the stable ones' Lyapunov pairs in one stacked call, P on A_cl and
Sigma on A_cl^T side by side, and checks every certificate slice by
slice. evaluate is its N = 1 call; the finite-difference gradient and the
landscape sweeps run many slices through it in chunks. evaluate's report
carries rho, the PSD margins and J_error, so callers read them instead of
recomputing them."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotStabilizing, SolverDiverged
from .matops import (
    STABILITY_MARGIN,
    _below_psd_floor,
    _min_eig,
    _route_bytes,
    _solve_dlyap_certified,
    _spectral_radii,
    _symmetrize,
)
from .model import as_second_moment, assemble

# Chunks of a many-slice pass hold at most _STACK_BYTES of the largest
# per-slice array of their Lyapunov route (matops._route_bytes), counted
# once for each of a slice's two solves, and at most _STACK_SLICES slices.
# Measured on the finite-difference gradients of the 73 generated-certify
# plants (seed 1, one BLAS thread, 2-core x86 machine), with one solve per
# slice and the Kronecker route up to m = 12: one-by-one evaluation took
# 2.22 s and raised peak memory by 0.75 MB; chunks of 32 KiB took 1.11 s
# and +0.88 MB, 64 KiB 1.05 s and +1.00 MB, 128 KiB 1.03 s and +1.84 MB,
# one unchunked pass 0.98 s and +46.4 MB. On small loops the other
# per-slice arrays outweigh the largest one: 101-slice chunks of 2-state
# loops (scalar-landscape rows, 30 s runs) left peak memory 3.2% above
# one-by-one evaluation, 32-slice chunks 1.7%.
_STACK_BYTES = 64 * 1024
_STACK_SLICES = 32


@dataclass(frozen=True, eq=False)
class CostReport:
    """Cost value J with its certificate matrices P (value) and Sigma
    (state correlation), the second moment X they were computed for, and
    named 2x2 block accessors.

    evaluate also records the closed-loop spectral radius rho, the
    smallest eigenvalues lambda_min_P and lambda_min_Sigma of its PSD
    checks, and J_error, a bound on |J - J_exact| taken from the residuals
    of the Lyapunov certificates; they are None on a report built by
    hand."""

    P: np.ndarray
    Sigma: np.ndarray
    X: np.ndarray
    J: float
    n: int
    rho: float | None = None
    lambda_min_P: float | None = None
    lambda_min_Sigma: float | None = None
    J_error: float | None = None

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
    N (J of a slice that fails the screen is NaN, and so is rho of a slice
    whose A_cl overflows), and P, Sigma and the PSD margins over the
    slices that pass it in order, None if none does. residuals stacks the
    certificates' residual matrices of those slices, r_P = P - W_cl -
    A_cl^T P A_cl over the first half and r_Sigma = Sigma - X - A_cl Sigma
    A_cl^T over the second. errors maps the index of each failed slice to
    the exception evaluate raises for it; the other results of a failed
    slice, except rho, are undefined."""

    rho: np.ndarray
    J: np.ndarray
    P: np.ndarray | None
    Sigma: np.ndarray | None
    lambda_min_P: np.ndarray | None
    lambda_min_Sigma: np.ndarray | None
    residuals: np.ndarray | None
    errors: dict


def _certified_pair(A_cl, W_cl, X):
    """J, the Lyapunov pair, the PSD margins and the residual matrices of a
    stack of stable loops, and a dict of per-slice failures, each slice's
    first in evaluate's order: P solve, Sigma solve, PSD of P, PSD of
    Sigma.

    P and Sigma come from one certified solve over the 2N stack
    [A_cl; A_cl^T] with weights [W_cl; X], each slice bit-identical to
    solving it alone."""
    N = len(A_cl)
    A = np.concatenate((A_cl, A_cl.swapaxes(-1, -2)))
    W = np.empty(A.shape)
    W[:N] = _symmetrize(W_cl)
    W[N:] = X
    pair, residuals, norms, solve_errors = _solve_dlyap_certified(A, W)
    P, Sigma = pair[:N], pair[N:]
    lam = _min_eig(pair)
    margins = lam.tolist()
    errors = {}
    for k in range(N):
        exc = solve_errors.get(k) or solve_errors.get(N + k)
        if exc is not None:
            errors[k] = exc
        elif _below_psd_floor(margins[k], norms[k]):
            errors[k] = SolverDiverged("P is not positive semidefinite")
        elif _below_psd_floor(margins[N + k], norms[N + k]):
            errors[k] = SolverDiverged("Sigma is not positive semidefinite")
    J = (P @ X).trace(axis1=1, axis2=2)
    return J, P, Sigma, lam[:N], lam[N:], residuals, errors


_OVERFLOW = "closed loop overflows: {} has non-finite entries"


def _closed_loop_pass(plant, gains, X):
    """evaluate over a stack of N controllers of one plant, slice by slice.

    gains is a _Gains stack and X the (2n, 2n) second-moment array. A
    slice whose assembled A_cl overflows fails with rho NaN; the others
    are screened by their spectral radius against 1 - STABILITY_MARGIN,
    and a stable slice whose W_cl overflows fails next. The remaining
    slices' Lyapunov pairs are solved by the route of their size and
    checked by the backward-error certificate and the PSD floors, each of
    which a NaN fails. A slice's results are bit-identical to evaluating
    it alone, and a failure is reported per slice, never raised. Returns
    _Slices.
    """
    # overflow is screened below, slice by slice, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        loop = assemble(plant, gains)
    finite_A = np.isfinite(loop.A_cl).all(axis=(1, 2))
    finite_W = np.isfinite(loop.W_cl).all(axis=(1, 2))
    if finite_A.all():
        rho = _spectral_radii(loop.A_cl)
    else:
        rho = np.full(len(finite_A), np.nan)
        rho[finite_A] = _spectral_radii(loop.A_cl[finite_A])
    threshold = 1.0 - STABILITY_MARGIN
    errors = {}
    screen = zip(rho.tolist(), finite_A.tolist(), finite_W.tolist())
    for k, (r, a_ok, w_ok) in enumerate(screen):
        if not a_ok:
            errors[k] = SolverDiverged(_OVERFLOW.format("A_cl"))
        elif r >= threshold:
            errors[k] = NotStabilizing(f"closed-loop spectral radius {r} >= 1", rho=r)
        elif not w_ok:
            errors[k] = SolverDiverged(_OVERFLOW.format("W_cl"))
    if not errors:
        return _Slices(rho, *_certified_pair(loop.A_cl, loop.W_cl, X))
    J = np.full(len(rho), np.nan)
    if len(errors) == len(rho):
        return _Slices(rho, J, None, None, None, None, None, errors)
    live = np.array([k for k in range(len(rho)) if k not in errors])
    J_live, *certified, live_errors = _certified_pair(
        loop.A_cl[live], loop.W_cl[live], X
    )
    J[live] = J_live
    errors.update((int(live[k]), exc) for k, exc in live_errors.items())
    return _Slices(rho, J, *certified, errors)


def _stacked_costs(plant, gains, X):
    """J, rho and the per-slice failures of N controllers, as arrays of N
    and a dict from slice index to exception, from _closed_loop_pass run
    in chunks of at most _STACK_SLICES slices whose largest per-slice
    arrays, one for each of the two solves, fit _STACK_BYTES. J of a
    failed slice is undefined."""
    N = len(gains.A_K)
    size = max(1, min(_STACK_SLICES, _STACK_BYTES // (2 * _route_bytes(2 * plant.n))))
    J, rho, errors = np.empty(N), np.empty(N), {}
    for start in range(0, N, size):
        chunk = _Gains(*(g[start : start + size] for g in gains))
        out = _closed_loop_pass(plant, chunk, X)
        J[start : start + size] = out.J
        rho[start : start + size] = out.rho
        errors.update((start + k, exc) for k, exc in out.errors.items())
    return J, rho, errors


def evaluate(plant, controller, X):
    """Cost report for a stabilizing controller.

    The report's J_error bounds |J - J_exact| from the residual matrices
    of the two Lyapunov certificates, with no further solve. It is data,
    never a gate: only the certificates, the finiteness checks and the PSD
    floors fail evaluate.

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
        If the closed loop overflows, a Lyapunov solve fails its
        certificate or is not finite, or P or Sigma is not PSD.
    """
    X = as_second_moment(X, plant.n)
    gains = _Gains(controller.A_K[None], controller.B_K[None], controller.C_K[None])
    out = _closed_loop_pass(plant, gains, X.X)
    if out.errors:
        # popped, so that the frame its traceback holds does not keep the
        # exception alive in a reference cycle
        raise out.errors.pop(0)
    P, Sigma, J = out.P[0], out.Sigma[0], float(out.J[0])
    r_P, r_Sigma = out.residuals
    # By the adjoint of the Lyapunov operator, Tr(P X) - J_exact is
    # Tr(r_P Sigma_exact) and Tr(W_cl Sigma) - J_exact is Tr(P_exact
    # r_Sigma) (Higham 2002, Accuracy and Stability of Numerical
    # Algorithms, ch. 16); 8 eps |J| adds the rounding of the trace. The
    # safety factor 4 covers the second-order terms and the rounding of
    # the computed residuals. Against extended-precision sums, the bound
    # without it fell short on 0 of 920 loops (the 360 census plants at
    # K_star, 560 observer-based controllers of plants of order 1 to 8),
    # on 11 of 720 random stabilizing controllers of the census plants, by
    # at most 3.3x, and on 4 of the 5994 stable cells of Example 1's 81x76
    # landscape grid, by at most 1.2x; with it, on none. P and Sigma are
    # symmetric, so each trace is an entrywise dot product.
    first_order = abs(np.vdot(r_P, Sigma)) + abs(np.vdot(P, r_Sigma))
    return CostReport(
        P=P,
        Sigma=Sigma,
        X=X.X,
        J=J,
        n=plant.n,
        rho=float(out.rho[0]),
        lambda_min_P=float(out.lambda_min_P[0]),
        lambda_min_Sigma=float(out.lambda_min_Sigma[0]),
        J_error=4.0 * float(first_order + 8.0 * np.finfo(float).eps * abs(J)),
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
