"""Exact cost of a stabilizing dynamic controller via its Lyapunov pair.

The cost J = Tr(P X) = Tr(W_cl Sigma) is computed from one Lyapunov pair:
the value matrix P = W_cl + A_cl^T P A_cl and the state correlation
Sigma = X + A_cl Sigma A_cl^T. Each solution is judged by its
backward-error certificate alone. The two trace forms differ by exactly
Tr(r_P Sigma) - Tr(P r_Sigma), where r_P and r_Sigma are the residual
matrices those certificates computed, and the same two traces bound J's
forward error to first order; evaluate reports that bound as J_error.

Two steps make every evaluation. The screen assembles a stack of N
controllers' closed loops and takes their spectral radii with one stacked
eigvals, failing a slice that overflows or is not stable. The certified
pair solves the survivors' Lyapunov pairs in one stacked call, P on A_cl
and Sigma on A_cl^T side by side, and checks every certificate and PSD
floor slice by slice. evaluate composes the two on its one controller;
a landscape sweep composes them on chunks of its cells, each chunk as
many slices as fit one byte budget, so a sweep of up to 256 cells of a
first-order plant is one pass. evaluate's report carries rho, the PSD
margins, J_error and the residual matrices r_P and r_Sigma, so callers
read them instead of recomputing them."""

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
# once for each of a slice's solves: 256 slices of 2-state loops (n = 1),
# 16 of 4-state loops, 113, 64 and 40 at n = 3, 4 and 5, and fewer than 32
# from n = 6 on. The budget was measured on an earlier gradient check by
# central differences, whose probes took two real solves each, on the 73
# generated-certify plants (seed 1, one BLAS thread, 2-core x86 machine):
# chunks of 32 KiB took 0.53 s (quartiles 0.51-0.57 s over 15 interleaved
# runs) and raised traced peak memory by 0.66 MB, 64 KiB 0.42 s (0.41-0.46)
# and +1.05 MB, 128 KiB 0.44 s (0.40-0.48) and +1.82 MB, 256 KiB 0.48 s
# (0.40-0.51) and +2.74 MB. The complex-step gradient's chunks of probes,
# which solve nothing, keep the slices per chunk of a two-solve pass. A
# landscape row of up to 256 cells of a first-order plant is one pass:
# after 40 rounds of the scalar-landscape operations in one process
# (seed 2, medians of 6 alternating runs), peak memory read 40.46 MB,
# against 40.50 MB with chunks capped at 32 slices, while a round took
# 26% less time.
_STACK_BYTES = 64 * 1024


def _chunk_size(n):
    """Slices per chunk of a many-slice pass on a plant of order n: as many
    as fit _STACK_BYTES with one Lyapunov pair of 2n-state loops a slice,
    and at least one."""
    return max(1, _STACK_BYTES // (2 * _route_bytes(2 * n)))


@dataclass(frozen=True, eq=False)
class CostReport:
    """Cost value J with its certificate matrices P (value) and Sigma
    (state correlation), the second moment X they were computed for, and
    named 2x2 block accessors.

    evaluate, the one code that builds a report, also records the
    closed-loop spectral radius rho, the smallest eigenvalues lambda_min_P
    and lambda_min_Sigma of its PSD checks, the residual matrices
    r_P = P - W_cl - A_cl^T P A_cl (W_cl symmetrized) and
    r_Sigma = Sigma - X - A_cl Sigma A_cl^T of its Lyapunov certificates,
    and J_error, a bound on |J - J_exact| taken from those residuals."""

    P: np.ndarray
    Sigma: np.ndarray
    X: np.ndarray
    J: float
    n: int
    rho: float
    lambda_min_P: float
    lambda_min_Sigma: float
    J_error: float
    r_P: np.ndarray
    r_Sigma: np.ndarray

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


def _certified_pair(A_cl, W_cl, X):
    """J, the Lyapunov pair, the PSD margins and the residual matrices of a
    stack of N stable loops, and a dict of per-slice failures, each slice's
    first in evaluate's order: P solve, Sigma solve, PSD of P, PSD of
    Sigma. The residual matrices stack the N slices' r_P, then their
    r_Sigma.

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


def _screen(plant, gains):
    """The closed loops of a _Gains stack of N controllers, their spectral
    radii and a dict of per-slice failures, each slice's first in
    evaluate's order: A_cl overflows (rho NaN), rho >= 1 - STABILITY_MARGIN,
    W_cl overflows. One stacked eigvals screens the slices whose A_cl is
    finite; a failure is reported per slice, never raised."""
    threshold = 1.0 - STABILITY_MARGIN
    # overflow is screened below, slice by slice, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        loop = assemble(plant, gains)
    finite_A = np.isfinite(loop.A_cl).all(axis=(1, 2))
    finite_W = np.isfinite(loop.W_cl).all(axis=(1, 2))
    if finite_A.all():
        rho = _spectral_radii(loop.A_cl)
    else:
        rho = np.full(len(finite_A), np.nan)
        if finite_A.any():
            rho[finite_A] = _spectral_radii(loop.A_cl[finite_A])
    errors = {}
    screen = zip(rho.tolist(), finite_A.tolist(), finite_W.tolist())
    for k, (r, a_ok, w_ok) in enumerate(screen):
        if not a_ok:
            errors[k] = SolverDiverged(_OVERFLOW.format("A_cl"))
        elif r >= threshold:
            errors[k] = NotStabilizing(f"closed-loop spectral radius {r} >= 1", rho=r)
        elif not w_ok:
            errors[k] = SolverDiverged(_OVERFLOW.format("W_cl"))
    return loop, rho, errors


def _stacked_costs(plant, gains, X):
    """J, rho and the per-slice failures of N controllers, as arrays of N
    and a dict from slice index to the exception evaluate raises for that
    controller; J of a failed slice is NaN. Each chunk of _chunk_size
    slices, whose largest per-slice arrays, one for each of the two solves,
    fit _STACK_BYTES, is screened, and its slices that pass get their
    certified pairs in one stacked call. Each slice's J is
    bit-identical to evaluating it alone."""
    N = len(gains.A_K)
    size = _chunk_size(plant.n)
    J, rho, errors = np.full(N, np.nan), np.empty(N), {}
    for start in range(0, N, size):
        chunk = _Gains(*(g[start : start + size] for g in gains))
        loop, chunk_rho, chunk_errors = _screen(plant, chunk)
        rho[start : start + size] = chunk_rho
        live = [k for k in range(len(chunk_rho)) if k not in chunk_errors]
        # views, not copies, when every slice passed
        pick = slice(None) if len(live) == len(chunk_rho) else live
        if live:
            J_live, *_, live_errors = _certified_pair(loop.A_cl[pick], loop.W_cl[pick], X)
            J[start : start + size][pick] = J_live
            chunk_errors.update((live[k], exc) for k, exc in live_errors.items())
        errors.update((start + k, exc) for k, exc in chunk_errors.items())
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
    loop, rho, errors = _screen(plant, gains)
    if not errors:
        J, P, Sigma, lam_P, lam_Sigma, (r_P, r_Sigma), errors = _certified_pair(
            loop.A_cl, loop.W_cl, X.X
        )
    if errors:
        # popped, so that the frame its traceback holds does not keep the
        # exception alive in a reference cycle
        raise errors.pop(0)
    P, Sigma, J = P[0], Sigma[0], float(J[0])
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
        rho=float(rho[0]),
        lambda_min_P=float(lam_P[0]),
        lambda_min_Sigma=float(lam_Sigma[0]),
        J_error=4.0 * float(first_order + 8.0 * np.finfo(float).eps * abs(J)),
        r_P=r_P,
        r_Sigma=r_Sigma,
    )
