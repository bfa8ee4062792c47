"""Dense linear-algebra kernels: discrete Lyapunov and Riccati solvers,
spectral radius, and Kalman rank tests.

All routines work on plain numpy arrays and are pure functions of their
inputs. Problems here are desk-scale, so the Lyapunov solvers favour an
exact dense solve (Kronecker vectorization) for small closed loops and
fall back to a squaring iteration for larger ones.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolated,
    NonSquare,
    SingularInnovation,
    SolverDiverged,
    Unstable,
)

# Closed-loop dimension at or below which the Lyapunov solve is a direct
# Kronecker linear solve; above it the squaring iteration is used.
KRON_DIM_LIMIT = 12

# Relative singular-value threshold for numerical rank decisions.
RANK_RTOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Shared tolerances for the iterative solvers.

    tol is the convergence threshold on the Frobenius distance between
    successive iterates (scaled by 1 + the iterate norm), max_iter caps the
    iteration count, and stability_margin is the epsilon in the stability
    test rho < 1 - epsilon.
    """

    tol: float = 1e-12
    max_iter: int = 100_000
    stability_margin: float = 1e-9

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0 <= self.stability_margin < 1:
            raise ValueError("stability_margin must lie in [0, 1)")


DEFAULT_CONFIG = SolverConfig()


def _as_square(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonSquare(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    return M


def _symmetrize(M):
    return 0.5 * (M + M.T)


def _check_symmetric(M, name):
    scale = 1.0 + np.linalg.norm(M)
    if np.linalg.norm(M - M.T) > 1e-9 * scale:
        raise ValueError(f"{name} must be symmetric")
    return _symmetrize(M)


def spectral_radius(M):
    """Largest absolute eigenvalue of a square matrix.

    Parameters
    ----------
    M : (n, n) array_like

    Returns
    -------
    float
        max over |lambda_i(M)|.
    """
    M = _as_square(M, "M")
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def dlyap_kron(A, W):
    """Solve P = W + A^T P A by a direct Kronecker linear solve.

    Vectorizing row-major, vec(A^T P A) = kron(A^T, A^T) vec(P), so P is
    the solution of (I - kron(A^T, A^T)) vec(P) = vec(W). Exact up to the
    conditioning of the dense solve; intended for small dimensions.
    """
    A = _as_square(A, "A")
    W = _as_square(W, "W")
    n = A.shape[0]
    # kron(A^T, A^T) from one outer product: each entry is the same single
    # product as np.kron's, so the matrix is bit-identical and far cheaper.
    kron = np.multiply.outer(A.T, A.T).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    P = np.linalg.solve(np.eye(n * n) - kron, W.ravel()).reshape(n, n)
    return _symmetrize(P)


def dlyap_doubling(A, W, cfg=DEFAULT_CONFIG):
    """Solve P = W + A^T P A by the squaring (doubling) iteration.

    Accumulates partial sums of the series sum_k (A^T)^k W A^k while
    squaring A, doubling the number of series terms per pass.
    """
    A = _as_square(A, "A")
    W = _as_square(W, "W")
    P = W.copy()
    M = A.copy()
    for _ in range(cfg.max_iter):
        increment = M.T @ P @ M
        P = _symmetrize(P + increment)
        if np.linalg.norm(increment) <= 0.5 * cfg.tol * (1.0 + np.linalg.norm(P)):
            return P
        M = M @ M
    raise SolverDiverged("doubling Lyapunov iteration exhausted max_iter")


def _solve_dlyap_certified(A, W, cfg):
    """Route and residual certificate of solve_dlyap_dual, for a validated
    A already known to be stable and a symmetric W."""
    if A.shape[0] <= KRON_DIM_LIMIT:
        P = dlyap_kron(A, W)
    else:
        P = dlyap_doubling(A, W, cfg)
    residual = np.linalg.norm(P - W - A.T @ P @ A)
    if residual > cfg.tol * (1.0 + np.linalg.norm(P)):
        raise SolverDiverged(f"Lyapunov residual {residual} exceeds tolerance")
    return P


def solve_dlyap_dual(A, W, cfg=DEFAULT_CONFIG):
    """Unique PSD solution of the dual Lyapunov equation P = W + A^T P A.

    Parameters
    ----------
    A : (n, n) array_like
        Stable matrix: spectral_radius(A) < 1 - cfg.stability_margin.
    W : (n, n) array_like
        Symmetric PSD weight.
    cfg : SolverConfig

    Returns
    -------
    (n, n) ndarray
        Symmetric P with residual ||P - W - A^T P A||_F <= tol * (1 + ||P||_F).

    Raises
    ------
    Unstable
        If rho(A) >= 1 - stability_margin (no summable solution).
    SolverDiverged
        If the residual certificate cannot be met.
    """
    A = _as_square(A, "A")
    W = _check_symmetric(_as_square(W, "W"), "W")
    rho = spectral_radius(A)
    if rho >= 1.0 - cfg.stability_margin:
        raise Unstable(f"rho(A) = {rho} is not inside the stability margin")
    return _solve_dlyap_certified(A, W, cfg)


def solve_dlyap_primal(A, W, cfg=DEFAULT_CONFIG):
    """Unique PSD solution of Sigma = W + A Sigma A^T (transposed recursion)."""
    return solve_dlyap_dual(np.asarray(A, dtype=float).T, W, cfg)


def lqr_gain(A, B, R, P):
    """State-feedback gain (R + B^T P B)^{-1} B^T P A for a given value matrix."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    P = np.atleast_2d(np.asarray(P, dtype=float))
    return np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)


def _check_invertible(S, context):
    sv = np.linalg.svd(S, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= 1e-12 * sv[0]:
        raise SingularInnovation(f"{context} is numerically singular")


def solve_dare_control(A, B, Q, R, cfg=DEFAULT_CONFIG):
    """Stabilizing solution of the control Riccati equation.

    Fixed-point iteration on
        P <- Q + A^T P A - A^T P B (R + B^T P B)^{-1} B^T P A
    started from P = Q. The returned matrix satisfies the equation with
    residual <= tol * (1 + ||P||_F) and yields a stable gain.

    Parameters
    ----------
    A : (n, n), B : (n, m), Q : (n, n) symmetric PSD, R : (m, m) symmetric PSD
        R may be singular provided R + B^T P B stays invertible along the
        iteration.
    cfg : SolverConfig

    Raises
    ------
    AssumptionViolated
        If (A, B) is not controllable or (Q^{1/2}, A) is not observable.
    SingularInnovation
        If R + B^T P B becomes numerically singular.
    SolverDiverged
        If the iteration budget is exhausted or the gain is not stable.
    """
    A = _as_square(A, "A")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = _check_symmetric(_as_square(Q, "Q"), "Q")
    R = _check_symmetric(_as_square(R, "R"), "R")
    if not is_controllable(A, B):
        raise AssumptionViolated("(A, B) must be controllable")
    if not is_observable(psd_sqrt(Q), A):
        raise AssumptionViolated("(Q^{1/2}, A) must be observable")
    P = Q.copy()
    for _ in range(cfg.max_iter):
        S = R + B.T @ P @ B
        _check_invertible(S, "R + B^T P B")
        gain = np.linalg.solve(S, B.T @ P @ A)
        P_next = _symmetrize(Q + A.T @ P @ A - A.T @ P @ B @ gain)
        # The map residual at P equals the Riccati residual, so returning
        # the pre-update iterate certifies the equation directly.
        if np.linalg.norm(P_next - P) <= cfg.tol * (1.0 + np.linalg.norm(P)):
            K = lqr_gain(A, B, R, P)
            if spectral_radius(A - B @ K) >= 1.0:
                raise SolverDiverged("control Riccati gain is not stabilizing")
            return P
        P = P_next
    raise SolverDiverged("control Riccati iteration exhausted max_iter")


def solve_dare_filter(A, C, W, cfg=DEFAULT_CONFIG):
    """Stabilizing solution of the filter Riccati equation.

    Fixed-point iteration on
        Sigma <- W + A Sigma A^T - A Sigma C^T (C Sigma C^T)^{-1} C Sigma A^T
    started from Sigma = W.

    Parameters
    ----------
    A : (n, n), C : (d, n), W : (n, n) symmetric PSD
        The innovation C Sigma C^T must stay invertible along the iteration.
    cfg : SolverConfig

    Raises
    ------
    AssumptionViolated
        If (C, A) is not observable.
    SingularInnovation
        If C Sigma C^T becomes numerically singular.
    SolverDiverged
        If the iteration budget is exhausted or the gain is not stable.
    """
    A = _as_square(A, "A")
    C = np.atleast_2d(np.asarray(C, dtype=float))
    W = _check_symmetric(_as_square(W, "W"), "W")
    if not is_observable(C, A):
        raise AssumptionViolated("(C, A) must be observable")
    Sigma = W.copy()
    for _ in range(cfg.max_iter):
        S = C @ Sigma @ C.T
        _check_invertible(S, "C Sigma C^T")
        gain = np.linalg.solve(S, C @ Sigma @ A.T)
        Sigma_next = _symmetrize(W + A @ Sigma @ A.T - A @ Sigma @ C.T @ gain)
        if np.linalg.norm(Sigma_next - Sigma) <= cfg.tol * (1.0 + np.linalg.norm(Sigma)):
            L = filter_gain(A, C, Sigma)
            if spectral_radius(A - L @ C) >= 1.0:
                raise SolverDiverged("filter Riccati gain is not stabilizing")
            return Sigma
        Sigma = Sigma_next
    raise SolverDiverged("filter Riccati iteration exhausted max_iter")


def filter_gain(A, C, Sigma):
    """Observer gain A Sigma C^T (C Sigma C^T)^{-1} for a given correlation."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    S = C @ Sigma @ C.T
    _check_invertible(S, "C Sigma C^T")
    return np.linalg.solve(S, C @ Sigma @ A.T).T


def psd_sqrt(M):
    """Symmetric PSD square root via eigendecomposition (negatives clipped)."""
    M = _check_symmetric(_as_square(M, "M"), "M")
    w, V = np.linalg.eigh(M)
    w = np.clip(w, 0.0, None)
    return V @ np.diag(np.sqrt(w)) @ V.T


def controllability_matrix(A, B):
    """Kalman controllability matrix [B, AB, ..., A^{n-1}B]."""
    A = _as_square(A, "A")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def has_full_row_rank(M, rtol=RANK_RTOL):
    """Numerical full-row-rank test: sigma > rtol * sigma_max counts."""
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0:
        return False
    return int(np.sum(sv > rtol * sv[0])) == M.shape[0]


def is_controllable(A, B, rtol=RANK_RTOL):
    """Kalman rank test for controllability of (A, B)."""
    return has_full_row_rank(controllability_matrix(A, B), rtol)


def is_observable(C, A, rtol=RANK_RTOL):
    """Kalman rank test for observability of (C, A), by duality."""
    A = _as_square(A, "A")
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return is_controllable(A.T, C.T, rtol)


def rank_tests(A, B, C, Q, rtol=RANK_RTOL):
    """Kalman-rank verdicts for the plant assumptions.

    Returns
    -------
    dict
        controllable: (A, B) controllable;
        observable_CA: (C, A) observable;
        observable_QA: (Q^{1/2}, A) observable.
    """
    return {
        "controllable": is_controllable(A, B, rtol),
        "observable_CA": is_observable(C, A, rtol),
        "observable_QA": is_observable(psd_sqrt(Q), A, rtol),
    }
