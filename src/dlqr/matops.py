"""Dense linear-algebra kernels: discrete Lyapunov and Riccati solvers,
spectral radius, and Kalman rank tests.

All routines work on plain numpy arrays and are pure functions of their
inputs. Problems here are desk-scale, so the Lyapunov solvers favour an
exact dense solve (Kronecker vectorization) for small closed loops and
fall back to a squaring iteration for larger ones.

Each Lyapunov route has one implementation, over a stack of N matrices of
one size; the public 2-d solvers are its N = 1 calls. Every stacked step
is the same per-slice numpy or LAPACK operation as its 2-d form, so a
slice's result is bit-identical to solving it alone. Per-slice decisions
(stop rules, certificates) compare Python floats: on the few slices of a
stack that is cheaper than numpy's per-call cost on short arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    NonSquare,
    SingularInnovation,
    SolverDiverged,
    Unstable,
)

# Closed-loop dimension at or below which the Lyapunov solve is a direct
# Kronecker linear solve; above it the squaring iteration is used.
KRON_DIM_LIMIT = 12

# The one singular-value rule of every rank and invertibility decision: a
# matrix counts as numerically singular (rank deficient) when
# sigma_min <= SINGULAR_RTOL * sigma_max.
SINGULAR_RTOL = 1e-10

# Rounding floor of the symmetry and PSD checks: an asymmetry, or a
# negative eigenvalue, up to PSD_RTOL * (1 + ||M||_F) is accepted.
PSD_RTOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Shared tolerances for the iterative solvers.

    tol is the relative tolerance of every solver certificate: a Riccati
    iteration stops once successive iterates differ by at most
    tol * (1 + ||P||_F), a Lyapunov solution must leave a residual of at
    most tol * (1 + ||P||_F), and the doubling iteration stops once its
    increment is at most half that. max_iter caps the iteration count,
    and stability_margin is the epsilon in the stability test
    rho < 1 - epsilon.
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


def _as_matrix(M, name="matrix", square=False):
    """M as a finite 2-d float array, a scalar as 1x1; NonSquare if square
    is set and M is not square."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2:
        M = np.atleast_2d(M)
    if square and (M.ndim != 2 or M.shape[0] != M.shape[1]):
        raise NonSquare(f"{name} must be square, got shape {M.shape}")
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be a matrix, got ndim {M.ndim}")
    if not np.all(np.isfinite(M)):
        raise AssumptionViolated(f"{name} has non-finite entries")
    return M


def _symmetrize(M):
    return 0.5 * (M + M.swapaxes(-1, -2))


def _fro(M):
    """Frobenius norm of each matrix in the stack M, bit-identical to
    np.linalg.norm of the slice: both take one dot product of the
    row-major entries."""
    v = M.reshape(len(M), 1, -1)
    return np.sqrt(np.matmul(v, v.transpose(0, 2, 1)).ravel())


def _check_symmetric(M, name):
    """Symmetric part of M, which must be symmetric up to the rounding floor."""
    if np.linalg.norm(M - M.T) > PSD_RTOL * (1.0 + np.linalg.norm(M)):
        raise AssumptionViolated(f"{name} must be symmetric")
    return _symmetrize(M)


def _min_eig(M):
    """Smallest eigenvalue of each symmetric matrix in the stack M."""
    return np.linalg.eigvalsh(M)[..., 0]


def _below_psd_floor(lam, norm):
    """Whether each smallest eigenvalue lam of a stack of matrices with
    Frobenius norms norm falls below the PSD rounding floor."""
    return lam < -PSD_RTOL * (1.0 + norm)


def _check_psd(M, name, error=AssumptionViolated, definite=False):
    """Smallest eigenvalue of the symmetric matrix M, after checking that M
    is positive semidefinite up to the rounding floor or, if definite is
    set, that the eigenvalue is positive. A failed check raises error."""
    lam = float(_min_eig(M))
    if definite:
        if lam <= 0.0:
            raise error(f"{name} is not positive definite")
    elif _below_psd_floor(lam, np.linalg.norm(M)):
        raise error(f"{name} is not positive semidefinite")
    return lam


def _is_singular(M):
    """The singular-value rule: sigma_min(M) <= SINGULAR_RTOL * sigma_max(M)."""
    sv = np.linalg.svd(M, compute_uv=False)
    return bool(sv[-1] <= SINGULAR_RTOL * sv[0])


def _spectral_radii(M):
    """Largest absolute eigenvalue of each matrix in the stack M, from one
    stacked eigvals (a scalar for a 2-d M)."""
    return np.abs(np.linalg.eigvals(M)).max(axis=-1)


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
    M = _as_matrix(M, "M", square=True)
    return float(_spectral_radii(M))


def _route_bytes(m):
    """Bytes of the largest per-slice array the Lyapunov route of size m
    builds: the m^2 x m^2 Kronecker system, or an m x m doubling iterate."""
    return 8 * m**4 if m <= KRON_DIM_LIMIT else 8 * m * m


def _kron_route(A, W):
    """Kronecker solves of P = W + A^T P A for a stack A of (N, n, n) and
    W of (N, n, n) or (n, n).

    Vectorizing row-major, vec(A^T P A) = kron(A^T, A^T) vec(P), so each P
    solves (I - kron(A^T, A^T)) vec(P) = vec(W); all N systems go to one
    stacked solve."""
    N, n = A.shape[0], A.shape[-1]
    At = A.swapaxes(-1, -2)
    # kron(A^T, A^T) from one outer product per slice: each entry is the
    # same single product as np.kron's, so the matrix is bit-identical and
    # far cheaper.
    kron = (At[:, :, None, :, None] * At[:, None, :, None, :]).reshape(N, n * n, n * n)
    P = np.linalg.solve(np.eye(n * n) - kron, W.reshape(-1, n * n, 1))
    return _symmetrize(P.reshape(N, n, n))


_UNCONVERGED = "doubling Lyapunov iteration exhausted max_iter"


def _doubling_route(A, W, cfg):
    """Squaring iterations of P = W + A^T P A for a stack A of (N, n, n) and
    W of (N, n, n) or (n, n).

    Each slice accumulates partial sums of its series sum_k (A^T)^k W A^k
    while squaring A, and stops on its own rule: a converged slice leaves
    the stack, so none iterates past its stop. Returns the solutions and
    the indices of the slices that exhausted cfg.max_iter."""
    P, M = W.copy(), A.copy()
    out = np.empty(A.shape)
    live = np.arange(len(A))
    half_tol = 0.5 * cfg.tol
    for _ in range(cfg.max_iter):
        increment = M.swapaxes(-1, -2) @ P @ M
        P = _symmetrize(P + increment)
        done = [
            d <= half_tol * (1.0 + p)
            for d, p in zip(_fro(increment).tolist(), _fro(P).tolist())
        ]
        if all(done):
            out[live] = P
            return out, live[:0]
        if any(done):
            going = np.logical_not(done)
            out[live[~going]] = P[~going]
            live, P, M = live[going], P[going], M[going]
        M = M @ M
    out[live] = P
    return out, live


def dlyap_kron(A, W):
    """Solve P = W + A^T P A by a direct Kronecker linear solve.

    Vectorizing row-major, vec(A^T P A) = kron(A^T, A^T) vec(P), so P is
    the solution of (I - kron(A^T, A^T)) vec(P) = vec(W). Exact up to the
    conditioning of the dense solve; intended for small dimensions.
    """
    A = _as_matrix(A, "A", square=True)
    W = _as_matrix(W, "W", square=True)
    return _kron_route(A[None], W[None])[0]


def dlyap_doubling(A, W, cfg=DEFAULT_CONFIG):
    """Solve P = W + A^T P A by the squaring (doubling) iteration.

    Accumulates partial sums of the series sum_k (A^T)^k W A^k while
    squaring A, doubling the number of series terms per pass.
    """
    A = _as_matrix(A, "A", square=True)
    W = _as_matrix(W, "W", square=True)
    P, unconverged = _doubling_route(A[None], W[None], cfg)
    if len(unconverged):
        raise SolverDiverged(_UNCONVERGED)
    return P[0]


def _solve_dlyap_certified(A, W, cfg):
    """Route and residual certificate of solve_dlyap_dual over a stack:
    A (N, m, m) validated and known to be stable, W symmetric, (N, m, m)
    or one (m, m) weight for every slice. Returns the solutions, a list of
    their Frobenius norms and a dict from slice index to the SolverDiverged
    of each slice that failed."""
    if A.shape[-1] <= KRON_DIM_LIMIT:
        P, unconverged = _kron_route(A, W), ()
    else:
        P, unconverged = _doubling_route(A, W, cfg)
    errors = {int(k): SolverDiverged(_UNCONVERGED) for k in unconverged}
    residuals = _fro(P - W - A.swapaxes(-1, -2) @ P @ A).tolist()
    norms = _fro(P).tolist()
    for k, (residual, norm) in enumerate(zip(residuals, norms)):
        if residual > cfg.tol * (1.0 + norm):
            errors.setdefault(
                k, SolverDiverged(f"Lyapunov residual {residual} exceeds tolerance")
            )
    return P, norms, errors


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
    A = _as_matrix(A, "A", square=True)
    W = _check_symmetric(_as_matrix(W, "W", square=True), "W")
    rho = spectral_radius(A)
    if rho >= 1.0 - cfg.stability_margin:
        raise Unstable(f"rho(A) = {rho} is not inside the stability margin")
    P, _, errors = _solve_dlyap_certified(A[None], W[None], cfg)
    if errors:
        raise errors.pop(0)
    return P[0]


def solve_dlyap_primal(A, W, cfg=DEFAULT_CONFIG):
    """Unique PSD solution of Sigma = W + A Sigma A^T (transposed recursion)."""
    return solve_dlyap_dual(np.asarray(A, dtype=float).T, W, cfg)


def lqr_gain(A, B, R, P):
    """State-feedback gain (R + B^T P B)^{-1} B^T P A for a given value
    matrix; SingularInnovation if the innovation R + B^T P B is singular."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    P = np.atleast_2d(np.asarray(P, dtype=float))
    S = R + B.T @ P @ B
    if _is_singular(S):
        raise SingularInnovation("innovation R + B^T P B is numerically singular")
    return np.linalg.solve(S, B.T @ P @ A)


def _solve_dare(A, B, Q, R, cfg, equation):
    """Fixed-point iteration of the control Riccati equation on validated
    data, with the stabilizing-gain check; equation names it in errors."""
    P = Q.copy()
    for _ in range(cfg.max_iter):
        gain = lqr_gain(A, B, R, P)
        P_next = _symmetrize(Q + A.T @ P @ A - A.T @ P @ B @ gain)
        # The map residual at P equals the Riccati residual, so returning
        # the pre-update iterate certifies the equation directly.
        if np.linalg.norm(P_next - P) <= cfg.tol * (1.0 + np.linalg.norm(P)):
            if spectral_radius(A - B @ gain) >= 1.0:
                raise SolverDiverged(f"{equation} Riccati gain is not stabilizing")
            return P
        P = P_next
    raise SolverDiverged(f"{equation} Riccati iteration exhausted max_iter")


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
    A = _as_matrix(A, "A", square=True)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = _check_symmetric(_as_matrix(Q, "Q", square=True), "Q")
    R = _check_symmetric(_as_matrix(R, "R", square=True), "R")
    if not is_controllable(A, B):
        raise AssumptionViolated("(A, B) must be controllable")
    if not is_observable(psd_sqrt(Q), A):
        raise AssumptionViolated("(Q^{1/2}, A) must be observable")
    return _solve_dare(A, B, Q, R, cfg, "control")


def solve_dare_filter(A, C, W, cfg=DEFAULT_CONFIG):
    """Stabilizing solution of the filter Riccati equation.

        Sigma = W + A Sigma A^T - A Sigma C^T (C Sigma C^T)^{-1} C Sigma A^T

    is the control equation on the dual data (A^T, C^T, W, R = 0), and is
    solved by the same fixed-point iteration, started from Sigma = W.

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
    A = _as_matrix(A, "A", square=True)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    W = _check_symmetric(_as_matrix(W, "W", square=True), "W")
    if not is_observable(C, A):
        raise AssumptionViolated("(C, A) must be observable")
    d = C.shape[0]
    return _solve_dare(A.T, C.T, W, np.zeros((d, d)), cfg, "filter")


def filter_gain(A, C, Sigma):
    """Observer gain A Sigma C^T (C Sigma C^T)^{-1} for a given correlation:
    the transposed control gain of the dual data (A^T, C^T, R = 0), which
    raises SingularInnovation if C Sigma C^T is singular."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return lqr_gain(A.T, C.T, 0.0, Sigma).T


def psd_sqrt(M):
    """Symmetric PSD square root via eigendecomposition (negatives clipped)."""
    M = _check_symmetric(_as_matrix(M, "M", square=True), "M")
    w, V = np.linalg.eigh(M)
    w = np.clip(w, 0.0, None)
    return V @ np.diag(np.sqrt(w)) @ V.T


def controllability_matrix(A, B):
    """Kalman controllability matrix [B, AB, ..., A^{n-1}B]."""
    A = _as_matrix(A, "A", square=True)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def has_full_row_rank(M):
    """Numerical full-row-rank test: at most as many rows as columns, and
    not singular by the singular-value rule."""
    return M.shape[0] <= M.shape[1] and not _is_singular(M)


def is_controllable(A, B):
    """Kalman rank test for controllability of (A, B)."""
    return has_full_row_rank(controllability_matrix(A, B))


def is_observable(C, A):
    """Kalman rank test for observability of (C, A), by duality."""
    A = _as_matrix(A, "A", square=True)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return is_controllable(A.T, C.T)


def rank_tests(A, B, C, Q):
    """Kalman-rank verdicts for the plant assumptions.

    Returns
    -------
    dict
        controllable: (A, B) controllable;
        observable_CA: (C, A) observable;
        observable_QA: (Q^{1/2}, A) observable.
    """
    return {
        "controllable": is_controllable(A, B),
        "observable_CA": is_observable(C, A),
        "observable_QA": is_observable(psd_sqrt(Q), A),
    }
