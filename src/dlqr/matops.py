"""Dense linear-algebra kernels: discrete Lyapunov and Riccati solvers,
spectral radius, and Kalman rank tests.

All routines work on plain numpy arrays and are pure functions of their
inputs. Problems here are desk-scale, so the Lyapunov equation is solved
by an exact dense solve (Kronecker vectorization) for small closed loops
and by a squaring iteration for larger ones. Both routes are private:
_solve_dlyap_certified, which the cost module's closed-loop pass calls,
picks one by size and certifies its solutions by their backward error

    ||P - W - A^T P A||_F <= SOLVER_RTOL * (||W||_F + (1 + ||A||_F^2) ||P||_F),

the residual that rounding alone leaves in a solution of the size of P
(Higham 2002), so the verdict does not depend on the route. Because that
residual measures rounding, not a preference, SOLVER_RTOL is a module
constant and no solver takes a tolerance argument.

Each Lyapunov route works on a stack of N matrices of one size. Every
stacked step is the same per-slice numpy or LAPACK operation as its 2-d
form, so a slice's result is bit-identical to solving it alone. Per-slice
decisions (stop rules, certificates) compare Python floats, which on the
few slices of a stack is cheaper than numpy's per-call cost. Each
certificate passes only on `value <= bound`, which a NaN fails.
"""

import math

import numpy as np

from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    NonSquare,
    SingularInnovation,
    SolverDiverged,
)

# Closed-loop dimension at or below which the Lyapunov solve is a direct
# Kronecker linear solve; above it the squaring iteration is used. Set from
# the stacked pass of one finite-difference gradient, per probe, with the
# chunks each route gets (medians over 5 generated plants, one BLAS
# thread, 2-core x86 machine; microseconds, Kronecker / doubling):
#   m = 2: 37 / 53, m = 4: 40 / 41, m = 6: 172 / 48, m = 8: 416 / 69,
#   m = 10: 767 / 96, m = 12: 1523 / 105, m = 16: 4898 / 176.
# A single evaluate favours the Kronecker route up to m = 6 (369 / 410 us
# there) and the doubling route from m = 8 (460 / 422 us).
KRON_DIM_LIMIT = 4

# The one singular-value rule of every rank and invertibility decision: a
# matrix counts as numerically singular (rank deficient) when
# sigma_min <= SINGULAR_RTOL * sigma_max.
SINGULAR_RTOL = 1e-10

# Rounding floor of the symmetry and PSD checks: an asymmetry, or a
# negative eigenvalue, up to PSD_RTOL * (1 + ||M||_F) is accepted.
PSD_RTOL = 1e-9

# Relative tolerance tol of every solver certificate: a Riccati iteration
# stops once successive iterates differ by at most tol (1 + ||P||_F), a
# Lyapunov solution of P = W + A^T P A must leave a residual of at most
# tol (||W||_F + (1 + ||A||_F^2) ||P||_F), and the doubling iteration stops
# once its increment is at most tol/2 ||P||_F. The solvers read it at call
# time.
SOLVER_RTOL = 1e-12

# Iteration budget of the doubling Lyapunov route and of the Riccati loop.
MAX_ITER = 100_000

# The epsilon of the one stability test rho < 1 - STABILITY_MARGIN, applied
# by evaluate's spectral screen and by model.is_stabilizing alike.
STABILITY_MARGIN = 1e-9


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


def _check_shape(M, name, shape):
    """DimensionMismatch unless the matrix M has the shape its partners
    give it."""
    if M.shape != shape:
        raise DimensionMismatch(f"{name} must be {shape[0]}x{shape[1]}, got {M.shape}")


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
    """Whether the smallest eigenvalue lam of a matrix with Frobenius norm
    norm falls below the PSD rounding floor; a NaN does."""
    return not lam >= -PSD_RTOL * (1.0 + norm)


def _check_psd(M, name, error=AssumptionViolated, definite=False):
    """Smallest eigenvalue of the symmetric matrix M, after checking that M
    is positive semidefinite up to the rounding floor or, if definite is
    set, that the eigenvalue is positive. A failed check raises error."""
    lam = float(_min_eig(M))
    if definite:
        if not lam > 0.0:
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
    """Kronecker solves of P = W + A^T P A for stacks A and W of (N, n, n).

    Vectorizing row-major, vec(A^T P A) = kron(A^T, A^T) vec(P), so each P
    solves (I - kron(A^T, A^T)) vec(P) = vec(W); all N systems go to one
    stacked solve."""
    N, n = A.shape[0], A.shape[-1]
    At = A.swapaxes(-1, -2)
    # kron(A^T, A^T) from one outer product per slice: each entry is the
    # same single product as np.kron's, so the matrix is bit-identical and
    # far cheaper.
    kron = (At[:, :, None, :, None] * At[:, None, :, None, :]).reshape(N, n * n, n * n)
    lhs, rhs = np.eye(n * n) - kron, W.reshape(-1, n * n, 1)
    try:
        P = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        # A slice whose system overflowed fails the whole stacked solve.
        # Solved one by one, it alone fails, as NaN, which the residual
        # certificate rejects.
        rhs = np.broadcast_to(rhs, (N, n * n, 1))
        P = np.stack([_solve_or_nan(a, b) for a, b in zip(lhs, rhs)])
    return _symmetrize(P.reshape(N, n, n))


def _solve_or_nan(a, b):
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.full(b.shape, np.nan)


_UNCONVERGED = "doubling Lyapunov iteration exhausted MAX_ITER"


def _doubling_route(A, W):
    """Squaring iterations of P = W + A^T P A for stacks A and W of
    (N, n, n).

    Each slice accumulates partial sums of its series sum_k (A^T)^k W A^k
    while squaring A, and stops on its own rule: a converged slice leaves
    the stack, so none iterates past its stop. A slice whose increment is
    not finite stops too: its P stays non-finite from then on, and the
    residual certificate rejects it. Returns the solutions and the indices
    of the slices that exhausted MAX_ITER."""
    P, M = W.copy(), A.copy()
    out = np.empty(A.shape)
    live = np.arange(len(A))
    half_tol = 0.5 * SOLVER_RTOL
    for _ in range(MAX_ITER):
        increment = M.swapaxes(-1, -2) @ P @ M
        P = _symmetrize(P + increment)
        done = [
            not d > half_tol * p
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


def _solve_dlyap_certified(A, W):
    """Solutions of P = W + A^T P A over a stack, by the route of their
    size, each with its backward-error certificate
    ||P - W - A^T P A||_F <= SOLVER_RTOL * (||W||_F + (1 + ||A||_F^2) ||P||_F).

    A is (N, m, m), validated and known to be stable; W is a symmetric
    (N, m, m) stack. Returns the solutions, their residual matrices
    P - W - A^T P A, the list of the solutions' Frobenius norms, and a dict
    from slice index to the SolverDiverged of each slice that failed: the
    doubling budget ran out, the solution is not finite, or the certificate
    fails. A bound that is not finite certifies nothing, so it fails
    too."""
    if A.shape[-1] <= KRON_DIM_LIMIT:
        P, unconverged = _kron_route(A, W), ()
    else:
        P, unconverged = _doubling_route(A, W)
    errors = {int(k): SolverDiverged(_UNCONVERGED) for k in unconverged}
    R = P - W - A.swapaxes(-1, -2) @ P @ A
    norms = _fro(P).tolist()
    slices = zip(_fro(R).tolist(), norms, _fro(W).tolist(), _fro(A).tolist())
    for k, (residual, norm, weight, a) in enumerate(slices):
        if residual <= SOLVER_RTOL * (weight + (1.0 + a * a) * norm) < math.inf:
            continue
        if math.isfinite(norm):
            exc = SolverDiverged(f"Lyapunov residual {residual} exceeds tolerance")
        else:
            exc = SolverDiverged(f"Lyapunov solution is not finite: norm {norm}")
        errors.setdefault(k, exc)
    return P, R, norms, errors


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


def _solve_dare(A, B, Q, R, equation):
    """Fixed-point iteration of the control Riccati equation on validated
    data, with the stabilizing-gain check; equation names it in errors."""
    P = Q.copy()
    for _ in range(MAX_ITER):
        gain = lqr_gain(A, B, R, P)
        P_next = _symmetrize(Q + A.T @ P @ A - A.T @ P @ B @ gain)
        # The map residual at P equals the Riccati residual, so returning
        # the pre-update iterate certifies the equation directly.
        if np.linalg.norm(P_next - P) <= SOLVER_RTOL * (1.0 + np.linalg.norm(P)):
            if spectral_radius(A - B @ gain) >= 1.0:
                raise SolverDiverged(f"{equation} Riccati gain is not stabilizing")
            return P
        P = P_next
    raise SolverDiverged(f"{equation} Riccati iteration exhausted MAX_ITER")


def solve_dare_control(A, B, Q, R):
    """Stabilizing solution of the control Riccati equation.

    Fixed-point iteration on
        P <- Q + A^T P A - A^T P B (R + B^T P B)^{-1} B^T P A
    started from P = Q. The returned matrix satisfies the equation with
    residual <= SOLVER_RTOL * (1 + ||P||_F) and yields a stable gain.

    Parameters
    ----------
    A : (n, n), B : (n, m), Q : (n, n) symmetric PSD, R : (m, m) symmetric PSD
        R may be singular provided R + B^T P B stays invertible along the
        iteration.

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
    B = _as_matrix(B, "B")
    Q = _check_symmetric(_as_matrix(Q, "Q", square=True), "Q")
    R = _check_symmetric(_as_matrix(R, "R", square=True), "R")
    _check_shape(Q, "Q", A.shape)
    _check_shape(R, "R", (B.shape[1],) * 2)
    if not is_controllable(A, B):
        raise AssumptionViolated("(A, B) must be controllable")
    if not is_observable(psd_sqrt(Q), A):
        raise AssumptionViolated("(Q^{1/2}, A) must be observable")
    return _solve_dare(A, B, Q, R, "control")


def solve_dare_filter(A, C, W):
    """Stabilizing solution of the filter Riccati equation.

        Sigma = W + A Sigma A^T - A Sigma C^T (C Sigma C^T)^{-1} C Sigma A^T

    is the control equation on the dual data (A^T, C^T, W, R = 0), and is
    solved by the same fixed-point iteration, started from Sigma = W.

    Parameters
    ----------
    A : (n, n), C : (d, n), W : (n, n) symmetric PSD
        The innovation C Sigma C^T must stay invertible along the iteration.

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
    C = _as_matrix(C, "C")
    W = _check_symmetric(_as_matrix(W, "W", square=True), "W")
    _check_shape(W, "W", A.shape)
    if not is_observable(C, A):
        raise AssumptionViolated("(C, A) must be observable")
    d = C.shape[0]
    return _solve_dare(A.T, C.T, W, np.zeros((d, d)), "filter")


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


def has_full_row_rank(M):
    """Numerical full-row-rank test: at most as many rows as columns, and
    not singular by the singular-value rule."""
    return M.shape[0] <= M.shape[1] and not _is_singular(M)


def is_controllable(A, B):
    """Kalman rank test for controllability of (A, B): the controllability
    matrix [B, AB, ..., A^{n-1}B] has full row rank."""
    A = _as_matrix(A, "A", square=True)
    B = _as_matrix(B, "B")
    _check_shape(B, "B", (A.shape[0], B.shape[1]))
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return has_full_row_rank(np.hstack(blocks))


def is_observable(C, A):
    """Kalman rank test for observability of (C, A), by duality."""
    A = _as_matrix(A, "A", square=True)
    C = _as_matrix(C, "C")
    _check_shape(C, "C", (C.shape[0], A.shape[0]))
    return is_controllable(A.T, C.T)
