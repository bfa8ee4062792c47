"""Dense linear-algebra kernels: discrete Lyapunov and Riccati solvers,
spectral radius, and the observability staircase.

All routines work on plain numpy arrays and are pure functions of their
inputs. Problems here are desk-scale, so the Lyapunov equation is solved
by an exact dense solve (Kronecker vectorization) for small closed loops
and by a squaring iteration for larger ones. Both routes are private:
_solve_dlyap_certified picks one by size and certifies its solutions by
their backward error. The cost module's certified pair, each
Newton-Hewer step of the Riccati solves below and the complex-step
gradient check's Sigma~ all solve through it. The backward error is

    ||P - W - A^T P A||_F <= SOLVER_RTOL * (||W||_F + (1 + ||A||_F^2) ||P||_F),

the residual that rounding alone leaves in a solution of the size of P
(Higham 2002), so the verdict does not depend on the route. Because that
residual measures rounding, not a preference, SOLVER_RTOL is a module
constant and no solver takes a tolerance argument.

Each Lyapunov route works on a stack of N operators A and N weights W of
one size. Every stacked step is the same per-slice numpy or LAPACK
operation as its 2-d form, so a slice's result is bit-identical to solving
it alone. Per-slice decisions (stop rules, certificates) compare
Python floats, which on the few slices of a stack is cheaper than numpy's
per-call cost. Each certificate passes only on `value <= bound`, which a
NaN fails.

A Riccati equation is solved in two phases. The fixed-point map from
P = Q runs only until its gain is stabilizing. Newton-Hewer steps then
converge quadratically (Kleinman 1968, Hewer 1971): each step is one
certified Lyapunov solve on the closed loop A - BK with weight Q + K^T R K.
The steps stop on the true Riccati residual, judged by the certificate
bound of the step's own loop,

    ||Q + A^T P A - A^T P B K - P||_F
        <= SOLVER_RTOL * (||Q + K^T R K||_F + (1 + ||A - BK||_F^2) ||P||_F),

so a returned solution is a backward-stable one, however slowly the
fixed-point map would have converged.
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
# Kronecker linear solve; above it the squaring iteration is used. Every
# slice of every solve has its own operator, as the two of evaluate's pair
# do (a Riccati step and the gradient check's Sigma are one such slice),
# so the switch is judged on evaluate. Per evaluate on each route (medians over 11 alternating rounds on 5 plants of
# each size, tests/oracles.draw_plant with observer-based controllers, rho
# 0.18 to 0.97; the middle of three such runs; one BLAS thread, 2-core x86
# machine; microseconds, Kronecker / doubling): m = 2: 140 / 196,
# m = 4: 178 / 311, m = 6: 195 / 241, m = 8: 269 / 253. The crossover lies
# near m = 8, so an evaluate at m = 6 pays about 24% for the limit of 4.
# Raising it would widen the route that loses digits: at K_star of the
# 40 census plants with n = 2 (m = 4), J by the Kronecker route is off by
# up to 1.2e-7 relative to an extended-precision oracle, by doubling by at
# most 4.9e-11.
KRON_DIM_LIMIT = 4

# The one singular-value rule of every rank and invertibility decision: a
# matrix counts as numerically singular (rank deficient) when
# sigma_min <= SINGULAR_RTOL * sigma_max.
SINGULAR_RTOL = 1e-10

# Rounding floor of the symmetry and PSD checks: an asymmetry, or a
# negative eigenvalue, up to PSD_RTOL * (1 + ||M||_F) is accepted.
PSD_RTOL = 1e-9

# Relative tolerance tol of every solver certificate: a Lyapunov solution
# of P = W + A^T P A must leave a residual of at most
# tol (||W||_F + (1 + ||A||_F^2) ||P||_F), the doubling iteration stops once
# its increment is at most tol/2 ||P||_F, and the Newton-Hewer Riccati steps
# stop once the Riccati residual is at most the Lyapunov bound of the loop
# A - BK with weight W = Q + K^T R K. The fixed-point start of a Riccati
# solve gives up, as not stabilizing, once successive iterates differ by at
# most tol (1 + ||P||_F). The solvers read it at call time.
SOLVER_RTOL = 1e-12

# Iteration budget of the doubling Lyapunov route, and of each phase of a
# Riccati solve: its fixed-point start and its Newton-Hewer steps.
MAX_ITER = 100_000

# The epsilon of the one stability test rho < 1 - STABILITY_MARGIN, applied
# by evaluate's spectral screen, by model.is_stabilizing and by the Riccati
# solver's gain check alike.
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
    """Frobenius norm of each matrix in the stack M: one dot product of the
    row-major entries, bit-identical to np.linalg.norm of the slice."""
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


def _check_psd(M, name, definite=False):
    """Smallest eigenvalue of the symmetric matrix M, after checking that M
    is positive semidefinite up to the rounding floor or, if definite is
    set, that M is positive definite and not singular by the singular-value
    rule, lambda_min > SINGULAR_RTOL * lambda_max. A failed check raises
    AssumptionViolated."""
    eig = np.linalg.eigvalsh(M)
    lam = float(eig[0])
    if definite:
        if not lam > SINGULAR_RTOL * float(eig[-1]):
            raise AssumptionViolated(f"{name} is not positive definite")
    elif _below_psd_floor(lam, np.linalg.norm(M)):
        raise AssumptionViolated(f"{name} is not positive semidefinite")
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
    return 8 * (m**4 if m <= KRON_DIM_LIMIT else m * m)


def _kron_route(A, W):
    """Kronecker solves of P = W + A^T P A for stacks A and W of (N, n, n).

    Vectorizing row-major, vec(A^T P A) = kron(A^T, A^T) vec(P), so each P
    solves (I - kron(A^T, A^T)) vec(P) = vec(W); all N systems go to one
    stacked solve, which factors each slice's system on its own, so that a
    slice's solution does not depend on its stack."""
    N, n = len(W), A.shape[-1]
    At = A.swapaxes(-1, -2)
    # kron(A^T, A^T) from one outer product per slice: each entry is the
    # same single product as np.kron's, so the matrix is bit-identical and
    # far cheaper.
    kron = (At[..., :, None, :, None] * At[..., None, :, None, :]).reshape(
        N, n * n, n * n
    )
    lhs, rhs = np.eye(n * n) - kron, W.reshape(N, n * n, 1)
    try:
        P = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        # A slice whose system overflowed fails the whole stacked solve.
        # Solved one by one, it alone fails, as NaN, which the residual
        # certificate rejects.
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
    residual certificate rejects it. Returns the solutions and the indices of the slices that exhausted
    MAX_ITER."""
    P, M = W.copy(), A.copy()
    out = np.empty(W.shape)
    live = np.arange(len(W))
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

    A is an (N, m, m) stack of operators, validated and known to be
    stable; W is a symmetric (N, m, m) stack.
    Returns the solutions, their residual matrices P - W - A^T P A, the
    list of the solutions' Frobenius norms, and a dict from slice index to
    the SolverDiverged of each slice that failed: the doubling budget ran
    out, the solution is not finite, or the certificate fails. A bound that
    is not finite certifies nothing, so it fails too."""
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


def _lqr_gain(A, B, R, P):
    """Gain (R + B^T P B)^{-1} B^T P A of the Riccati equation at P, on
    arrays of agreeing shapes, unchecked. R is the control equation's
    positive definite input weight, so R + B^T P B needs no singularity
    test, or None for the filter equation's zero weight, whose innovation
    B^T P B raises SingularInnovation if it is numerically singular."""
    S = B.T @ P @ B
    if R is None:
        if _is_singular(S):
            raise SingularInnovation("innovation C Sigma C^T is numerically singular")
    else:
        S = R + S
    return np.linalg.solve(S, B.T @ P @ A)


def _filter_gain(A, C, Sigma):
    """Observer gain A Sigma C^T (C Sigma C^T)^{-1}: the transposed control
    gain of the dual data (A^T, C^T, R = None), unchecked."""
    return _lqr_gain(A.T, C.T, None, Sigma).T


def _newton_weight(Q, R, gain):
    """Weight Q + K^T R K of the Lyapunov equation of the loop A - BK; Q
    alone for the filter equation (R None)."""
    return Q if R is None else _symmetrize(Q + gain.T @ R @ gain)


def _riccati_residual(A, B, Q, R, P, gain):
    """Backward error of P as a solution of the Riccati equation with its
    gain K: the residual ||Q + A^T P A - A^T P B K - P||_F over the
    certificate bound SOLVER_RTOL (||W||_F + (1 + ||A - BK||_F^2) ||P||_F)
    of the Lyapunov equation that the Newton-Hewer step solves on the loop
    A - BK with weight W = Q + K^T R K. At most 1 certifies P."""
    AtP = A.T @ P
    residual = float(np.linalg.norm(Q + AtP @ A - AtP @ B @ gain - P))
    closed = float(np.linalg.norm(A - B @ gain))
    weight = float(np.linalg.norm(_newton_weight(Q, R, gain)))
    norm = float(np.linalg.norm(P))
    return residual / (SOLVER_RTOL * (weight + (1.0 + closed * closed) * norm))


def _solve_dare(A, B, Q, R, equation):
    """Stabilizing solution P of the Riccati equation
    P = Q + A^T P A - A^T P B (R + B^T P B)^{-1} B^T P A on validated data,
    and its gain _lqr_gain(A, B, R, P); R None is the filter equation's
    zero input weight, and equation names the equation in errors.

    The fixed-point map runs from P = Q until its gain passes the stability
    test; it meets its stop rule first only if no gain it reaches is
    stabilizing. Newton-Hewer steps follow, each one certified Lyapunov
    solve, until _riccati_residual is at most 1. A step that lowers neither
    the residual nor trace(P) ends the solve, as does a final gain that
    fails the stability test."""
    P = Q
    for _ in range(MAX_ITER):
        gain = _lqr_gain(A, B, R, P)
        if spectral_radius(A - B @ gain) < 1.0 - STABILITY_MARGIN:
            break
        P_next = _symmetrize(Q + A.T @ P @ A - A.T @ P @ B @ gain)
        if np.linalg.norm(P_next - P) <= SOLVER_RTOL * (1.0 + np.linalg.norm(P)):
            raise SolverDiverged(f"{equation} Riccati gain is not stabilizing")
        P = P_next
    else:
        raise SolverDiverged(f"{equation} Riccati iteration exhausted MAX_ITER")
    last_residual = last_trace = math.inf
    for _ in range(MAX_ITER):
        closed, weight = A - B @ gain, _newton_weight(Q, R, gain)
        (P,), _, _, errors = _solve_dlyap_certified(closed[None], weight[None])
        if errors:
            raise SolverDiverged(f"{equation} Riccati step: {errors[0]}")
        gain = _lqr_gain(A, B, R, P)
        residual = _riccati_residual(A, B, Q, R, P, gain)
        if residual <= 1.0:
            if spectral_radius(A - B @ gain) >= 1.0 - STABILITY_MARGIN:
                raise SolverDiverged(f"{equation} Riccati gain is not stabilizing")
            return P, gain
        # The iterates decrease, P_1 >= P_2 >= ... (Hewer 1971), while the
        # residual may rise over the first steps; a step that lowers
        # neither has stalled on rounding.
        trace = float(np.trace(P))
        if not (residual < last_residual or trace < last_trace):
            raise SolverDiverged(
                f"{equation} Riccati residual stopped falling at {residual:.3g}"
                " times its bound"
            )
        last_residual, last_trace = residual, trace
    raise SolverDiverged(f"{equation} Riccati iteration exhausted MAX_ITER")


def solve_dare_control(plant):
    """Stabilizing solution of the plant's control Riccati equation, and
    its state-feedback gain.

    The equation

        P = Q + A^T P A - A^T P B (R + B^T P B)^{-1} B^T P A

    is solved by the fixed-point map from P = Q until its gain is
    stabilizing, then by Newton-Hewer steps, each one certified Lyapunov
    solve on the loop A - BK. The returned matrix leaves a Riccati residual
    within SOLVER_RTOL (||Q + K^T R K||_F + (1 + ||A - BK||_F^2) ||P||_F)
    and yields a gain with rho(A - BK) < 1 - STABILITY_MARGIN.

    Parameters
    ----------
    plant : Plant
        Its data are validated at construction, so no check is repeated.

    Returns
    -------
    P : (n, n) ndarray
    K : (m, n) ndarray
        (R + B^T P B)^{-1} B^T P A, computed from P itself.

    Raises
    ------
    SolverDiverged
        If no stabilizing gain is reached, a Newton-Hewer step fails its
        Lyapunov certificate, the residual stops falling or a budget is
        exhausted.
    """
    return _solve_dare(plant.A, plant.B, plant.Q, plant.R, "control")


def solve_dare_filter(plant, W):
    """Stabilizing solution of the plant's filter Riccati equation for the
    noise matrix W, and its observer gain.

        Sigma = W + A Sigma A^T - A Sigma C^T (C Sigma C^T)^{-1} C Sigma A^T

    is the control equation on the dual data (A^T, C^T, W, R = 0), and is
    solved the same way, from Sigma = W; each Newton-Hewer step solves a
    Lyapunov equation on the loop A - LC with weight W.

    Parameters
    ----------
    plant : Plant
    W : (n, n) array_like, symmetric PSD
        The one input the plant does not hold, so the one input checked.

    Returns
    -------
    Sigma : (n, n) ndarray
    L : (n, d) ndarray
        A Sigma C^T (C Sigma C^T)^{-1}, computed from Sigma itself.

    Raises
    ------
    AssumptionViolated
        If W has a non-finite entry, or is not symmetric PSD.
    NonSquare, DimensionMismatch
        If W is not n x n.
    SingularInnovation
        If C Sigma C^T becomes numerically singular.
    SolverDiverged
        If no stabilizing gain is reached, a Newton-Hewer step fails its
        Lyapunov certificate, the residual stops falling or a budget is
        exhausted.
    """
    W = _check_symmetric(_as_matrix(W, "W", square=True), "W")
    _check_shape(W, "W", plant.A.shape)
    _check_psd(W, "W")
    Sigma, gain = _solve_dare(plant.A.T, plant.C.T, W, None, "filter")
    return Sigma, gain.T


def has_full_row_rank(M):
    """Numerical full-row-rank test: at most as many rows as columns, and
    not singular by the singular-value rule. A scalar or a 1-d array is a
    one-row matrix; a non-finite entry raises AssumptionViolated."""
    M = _as_matrix(M, "M")
    return M.shape[0] <= M.shape[1] and not _is_singular(M)


def is_controllable(A, B):
    """Controllability of (A, B): is_observable's staircase on the dual
    pair (B^T, A^T), its blocks judged relative to sigma_max(B), then A's."""
    A = _as_matrix(A, "A", square=True)
    B = _as_matrix(B, "B")
    _check_shape(B, "B", (A.shape[0], B.shape[1]))
    return _staircase(B.T, A.T, _sigma_max(A))


def is_observable(C, A):
    """Observability of (C, A) by an orthogonal staircase (Paige 1981, Van
    Dooren 1981): an orthonormal basis V starts as range C^T and grows by
    the part of A^T N, N its last block, orthogonal to V, until it reaches
    n columns (observable) or a block is empty. Each block's rank is the
    singular-value rule relative to sigma_max(C) for the first, sigma_max(A)
    for the others, so no change of orthonormal basis or scaling of C or A
    alters the verdict; the Kalman matrix's rows turn parallel as n grows."""
    A = _as_matrix(A, "A", square=True)
    C = _as_matrix(C, "C")
    _check_shape(C, "C", (C.shape[0], A.shape[0]))
    return _staircase(C, A, _sigma_max(A))


def _sigma_max(A):
    # from an SVD: a Frobenius norm overflows above about 1e154
    return float(np.linalg.svd(A, compute_uv=False)[0])


def _staircase(C, A, a_max):
    """is_observable's verdict on validated C and square A of agreeing
    sizes, given a_max = sigma_max(A). Plant construction runs its three
    staircases through here with one a_max."""
    V = N = _block_basis(C.T)
    tol = SINGULAR_RTOL * a_max
    while N.shape[1] and V.shape[1] < len(A):
        Y = A.T @ N
        # twice (Parlett 1980): once leaves an error of eps over the kept
        # sigma ratio, enough to keep spurious directions on defective pairs
        Y -= V @ (V.T @ Y)
        Y -= V @ (V.T @ Y)
        N = _block_basis(Y, tol)
        V = np.hstack([V, N])
    return V.shape[1] == len(A)


def _block_basis(Y, tol=None):
    """Left singular vectors of Y whose singular values exceed tol, or
    SINGULAR_RTOL times the largest if tol is None. A one-column Y has
    one singular value, its 2-norm, so it is only normalized; math.hypot
    neither overflows nor underflows where the squares would."""
    if Y.shape[1] != 1:
        U, sv, _ = np.linalg.svd(Y, full_matrices=False)
        return U[:, sv > (SINGULAR_RTOL * sv[0] if tol is None else tol)]
    norm = math.hypot(*Y[:, 0].tolist())
    return Y / norm if norm > (SINGULAR_RTOL * norm if tol is None else tol) else Y[:, :0]
