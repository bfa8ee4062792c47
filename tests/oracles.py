"""Independent cross-check oracles and random instance factories.

Everything here is deliberately written against plain numpy arrays, not
against the package's own types, so a bug in the library cannot hide
inside its own test oracle. The one exception is finite_difference_oracle,
a central-difference gradient, coordinate by coordinate, independent of
the library's complex-step gradient; it calls the package's evaluate once
per probe."""

import numpy as np

import dlqr
from dlqr import Controller, NotStabilizing

# Halvings of a central-difference step before finite_difference_oracle
# gives up on a coordinate whose perturbation keeps leaving the stabilizing
# set.
FD_MAX_HALVINGS = 20


def scalar_dare_control_root(a, b, q, r):
    """Positive root of the scalar control Riccati equation.

    Clearing denominators in p = q + a^2 p - (a b p)^2 / (r + b^2 p)
    leaves a quadratic in p whose positive root is the stabilizing value.
    """
    b2 = b * b
    lin = (r * (1.0 - a * a) - q * b2) / b2
    const = -q * r / b2
    return 0.5 * (-lin + np.sqrt(lin * lin - 4.0 * const))


def scalar_lqr_gain(a, b, r, p):
    return b * p * a / (r + b * b * p)


def lyap_dual_oracle(A, W):
    """Direct Kronecker solve of P = W + A^T P A (row-major vec)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    W = np.atleast_2d(np.asarray(W, dtype=float))
    n = A.shape[0]
    P = np.linalg.solve(np.eye(n * n) - np.kron(A.T, A.T), W.ravel()).reshape(n, n)
    return 0.5 * (P + P.T)


def lyap_primal_oracle(A, W):
    return lyap_dual_oracle(np.asarray(A, dtype=float).T, W)


def closed_loop_oracle(A, B, C, A_K, B_K, C_K):
    """Joint transition matrix [[A, B C_K], [B_K C, A_K]]."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    A_K = np.atleast_2d(np.asarray(A_K, dtype=float))
    B_K = np.atleast_2d(np.asarray(B_K, dtype=float))
    C_K = np.atleast_2d(np.asarray(C_K, dtype=float))
    top = np.hstack([A, B @ C_K])
    bottom = np.hstack([B_K @ C, A_K])
    return np.vstack([top, bottom])


def stage_weight_oracle(Q, R, C_K):
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    C_K = np.atleast_2d(np.asarray(C_K, dtype=float))
    n = Q.shape[0]
    W = np.zeros((2 * n, 2 * n))
    W[:n, :n] = Q
    W[n:, n:] = C_K.T @ R @ C_K
    return W


def cost_oracle(A, B, C, Q, R, A_K, B_K, C_K, X):
    """J = Tr(P X) with P from the direct Kronecker Lyapunov solve."""
    A_cl = closed_loop_oracle(A, B, C, A_K, B_K, C_K)
    W_cl = stage_weight_oracle(Q, R, C_K)
    P = lyap_dual_oracle(A_cl, W_cl)
    return float(np.trace(P @ np.asarray(X, dtype=float)))


def series_cost_oracle(A, B, C, Q, R, A_K, B_K, C_K, X, terms=500):
    """J by truncated series sum of Tr(W_cl A_cl^t X A_cl^T t)."""
    A_cl = closed_loop_oracle(A, B, C, A_K, B_K, C_K)
    W_cl = stage_weight_oracle(Q, R, C_K)
    S = np.asarray(X, dtype=float).copy()
    total = 0.0
    for _ in range(terms):
        total += float(np.trace(W_cl @ S))
        S = A_cl @ S @ A_cl.T
    return total


def extended_cost_oracle(A, B, C, Q, R, A_K, B_K, C_K, X, max_squarings=100):
    """J = Tr(P X) with P = sum_k (A_cl^T)^k W_cl A_cl^k summed by repeated
    squaring in numpy's extended precision (np.longdouble, 64-bit mantissa
    on x86). Every term is PSD, so the sum has no cancellation, and it stops
    once a term no longer changes it. For loops whose Kronecker system is
    too ill-conditioned for cost_oracle."""
    ext = np.longdouble
    M = closed_loop_oracle(A, B, C, A_K, B_K, C_K).astype(ext)
    P = stage_weight_oracle(Q, R, C_K).astype(ext)
    for _ in range(max_squarings):
        term = M.T @ P @ M
        if np.all(P + term == P):
            break
        P = P + term
        M = M @ M
    return float(np.trace(P @ np.asarray(X, dtype=ext)))


def dare_control_fixed_point(A, B, Q, R, iters=20000, tol=1e-14):
    """Plain fixed-point control Riccati iteration, independent code path."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    P = Q.copy()
    for _ in range(iters):
        G = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        P_next = Q + A.T @ P @ A - A.T @ P @ B @ G
        P_next = 0.5 * (P_next + P_next.T)
        if np.linalg.norm(P_next - P) <= tol * (1.0 + np.linalg.norm(P)):
            return P_next
        P = P_next
    return P


def random_plant_arrays(rng, n, m, d):
    """Random plant matrices satisfying the standing assumptions.

    Requires d <= n (C must have full row rank). Resamples until the
    Kalman rank conditions hold, which they do generically.
    """
    assert d <= n
    while True:
        A = rng.normal(size=(n, n)) * (1.2 / np.sqrt(n))
        B = rng.normal(size=(n, m))
        C = rng.normal(size=(d, n))
        G = rng.normal(size=(n, n))
        Q = G @ G.T + 0.1 * np.eye(n)
        H = rng.normal(size=(m, m))
        R = H @ H.T + 0.5 * np.eye(m)
        sv_C = np.linalg.svd(C, compute_uv=False)
        if sv_C[-1] < 1e-3:
            continue
        if _kalman_controllable(A, B) and _kalman_controllable(A.T, C.T):
            return {"A": A, "B": B, "C": C, "Q": Q, "R": R}


def draw_plant(rng, n):
    """The generated-certify plant recipe of benchmark/reference.py, with
    numpy alone: A rescaled to open-loop spectral radius 1.05, one input
    and one output, Q = I, R = I and X = M M^T / (2n) + I. Returns the
    plant arrays and X."""
    A = rng.standard_normal((n, n))
    A *= 1.05 / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((n, 1))
    C = rng.standard_normal((1, n))
    M = rng.standard_normal((2 * n, 2 * n))
    X = M @ M.T / (2 * n) + np.eye(2 * n)
    return {"A": A, "B": B, "C": C, "Q": np.eye(n), "R": np.eye(1)}, X


def _kalman_controllable(A, B, rtol=1e-6):
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    M = np.hstack(blocks)
    sv = np.linalg.svd(M, compute_uv=False)
    return sv[0] > 0 and int(np.sum(sv > rtol * sv[0])) == n


def random_pd_second_moment(rng, n, min_cross_sv=0.1):
    """Random X > 0 of size 2n with a comfortably invertible cross block."""
    while True:
        M = rng.normal(size=(2 * n, 2 * n))
        X = M @ M.T + 0.5 * np.eye(2 * n)
        sv = np.linalg.svd(X[:n, n:], compute_uv=False)
        if sv[-1] >= min_cross_sv:
            return X


def random_invertible(rng, n, min_sv=0.1):
    while True:
        T = rng.normal(size=(n, n))
        if np.linalg.svd(T, compute_uv=False)[-1] >= min_sv:
            return T


def _fd_coordinate(plant, controller, X, mats, key, idx, base):
    # Central difference in one coordinate, shrinking the step if a
    # perturbation exits the stabilizing set.
    h = base
    for _ in range(FD_MAX_HALVINGS + 1):
        try:
            vals = []
            for sign in (1.0, -1.0):
                shifted = {k: v.copy() for k, v in mats.items()}
                shifted[key][idx] += sign * h
                probe = Controller(**shifted)
                vals.append(dlqr.evaluate(plant, probe, X).J)
            return (vals[0] - vals[1]) / (2.0 * h)
        except NotStabilizing:
            h *= 0.5
    raise NotStabilizing(
        f"finite difference in {key}{list(idx)} kept leaving the stabilizing set"
    )


def finite_difference_oracle(plant, controller, X, step=1e-6):
    """Central-difference gradient, coordinate by coordinate, one evaluate
    per probe: an independent reference for dlqr.finite_difference_gradient,
    accurate to its truncation error, O(step^2) relative.

    Each coordinate uses a relative step h = step * (1 + |theta_i|). Near
    the stability boundary the step is halved (up to FD_MAX_HALVINGS times)
    until both one-sided evaluations stay stabilizing.
    """
    dlqr.evaluate(plant, controller, X)  # fail fast at the base point
    mats = {"A_K": controller.A_K, "B_K": controller.B_K, "C_K": controller.C_K}
    grads = {}
    for key, M in mats.items():
        G = np.zeros_like(M)
        for idx in np.ndindex(M.shape):
            h = step * (1.0 + abs(M[idx]))
            G[idx] = _fd_coordinate(plant, controller, X, mats, key, idx, h)
        grads[key] = G
    return dlqr.GradientTriple(dA_K=grads["A_K"], dB_K=grads["B_K"], dC_K=grads["C_K"])
