"""Analytic policy gradient of the cost in the controller parameters.

The gradient of J with respect to (A_K, B_K, C_K) has a closed form in
the blocks of the Lyapunov pair (P, Sigma) of the current closed loop.
A central finite-difference gradient is provided for cross-checking; it
evaluates the probes of all coordinates in batched passes through the
stacked closed-loop pass of the cost module. The passes are screened from
the certified base point: a probe whose spectral radius and PSD margins
the base pair's bounds clear takes no eigen-decomposition, and every other
probe is judged as evaluate judges it."""

from dataclasses import dataclass

import numpy as np

from .cost import _Gains, _probe_base, _stacked_costs, evaluate
from .errors import NotStabilizing
from .model import Controller, as_second_moment, controller_to_vector

# Halvings of the finite-difference step before giving up on a coordinate
# whose perturbation keeps leaving the stabilizing set.
FD_MAX_HALVINGS = 20


@dataclass(frozen=True, eq=False)
class GradientTriple:
    """Partial derivatives of J with respect to the controller matrices."""

    dA_K: np.ndarray
    dB_K: np.ndarray
    dC_K: np.ndarray

    @property
    def norm(self):
        """Frobenius norm of the stacked parameter gradient."""
        return float(
            np.sqrt(
                np.sum(self.dA_K**2) + np.sum(self.dB_K**2) + np.sum(self.dC_K**2)
            )
        )

    def as_controller_direction(self):
        """The triple itself viewed as a step direction in controller space."""
        return Controller(A_K=self.dA_K, B_K=self.dB_K, C_K=self.dC_K)


def analytic_gradient(plant, controller, X, report=None):
    """Exact gradient of J at a stabilizing controller.

    Parameters
    ----------
    report : CostReport, optional
        Reuse an already computed cost report for this point instead of
        solving the Lyapunov pair again. The formulas are linear in the
        blocks of (P, Sigma), so reuse costs no Lyapunov solve; the report
        must belong to this (plant, controller) pair, which is not checked.

    Returns
    -------
    GradientTriple

    Raises
    ------
    NotStabilizing
        If the controller does not stabilize the plant.
    """
    if report is None:
        report = evaluate(plant, controller, X)
    A, B, C = plant.A, plant.B, plant.C
    R = plant.R
    A_K, B_K, C_K = controller.A_K, controller.B_K, controller.C_K
    P11, P12, P22 = report.P11, report.P12, report.P22
    S11, S12, S22 = report.Sigma11, report.Sigma12, report.Sigma22

    closed12 = P12.T @ A + P22 @ B_K @ C
    closed22 = P12.T @ B @ C_K + P22 @ A_K

    dC_K = 2.0 * B.T @ (P11 @ A + P12 @ B_K @ C) @ S12 + 2.0 * (
        (R + B.T @ P11 @ B) @ C_K + B.T @ P12 @ A_K
    ) @ S22
    dB_K = 2.0 * closed12 @ S11 @ C.T + 2.0 * closed22 @ S12.T @ C.T
    dA_K = 2.0 * closed22 @ S22 + 2.0 * closed12 @ S12
    return GradientTriple(dA_K=dA_K, dB_K=dB_K, dC_K=dC_K)


def _coordinate_name(controller, c):
    """Name of the parameter at index c of controller_to_vector's layout,
    as in "B_K[1, 0]"."""
    for key in ("A_K", "B_K", "C_K"):
        M = getattr(controller, key)
        if c < M.size:
            return f"{key}{list(divmod(c, M.shape[1]))}"
        c -= M.size


def finite_difference_gradient(plant, controller, X, step=1e-6):
    """Central-difference gradient, in batched passes over all coordinates.

    Each coordinate uses a relative step h = step * (1 + |theta_i|). One
    pass evaluates the +h and -h probes of every open coordinate in one
    stacked closed-loop pass. Near the stability boundary the step is
    halved, up to 20 times, until both one-sided evaluations stay
    stabilizing: a coordinate whose +h probe, or else whose -h probe, is
    not stabilizing halves its step and goes into the next pass. A solver
    failure of the probe so decided, or running out of halvings, raises;
    errors are resolved in coordinate order, so the exception is that of
    the first coordinate that fails. The base point's cost report screens
    the probes (see cost._probe_base), and the result is bit-identical to
    evaluating them one by one. A step that is not positive and finite
    raises ValueError.
    """
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step}")
    X = as_second_moment(X, plant.n)
    report = evaluate(plant, controller, X)  # fail fast at the base point
    base = _probe_base(plant, controller, report)
    X = X.X
    theta = controller_to_vector(controller)
    splits = np.cumsum([controller.A_K.size, controller.B_K.size])
    shapes = (controller.A_K.shape, controller.B_K.shape, controller.C_K.shape)
    h = step * (1.0 + np.abs(theta))
    grad = np.empty_like(theta)
    open_ = np.arange(theta.size)
    failure = None
    for _ in range(FD_MAX_HALVINGS + 1):
        q = len(open_)
        probes = np.tile(theta, (2 * q, 1))
        rows = np.arange(q)
        probes[rows, open_] += h[open_]
        probes[q + rows, open_] -= h[open_]
        gains = _Gains(
            *(
                block.reshape((2 * q,) + shape)
                for block, shape in zip(np.split(probes, splits, axis=1), shapes)
            )
        )
        J, _, errors = _stacked_costs(plant, gains, X, base)
        halve = []
        for j, c in enumerate(open_):
            exc = errors.get(j, errors.get(q + j))  # +h is decided before -h
            if exc is None:
                grad[c] = (J[j] - J[q + j]) / (2.0 * h[c])
            elif isinstance(exc, NotStabilizing):
                halve.append(c)
            else:
                failure = exc  # later coordinates no longer matter
                break
        h[halve] *= 0.5
        open_ = np.array(halve, dtype=int)
        if not len(open_):
            break
    else:
        failure = NotStabilizing(
            f"finite difference in {_coordinate_name(controller, int(open_[0]))} "
            "kept leaving the stabilizing set"
        )
    if failure is not None:
        raise failure
    dA_K, dB_K, dC_K = (
        block.reshape(shape) for block, shape in zip(np.split(grad, splits), shapes)
    )
    return GradientTriple(dA_K=dA_K, dB_K=dB_K, dC_K=dC_K)
