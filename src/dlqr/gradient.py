"""Analytic policy gradient of the cost in the controller parameters.

The gradient of J with respect to (A_K, B_K, C_K) has a closed form in
the blocks of the Lyapunov pair (P, Sigma) of the current closed loop.
On the absolute values of its factors the closed form gives T, which
bounds the gradient's rounding error by a small multiple of eps ||T||_F
(Higham 2002, ch. 3); `dlqr gradcheck` judges its discrepancy by T.
An independent numerical gradient is provided for cross-checking: the
complex-step derivative dJ/dtheta_c = Im J(theta + i h e_c) / h (Squire &
Trapp 1998, SIAM Rev. 40; Martins, Sturdza & Alonso 2003, ACM TOMS 29).
It subtracts nothing, so it is exact to rounding whatever the stiffness of
the loop.

The real part of every probe is the base loop, which evaluate has
certified, so no probe needs its own stability or PSD check, a smaller
step near the stability boundary, or a Lyapunov solve. The Lyapunov
equation is linear in P, so at the probe's loop A_0 + i h E_c and weight
W_0 + i h F_c its solution is P_0 + i h D_c, up to a relative term of
order h^2 that rounding drops, where the tangent D_c solves

    D_c = G_c + A_0^T D_c A_0,    G_c = Im(W_c + A_c^T P_0 A_c) / h,

with A_c, W_c the probe's complex loop, and the complex step is
Tr(D_c X) = Tr(G_c Sigma~) by the adjoint of the Lyapunov operator, where
Sigma~ = X + A_0 Sigma~ A_0^T is solved once for every coordinate. G_c is
formed in complex arithmetic, so no derivative is written by hand.
Sigma~ is the check's own certified solve, not the report's Sigma, which
analytic_gradient reads: a fault in that Sigma would pass both gradients
alike. A slice of the certified kernel solves as it would alone, so on a
sound report Sigma~ is that Sigma bit for bit."""

from dataclasses import dataclass

import numpy as np

from .cost import _chunk_size, _Gains, evaluate
from .matops import _solve_dlyap_certified
from .model import as_second_moment, assemble, controller_to_vector

# Imaginary step h of the complex-step derivative. Im J(theta + i h e_c)
# is h dJ/dtheta_c up to a term of order h^3, and no difference is taken,
# so h may be as small as the exponent range allows; 1e-30 puts that term
# far below rounding and is the customary choice.
COMPLEX_STEP = 1e-30


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
    return _closed_form(*_factors(plant, controller, report))


def _factors(plant, controller, report):
    # the arrays of the closed form, in _closed_form's argument order
    return (
        plant.A, plant.B, plant.C, plant.R, controller.A_K, controller.B_K,
        controller.C_K, report.P11, report.P12, report.P22, report.Sigma11,
        report.Sigma12, report.Sigma22,
    )


def _closed_form(A, B, C, R, A_K, B_K, C_K, P11, P12, P22, S11, S12, S22):
    closed12 = P12.T @ A + P22 @ B_K @ C
    closed22 = P12.T @ B @ C_K + P22 @ A_K

    dC_K = 2.0 * B.T @ (P11 @ A + P12 @ B_K @ C) @ S12 + 2.0 * (
        (R + B.T @ P11 @ B) @ C_K + B.T @ P12 @ A_K
    ) @ S22
    dB_K = 2.0 * closed12 @ S11 @ C.T + 2.0 * closed22 @ S12.T @ C.T
    dA_K = 2.0 * closed22 @ S22 + 2.0 * closed12 @ S12
    return GradientTriple(dA_K=dA_K, dB_K=dB_K, dC_K=dC_K)


def finite_difference_gradient(plant, controller, X):
    """Complex-step gradient of J, exact to rounding, for cross-checking
    analytic_gradient.

    One evaluate at the base point fails fast, with its stability screen,
    its certificates and its PSD floors, and gives P_0; one certified
    Lyapunov solve on the base loop A_0 gives Sigma~. Each coordinate c
    then takes one complex probe theta + i h e_c, with h = COMPLEX_STEP,
    whose assembled loop gives G_c, and dJ/dtheta_c = Tr(G_c Sigma~). No
    probe takes an eigen-decomposition or a Lyapunov solve.

    Raises
    ------
    NotStabilizing, SolverDiverged
        As evaluate raises them at the base point, or SolverDiverged if
        Sigma~ fails its certificate.
    """
    X = as_second_moment(X, plant.n)
    P0 = evaluate(plant, controller, X).P  # fails fast at the base point
    A0 = assemble(plant, controller).A_cl
    (Sigma,), _, _, errors = _solve_dlyap_certified(A0.T[None], X.X[None])
    if errors:
        raise errors.pop(0)
    theta = controller_to_vector(controller)
    splits = np.cumsum([controller.A_K.size, controller.B_K.size])
    shapes = (controller.A_K.shape, controller.B_K.shape, controller.C_K.shape)
    q = theta.size
    probes = np.tile(theta.astype(complex), (q, 1))
    probes[np.arange(q), np.arange(q)] += 1j * COMPLEX_STEP
    gains = [
        block.reshape((q,) + shape)
        for block, shape in zip(np.split(probes, splits, axis=1), shapes)
    ]
    size = _chunk_size(plant.n)
    # Tr(G_c Sigma~) of symmetric Sigma~ is the dot product of their
    # row-major entries, one matmul per slice as matops._fro takes it
    sigma = Sigma.reshape(-1, 1)
    dJ = np.empty(q)
    for start in range(0, q, size):
        loop = assemble(plant, _Gains(*(g[start : start + size] for g in gains)))
        A_c = loop.A_cl
        G = (loop.W_cl + A_c.swapaxes(-1, -2) @ P0 @ A_c).imag / COMPLEX_STEP
        dJ[start : start + size] = np.matmul(G.reshape(len(G), 1, -1), sigma).ravel()
    dA_K, dB_K, dC_K = (
        block.reshape(shape) for block, shape in zip(np.split(dJ, splits), shapes)
    )
    return GradientTriple(dA_K=dA_K, dB_K=dB_K, dC_K=dC_K)
