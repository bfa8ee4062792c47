"""Stability-safeguarded descent over (A_K, B_K, C_K): Gauss-Newton steps,
then gradient steps.

Both phases share one backtracking line search on the stacked controller
parameters. A trial step outside the stabilizing set (where the cost is
infinite) is rejected by its evaluation, which raises after the spectral
check and before any Lyapunov solve; acceptance additionally requires
Armijo decrease on the slope of the search direction. The search halves
the step until a trial is accepted or until the trial rounds to the
current iterate, where no step is left; it then reports none, without
evaluating the iterate again. The phases differ only in the direction,
its first trial step and its slope. A gradient search that finds no step
ends the descent "stalled": J sits at its rounding floor, or the
stability boundary blocks every trial.

The Gauss-Newton phase preconditions the gradient blockwise with blocks
the cost report already holds (_gauss_newton_direction), so each step
needs no Lyapunov solve beyond its evaluations; it tries the unit step
first. This is the Gauss-Newton step of Fazel et al. (2018, arXiv
1801.05039), whose unit step is Hewer's iteration for state feedback
(Bu, Mesbahi, Fazel & Mesbahi 2019, arXiv 1907.08921). It reaches the
stationary cost to rounding, but its gradient norm can stall well above
GRAD_TOL. The phase therefore hands over, once, to the gradient phase
when its predicted decrease g^T d falls within J's error, max(J_error,
NOISE_SLACK (1 + |J|)), when a preconditioning block is singular, or
when its line search finds no step. The gradient phase steps along the
raw gradient with the Barzilai-Borwein (BB1) quotient of the previous
accepted step as trial step, which keeps progress alive in the
ill-conditioned valley around the stationary point, and polishes the
gradient down to GRAD_TOL. On the six scalar-descent starts (Examples 1
and 2, seeds 0-2) the two phases take 178 iterations and 271 evaluations
in total; gradient steps alone took 581 and 1198.

The worst of that valley runs along the similarity orbit, where the cost
changes only through the controller's coordinates and the orbit minimum
has a closed form (optimal_transform). After every CANON_EVERY-th
accepted step, in either phase, the descent therefore moves the accepted
candidate to its optimal transform, an orbit jump, and keeps the jump
only if its cost is no higher; the jump belongs to that step, so the
Armijo and monotone-cost invariants still hold. The value matrix P of the
jumped controller is a congruence of the candidate's, but the state
correlation Sigma is not, because X stays fixed while the coordinates
change; the jumped controller is therefore evaluated once more, which
also gives its gradient. A jump resets the Barzilai-Borwein memory, whose
quotient would span the change of coordinates, and the next gradient
trial step is the last accepted one. The jump is skipped, keeping the
candidate, when the transform does not exist (X12 or P12 singular, an
unobservable candidate) or the jumped controller fails its certificates.

The iteration budget is the one setting of the descent; the line search
and the stop rule are module constants, read at call time. The solves
inside it take none: each evaluation is certified to matops.SOLVER_RTOL,
as everywhere else."""

import operator
from dataclasses import dataclass

import numpy as np

from .cost import evaluate
from .errors import (
    AssumptionViolated,
    InitFailed,
    NotObservable,
    NotStabilizing,
    OptimalTransformNotFound,
    SolverDiverged,
)
from .gradient import GradientTriple, analytic_gradient
from .matops import solve_dare_control, solve_dare_filter
from .model import (
    as_second_moment,
    controller_from_vector,
    controller_to_vector,
    is_observable_controller,
    is_stabilizing,
    observer_based,
)
from .similarity import apply, optimal_transform

CONVERGED = "converged"
MAX_ITER = "max_iter"
STALLED = "stalled"

# Phases of the descent, in the order it runs them.
GAUSS_NEWTON = "gauss_newton"
GRADIENT = "gradient"

# Default iteration budget of descend and of `dlqr descend --max-iter`: far
# above what a scalar example takes, so a default run ends on the stop rule.
ITERATION_BUDGET = 100_000

# First trial step of the gradient phase, before a Barzilai-Borwein
# quotient exists: a short move keeps the first trials near the point the
# Gauss-Newton phase handed over.
STEP0 = 1e-2

# Halving loses at most half of an acceptable step per rejected trial.
BACKTRACK_FACTOR = 0.5

# A small share of the first-order decrease, so that a long Barzilai-Borwein
# step is accepted whenever it lowers J by a fraction of what it promises.
ARMIJO_C = 1e-4

# Stop rule on the gradient norm, absolute: the scalar examples, whose J is
# of order ten, reach it, but where J is in the hundreds it lies below
# rounding and descent ends stalled or on its budget.
GRAD_TOL = 1e-8

# Accepted steps between orbit jumps, counted over both phases. Cadences
# of 1, 2, 3, 5, 10 and 20 took 637, 584, 478, 535, 1031 and 1795
# evaluations in total on seeds 3-9 of both scalar examples, and 13279
# without jumps. On fourteen random 2- and 3-state plants
# (tests/oracles.py, s = 0-6, seed-0 starts) they took 925, 872, 752, 781,
# 1196 and 1775 evaluations to reach the stationary cost; without jumps
# one plant of the fourteen reached it in 300 iterations. 3 and 5 differ
# by less than one seed's spread, and 5 is kept.
CANON_EVERY = 5

# Clip range for the Barzilai-Borwein trial step.
BB_STEP_MIN = 1e-12
BB_STEP_MAX = 1e8

# Armijo acceptance slack, scaled by 1 + |J|: decreases below the
# floating-point noise floor of J must still be acceptable, otherwise the
# iteration stalls with the gradient well above any useful tolerance.
NOISE_SLACK = 64.0 * np.finfo(float).eps

# Rejection-sampling budget for random initialization, the number of
# rejected samples after which the perturbation scale is halved, and the
# scale the sampling starts from.
MAX_INIT_ATTEMPTS = 1000
INIT_HALVE_EVERY = 100
INIT_NOISE_SCALE = 0.5


@dataclass(frozen=True, eq=False)
class DescentStep:
    """One accepted iterate: controller, its cost, its gradient norm, the
    step size that produced it (0.0 for the initial point), the J_error of
    the report it was accepted on, the phase whose line search found it
    ("gauss_newton" or "gradient"; "gauss_newton", where descent starts,
    for the initial point), and whether the line-search candidate was then
    moved to its optimal transform.

    The counters explain the work behind the step: evaluations is the
    number of evaluate calls it took (line-search trials, a Gauss-Newton
    search that found no step before it, the orbit jump; 1 for the initial
    point), backtracks the number of times the trial step was shrunk, and
    rejected_unstable how many of those trials left the stabilizing set."""

    controller: object
    J: float
    grad_norm: float
    step: float
    J_error: float
    phase: str
    canonicalized: bool = False
    backtracks: int = 0
    rejected_unstable: int = 0
    evaluations: int = 0


@dataclass(frozen=True, eq=False)
class DescentTrace:
    """Accepted iterates in order plus the terminal status, one of
    "converged", "max_iter", or "stalled" (a gradient line search found
    no step)."""

    steps: tuple
    status: str

    @property
    def final_controller(self):
        return self.steps[-1].controller

    @property
    def final_J(self):
        return self.steps[-1].J

    @property
    def final_grad_norm(self):
        return self.steps[-1].grad_norm

    @property
    def final_J_error(self):
        return self.steps[-1].J_error

    @property
    def iterations(self):
        return len(self.steps) - 1

    @property
    def gauss_newton_iterations(self):
        """Accepted steps of the Gauss-Newton phase, which come first."""
        return sum(step.phase == GAUSS_NEWTON for step in self.steps[1:])

    @property
    def canonicalizations(self):
        return sum(step.canonicalized for step in self.steps)

    @property
    def backtracks(self):
        return sum(step.backtracks for step in self.steps)

    @property
    def rejected_unstable(self):
        return sum(step.rejected_unstable for step in self.steps)

    @property
    def evaluations(self):
        """evaluate calls over the accepted steps; those of a final line
        search that found no step (status "stalled") are not counted."""
        return sum(step.evaluations for step in self.steps)


def _grad_vector(grad):
    """The gradient flattened as controller_to_vector flattens a controller."""
    return np.concatenate([grad.dA_K.ravel(), grad.dB_K.ravel(), grad.dC_K.ravel()])


def _orbit_jump(plant, cand, X, cand_report):
    """The candidate moved to its optimal similarity transform, with a
    fresh report, or None when the jump is unavailable or raises J; and
    the number of evaluate calls made (0 or 1)."""
    try:
        jumped = apply(cand, optimal_transform(plant, cand, X, report=cand_report))
    except (AssumptionViolated, NotObservable, OptimalTransformNotFound):
        # T* does not exist
        return None, 0
    try:
        report = evaluate(plant, jumped, X)
    except (NotStabilizing, SolverDiverged):
        # rounding in apply can move rho across the stability margin
        return None, 1
    if report.J > cand_report.J:
        return None, 1
    return (jumped, report), 1


def _gauss_newton_direction(plant, report, grad):
    """The gradient preconditioned blockwise by the blocks of the report,
    flattened as _grad_vector, or None when a block is singular:
    [dA_K dB_K] -> (2 P22)^-1 [dA_K dB_K] Cov^-1, where
    Cov = [[Sigma22, Sigma12^T C^T], [C Sigma12, C Sigma11 C^T]] is the
    second moment of the controller's state and input (xi, y), and
    dC_K -> (2 (R + B^T P11 B))^-1 dC_K Sigma22^-1.

    With (P, Sigma) held fixed, J is quadratic in each block with exactly
    these curvatures, so the unit step minimizes that model in each block;
    for C_K it is Hewer's policy-iteration update."""
    C, n = plant.C, plant.n
    S11, S12, S22 = report.Sigma11, report.Sigma12, report.Sigma22
    CS12 = C @ S12
    cov = np.block([[S22, CS12.T], [CS12, C @ S11 @ C.T]])
    H = plant.R + plant.B.T @ report.P11 @ plant.B
    try:
        dAB = np.linalg.solve(report.P22, np.hstack([grad.dA_K, grad.dB_K]))
        dAB = np.linalg.solve(cov, dAB.T).T
        dC = np.linalg.solve(S22, np.linalg.solve(H, grad.dC_K).T).T
    except np.linalg.LinAlgError:
        return None
    return 0.5 * _grad_vector(GradientTriple(dAB[:, :n], dAB[:, n:], dC))


def _line_search(plant, X, controller, theta, J, d, t, slope):
    """Backtracking search along -d from theta, starting at step t and
    halving it until a trial evaluates and meets Armijo decrease on slope,
    or until the trial theta - t d rounds to theta, where no step is left.
    Returns the accepted (t, vector, controller, report), or None for no
    step, and the number of evaluate calls made and of those that left the
    stabilizing set. For finite d and t <= BB_STEP_MAX, the trial reaches
    theta within about 1100 halvings, when t d underflows."""
    slack = NOISE_SLACK * (1.0 + abs(J))
    evaluations = rejected_unstable = 0
    while True:
        cand_vec = theta - t * d
        if (cand_vec == theta).all():
            return None, evaluations, rejected_unstable
        evaluations += 1
        cand = controller_from_vector(controller, cand_vec)
        try:
            cand_report = evaluate(plant, cand, X)
        except NotStabilizing:
            rejected_unstable += 1
        except SolverDiverged:
            # a stabilizing trial whose certificates fail
            pass
        else:
            if cand_report.J <= J - ARMIJO_C * t * slope + slack:
                return (t, cand_vec, cand, cand_report), evaluations, rejected_unstable
        t *= BACKTRACK_FACTOR


def descend(plant, X, init, max_iter=ITERATION_BUDGET):
    """Descent from a stabilizing initial controller: Gauss-Newton steps,
    then gradient steps.

    Parameters
    ----------
    init : Controller
        Must stabilize the plant.
    max_iter : int
        Iteration budget, at least 1. The line search and the stop rule are
        the module constants; the stability test is evaluate's,
        rho < 1 - matops.STABILITY_MARGIN.

    Returns
    -------
    DescentTrace
        Deterministic in (plant, X, init, max_iter): the method draws no
        randomness.

    Raises
    ------
    ValueError
        If max_iter is not an integer, or is below 1.
    NotStabilizing
        If init does not stabilize the plant.
    """
    try:
        max_iter = operator.index(max_iter)
    except TypeError:
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}") from None
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    X = as_second_moment(X, plant.n)
    report = evaluate(plant, init, X)
    grad = analytic_gradient(plant, init, X, report=report)
    controller, J = init, report.J
    theta, g_vec, gnorm = controller_to_vector(init), _grad_vector(grad), grad.norm
    steps = [
        DescentStep(
            controller=init,
            J=J,
            grad_norm=gnorm,
            step=0.0,
            J_error=report.J_error,
            phase=GAUSS_NEWTON,
            evaluations=1,
        )
    ]
    phase = GAUSS_NEWTON
    prev_theta = prev_g = None
    # trial step of the gradient phase without a usable BB quotient: STEP0
    # where the phase starts, the last accepted step after an orbit jump
    t_default = STEP0
    # the stop rule is judged on the start and on every accepted step, with
    # the gradient norm each step reports
    status = CONVERGED if gnorm <= GRAD_TOL else MAX_ITER
    k = 0
    while status == MAX_ITER and k < max_iter:
        k += 1
        found, evaluations, rejected_unstable = None, 0, 0
        if phase == GAUSS_NEWTON:
            d = _gauss_newton_direction(plant, report, grad)
            slope = np.nan if d is None else float(g_vec @ d)
            # searched only while the predicted decrease exceeds J's error
            if max(report.J_error, NOISE_SLACK * (1.0 + abs(J))) < slope < np.inf:
                found, evaluations, rejected_unstable = _line_search(
                    plant, X, controller, theta, J, d, 1.0, slope
                )
            if found is None:
                # hand over: the gradient phase takes this step, without
                # BB memory
                phase, prev_theta, t_default = GRADIENT, None, STEP0
        if phase == GRADIENT:
            t = t_default
            if prev_theta is not None:
                s = theta - prev_theta
                y = g_vec - prev_g
                sy = float(s @ y)
                if sy > 0.0:
                    t = float(s @ s) / sy
                t = min(max(t, BB_STEP_MIN), BB_STEP_MAX)
            found, trials, unstable = _line_search(
                plant, X, controller, theta, J, g_vec, t, gnorm**2
            )
            evaluations += trials
            rejected_unstable += unstable
        if found is None:
            status = STALLED
            break
        t, cand_vec, cand, cand_report = found
        backtracks = evaluations - 1
        jump = None
        if k % CANON_EVERY == 0:
            jump, jump_evaluations = _orbit_jump(plant, cand, X, cand_report)
            evaluations += jump_evaluations
        if jump is None:
            prev_theta, prev_g = theta, g_vec
        else:
            # the BB quotient would span the change of coordinates
            cand, cand_report = jump
            cand_vec = controller_to_vector(cand)
            prev_theta, t_default = None, t
        controller, report, J, theta = cand, cand_report, cand_report.J, cand_vec
        grad = analytic_gradient(plant, controller, X, report=report)
        g_vec, gnorm = _grad_vector(grad), grad.norm
        steps.append(
            DescentStep(
                controller=controller,
                J=J,
                grad_norm=gnorm,
                step=t,
                J_error=report.J_error,
                phase=phase,
                canonicalized=jump is not None,
                backtracks=backtracks,
                rejected_unstable=rejected_unstable,
                evaluations=evaluations,
            )
        )
        if gnorm <= GRAD_TOL:
            status = CONVERGED
    return DescentTrace(steps=tuple(steps), status=status)


def random_stabilizing_init(plant, seed):
    """Random stabilizing observable controller, deterministic in seed.

    Perturbs the observer-based gains (state feedback from the control
    Riccati solution, observer gain from the filter Riccati solution with
    unit process noise) entrywise by scale * U(-1, 1) * (1 + |gain|),
    rejection-resampling until the closed loop is stable and the
    realization observable. The scale starts at INIT_NOISE_SCALE and is
    halved after every INIT_HALVE_EVERY rejected samples, so plants whose
    stabilizing set is narrow around the observer-based gains (many inputs
    and outputs) still initialize, while the first INIT_HALVE_EVERY samples
    are the draws of a fixed scale.

    Raises
    ------
    InitFailed
        If no admissible sample is found in MAX_INIT_ATTEMPTS attempts.
    """
    rng = np.random.default_rng(seed)
    _, K0 = solve_dare_control(plant)
    _, L0 = solve_dare_filter(plant, np.eye(plant.n))
    for attempt in range(MAX_INIT_ATTEMPTS):
        scale = INIT_NOISE_SCALE * 0.5 ** (attempt // INIT_HALVE_EVERY)
        K = K0 + scale * rng.uniform(-1.0, 1.0, K0.shape) * (1.0 + np.abs(K0))
        L = L0 + scale * rng.uniform(-1.0, 1.0, L0.shape) * (1.0 + np.abs(L0))
        candidate = observer_based(plant, K, L)
        if is_stabilizing(plant, candidate) and is_observable_controller(candidate):
            return candidate
    raise InitFailed(
        f"no stabilizing observable controller in {MAX_INIT_ATTEMPTS} samples"
    )
