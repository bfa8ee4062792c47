"""Stability-safeguarded gradient descent over (A_K, B_K, C_K).

Plain gradient descent with backtracking line search on the stacked
controller parameters. A trial step outside the stabilizing set (where the
cost is infinite) is rejected by its evaluation, which raises after the
spectral check and before any Lyapunov solve; acceptance additionally
requires Armijo decrease.
The trial step is the Barzilai-Borwein (BB1) quotient from the previous
accepted step, which keeps progress alive in the ill-conditioned valley
around the stationary point where fixed small steps stall.

The worst of that valley runs along the similarity orbit, where the cost
changes only through the controller's coordinates and the orbit minimum
has a closed form (optimal_transform). After every CANON_EVERY-th
accepted step the descent therefore moves the accepted candidate to its
optimal transform, an orbit jump, and keeps the jump only if its cost is
no higher; the jump belongs to that step, so the Armijo and monotone-cost
invariants still hold. The value matrix P of the jumped controller is a
congruence of the candidate's, but the state correlation Sigma is not,
because X stays fixed while the coordinates change; the jumped controller
is therefore evaluated once more, which also gives its gradient. A jump
resets the Barzilai-Borwein memory, whose quotient would span the change
of coordinates, and the next trial step is the last accepted one. The
jump is skipped, keeping the candidate, when the transform does not exist
(X12 or P12 singular, an unobservable candidate) or the jumped controller
fails its certificates.

DescentConfig holds every setting of the descent. The solves inside it
take none: each evaluation is certified to matops.SOLVER_RTOL, as
everywhere else."""

import math
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
from .gradient import analytic_gradient
from .matops import (
    filter_gain,
    lqr_gain,
    solve_dare_control,
    solve_dare_filter,
)
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
STABILITY_BOUNDARY = "stability_boundary"

# Backtracking budget per iteration; exhausting it means no acceptable
# step exists in the search ray, which happens against the stability
# boundary (or once J sits at its floating-point floor).
MAX_BACKTRACKS = 120

# Accepted steps between orbit jumps. On seeds 3-9 of both scalar examples
# a cadence of 5, 10 or 20 took 1329, 1400 or 1745 iterations in total,
# against 13117 without jumps; on fourteen random 2- and 3-state plants
# under a capped iteration budget, 5 took the fewest evaluations in total.
# A jump at every step keeps resetting the Barzilai-Borwein memory and
# stalls.
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


@dataclass(frozen=True)
class DescentConfig:
    """Line-search parameters: initial step, backtracking factor, Armijo
    constant, iteration budget, and gradient-norm stopping tolerance.
    step0 and grad_tol must be positive and finite."""

    step0: float = 1e-2
    backtrack_factor: float = 0.5
    armijo_c: float = 1e-4
    max_iter: int = 100_000
    grad_tol: float = 1e-8

    def __post_init__(self):
        for name in ("step0", "grad_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_DESCENT_CONFIG = DescentConfig()


@dataclass(frozen=True, eq=False)
class DescentStep:
    """One accepted iterate: controller, its cost, its gradient norm, the
    step size that produced it (0.0 for the initial point), and whether the
    line-search candidate was then moved to its optimal transform.

    The counters explain the work behind the step: evaluations is the
    number of evaluate calls it took (line-search trials, the orbit jump;
    1 for the initial point), backtracks the number of times the trial step
    was shrunk, and rejected_unstable how many of those trials left the
    stabilizing set."""

    controller: object
    J: float
    grad_norm: float
    step: float
    canonicalized: bool = False
    backtracks: int = 0
    rejected_unstable: int = 0
    evaluations: int = 0


@dataclass(frozen=True, eq=False)
class DescentTrace:
    """Accepted iterates in order plus the terminal status, one of
    "converged", "max_iter", or "stability_boundary"."""

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
    def iterations(self):
        return len(self.steps) - 1

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
        """evaluate calls over the accepted steps; a final line search that
        found no step (status "stability_boundary") is not counted."""
        return sum(step.evaluations for step in self.steps)


def _grad_vector(grad):
    return controller_to_vector(grad.as_controller_direction())


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


def descend(plant, X, init, cfg=DEFAULT_DESCENT_CONFIG):
    """Gradient descent from a stabilizing initial controller.

    Parameters
    ----------
    init : Controller
        Must stabilize the plant.
    cfg : DescentConfig
        The line search and stop rule; the stability test is evaluate's,
        rho < 1 - matops.STABILITY_MARGIN.

    Returns
    -------
    DescentTrace
        Deterministic in (plant, X, init, cfg): the method draws no
        randomness.

    Raises
    ------
    NotStabilizing
        If init does not stabilize the plant.
    """
    X = as_second_moment(X, plant.n)
    report = evaluate(plant, init, X)
    grad = analytic_gradient(plant, init, X, report=report)
    controller, J = init, report.J
    theta, g_vec = controller_to_vector(init), _grad_vector(grad)
    steps = [
        DescentStep(controller=init, J=J, grad_norm=grad.norm, step=0.0, evaluations=1)
    ]
    prev_theta = prev_g = None
    # trial step without a usable BB quotient: step0 at the start, the last
    # accepted step after an orbit jump
    t_default = cfg.step0
    status = MAX_ITER
    for k in range(1, cfg.max_iter + 1):
        gnorm = float(np.linalg.norm(g_vec))
        if gnorm <= cfg.grad_tol:
            status = CONVERGED
            break
        t = t_default
        if prev_theta is not None:
            s = theta - prev_theta
            y = g_vec - prev_g
            sy = float(s @ y)
            if sy > 0.0:
                t = float(s @ s) / sy
            t = min(max(t, BB_STEP_MIN), BB_STEP_MAX)
        slack = NOISE_SLACK * (1.0 + abs(J))
        accepted = False
        rejected_unstable = 0
        for backtracks in range(MAX_BACKTRACKS):
            cand_vec = theta - t * g_vec
            cand = controller_from_vector(controller, cand_vec)
            try:
                cand_report = evaluate(plant, cand, X)
            except NotStabilizing:
                rejected_unstable += 1
            except SolverDiverged:
                # a stabilizing trial whose certificates fail
                pass
            else:
                if cand_report.J <= J - cfg.armijo_c * t * gnorm**2 + slack:
                    accepted = True
                    break
            t *= cfg.backtrack_factor
        if not accepted:
            status = STABILITY_BOUNDARY
            break
        evaluations = backtracks + 1
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
        controller, J, theta = cand, cand_report.J, cand_vec
        grad = analytic_gradient(plant, controller, X, report=cand_report)
        g_vec = _grad_vector(grad)
        steps.append(
            DescentStep(
                controller=controller,
                J=J,
                grad_norm=grad.norm,
                step=t,
                canonicalized=jump is not None,
                backtracks=backtracks,
                rejected_unstable=rejected_unstable,
                evaluations=evaluations,
            )
        )
    if status == MAX_ITER and steps[-1].grad_norm <= cfg.grad_tol:
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
    P_hat = solve_dare_control(plant.A, plant.B, plant.Q, plant.R)
    K0 = lqr_gain(plant.A, plant.B, plant.R, P_hat)
    Sigma_hat = solve_dare_filter(plant.A, plant.C, np.eye(plant.n))
    L0 = filter_gain(plant.A, plant.C, Sigma_hat)
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
