"""Problem data model: plant, dynamic controller, closed-loop assembly,
admissibility tests, observer-based construction, trajectory rollout, and
the JSON problem-file schema."""

import json
from dataclasses import dataclass

import numpy as np

from . import matops
from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    NotStabilizing,
    SchemaError,
)
from .matops import _as_matrix, _check_psd, _check_symmetric


@dataclass(frozen=True, eq=False)
class Plant:
    """Plant data (A, B, C, Q, R) for x' = Ax + Bu, y = Cx with cost
    weights Q on the state and R on the input.

    Validated at construction: Q symmetric PSD, R symmetric PD, C full row
    rank, (A, B) controllable, (C, A) and (Q^{1/2}, A) observable.
    Violations raise AssumptionViolated; shape conflicts raise
    DimensionMismatch.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        C = _as_matrix(self.C, "C")
        Q = _as_matrix(self.Q, "Q")
        R = _as_matrix(self.R, "R")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise DimensionMismatch(f"B must have {n} rows, got {B.shape}")
        if C.shape[1] != n:
            raise DimensionMismatch(f"C must have {n} columns, got {C.shape}")
        if Q.shape != (n, n):
            raise DimensionMismatch(f"Q must be {n}x{n}, got {Q.shape}")
        m = B.shape[1]
        if R.shape != (m, m):
            raise DimensionMismatch(f"R must be {m}x{m}, got {R.shape}")
        Q = _check_symmetric(Q, "Q")
        R = _check_symmetric(R, "R")
        _check_psd(Q, "Q")
        _check_psd(R, "R", definite=True)
        if not matops.has_full_row_rank(C):
            raise AssumptionViolated("C must have full row rank")
        if not matops.is_controllable(A, B):
            raise AssumptionViolated("(A, B) must be controllable")
        if not matops.is_observable(C, A):
            raise AssumptionViolated("(C, A) must be observable")
        if not matops.is_observable(matops.psd_sqrt(Q), A):
            raise AssumptionViolated("(Q^{1/2}, A) must be observable")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def d(self):
        return self.C.shape[0]


@dataclass(frozen=True, eq=False)
class Controller:
    """Full-order dynamic controller (A_K, B_K, C_K) with internal state
    xi' = A_K xi + B_K y and output u = C_K xi."""

    A_K: np.ndarray
    B_K: np.ndarray
    C_K: np.ndarray

    def __post_init__(self):
        A_K = _as_matrix(self.A_K, "A_K")
        B_K = _as_matrix(self.B_K, "B_K")
        C_K = _as_matrix(self.C_K, "C_K")
        n = A_K.shape[0]
        if A_K.shape != (n, n):
            raise DimensionMismatch(f"A_K must be square, got {A_K.shape}")
        if B_K.shape[0] != n:
            raise DimensionMismatch(f"B_K must have {n} rows, got {B_K.shape}")
        if C_K.shape[1] != n:
            raise DimensionMismatch(f"C_K must have {n} columns, got {C_K.shape}")
        object.__setattr__(self, "A_K", A_K)
        object.__setattr__(self, "B_K", B_K)
        object.__setattr__(self, "C_K", C_K)

    @property
    def n(self):
        return self.A_K.shape[0]


def controller_to_vector(controller):
    """Flatten (A_K, B_K, C_K) into one parameter vector, row-major."""
    return np.concatenate(
        [controller.A_K.ravel(), controller.B_K.ravel(), controller.C_K.ravel()]
    )


def controller_from_vector(template, vector):
    """Rebuild a Controller shaped like template from a flat vector."""
    vector = np.asarray(vector, dtype=float)
    sizes = [template.A_K.size, template.B_K.size, template.C_K.size]
    if vector.shape != (sum(sizes),):
        raise DimensionMismatch(
            f"expected vector of length {sum(sizes)}, got shape {vector.shape}"
        )
    a = vector[: sizes[0]].reshape(template.A_K.shape)
    b = vector[sizes[0] : sizes[0] + sizes[1]].reshape(template.B_K.shape)
    c = vector[sizes[0] + sizes[1] :].reshape(template.C_K.shape)
    return Controller(a, b, c)


@dataclass(frozen=True, eq=False)
class SecondMoment:
    """Second moment X = E[x0 x0^T] of the joint plant/controller initial
    state, with named blocks X11 (plant), X12 (cross), X22 (controller)."""

    X: np.ndarray

    def __post_init__(self):
        X = _as_matrix(self.X, "X")
        if X.shape[0] != X.shape[1] or X.shape[0] % 2 != 0:
            raise DimensionMismatch(f"X must be square of even size, got {X.shape}")
        X = _check_symmetric(X, "X")
        _check_psd(X, "X")
        object.__setattr__(self, "X", X)

    @property
    def n(self):
        return self.X.shape[0] // 2

    @property
    def X11(self):
        return self.X[: self.n, : self.n]

    @property
    def X12(self):
        return self.X[: self.n, self.n :]

    @property
    def X22(self):
        return self.X[self.n :, self.n :]


def as_second_moment(X, n=None):
    """Coerce an array or SecondMoment to a SecondMoment of half-size n."""
    if not isinstance(X, SecondMoment):
        X = SecondMoment(X)
    if n is not None and X.n != n:
        raise DimensionMismatch(f"X must be {2 * n}x{2 * n}, got {X.X.shape}")
    return X


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """Closed-loop pair: transition matrix A_cl and stage weight W_cl
    (stacks of them for stacked controller gains)."""

    A_cl: np.ndarray
    W_cl: np.ndarray


def assemble(plant, controller):
    """Closed loop of plant and controller.

    A_cl = [[A, B C_K], [B_K C, A_K]] drives the joint state; the stage
    weight is W_cl = blockdiag(Q, C_K^T R C_K). controller may also carry
    stacks of N gains, (N, n, n), (N, n, d) and (N, m, n); the loop is then
    the (N, 2n, 2n) stack of each slice's loop.
    """
    A_K, B_K, C_K = controller.A_K, controller.B_K, controller.C_K
    n, m, d = plant.n, plant.m, plant.d
    if A_K.shape[-1] != n:
        raise DimensionMismatch(
            f"controller order {A_K.shape[-1]} does not match plant order {n}"
        )
    if B_K.shape[-1] != d:
        raise DimensionMismatch(f"B_K must have {d} columns, got {B_K.shape[-2:]}")
    if C_K.shape[-2] != m:
        raise DimensionMismatch(f"C_K must have {m} rows, got {C_K.shape[-2:]}")
    # Filled block by block: np.block would cost more than the products.
    shape = A_K.shape[:-2] + (2 * n, 2 * n)
    A_cl = np.empty(shape)
    A_cl[..., :n, :n] = plant.A
    A_cl[..., :n, n:] = plant.B @ C_K
    A_cl[..., n:, :n] = B_K @ plant.C
    A_cl[..., n:, n:] = A_K
    W_cl = np.zeros(shape)
    W_cl[..., :n, :n] = plant.Q
    W_cl[..., n:, n:] = C_K.swapaxes(-1, -2) @ plant.R @ C_K
    return ClosedLoop(A_cl, W_cl)


def is_stabilizing(plant, controller):
    """True iff the closed-loop spectral radius is below
    1 - matops.STABILITY_MARGIN, the threshold of evaluate's screen."""
    loop = assemble(plant, controller)
    return matops.spectral_radius(loop.A_cl) < 1.0 - matops.STABILITY_MARGIN


def is_observable_controller(controller):
    """Kalman observability of the pair (C_K, A_K)."""
    return matops.is_observable(controller.C_K, controller.A_K)


def observer_based(plant, K_gain, L_gain):
    """Observer-based controller from state-feedback and observer gains:
    A_K = A - B K - L C, B_K = L, C_K = -K."""
    K = np.atleast_2d(np.asarray(K_gain, dtype=float))
    L = np.atleast_2d(np.asarray(L_gain, dtype=float))
    n, m, d = plant.n, plant.m, plant.d
    if K.shape != (m, n):
        raise DimensionMismatch(f"K_gain must be {m}x{n}, got {K.shape}")
    if L.shape != (n, d):
        raise DimensionMismatch(f"L_gain must be {n}x{d}, got {L.shape}")
    A_K = plant.A - plant.B @ K - L @ plant.C
    return Controller(A_K, L, -K)


def rollout_cost(plant, controller, X, horizon):
    """Truncated-horizon cost sum_{t<horizon} Tr(W_cl A_cl^t X (A_cl^T)^t).

    Propagates the second moment forward exactly, so the value is the
    expected finite-horizon cost with no sampling. Converges to the
    infinite-horizon cost as the horizon grows.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not is_stabilizing(plant, controller):
        raise NotStabilizing("rollout_cost requires a stabilizing controller")
    loop = assemble(plant, controller)
    S = as_second_moment(X, plant.n).X.copy()
    total = 0.0
    for _ in range(horizon):
        total += float(np.trace(loop.W_cl @ S))
        S = loop.A_cl @ S @ loop.A_cl.T
    return total


@dataclass(frozen=True, eq=False)
class Problem:
    """A parsed problem file: plant, second moment, optional seed controller."""

    plant: Plant
    X: SecondMoment
    seed_controller: Controller | None


_MATRIX_KEYS = {"rows", "cols", "data"}
_PROBLEM_KEYS = {"A", "B", "C", "Q", "R", "X", "seed_controller"}
_CONTROLLER_KEYS = {"A_K", "B_K", "C_K"}


def matrix_from_wire(obj, name):
    """Decode one {"rows", "cols", "data"} wire matrix; strict schema."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{name} must be an object with rows/cols/data")
    unknown = set(obj) - _MATRIX_KEYS
    if unknown:
        raise SchemaError(f"{name} has unknown keys: {sorted(unknown)}")
    missing = _MATRIX_KEYS - set(obj)
    if missing:
        raise SchemaError(f"{name} is missing keys: {sorted(missing)}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 1 or cols < 1:
        raise SchemaError(f"{name}: rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise SchemaError(f"{name}: data must list rows*cols = {rows * cols} numbers")
    try:
        M = np.asarray(data, dtype=float).reshape(rows, cols)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{name}: data entries must be numbers") from exc
    if not np.all(np.isfinite(M)):
        raise SchemaError(f"{name}: data entries must be finite")
    return M


def matrix_to_wire(M):
    """Encode a matrix as {"rows", "cols", "data"} with row-major data."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {"rows": M.shape[0], "cols": M.shape[1], "data": [float(v) for v in M.ravel()]}


def controller_from_wire(obj, name="seed_controller"):
    if not isinstance(obj, dict):
        raise SchemaError(f"{name} must be an object with A_K/B_K/C_K")
    unknown = set(obj) - _CONTROLLER_KEYS
    if unknown:
        raise SchemaError(f"{name} has unknown keys: {sorted(unknown)}")
    missing = _CONTROLLER_KEYS - set(obj)
    if missing:
        raise SchemaError(f"{name} is missing keys: {sorted(missing)}")
    return Controller(
        matrix_from_wire(obj["A_K"], f"{name}.A_K"),
        matrix_from_wire(obj["B_K"], f"{name}.B_K"),
        matrix_from_wire(obj["C_K"], f"{name}.C_K"),
    )


def parse_problem(obj):
    """Build a Problem from a decoded JSON object; strict schema."""
    if not isinstance(obj, dict):
        raise SchemaError("problem file must contain a JSON object")
    unknown = set(obj) - _PROBLEM_KEYS
    if unknown:
        raise SchemaError(f"problem has unknown keys: {sorted(unknown)}")
    missing = (_PROBLEM_KEYS - {"seed_controller"}) - set(obj)
    if missing:
        raise SchemaError(f"problem is missing keys: {sorted(missing)}")
    plant = Plant(
        matrix_from_wire(obj["A"], "A"),
        matrix_from_wire(obj["B"], "B"),
        matrix_from_wire(obj["C"], "C"),
        matrix_from_wire(obj["Q"], "Q"),
        matrix_from_wire(obj["R"], "R"),
    )
    X = as_second_moment(matrix_from_wire(obj["X"], "X"), plant.n)
    seed = None
    if "seed_controller" in obj:
        seed = controller_from_wire(obj["seed_controller"])
    return Problem(plant, X, seed)


def load_problem(path):
    """Read and parse a JSON problem file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return parse_problem(obj)
