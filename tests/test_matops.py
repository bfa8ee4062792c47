import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dlqr import (
    AssumptionViolated,
    DimensionMismatch,
    NonSquare,
    OptimalTransformNotFound,
    Plant,
    SingularInnovation,
    SingularTransform,
    SingularX12,
    SolverDiverged,
    Transform,
    filter_gain,
    has_full_row_rank,
    is_controllable,
    is_observable,
    lqr_gain,
    optimal_transform,
    psd_sqrt,
    random_stabilizing_init,
    solve_dare_control,
    solve_dare_filter,
    spectral_radius,
    stationary_candidate,
)
from dlqr import matops
from dlqr.matops import (
    KRON_DIM_LIMIT,
    _doubling_route,
    _kron_route,
    _solve_dlyap_certified,
)

from oracles import (
    dare_control_fixed_point,
    lyap_dual_oracle,
    scalar_dare_control_root,
    scalar_lqr_gain,
)


def stable_random(rng, n, rho=0.8):
    A = rng.normal(size=(n, n))
    return A * (rho / spectral_radius(A))


def test_spectral_radius_known_values():
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)
    # rotation matrices have unit spectral radius regardless of angle
    th = 0.3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert spectral_radius(rot) == pytest.approx(1.0)
    assert spectral_radius(1.1) == pytest.approx(1.1)


def test_spectral_radius_requires_square():
    with pytest.raises(NonSquare):
        spectral_radius(np.ones((2, 3)))


def _kron(A, W):
    return _kron_route(A[None], W[None])[0]


def _doubling(A, W):
    P, unconverged = _doubling_route(A[None], W[None])
    assert len(unconverged) == 0
    return P[0]


def _certified(A, W):
    """The certified solve of one P = W + A^T P A; raises its failure."""
    P, _, _, errors = _solve_dlyap_certified(A[None], W[None])
    if errors:
        raise errors[0]
    return P[0]


def test_dlyap_kron_scalar_geometric_series():
    # scalar recursion p = w + a^2 p has the closed form w / (1 - a^2), and
    # the doubling route sums the same series
    for route in (_kron, _doubling):
        P = route(np.array([[0.5]]), np.array([[2.0]]))
        assert P[0, 0] == pytest.approx(2.0 / (1.0 - 0.25), rel=1e-14)


def test_dlyap_routes_agree():
    # the direct Kronecker solve and the squaring iteration are independent
    # routes to the same fixed point and must agree tightly, on both sides
    # of the size at which the certified solve switches between them
    rng = np.random.default_rng(7)
    sizes = (2, 4, 6, KRON_DIM_LIMIT, KRON_DIM_LIMIT + 2)
    assert min(sizes) <= KRON_DIM_LIMIT < max(sizes)
    for n in sizes:
        A = stable_random(rng, n)
        G = rng.normal(size=(n, n))
        W = G @ G.T
        P_kron = _kron(A, W)
        P_doubling = _doubling(A, W)
        assert np.linalg.norm(P_kron - P_doubling) <= 1e-10 * (
            1.0 + np.linalg.norm(P_kron)
        )
        route = _kron if n <= KRON_DIM_LIMIT else _doubling
        assert _certified(A, W).tobytes() == route(A, W).tobytes()


def test_solve_dlyap_dual_residual_and_oracle():
    # the certified solve on a Kronecker-route size, against the oracle
    rng = np.random.default_rng(3)
    A = stable_random(rng, 3)
    G = rng.normal(size=(3, 3))
    W = G @ G.T
    P = _certified(A, W)
    assert np.linalg.norm(P - W - A.T @ P @ A) <= 1e-12 * (1.0 + np.linalg.norm(P))
    assert_allclose(P, lyap_dual_oracle(A, W), rtol=1e-10, atol=1e-12)


def test_solve_dlyap_dual_large_dimension_dispatch():
    # above the Kronecker cutoff the doubling route is used; the residual
    # certificate must still hold
    rng = np.random.default_rng(11)
    A = stable_random(rng, 14)
    G = rng.normal(size=(14, 14))
    W = G @ G.T
    P = _certified(A, W)
    assert np.linalg.norm(P - W - A.T @ P @ A) <= 1e-12 * (1.0 + np.linalg.norm(P))


def test_solve_dlyap_primal_solves_transposed_recursion():
    # the correlation Sigma = W + A Sigma A^T is the certified solve on A^T,
    # as evaluate computes it
    rng = np.random.default_rng(5)
    A = stable_random(rng, 3)
    G = rng.normal(size=(3, 3))
    W = G @ G.T
    S = _certified(A.T, W)
    assert np.linalg.norm(S - W - A @ S @ A.T) <= 1e-12 * (1.0 + np.linalg.norm(S))


def test_residual_certificate_rejects_an_inexact_solution(monkeypatch):
    # a route whose solution misses the equation fails the certificate
    A, W = np.array([[0.5]]), np.array([[2.0]])
    monkeypatch.setattr(matops, "_kron_route", lambda A, W: 1.01 * _kron(A[0], W[0])[None])
    with pytest.raises(SolverDiverged, match="Lyapunov residual"):
        _certified(A, W)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_certificate_and_stop_rule_are_invariant_to_the_scale_of_w(scale):
    # P and its rounding are linear in W, so a solution that certifies at
    # one scale certifies at every scale, on both routes; a doubling stop
    # rule with an absolute floor would stop early on a tiny W
    rng = np.random.default_rng(13)
    for m in (KRON_DIM_LIMIT, KRON_DIM_LIMIT + 4):
        A = stable_random(rng, m, rho=0.9)
        G = rng.normal(size=(m, m))
        P = _certified(A, scale * (G @ G.T))
        P_unit = _certified(A, G @ G.T)
        assert np.linalg.norm(P - scale * P_unit) <= 1e-10 * np.linalg.norm(P)


@pytest.mark.parametrize("m", [2, KRON_DIM_LIMIT + 2])
def test_non_finite_lyapunov_solution_fails_the_certificate(m):
    # a stable A whose entries overflow the series: the Kronecker route
    # returns NaN and the doubling route inf, and both must raise
    A = np.diag(np.full(m, 0.5))
    A[0, 1], A[1, 0] = 1e200, 1e-201
    assert spectral_radius(A) < 1.0
    with np.errstate(all="ignore"), pytest.raises(SolverDiverged, match="not finite"):
        _certified(A, np.eye(m))


def test_solve_dare_control_scalar_closed_form():
    for a, q in ((1.1, 5.0), (0.9, 5.0), (1.7, 0.3), (0.2, 2.0)):
        P = solve_dare_control(a, 1.0, q, 1.0)
        root = scalar_dare_control_root(a, 1.0, q, 1.0)
        assert P[0, 0] == pytest.approx(root, rel=1e-10)
        K = lqr_gain(a, 1.0, 1.0, P)
        assert K[0, 0] == pytest.approx(scalar_lqr_gain(a, 1.0, 1.0, root), rel=1e-9)


def test_solve_dare_control_matrix_case():
    rng = np.random.default_rng(21)
    A = rng.normal(size=(3, 3)) * 0.7
    B = rng.normal(size=(3, 2))
    G = rng.normal(size=(3, 3))
    Q = G @ G.T + 0.1 * np.eye(3)
    R = np.eye(2)
    P = solve_dare_control(A, B, Q, R)
    assert_allclose(P, dare_control_fixed_point(A, B, Q, R), rtol=1e-9, atol=1e-9)
    K = lqr_gain(A, B, R, P)
    assert spectral_radius(A - B @ K) < 1.0
    residual = Q + A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(
        R + B.T @ P @ B, B.T @ P @ A
    ) - P
    assert np.linalg.norm(residual) <= 1e-10 * (1.0 + np.linalg.norm(P))


def test_solve_dare_control_rejects_uncontrollable():
    A = np.array([[2.0, 0.0], [0.0, 0.5]])
    B = np.array([[1.0], [0.0]])
    with pytest.raises(AssumptionViolated):
        solve_dare_control(A, B, np.eye(2), np.eye(1))


def test_solve_dare_control_rejects_unobservable_cost():
    with pytest.raises(AssumptionViolated):
        solve_dare_control(0.5, 1.0, 0.0, 1.0)


def test_solve_dare_filter_matches_control_by_duality():
    # substituting (A, B, Q, R) -> (A^T, C^T, W, 0) turns the control
    # equation into the filter equation; both run the same iteration, so
    # the solutions and gains agree bit for bit, with two outputs and one
    rng = np.random.default_rng(9)
    A = rng.normal(size=(3, 3)) * 0.7
    C2 = rng.normal(size=(2, 3))
    G = rng.normal(size=(3, 3))
    W = G @ G.T + 0.1 * np.eye(3)
    for C in (C2, C2[:1]):
        d = C.shape[0]
        Sigma = solve_dare_filter(A, C, W)
        dual = solve_dare_control(A.T, C.T, W, np.zeros((d, d)))
        assert_array_equal(Sigma, dual)
        L = filter_gain(A, C, Sigma)
        assert_array_equal(L, lqr_gain(A.T, C.T, 0, Sigma).T)
        assert spectral_radius(A - L @ C) < 1.0


def test_solve_dare_filter_scalar_full_observation():
    # with invertible C the innovation cancels the propagation exactly and
    # the fixed point is the process noise itself
    Sigma = solve_dare_filter(1.1, 1.0, 0.9375)
    assert Sigma[0, 0] == pytest.approx(0.9375, rel=1e-12)
    L = filter_gain(1.1, 1.0, Sigma)
    assert L[0, 0] == pytest.approx(1.1, rel=1e-12)


def test_solve_dare_filter_rejects_unobservable():
    A = np.array([[0.5, 0.0], [0.0, 0.4]])
    C = np.array([[1.0, 0.0]])
    with pytest.raises(AssumptionViolated):
        solve_dare_filter(A, C, np.eye(2))


def test_filter_gain_singular_innovation():
    with pytest.raises(SingularInnovation):
        filter_gain(1.0, 1.0, np.zeros((1, 1)))


_A2 = np.array([[0.5, 1.0], [1.0, 0.3]])


def _siso_plant():
    return Plant(A=_A2, B=[[1.0], [0.0]], C=[[1.0, 0.0]], Q=np.eye(2), R=1.0)


def _cross_moment(X12):
    return np.block([[2.0 * np.eye(2), X12], [X12.T, 2.0 * np.eye(2)]])


def _optimal_transform_site(X12):
    plant = _siso_plant()
    return optimal_transform(plant, random_stabilizing_init(plant, 0), _cross_moment(X12))


# Every caller of the singular-value rule with the error it raises; each is
# fed a 2x2 matrix D whose sigma_min / sigma_max is the ratio.
SINGULAR_VALUE_SITES = {
    "filter_gain": (lambda D: filter_gain(np.eye(2), np.eye(2), D), SingularInnovation),
    "Transform.from_matrix": (Transform.from_matrix, SingularTransform),
    "stationary_candidate_X12": (
        lambda D: stationary_candidate(_siso_plant(), _cross_moment(D)),
        SingularX12,
    ),
    "optimal_transform_X12": (_optimal_transform_site, OptimalTransformNotFound),
    "Plant_C_rank": (
        lambda D: Plant(A=_A2, B=np.eye(2), C=D, Q=np.eye(2), R=np.eye(2)),
        AssumptionViolated,
    ),
}


@pytest.mark.parametrize("site", sorted(SINGULAR_VALUE_SITES))
@pytest.mark.parametrize("ratio, singular", [(5e-11, True), (2e-10, False)])
def test_one_singular_value_rule_at_every_call_site(site, ratio, singular):
    # one rule everywhere: singular when sigma_min <= 1e-10 * sigma_max
    call, error = SINGULAR_VALUE_SITES[site]
    D = np.diag([1.0, ratio])
    if singular:
        with pytest.raises(error):
            call(D)
    else:
        call(D)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(13)
    G = rng.normal(size=(4, 4))
    M = G @ G.T
    S = psd_sqrt(M)
    assert_allclose(S @ S, M, rtol=1e-10, atol=1e-10)
    assert_allclose(S, S.T, atol=1e-12)


def test_rank_tests_verdicts():
    # the three Kalman tests behind Plant's assumptions, with its messages
    assert is_controllable(1.1, 1.0)
    assert is_observable(1.0, 1.1)
    assert is_observable(psd_sqrt(5.0), 1.1)
    A = np.array([[2.0, 0.0], [0.0, 0.5]])
    B = np.array([[1.0], [0.0]])
    C = np.array([[1.0, 0.0]])
    assert is_controllable(A, B) is False
    assert is_observable(C, A) is False
    assert is_observable(psd_sqrt(np.eye(2)), A) is True
    with pytest.raises(AssumptionViolated, match=r"^\(A, B\) must be controllable$"):
        Plant(A=A, B=B, C=C, Q=np.eye(2), R=1.0)
    with pytest.raises(AssumptionViolated, match=r"^\(C, A\) must be observable$"):
        Plant(A=A, B=np.eye(2), C=C, Q=np.eye(2), R=np.eye(2))
    with pytest.raises(AssumptionViolated, match=r"^\(Q\^\{1/2\}, A\) must be observable$"):
        Plant(A=A, B=np.eye(2), C=np.eye(2), Q=np.diag([1.0, 0.0]), R=np.eye(2))


def test_controllability_and_observability_predicates():
    assert is_controllable(0.5, 1.0)
    assert not is_controllable(np.eye(2), np.array([[1.0], [0.0]]))
    assert is_observable(1.0, 0.5)
    assert not is_observable(np.array([[1.0, 0.0]]), np.eye(2))


def test_riccati_and_kalman_entry_points_reject_mismatched_shapes():
    # a 1x1 R used to be broadcast against a two-input B
    with pytest.raises(DimensionMismatch, match=r"^R must be 2x2, got \(1, 1\)$"):
        solve_dare_control(0.5, [[1.0, 2.0]], 1.0, 1.0)
    A = np.diag([0.5, 0.4])
    with pytest.raises(DimensionMismatch, match=r"^B must be 2x1, got \(3, 1\)$"):
        solve_dare_control(A, np.ones((3, 1)), np.eye(2), 1.0)
    with pytest.raises(DimensionMismatch, match=r"^Q must be 2x2, got \(3, 3\)$"):
        solve_dare_control(A, np.ones((2, 1)), np.eye(3), 1.0)
    with pytest.raises(DimensionMismatch, match=r"^C must be 1x2, got \(1, 3\)$"):
        solve_dare_filter(A, np.ones((1, 3)), np.eye(2))
    with pytest.raises(DimensionMismatch, match=r"^W must be 2x2, got \(3, 3\)$"):
        solve_dare_filter(A, np.ones((1, 2)), np.eye(3))
    with pytest.raises(DimensionMismatch, match=r"^B must be 2x1, got \(3, 1\)$"):
        is_controllable(A, np.ones((3, 1)))
    with pytest.raises(DimensionMismatch, match=r"^C must be 1x2, got \(1, 3\)$"):
        is_observable(np.ones((1, 3)), A)


@pytest.mark.parametrize(
    "name, call",
    [
        ("B", lambda bad: solve_dare_control(0.5, bad, 1.0, 1.0)),
        ("C", lambda bad: solve_dare_filter(0.5, bad, 1.0)),
        ("B", lambda bad: is_controllable(0.5, bad)),
        ("C", lambda bad: is_observable(bad, 0.5)),
    ],
)
def test_riccati_and_kalman_entry_points_reject_non_finite_inputs(name, call):
    # a NaN used to reach the rank test's SVD, which raised an untyped
    # LinAlgError
    with pytest.raises(AssumptionViolated, match=f"^{name} has non-finite entries$"):
        call([[np.nan]])


def test_has_full_row_rank():
    assert has_full_row_rank(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert not has_full_row_rank(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert not has_full_row_rank(np.zeros((1, 2)))


def test_dlyap_doubling_exhausts_budget(monkeypatch):
    monkeypatch.setattr(matops, "MAX_ITER", 2)
    A = np.eye(3) * 0.999
    _, unconverged = _doubling_route(A[None], np.eye(3)[None])
    assert unconverged.tolist() == [0]
    m = KRON_DIM_LIMIT + 2
    with pytest.raises(SolverDiverged, match="exhausted MAX_ITER"):
        _certified(np.eye(m) * 0.999, np.eye(m))
