import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dlqr import (
    AssumptionViolated,
    NonSquare,
    OptimalTransformNotFound,
    Plant,
    SingularInnovation,
    SingularTransform,
    SingularX12,
    SolverConfig,
    SolverDiverged,
    Transform,
    Unstable,
    dlyap_doubling,
    dlyap_kron,
    filter_gain,
    has_full_row_rank,
    is_controllable,
    is_observable,
    lqr_gain,
    optimal_transform,
    psd_sqrt,
    random_stabilizing_init,
    rank_tests,
    solve_dare_control,
    solve_dare_filter,
    solve_dlyap_dual,
    solve_dlyap_primal,
    spectral_radius,
    stationary_candidate,
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


def test_dlyap_kron_scalar_geometric_series():
    # scalar recursion p = w + a^2 p has the closed form w / (1 - a^2)
    P = dlyap_kron(np.array([[0.5]]), np.array([[2.0]]))
    assert P[0, 0] == pytest.approx(2.0 / (1.0 - 0.25), rel=1e-14)


def test_dlyap_routes_agree():
    # the direct Kronecker solve and the squaring iteration are independent
    # routes to the same fixed point and must agree tightly
    rng = np.random.default_rng(7)
    for n in (2, 4, 6, 12):
        A = stable_random(rng, n)
        G = rng.normal(size=(n, n))
        W = G @ G.T
        P_kron = dlyap_kron(A, W)
        P_doubling = dlyap_doubling(A, W)
        assert np.linalg.norm(P_kron - P_doubling) <= 1e-10 * (
            1.0 + np.linalg.norm(P_kron)
        )


def test_solve_dlyap_dual_residual_and_oracle():
    rng = np.random.default_rng(3)
    A = stable_random(rng, 3)
    G = rng.normal(size=(3, 3))
    W = G @ G.T
    P = solve_dlyap_dual(A, W)
    assert np.linalg.norm(P - W - A.T @ P @ A) <= 1e-12 * (1.0 + np.linalg.norm(P))
    assert_allclose(P, lyap_dual_oracle(A, W), rtol=1e-10, atol=1e-12)


def test_solve_dlyap_dual_large_dimension_dispatch():
    # above the Kronecker cutoff the doubling route is used; the residual
    # certificate must still hold
    rng = np.random.default_rng(11)
    A = stable_random(rng, 14)
    G = rng.normal(size=(14, 14))
    W = G @ G.T
    P = solve_dlyap_dual(A, W)
    assert np.linalg.norm(P - W - A.T @ P @ A) <= 1e-12 * (1.0 + np.linalg.norm(P))


def test_solve_dlyap_dual_rejects_unstable():
    with pytest.raises(Unstable):
        solve_dlyap_dual(np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(Unstable):
        solve_dlyap_dual(np.array([[1.5]]), np.array([[1.0]]))


def test_solve_dlyap_dual_rejects_asymmetric_weight():
    with pytest.raises(ValueError):
        solve_dlyap_dual(np.eye(2) * 0.5, np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_solve_dlyap_primal_solves_transposed_recursion():
    rng = np.random.default_rng(5)
    A = stable_random(rng, 3)
    G = rng.normal(size=(3, 3))
    W = G @ G.T
    S = solve_dlyap_primal(A, W)
    assert np.linalg.norm(S - W - A @ S @ A.T) <= 1e-12 * (1.0 + np.linalg.norm(S))


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
    good = rank_tests(1.1, 1.0, 1.0, 5.0)
    assert good == {
        "controllable": True,
        "observable_CA": True,
        "observable_QA": True,
    }
    A = np.array([[2.0, 0.0], [0.0, 0.5]])
    B = np.array([[1.0], [0.0]])
    C = np.array([[1.0, 0.0]])
    bad = rank_tests(A, B, C, np.eye(2))
    assert bad["controllable"] is False
    assert bad["observable_CA"] is False
    assert bad["observable_QA"] is True


def test_controllability_and_observability_predicates():
    assert is_controllable(0.5, 1.0)
    assert not is_controllable(np.eye(2), np.array([[1.0], [0.0]]))
    assert is_observable(1.0, 0.5)
    assert not is_observable(np.array([[1.0, 0.0]]), np.eye(2))


def test_has_full_row_rank():
    assert has_full_row_rank(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert not has_full_row_rank(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert not has_full_row_rank(np.zeros((1, 2)))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(stability_margin=1.0)
    cfg = SolverConfig(tol=1e-10, max_iter=50, stability_margin=1e-6)
    assert cfg.tol == 1e-10


def test_dlyap_doubling_exhausts_budget():
    cfg = SolverConfig(tol=1e-12, max_iter=2)
    A = np.eye(3) * 0.999
    with pytest.raises(SolverDiverged):
        dlyap_doubling(A, np.eye(3), cfg)
