import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dlqr import (
    AssumptionViolated,
    DlqrError,
    DimensionMismatch,
    NonSquare,
    OptimalTransformNotFound,
    Plant,
    SingularInnovation,
    SingularTransform,
    SingularX12,
    SolverDiverged,
    Transform,
    has_full_row_rank,
    is_controllable,
    is_observable,
    optimal_transform,
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
    draw_plant,
    lyap_dual_oracle,
    random_plant_arrays,
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


def test_fro_is_bit_identical_on_real_stacks():
    # one dot product of the row-major entries, as np.linalg.norm takes it
    rng = np.random.default_rng(17)
    for shape in ((1, 1, 1), (5, 2, 2), (3, 7, 7), (2, 20, 20)):
        M = rng.normal(size=shape) * 10.0 ** rng.uniform(-5, 5, (shape[0], 1, 1))
        v = M.reshape(len(M), 1, -1)
        expected = np.sqrt(np.matmul(v, v.transpose(0, 2, 1)).ravel())
        assert matops._fro(M).tobytes() == expected.tobytes()
        assert matops._fro(M).tolist() == [float(np.linalg.norm(m)) for m in M]


def test_solve_dare_control_scalar_closed_form():
    for a, q in ((1.1, 5.0), (0.9, 5.0), (1.7, 0.3), (0.2, 2.0)):
        P, K = solve_dare_control(Plant(A=a, B=1.0, C=1.0, Q=q, R=1.0))
        root = scalar_dare_control_root(a, 1.0, q, 1.0)
        assert P[0, 0] == pytest.approx(root, rel=1e-10)
        assert K[0, 0] == pytest.approx(scalar_lqr_gain(a, 1.0, 1.0, root), rel=1e-9)


def test_solve_dare_control_matrix_case():
    rng = np.random.default_rng(21)
    A = rng.normal(size=(3, 3)) * 0.7
    B = rng.normal(size=(3, 2))
    G = rng.normal(size=(3, 3))
    Q = G @ G.T + 0.1 * np.eye(3)
    R = np.eye(2)
    P, K = solve_dare_control(Plant(A=A, B=B, C=np.eye(3), Q=Q, R=R))
    assert_allclose(P, dare_control_fixed_point(A, B, Q, R), rtol=1e-9, atol=1e-9)
    assert spectral_radius(A - B @ K) < 1.0
    residual = Q + A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(
        R + B.T @ P @ B, B.T @ P @ A
    ) - P
    assert np.linalg.norm(residual) <= 1e-10 * (1.0 + np.linalg.norm(P))


def test_solve_dare_gain_check_uses_the_stability_margin(ex1_plant, monkeypatch):
    # Example 1's gain leaves rho(A - BK) = 0.156: stable, but not by the
    # patched margin, which the Riccati check shares with evaluate's screen
    monkeypatch.setattr(matops, "STABILITY_MARGIN", 0.9)
    with pytest.raises(SolverDiverged, match="gain is not stabilizing"):
        solve_dare_control(ex1_plant)


def test_solve_dare_filter_matches_control_by_duality():
    # substituting (A, B, Q, R) -> (A^T, C^T, W, 0), the zero weight passed
    # as None, turns the control equation into the filter equation; both
    # run the same iteration, so the solutions and gains agree bit for bit,
    # with two outputs and one
    rng = np.random.default_rng(9)
    A = rng.normal(size=(3, 3)) * 0.7
    C2 = rng.normal(size=(2, 3))
    G = rng.normal(size=(3, 3))
    W = G @ G.T + 0.1 * np.eye(3)
    for C in (C2, C2[:1]):
        plant = Plant(A=A, B=np.eye(3), C=C, Q=np.eye(3), R=np.eye(3))
        Sigma, L = solve_dare_filter(plant, W)
        dual, gain = matops._solve_dare(A.T, C.T, W, None, "filter")
        assert_array_equal(Sigma, dual)
        assert_array_equal(L, gain.T)
        assert spectral_radius(A - L @ C) < 1.0


def test_solve_dare_filter_scalar_full_observation():
    # with invertible C the innovation cancels the propagation exactly and
    # the fixed point is the process noise itself
    plant = Plant(A=1.1, B=1.0, C=1.0, Q=1.0, R=1.0)
    Sigma, L = solve_dare_filter(plant, 0.9375)
    assert Sigma[0, 0] == pytest.approx(0.9375, rel=1e-12)
    assert L[0, 0] == pytest.approx(1.1, rel=1e-12)


def test_solve_dare_filter_rejects_an_indefinite_noise_matrix():
    # W is the one input the Plant does not hold, so the filter checks it
    plant = Plant(A=0.5, B=1.0, C=1.0, Q=1.0, R=1.0)
    with pytest.raises(AssumptionViolated, match="^W is not positive semidefinite$"):
        solve_dare_filter(plant, -1.0)
    with pytest.raises(AssumptionViolated, match="^W must be symmetric$"):
        solve_dare_filter(_siso_plant(), [[1.0, 1.0], [0.0, 1.0]])


def test_riccati_gains_are_the_gains_of_their_solutions():
    # each solve returns the gain its loop computed from the returned
    # iterate, bit-identical to recomputing it
    rng = np.random.default_rng(5)
    plant = Plant(**random_plant_arrays(rng, 4, 2, 2))
    P, K = solve_dare_control(plant)
    assert_array_equal(K, matops._lqr_gain(plant.A, plant.B, plant.R, P))
    Sigma, L = solve_dare_filter(plant, np.eye(4))
    assert_array_equal(L, matops._filter_gain(plant.A, plant.C, Sigma))


def test_solve_dare_control_stiff_scalar_plant_is_accurate_to_rounding():
    # a = 1, q = 1e-4: the fixed-point map contracts by only about 0.98 per
    # step, so a stop on the change between its iterates ended 5.1e-9 from
    # the root; the residual stop of the Newton-Hewer steps does not
    P, K = solve_dare_control(Plant(A=1.0, B=1.0, C=1.0, Q=1e-4, R=1.0))
    root = scalar_dare_control_root(1.0, 1.0, 1e-4, 1.0)
    assert P[0, 0] == pytest.approx(root, rel=1e-12)
    assert K[0, 0] == pytest.approx(scalar_lqr_gain(1.0, 1.0, 1.0, root), rel=1e-12)


def _drawn_riccati_problems():
    # the generated-certify plants of orders 2-10, seeds 0-3, with the
    # filter weight stationary_candidate gives them: the Schur complement
    # of X22 in X
    for n in range(2, 11):
        for s in range(4):
            arrays, X = draw_plant(np.random.default_rng((s, n)), n)
            X11, X12, X22 = X[:n, :n], X[:n, n:], X[n:, n:]
            W = X11 - X12 @ np.linalg.solve(X22, X12.T)
            yield arrays, 0.5 * (W + W.T)


def _normalized_riccati_residual(A, B, Q, R, P):
    # ||Q + A'PA - A'PB K - P|| over SOLVER_RTOL (||Q + K'RK|| +
    # (1 + ||A - BK||^2) ||P||), written out apart from matops
    S = B.T @ P @ B + (0.0 if R is None else R)
    K = np.linalg.solve(S, B.T @ P @ A)
    residual = Q + A.T @ P @ A - A.T @ P @ B @ K - P
    weight = Q if R is None else Q + K.T @ R @ K
    norm = np.linalg.norm
    scale = norm(weight) + (1.0 + norm(A - B @ K) ** 2) * norm(P)
    return norm(residual) / (matops.SOLVER_RTOL * scale)


def test_riccati_solves_on_drawn_plants_leave_residuals_within_their_bound():
    for arrays, W in _drawn_riccati_problems():
        plant = Plant(**arrays)
        A, B, C, Q, R = plant.A, plant.B, plant.C, plant.Q, plant.R
        P, K = solve_dare_control(plant)
        Sigma, L = solve_dare_filter(plant, W)
        assert _normalized_riccati_residual(A, B, Q, R, P) <= 1.0
        assert _normalized_riccati_residual(A.T, C.T, W, None, Sigma) <= 1.0
        assert matops._riccati_residual(A, B, Q, R, P, K) == pytest.approx(
            _normalized_riccati_residual(A, B, Q, R, P), rel=1e-6
        )
        assert spectral_radius(A - B @ K) < 1.0
        assert spectral_radius(A - L @ C) < 1.0


def test_riccati_solves_on_drawn_plants_match_scipy():
    # scipy's own error reaches 1.2e-11 on these plants, so the gate is
    # 1e-10 relative rather than 1e-12
    linalg = pytest.importorskip("scipy.linalg")
    for arrays, W in _drawn_riccati_problems():
        plant = Plant(**arrays)
        P, _ = solve_dare_control(plant)
        Sigma, _ = solve_dare_filter(plant, W)
        P_ref = linalg.solve_discrete_are(plant.A, plant.B, plant.Q, plant.R)
        Sigma_ref = linalg.solve_discrete_are(
            plant.A.T, plant.C.T, W, np.zeros((plant.C.shape[0],) * 2)
        )
        assert np.linalg.norm(P - P_ref) <= 1e-10 * np.linalg.norm(P_ref)
        assert np.linalg.norm(Sigma - Sigma_ref) <= 1e-10 * np.linalg.norm(Sigma_ref)


def test_solve_dare_newton_steps_that_stop_falling_raise(ex1_plant, monkeypatch):
    # a residual held above its bound never certifies; once the iterates
    # stop falling too, the solve ends instead of spending MAX_ITER steps
    monkeypatch.setattr(matops, "_riccati_residual", lambda *args: 2.0)
    with pytest.raises(SolverDiverged, match="residual stopped falling"):
        solve_dare_control(ex1_plant)


def test_filter_gain_singular_innovation():
    with pytest.raises(SingularInnovation):
        matops._filter_gain(np.ones((1, 1)), np.ones((1, 1)), np.zeros((1, 1)))


_A2 = np.array([[0.5, 1.0], [1.0, 0.3]])


def _siso_plant():
    return Plant(A=_A2, B=[[1.0], [0.0]], C=[[1.0, 0.0]], Q=np.eye(2), R=1.0)


def _cross_moment(X12):
    return np.block([[2.0 * np.eye(2), X12], [X12.T, 2.0 * np.eye(2)]])


def _optimal_transform_site(X12):
    plant = _siso_plant()
    return optimal_transform(plant, random_stabilizing_init(plant, 0), _cross_moment(X12))


def _rotated_moment(D):
    # kron(H D H, I) for the 2x2 Hadamard rotation H: the eigenvalues of D,
    # each twice, and an invertible cross block
    H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return np.kron(H @ D @ H, np.eye(2))


def _optimal_transform_X_site(D):
    plant = _siso_plant()
    return optimal_transform(plant, random_stabilizing_init(plant, 0), _rotated_moment(D))


# Every caller of the singular-value rule with the error it raises; each is
# fed a 2x2 matrix D whose sigma_min / sigma_max is the ratio.
SINGULAR_VALUE_SITES = {
    "filter_gain": (
        lambda D: matops._filter_gain(np.eye(2), np.eye(2), D),
        SingularInnovation,
    ),
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
    "Plant_R_definite": (
        lambda D: Plant(A=_A2, B=np.eye(2), C=np.eye(2), Q=np.eye(2), R=D),
        AssumptionViolated,
    ),
    "stationary_candidate_X_definite": (
        lambda D: stationary_candidate(_siso_plant(), _rotated_moment(D)),
        AssumptionViolated,
    ),
    "optimal_transform_X_definite": (_optimal_transform_X_site, AssumptionViolated),
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


def test_near_singular_second_moments_raise_typed_errors():
    # X = M M^T with one row of M within 1e-9 to 1e-5 of another: a
    # smallest eigenvalue down to 1e-16 passed a test of lambda_min > 0, and
    # the Schur complement's solve on X22 then raised numpy's LinAlgError
    # on 90 of these 2000 draws; any other untyped error fails the test
    rng = np.random.default_rng(0)
    plant = _siso_plant()
    for _ in range(2000):
        M = rng.normal(size=(4, 4))
        M[3] = M[2] + 10 ** rng.uniform(-9, -5) * rng.normal(size=4)
        X = M @ M.T
        try:
            stationary_candidate(plant, 0.5 * (X + X.T))
        except DlqrError:
            pass


def test_rank_tests_verdicts():
    # the three observability tests behind Plant's assumptions, with its
    # messages; Plant tests (Q, A), whose verdict is (Q^{1/2}, A)'s
    assert is_controllable(1.1, 1.0)
    assert is_observable(1.0, 1.1)
    assert is_observable(5.0, 1.1)
    A = np.array([[2.0, 0.0], [0.0, 0.5]])
    B = np.array([[1.0], [0.0]])
    C = np.array([[1.0, 0.0]])
    assert is_controllable(A, B) is False
    assert is_observable(C, A) is False
    assert is_observable(np.eye(2), A) is True
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


def _defective_pair(rng, n, k, lam, others, c):
    """(C, A) in a random orthonormal basis U: A = U J U^T, J upper
    triangular with a leading k x k Jordan block at lam and the other
    eigenvalues others, and C = c^T U^T. With c[0] = 0, C annihilates the
    block's eigenvector U e_1, so the pair is unobservable."""
    J = np.triu(rng.normal(size=(n, n)))
    J[:k, :k] = lam * np.eye(k) + np.eye(k, k=1)
    J[range(k, n), range(k, n)] = others
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (U @ c)[None], U @ J @ U.T


def test_defective_unobservable_pairs_are_judged_unobservable():
    # A defective eigenvalue is computed off by about sqrt(eps), so a PBH
    # test at eigvals(A) leaves sigma_min far above zero: it judged 1889
    # of these 2000 pairs observable. Projected once, not twice, the
    # staircase judged 5 of them observable, all with Jordan blocks of
    # order 4 or 5.
    rng = np.random.default_rng(2)
    for n in range(2, 6):
        for _ in range(500):
            k = int(rng.integers(2, n + 1))
            c = rng.normal(size=n)
            c[0] = 0.0
            lam, others = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9, n - k)
            C, A = _defective_pair(rng, n, k, lam, others, c)
            assert is_observable(C, A) is False


@pytest.mark.parametrize("delta, observable", [(0.0, False), (1e-2, True)])
def test_perturbing_c_off_the_eigenvector_makes_a_defective_pair_observable(
    delta, observable
):
    rng = np.random.default_rng(0)
    for n in range(2, 6):
        for k in range(2, n + 1):
            for _ in range(25):
                c = np.ones(n)
                c[0] = delta
                others = np.linspace(-0.9, -0.3, n - k)
                C, A = _defective_pair(rng, n, k, 0.5, others, c)
                assert is_observable(C, A) is observable
                assert is_controllable(A.T, C.T) is observable


def test_observability_verdicts_do_not_depend_on_basis_or_scale():
    # at A * 1e100 the Kalman matrix's block C A^9 would overflow
    rng = np.random.default_rng(5)
    cases = []
    for n in range(2, 11):
        arrays, _ = draw_plant(rng, n)
        cases.append((arrays["C"], arrays["A"], True))
        c = rng.normal(size=n)
        c[0] = 0.0
        others = rng.uniform(-0.9, 0.9, n - 2)
        cases.append((*_defective_pair(rng, n, 2, 0.5, others, c), False))
    for C, A, verdict in cases:
        n = A.shape[0]
        U, _ = np.linalg.qr(rng.normal(size=(n, n)))
        assert is_observable(C, A) is verdict
        assert is_observable(C @ U, U.T @ A @ U) is verdict
        for scale in (1e-100, 1e100):
            assert is_observable(scale * C, A) is verdict
            assert is_observable(C, scale * A) is verdict


def test_riccati_and_kalman_entry_points_reject_mismatched_shapes():
    # the plant's own shapes are Plant's to check; W is the filter's
    with pytest.raises(DimensionMismatch, match=r"^W must be 2x2, got \(3, 3\)$"):
        solve_dare_filter(_siso_plant(), np.eye(3))
    with pytest.raises(NonSquare, match=r"^W must be square, got shape \(2, 3\)$"):
        solve_dare_filter(_siso_plant(), np.ones((2, 3)))
    A = np.diag([0.5, 0.4])
    with pytest.raises(DimensionMismatch, match=r"^B must be 2x1, got \(3, 1\)$"):
        is_controllable(A, np.ones((3, 1)))
    with pytest.raises(DimensionMismatch, match=r"^C must be 1x2, got \(1, 3\)$"):
        is_observable(np.ones((1, 3)), A)


@pytest.mark.parametrize(
    "name, call",
    [
        ("B", lambda bad: Plant(A=0.5, B=bad, C=1.0, Q=1.0, R=1.0)),
        ("C", lambda bad: Plant(A=0.5, B=1.0, C=bad, Q=1.0, R=1.0)),
        ("B", lambda bad: is_controllable(0.5, bad)),
        ("C", lambda bad: is_observable(bad, 0.5)),
        ("W", lambda bad: solve_dare_filter(_siso_plant(), bad)),
    ],
)
def test_riccati_and_kalman_entry_points_reject_non_finite_inputs(name, call):
    # a NaN used to reach the rank test's SVD, which raised an untyped
    # LinAlgError; the plant's data reach the Riccati solves through Plant
    with pytest.raises(AssumptionViolated, match=f"^{name} has non-finite entries$"):
        call([[np.nan]])


def test_has_full_row_rank():
    assert has_full_row_rank(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert not has_full_row_rank(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert not has_full_row_rank(np.zeros((1, 2)))


@pytest.mark.parametrize(
    "M, expected",
    [
        ([[np.nan, 1.0]], AssumptionViolated),
        ([[np.inf, 1.0]], AssumptionViolated),
        (np.array([1.0, 0.0]), True),
        ([[1.0, 0.0], [0.0, 1.0]], True),
        (2.0, True),
    ],
    ids=["nan", "inf", "1-d", "list", "scalar"],
)
def test_has_full_row_rank_coerces_its_input(M, expected):
    # a 1-d array or a scalar is one row; a non-finite entry is typed
    if expected is AssumptionViolated:
        with pytest.raises(AssumptionViolated, match="^M has non-finite entries$"):
            has_full_row_rank(M)
    else:
        assert has_full_row_rank(M) is expected


def test_dlyap_doubling_exhausts_budget(monkeypatch):
    monkeypatch.setattr(matops, "MAX_ITER", 2)
    A = np.eye(3) * 0.999
    _, unconverged = _doubling_route(A[None], np.eye(3)[None])
    assert unconverged.tolist() == [0]
    m = KRON_DIM_LIMIT + 2
    with pytest.raises(SolverDiverged, match="exhausted MAX_ITER"):
        _certified(np.eye(m) * 0.999, np.eye(m))
