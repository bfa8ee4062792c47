"""End-to-end acceptance gates for the package.

Each test checks one headline property at its stated tolerance and prints
a single PASS/FAIL line with the measured numbers, so `pytest -v` over
this file reads as a checklist. Oracle values are computed from the
independent implementations in oracles.py, never from the library itself.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest

import dlqr
from dlqr.cli import main
from dlqr.matops import _doubling_route, _kron_route

from conftest import EX1, EX2, CROSS_X, problem_dict
from oracles import (
    cost_oracle,
    random_invertible,
    random_pd_second_moment,
    random_plant_arrays,
    scalar_dare_control_root,
    scalar_lqr_gain,
    series_cost_oracle,
)

# (n, m, d) grid with d <= n so C keeps full row rank.
SHAPES = [
    (1, 1, 1),
    (1, 2, 1),
    (2, 1, 1),
    (2, 2, 1),
    (2, 1, 2),
    (2, 2, 2),
    (3, 1, 1),
    (3, 2, 1),
    (3, 1, 2),
    (3, 2, 2),
]


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num:02d}: {desc}")
        raise
    print(f"PASS criterion {num:02d}: {desc}")


def moderate_init(plant, seed, rho_max=0.95):
    # deterministic sampling of an initialization that also mixes fast
    # enough for finite-horizon and finite-difference comparisons
    for k in range(50):
        c = dlqr.random_stabilizing_init(plant, seed + 10000 * k)
        if dlqr.spectral_radius(dlqr.assemble(plant, c).A_cl) <= rho_max:
            return c
    raise AssertionError(f"no moderate init near seed {seed}")


def stacked_gap(ga, gf):
    return float(
        np.sqrt(
            np.sum((ga.dA_K - gf.dA_K) ** 2)
            + np.sum((ga.dB_K - gf.dB_K) ** 2)
            + np.sum((ga.dC_K - gf.dC_K) ** 2)
        )
    )


def test_criterion_01_example1_stationary_controller(ex1_plant, cross_X):
    with criterion(1, "Example-1 stationary controller and residuals"):
        cert = dlqr.stationary_candidate(ex1_plant, cross_X)
        got = (
            cert.K_star.A_K[0, 0],
            cert.K_star.B_K[0, 0],
            cert.K_star.C_K[0, 0],
        )
        worst_res = max(cert.residuals.values())
        print(f"  K1* = {got}, max residual = {worst_res:.3e}")
        assert got[0] == pytest.approx(-0.944, abs=5e-4)
        assert got[1] == pytest.approx(4.4, abs=5e-4)
        assert got[2] == pytest.approx(-0.236, abs=5e-4)
        assert worst_res <= 1e-8


def test_criterion_02_example2_stationary_controller(ex2_plant, cross_X):
    with criterion(2, "Example-2 stationary controller and residuals"):
        cert = dlqr.stationary_candidate(ex2_plant, cross_X)
        got = (
            cert.K_star.A_K[0, 0],
            cert.K_star.B_K[0, 0],
            cert.K_star.C_K[0, 0],
        )
        worst_res = max(cert.residuals.values())
        print(f"  K2* = {got}, max residual = {worst_res:.3e}")
        assert got[0] == pytest.approx(-0.765, abs=5e-4)
        assert got[1] == pytest.approx(3.6, abs=5e-4)
        assert got[2] == pytest.approx(-0.191, abs=5e-4)
        assert worst_res <= 1e-8


def test_criterion_03_gradient_matches_finite_differences():
    with criterion(3, "analytic gradient vs central differences, 100 controllers"):
        worst = 0.0
        count = 0
        for i, (n, m, d) in enumerate(SHAPES):
            rng = np.random.default_rng(200 + i)
            plant = dlqr.Plant(**random_plant_arrays(rng, n, m, d))
            X = random_pd_second_moment(rng, n)
            for k in range(10):
                ctrl = moderate_init(plant, 1000 * i + k)
                ga = dlqr.analytic_gradient(plant, ctrl, X)
                gf = dlqr.finite_difference_gradient(plant, ctrl, X)
                worst = max(worst, stacked_gap(ga, gf) / (1.0 + ga.norm))
                count += 1
        print(f"  {count} controllers, worst relative gap = {worst:.3e}")
        assert count >= 100
        assert worst <= 1e-5


def test_criterion_04_transformed_cost_matches_direct_cost():
    with criterion(4, "orbit cost surrogate vs direct evaluation, 50 pairs"):
        worst = 0.0
        for i in range(50):
            n, m, d = SHAPES[i % len(SHAPES)]
            rng = np.random.default_rng(300 + i)
            plant = dlqr.Plant(**random_plant_arrays(rng, n, m, d))
            X = random_pd_second_moment(rng, n)
            ctrl = moderate_init(plant, i)
            T = dlqr.Transform.from_matrix(random_invertible(rng, n))
            J_surrogate = dlqr.transformed_cost(plant, ctrl, X, T)
            J_direct = dlqr.evaluate(plant, dlqr.apply(ctrl, T), X).J
            worst = max(worst, abs(J_surrogate - J_direct) / (1.0 + J_direct))
        print(f"  worst relative gap = {worst:.3e}")
        assert worst <= 1e-9


def test_criterion_05_optimal_transform_of_observer_form(ex1_plant, cross_X):
    with criterion(5, "optimal similarity transform of the observer form"):
        # observer-based controller built from the scalar Riccati root,
        # independently of the library's own construction
        p = scalar_dare_control_root(1.1, 1.0, 5.0, 1.0)
        k = scalar_lqr_gain(1.1, 1.0, 1.0, p)
        k_dagger = dlqr.Controller(A_K=-k, B_K=1.1, C_K=-k)
        report = dlqr.evaluate(ex1_plant, k_dagger, cross_X)

        T_star = dlqr.optimal_transform(
            ex1_plant, k_dagger, cross_X, report=report
        )
        t_val = T_star.T[0, 0]
        grad_res = float(np.linalg.norm(dlqr.g_gradient(report, T_star.T_inv)))
        J_star = dlqr.transformed_cost(
            ex1_plant, k_dagger, cross_X, T_star, report=report
        )
        J_identity = report.J
        print(
            f"  T* = {t_val:.12f}, surrogate gradient norm = {grad_res:.3e}, "
            f"J(T*) = {J_star:.12f}, J(I) = {J_identity:.12f}"
        )
        assert t_val == pytest.approx(4.0, abs=1e-9)
        assert grad_res <= 1e-9

        rng = np.random.default_rng(5)
        for _ in range(100):
            T_rand = dlqr.Transform.from_matrix(random_invertible(rng, 1))
            J_rand = dlqr.transformed_cost(
                ex1_plant, k_dagger, cross_X, T_rand, report=report
            )
            assert J_star <= J_rand + 1e-12

        def oracle_J(ctrl):
            return cost_oracle(
                1.1, 1.0, 1.0, 5.0, 1.0,
                ctrl.A_K, ctrl.B_K, ctrl.C_K, cross_X,
            )

        assert J_identity == pytest.approx(oracle_J(k_dagger), rel=1e-3)
        assert J_star == pytest.approx(
            oracle_J(dlqr.apply(k_dagger, T_star)), rel=1e-3
        )


def test_criterion_06_coupling_residuals(ex1_plant, ex2_plant, cross_X):
    with criterion(6, "coupling identities on the examples and 10 random plants"):
        cases = [(ex1_plant, cross_X), (ex2_plant, cross_X)]
        for i, (n, m, d) in enumerate(SHAPES):
            rng = np.random.default_rng(100 + i)
            plant = dlqr.Plant(**random_plant_arrays(rng, n, m, d))
            cases.append((plant, random_pd_second_moment(rng, n)))
        worst = 0.0
        for plant, X in cases:
            cert = dlqr.stationary_candidate(plant, X)
            worst = max(
                worst,
                cert.residuals["coupling_sigma"],
                cert.residuals["coupling_x"],
            )
        print(f"  {len(cases)} plants, worst coupling residual = {worst:.3e}")
        assert worst <= 1e-8


def test_criterion_07_landscape_minima(tmp_path, rounded_k1):
    with criterion(7, "orbit and grid sweeps bottom out at the stationary point"):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps(problem_dict(EX1, CROSS_X, rounded_k1)))
        plant = dlqr.Plant(**EX1)
        cert = dlqr.stationary_candidate(plant, CROSS_X)

        orbit_csv = tmp_path / "orbit.csv"
        assert (
            main(
                [
                    "landscape",
                    "--problem",
                    str(problem),
                    "--orbit",
                    "0.5:8:151",
                    "--out",
                    str(orbit_csv),
                ]
            )
            == 0
        )
        rows = orbit_csv.read_text().strip().splitlines()[1:]
        parsed = [r.split(",") for r in rows]
        best_t = min(parsed, key=lambda r: float(r[2]))
        print(f"  orbit argmin t = {best_t[0]} (151 samples, step 0.05)")
        assert float(best_t[0]) == pytest.approx(4.0, abs=0.025)

        grid_csv = tmp_path / "grid.csv"
        assert (
            main(
                [
                    "landscape",
                    "--problem",
                    str(problem),
                    "--sweep",
                    "B_K=2:6:81",
                    "--sweep",
                    "C_K=-0.4:-0.1:76",
                    "--fix",
                    "A_K=-0.944",
                    "--out",
                    str(grid_csv),
                ]
            )
            == 0
        )
        rows = grid_csv.read_text().strip().splitlines()[1:]
        stable = [r.split(",") for r in rows if r.split(",")[3] == "1"]
        assert len(stable) < len(rows)  # the sweep crosses the boundary
        best = min(stable, key=lambda r: float(r[2]))
        b_best, c_best, j_best = float(best[0]), float(best[1]), float(best[2])
        print(
            f"  grid argmin (B_K, C_K) = ({b_best}, {c_best}), "
            f"J = {j_best:.9f} vs J* = {cert.J:.9f}"
        )
        assert b_best == pytest.approx(cert.K_star.B_K[0, 0], abs=0.025)
        assert c_best == pytest.approx(cert.K_star.C_K[0, 0], abs=0.002)
        assert abs(j_best - cert.J) <= 1e-5


def _route_gap(A, W):
    """Largest entry gap between the Kronecker and the doubling solution of
    P = W + A^T P A."""
    P_kron = _kron_route(A[None], W[None])[0]
    P_doubling, unconverged = _doubling_route(A[None], W[None])
    assert len(unconverged) == 0
    return float(np.max(np.abs(P_kron - P_doubling[0])))


def test_criterion_08_cost_agrees_with_rollouts_and_both_solver_routes(
    ex1_plant, ex2_plant, rounded_k1, rounded_k2, cross_X
):
    with criterion(8, "exact cost vs 500-step rollouts; Kronecker vs doubling"):
        corpus = []
        for plant, rounded in ((ex1_plant, rounded_k1), (ex2_plant, rounded_k2)):
            cert = dlqr.stationary_candidate(plant, cross_X)
            corpus.append((plant, cross_X, rounded))
            corpus.append((plant, cross_X, cert.K_star))
            corpus.append((plant, cross_X, cert.K_dagger))
            for s in range(3):
                corpus.append((plant, cross_X, moderate_init(plant, s, 0.9)))
        rng = np.random.default_rng(61)
        mplant = dlqr.Plant(**random_plant_arrays(rng, 2, 1, 1))
        mX = random_pd_second_moment(rng, 2)
        corpus.append((mplant, mX, dlqr.stationary_candidate(mplant, mX).K_star))
        corpus.append((mplant, mX, moderate_init(mplant, 0, 0.9)))

        worst_rollout = 0.0
        worst_routes = 0.0
        for plant, X, ctrl in corpus:
            J = dlqr.evaluate(plant, ctrl, X).J
            J_roll = series_cost_oracle(
                plant.A, plant.B, plant.C, plant.Q, plant.R,
                ctrl.A_K, ctrl.B_K, ctrl.C_K, X, terms=500,
            )
            worst_rollout = max(worst_rollout, abs(J - J_roll) / (1.0 + J))
            loop = dlqr.assemble(plant, ctrl)
            worst_routes = max(worst_routes, _route_gap(loop.A_cl, loop.W_cl))
        # push the route comparison up to the largest direct-solve size
        for dim in (8, 12):
            rng = np.random.default_rng(800 + dim)
            A = rng.normal(size=(dim, dim))
            A *= 0.9 / dlqr.spectral_radius(A)
            G = rng.normal(size=(dim, dim))
            W = G @ G.T
            gap = _route_gap(A, W)
            worst_routes = max(worst_routes, gap / (1.0 + np.linalg.norm(W)))
        print(
            f"  {len(corpus)} controllers, worst rollout gap = {worst_rollout:.3e}, "
            f"worst route gap = {worst_routes:.3e}"
        )
        assert worst_rollout <= 1e-6
        assert worst_routes <= 1e-10


def test_criterion_09_zero_cross_block_has_no_stationary_point(
    ex1_plant, rounded_k1, tmp_path
):
    with criterion(9, "zero cross block: designated errors and unattained infimum"):
        X = np.eye(2)
        with pytest.raises(dlqr.OptimalTransformNotFound):
            dlqr.optimal_transform(ex1_plant, rounded_k1, X)
        with pytest.raises(dlqr.SingularX12):
            dlqr.stationary_candidate(ex1_plant, X)
        problem = tmp_path / "x0.json"
        problem.write_text(json.dumps(problem_dict(EX1, X, rounded_k1)))
        assert main(["stationary", "--problem", str(problem)]) == 4

        report = dlqr.evaluate(ex1_plant, rounded_k1, X)
        infimum = float(np.trace(report.P11 @ report.X[:1, :1]))
        values = []
        for t in np.logspace(0.0, 4.0, 60):
            T = dlqr.Transform.from_matrix([[float(t)]])
            values.append(
                dlqr.transformed_cost(ex1_plant, rounded_k1, X, T, report=report)
            )
        gaps = np.array(values) - infimum
        print(
            f"  infimum = {infimum:.9f}, J(t=1) gap = {gaps[0]:.3e}, "
            f"J(t=1e4) gap = {gaps[-1]:.3e}"
        )
        assert np.all(np.diff(values) < 0.0)
        assert np.all(gaps > 0.0)
        assert gaps[-1] < 1e-4


def test_criterion_10_descent_reaches_the_stationary_cost(
    ex1_plant, ex2_plant, cross_X
):
    with criterion(10, "descent from 10 random seeds per example converges"):
        worst_grad = 0.0
        worst_gap = 0.0
        for plant in (ex1_plant, ex2_plant):
            J_star = dlqr.stationary_candidate(plant, cross_X).J
            for seed in range(10):
                init = dlqr.random_stabilizing_init(plant, seed)
                trace = dlqr.descend(plant, cross_X, init)
                assert trace.status == "converged"
                worst_grad = max(worst_grad, trace.final_grad_norm)
                worst_gap = max(worst_gap, abs(trace.final_J - J_star))
        print(
            f"  20 runs, worst final gradient = {worst_grad:.3e}, "
            f"worst cost gap = {worst_gap:.3e}"
        )
        assert worst_grad <= 1e-8
        assert worst_gap <= 1e-6
