"""evaluate is the one closed-loop pass: it assembles the loop and takes its
spectral radius once, solves the Lyapunov pair through the certified
kernel of matops, and callers read rho from its report or from the
NotStabilizing it raises."""

import csv
import json

import numpy as np
import pytest

import dlqr
from dlqr import Controller, DescentConfig, NotStabilizing
from dlqr import cost as cost_mod
from dlqr import descent as descent_mod
from dlqr.cli import main
from dlqr.matops import (
    KRON_DIM_LIMIT,
    _kron_route,
    _solve_dlyap_certified,
    _symmetrize,
)

from conftest import EX1, problem_dict
from oracles import lyap_dual_oracle, random_pd_second_moment, random_plant_arrays


def _observer_based_instance(n, seed):
    """Random plant of order n, its observer-based controller from the two
    Riccati gains (stabilizing by separation) and a random X > 0."""
    rng = np.random.default_rng((seed, n))
    arrays = random_plant_arrays(rng, n, min(n, 2), min(n, 2))
    plant = dlqr.Plant(**arrays)
    P_hat = dlqr.solve_dare_control(plant.A, plant.B, plant.Q, plant.R)
    K = dlqr.lqr_gain(plant.A, plant.B, plant.R, P_hat)
    Sigma_hat = dlqr.solve_dare_filter(plant.A, plant.C, np.eye(n))
    L = dlqr.filter_gain(plant.A, plant.C, Sigma_hat)
    return plant, dlqr.observer_based(plant, K, L), random_pd_second_moment(rng, n)


@pytest.mark.parametrize("n", range(1, 8))
def test_evaluate_pair_is_bit_identical_to_public_solvers(n):
    plant, controller, X = _observer_based_instance(n, 0)
    report = dlqr.evaluate(plant, controller, X)
    loop = dlqr.assemble(plant, controller)
    # the certified kernel on the one loop: P on A_cl, Sigma on A_cl^T
    W = _symmetrize(loop.W_cl)
    P, _, _, errors = _solve_dlyap_certified(loop.A_cl[None], W[None])
    Sigma, _, _, sigma_errors = _solve_dlyap_certified(loop.A_cl.T[None], X[None])
    assert not errors and not sigma_errors
    assert report.P.tobytes() == P[0].tobytes()
    assert report.Sigma.tobytes() == Sigma[0].tobytes()
    assert report.rho == dlqr.spectral_radius(loop.A_cl)


def test_bit_identity_covers_both_lyapunov_routes():
    sizes = [2 * n for n in range(1, 8)]
    assert min(sizes) <= KRON_DIM_LIMIT < max(sizes)


def test_report_carries_psd_margins(ex1_plant, rounded_k1, cross_X):
    report = dlqr.evaluate(ex1_plant, rounded_k1, cross_X)
    assert report.lambda_min_P == float(np.min(np.linalg.eigvalsh(report.P)))
    assert report.lambda_min_Sigma == float(np.min(np.linalg.eigvalsh(report.Sigma)))
    assert report.lambda_min_P > 0.0 and report.lambda_min_Sigma > 0.0


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("stable", [True, False])
def test_one_eigvals_and_one_assemble_per_evaluate(
    ex1_plant, rounded_k1, cross_X, monkeypatch, stable
):
    controller = rounded_k1 if stable else Controller(A_K=0.0, B_K=0.0, C_K=0.0)
    eigvals = _count_calls(monkeypatch, np.linalg, "eigvals")
    assembles = _count_calls(monkeypatch, cost_mod, "assemble")
    if stable:
        dlqr.evaluate(ex1_plant, controller, cross_X)
    else:
        with pytest.raises(NotStabilizing):
            dlqr.evaluate(ex1_plant, controller, cross_X)
    assert len(eigvals) == 1
    assert len(assembles) == 1


@pytest.mark.parametrize(
    "c_k, stable", [(-0.944, True), (-0.2, True), (0.0, False), (0.5, False)]
)
def test_rho_on_report_and_error_matches_spectral_radius(ex1_plant, cross_X, c_k, stable):
    controller = Controller(A_K=-0.944, B_K=1.1, C_K=c_k)
    rho = dlqr.spectral_radius(dlqr.assemble(ex1_plant, controller).A_cl)
    if stable:
        assert dlqr.evaluate(ex1_plant, controller, cross_X).rho == rho
    else:
        with pytest.raises(NotStabilizing) as exc:
            dlqr.evaluate(ex1_plant, controller, cross_X)
        assert exc.value.rho == rho


def test_unstable_evaluation_makes_no_lyapunov_solve(ex1_plant, cross_X, monkeypatch):
    solves = _count_calls(monkeypatch, cost_mod, "_solve_dlyap_certified")
    with pytest.raises(NotStabilizing):
        dlqr.evaluate(ex1_plant, Controller(A_K=0.0, B_K=0.0, C_K=0.0), cross_X)
    assert solves == []


def test_unstable_descent_trial_makes_no_lyapunov_solve(
    ex1_plant, rounded_k1, cross_X, monkeypatch
):
    solves = _count_calls(monkeypatch, cost_mod, "_solve_dlyap_certified")
    trials = []  # (raised NotStabilizing, Lyapunov solves it made)
    original = descent_mod.evaluate

    def recording(*args, **kwargs):
        before = len(solves)
        try:
            report = original(*args, **kwargs)
        except NotStabilizing:
            trials.append((True, len(solves) - before))
            raise
        trials.append((False, len(solves) - before))
        return report

    monkeypatch.setattr(descent_mod, "evaluate", recording)
    # a first trial step far outside the stabilizing set
    cfg = DescentConfig(step0=1e3, max_iter=3)
    trace = dlqr.descend(ex1_plant, cross_X, rounded_k1, cfg)
    unstable = [made for raised, made in trials if raised]
    assert unstable and all(made == 0 for made in unstable)
    # one stacked solve gives a stable trial's P and Sigma
    assert all(made == 1 for raised, made in trials if not raised)
    assert trace.rejected_unstable == len(unstable)
    assert trace.evaluations == len(trials)


@pytest.mark.parametrize("n", range(1, 13))
def test_kron_matrix_is_bit_identical_to_np_kron(n, monkeypatch):
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, n)) * (0.9 / np.sqrt(n))
    G = rng.normal(size=(n, n))
    W = G @ G.T
    lhs = []
    solve = np.linalg.solve

    def capturing(a, b):
        lhs.append(a)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", capturing)
    P = _kron_route(A[None], W[None])[0]
    monkeypatch.undo()
    assert lhs[0].tobytes() == (np.eye(n * n) - np.kron(A.T, A.T)).tobytes()
    assert P.tobytes() == lyap_dual_oracle(A, W).tobytes()


def test_landscape_rho_matches_spectral_radius(ex1_problem_file, ex1_plant, tmp_path):
    out = tmp_path / "grid.csv"
    code = main(
        [
            "landscape",
            "--problem",
            ex1_problem_file,
            "--sweep",
            "C_K=-1.5:0.5:21",
            "--fix",
            "B_K=1.1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["stabilizing"] for row in rows} == {"0", "1"}
    for row in rows:
        controller = Controller(A_K=-0.944, B_K=1.1, C_K=float(row["axis1"]))
        rho = dlqr.spectral_radius(dlqr.assemble(ex1_plant, controller).A_cl)
        assert float(row["rho"]) == rho


@pytest.mark.parametrize("c_k", [-0.944, 0.5])
def test_landscape_orbit_rho_matches_spectral_radius(tmp_path, ex1_plant, cross_X, c_k):
    controller = Controller(A_K=-0.944, B_K=1.1, C_K=c_k)
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(problem_dict(EX1, cross_X, controller)))
    out = tmp_path / "orbit.csv"
    argv = ["landscape", "--problem", str(problem), "--orbit", "0.5:2:4", "--out", str(out)]
    assert main(argv) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rho = dlqr.spectral_radius(dlqr.assemble(ex1_plant, controller).A_cl)
    assert len(rows) == 4
    for row in rows:
        assert float(row["rho"]) == rho
        assert row["stabilizing"] == ("1" if rho < 1.0 else "0")
        assert (row["J"] == "") == (rho >= 1.0)
