"""The stacked screen and certified pair: each slice of a stack of
controllers gives bit for bit what evaluate gives for that controller
alone, unstable slices report rho and get no Lyapunov solve, and the
chunking of many-slice passes does not change any result."""

import numpy as np
import pytest

import dlqr
from dlqr import NotStabilizing
from dlqr import cost as cost_mod
from dlqr import matops
from dlqr.cost import _certified_pair, _Gains, _screen, _stacked_costs
from dlqr.matops import KRON_DIM_LIMIT

from oracles import random_pd_second_moment, random_plant_arrays


def _instance(n, seed=0):
    """Plant of order n, its observer-based controller (stabilizing by
    separation) and a random X > 0."""
    rng = np.random.default_rng((seed, n))
    arrays = random_plant_arrays(rng, n, min(n, 2), min(n, 2))
    plant = dlqr.Plant(**arrays)
    _, K = dlqr.solve_dare_control(plant)
    _, L = dlqr.solve_dare_filter(plant, np.eye(n))
    return plant, dlqr.observer_based(plant, K, L), random_pd_second_moment(rng, n), rng


def _mixed_stack(plant, controller, rng, count=7):
    """Small perturbations of a stabilizing controller, with every third
    slice made unstable: B_K = 0 decouples an A_K = 1.5 I block."""
    n = plant.n
    controllers = []
    for k in range(count):
        if k % 3 == 1:
            controllers.append(
                dlqr.Controller(1.5 * np.eye(n), np.zeros_like(controller.B_K), controller.C_K)
            )
        else:
            scale = 1e-3 * k
            controllers.append(
                dlqr.Controller(
                    controller.A_K + scale * rng.normal(size=controller.A_K.shape),
                    controller.B_K + scale * rng.normal(size=controller.B_K.shape),
                    controller.C_K + scale * rng.normal(size=controller.C_K.shape),
                )
            )
    gains = _Gains(*(np.stack([getattr(c, k) for c in controllers]) for k in _Gains._fields))
    return controllers, gains


def test_stacks_cross_the_route_switch():
    sizes = [2 * n for n in range(1, 8)]
    assert min(sizes) <= KRON_DIM_LIMIT < max(sizes)


@pytest.mark.parametrize("n", range(1, 8))
def test_slices_are_bit_identical_to_evaluate(n, monkeypatch):
    plant, controller, X, rng = _instance(n)
    controllers, gains = _mixed_stack(plant, controller, rng)
    solved = []
    original = cost_mod._solve_dlyap_certified

    def recording(A, W):
        solved.append(len(A))
        return original(A, W)

    monkeypatch.setattr(cost_mod, "_solve_dlyap_certified", recording)
    J, rho, errors = _stacked_costs(plant, gains, X)
    monkeypatch.undo()
    loop, screen_rho, screen_errors = _screen(plant, gains)
    live = [k for k in range(len(controllers)) if k not in screen_errors]
    _, P, Sigma, lam_P, lam_Sigma, _, pair_errors = _certified_pair(
        loop.A_cl[live], loop.W_cl[live], X
    )
    assert not pair_errors
    assert screen_rho.tobytes() == rho.tobytes()

    for k, ctrl in enumerate(controllers):
        try:
            report = dlqr.evaluate(plant, ctrl, X)
        except NotStabilizing as exc:
            for errs in (errors, screen_errors):
                assert isinstance(errs[k], NotStabilizing)
                assert str(errs[k]) == str(exc)
                assert errs[k].rho == exc.rho == float(rho[k])
            assert np.isnan(J[k])
            continue
        assert k not in errors
        i = live.index(k)
        assert P[i].tobytes() == report.P.tobytes()
        assert Sigma[i].tobytes() == report.Sigma.tobytes()
        assert float(J[k]) == report.J
        assert float(rho[k]) == report.rho
        assert float(lam_P[i]) == report.lambda_min_P
        assert float(lam_Sigma[i]) == report.lambda_min_Sigma
    stable = len(live)
    unstable = len(controllers) - stable
    assert stable and unstable
    # one stacked solve for P and Sigma together, over the stable slices only
    assert solved == [2 * stable]


def test_all_unstable_stack_makes_no_lyapunov_solve(monkeypatch):
    plant, controller, X, rng = _instance(2)
    _, gains = _mixed_stack(plant, controller, rng)
    unstable = _Gains(*(g[1::3] for g in gains))
    calls = []
    monkeypatch.setattr(cost_mod, "_solve_dlyap_certified", lambda *a: calls.append(a))
    J, rho, errors = _stacked_costs(plant, unstable, X)
    assert calls == []
    assert sorted(errors) == list(range(len(unstable.A_K)))
    assert np.all(np.isnan(J)) and np.all(rho >= 1.0)


@pytest.mark.parametrize("n", [1, 4, 7])
def test_results_do_not_depend_on_the_chunk_size(n, monkeypatch):
    # 40 slices, more than the 32 that once capped every chunk
    plant, controller, X, rng = _instance(n, seed=1)
    _, gains = _mixed_stack(plant, controller, rng, count=40)
    solved = []
    original = cost_mod._solve_dlyap_certified

    def recording(A, W):
        solved.append(len(A))
        return original(A, W)

    monkeypatch.setattr(cost_mod, "_solve_dlyap_certified", recording)
    J, rho, errors = _stacked_costs(plant, gains, X)
    monkeypatch.undo()
    if n == 1:
        # 2-state loops fit the byte budget 256 to a chunk: the 40 slices
        # are one pass, with one solve over the stable ones
        assert solved == [2 * (40 - len(errors))]
    grad = dlqr.finite_difference_gradient(plant, controller, X)
    # a budget below one slice's arrays: every chunk holds one slice
    monkeypatch.setattr(cost_mod, "_STACK_BYTES", 1)
    J1, rho1, errors1 = _stacked_costs(plant, gains, X)
    grad1 = dlqr.finite_difference_gradient(plant, controller, X)
    # a failed slice's J is NaN whatever the chunk
    assert errors and np.all(np.isnan(J[list(errors)]))
    assert J.tobytes() == J1.tobytes()
    assert rho.tobytes() == rho1.tobytes()
    assert {k: (type(e), str(e)) for k, e in errors.items()} == {
        k: (type(e), str(e)) for k, e in errors1.items()
    }
    for a, b in zip((grad.dA_K, grad.dB_K, grad.dC_K), (grad1.dA_K, grad1.dB_K, grad1.dC_K)):
        assert a.tobytes() == b.tobytes()


def test_doubling_slices_stop_on_their_own_rule(monkeypatch):
    # slices that converge after different numbers of squarings: each
    # equals its solve alone, and a converged slice leaves the stack (past
    # its stop a slice's increments fall below rounding, so only the stack
    # sizes show whether it kept iterating)
    rng = np.random.default_rng(5)
    m = KRON_DIM_LIMIT + 2
    A, W = [], []
    for rho in (0.3, 0.97, 0.7):
        M = rng.normal(size=(m, m))
        A.append(rho * M / dlqr.spectral_radius(M))
        G = rng.normal(size=(m, m))
        W.append(G @ G.T)
    sizes = []
    original = matops._fro

    def recording(M):
        sizes.append(len(M))
        return original(M)

    monkeypatch.setattr(matops, "_fro", recording)
    P, unconverged = matops._doubling_route(np.stack(A), np.stack(W))
    monkeypatch.undo()
    assert len(unconverged) == 0
    assert sizes[0] == 3 and sizes[-1] == 1 and sizes == sorted(sizes, reverse=True)
    for k in range(3):
        alone, _ = matops._doubling_route(A[k][None], W[k][None])
        assert P[k].tobytes() == alone[0].tobytes()


def test_certificate_failures_keep_evaluate_order(monkeypatch):
    # with both PSD checks failing, each slice reports the check on P first
    plant, controller, X, rng = _instance(2)
    _, gains = _mixed_stack(plant, controller, rng)
    monkeypatch.setattr(cost_mod, "_min_eig", lambda M: np.full(len(M), -1.0))
    _, _, errors = _stacked_costs(plant, gains, X)
    stable = [k for k in range(len(gains.A_K)) if not isinstance(errors[k], NotStabilizing)]
    assert stable
    assert {str(errors[k]) for k in stable} == {"P is not positive semidefinite"}
    with pytest.raises(dlqr.SolverDiverged, match="^P is not positive semidefinite$"):
        dlqr.evaluate(plant, controller, X)


def test_an_overflowing_slice_fails_alone():
    # A_cl[1, 0] = 1e200 overflows kron(A_cl^T, A_cl^T), which fails the
    # whole stacked solve; that slice alone must fail, as SolverDiverged
    plant = dlqr.Plant(A=0.5, B=1.0, C=1.0, Q=1.0, R=1.0)
    X = np.array([[1.0, 0.25], [0.25, 1.0]])
    controllers = [
        dlqr.Controller(A_K=-0.5, B_K=0.5, C_K=-0.5),
        dlqr.Controller(A_K=0.5, B_K=1e200, C_K=1e-201),
        dlqr.Controller(A_K=0.2, B_K=0.3, C_K=-0.4),
    ]
    gains = _Gains(*(np.stack([getattr(c, k) for c in controllers]) for k in _Gains._fields))
    # every slice passes the screen, and the certified pair fails slice 1
    loop, rho, screen_errors = _screen(plant, gains)
    assert screen_errors == {} and float(rho[1]) < 1.0
    with np.errstate(all="ignore"):
        _, P, _, _, _, _, pair_errors = _certified_pair(loop.A_cl, loop.W_cl, X)
        J, _, errors = _stacked_costs(plant, gains, X)
    for errs in (pair_errors, errors):
        assert list(errs) == [1]
        assert isinstance(errs[1], dlqr.SolverDiverged)
    for k in (0, 2):
        report = dlqr.evaluate(plant, controllers[k], X)
        assert P[k].tobytes() == report.P.tobytes()
        assert float(J[k]) == report.J


@pytest.mark.parametrize(
    "B, bad, matrix",
    [
        # B C_K = 1e200 * 1e200 overflows A_cl: no spectral radius exists
        (1e200, dlqr.Controller(A_K=-0.5, B_K=1e-161, C_K=1e200), "A_cl"),
        # a stable loop (rho 0.59) whose C_K^T R C_K = 1e320 overflows W_cl
        (1.0, dlqr.Controller(A_K=-0.5, B_K=1e-161, C_K=1e160), "W_cl"),
    ],
)
def test_an_overflowing_closed_loop_fails_alone(B, bad, matrix):
    # the overflowing slice fails as a SolverDiverged that names the
    # overflow, and the good slice beside it keeps its results
    plant = dlqr.Plant(A=0.5, B=B, C=1.0, Q=1.0, R=1.0)
    X = np.array([[1.0, 0.25], [0.25, 1.0]])
    good = dlqr.Controller(A_K=-0.5, B_K=0.5, C_K=-0.5 / B)
    for controllers in ([bad, good], [good, bad]):
        k_bad, k_good = controllers.index(bad), controllers.index(good)
        gains = _Gains(*(np.stack([getattr(c, k) for c in controllers]) for k in _Gains._fields))
        with np.errstate(all="ignore"):
            loop, screen_rho, screen_errors = _screen(plant, gains)
            J, rho, errors = _stacked_costs(plant, gains, X)
        assert screen_rho.tobytes() == rho.tobytes()
        for errs in (screen_errors, errors):
            assert list(errs) == [k_bad]
            assert isinstance(errs[k_bad], dlqr.SolverDiverged)
            assert str(errs[k_bad]) == f"closed loop overflows: {matrix} has non-finite entries"
        exc = errors[k_bad]
        assert np.isnan(rho[k_bad]) == (matrix == "A_cl")
        assert np.isnan(J[k_bad])
        report = dlqr.evaluate(plant, good, X)
        _, P, Sigma, _, _, _, pair_errors = _certified_pair(
            loop.A_cl[[k_good]], loop.W_cl[[k_good]], X
        )
        assert not pair_errors
        assert P[0].tobytes() == report.P.tobytes()
        assert Sigma[0].tobytes() == report.Sigma.tobytes()
        assert float(J[k_good]) == report.J
        assert float(rho[k_good]) == report.rho
        with np.errstate(all="ignore"), pytest.raises(dlqr.SolverDiverged) as raised:
            dlqr.evaluate(plant, bad, X)
        assert str(raised.value) == str(exc)
