import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dlqr
from dlqr import Controller, DescentConfig, InitFailed, NotStabilizing, SolverDiverged
from dlqr import descent as descent_mod

from oracles import random_plant_arrays


def test_config_validation():
    with pytest.raises(ValueError):
        DescentConfig(step0=0.0)
    with pytest.raises(ValueError):
        DescentConfig(backtrack_factor=1.0)
    with pytest.raises(ValueError):
        DescentConfig(armijo_c=0.0)
    with pytest.raises(ValueError):
        DescentConfig(max_iter=0)
    with pytest.raises(ValueError):
        DescentConfig(grad_tol=0.0)


@pytest.mark.parametrize("field", ["step0", "grad_tol"])
@pytest.mark.parametrize("value", [np.inf, np.nan, -np.inf])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
        DescentConfig(**{field: value})


def test_descend_stops_immediately_at_stationary_point(ex1_plant, cross_X):
    cert = dlqr.stationary_candidate(ex1_plant, cross_X)
    trace = dlqr.descend(ex1_plant, cross_X, cert.K_star)
    assert trace.status == dlqr.CONVERGED
    assert trace.iterations == 0
    assert trace.steps[0].step == 0.0
    assert trace.final_J == pytest.approx(cert.J, rel=1e-12)


def test_descend_vacuous_tolerance_returns_init(ex1_plant, rounded_k1, cross_X):
    # a tolerance above any gradient norm; an infinite one is rejected
    cfg = DescentConfig(grad_tol=1e300)
    trace = dlqr.descend(ex1_plant, cross_X, rounded_k1, cfg)
    assert trace.status == dlqr.CONVERGED
    assert trace.iterations == 0
    assert_allclose(trace.final_controller.A_K, rounded_k1.A_K)


def test_descend_exhausts_iteration_budget(ex1_plant, rounded_k1, cross_X):
    cfg = DescentConfig(max_iter=1)
    trace = dlqr.descend(ex1_plant, cross_X, rounded_k1, cfg)
    assert trace.status == dlqr.MAX_ITER
    assert trace.iterations == 1


def test_descend_rejects_nonstabilizing_init(ex1_plant, cross_X):
    with pytest.raises(NotStabilizing):
        dlqr.descend(ex1_plant, cross_X, Controller(A_K=0.0, B_K=0.0, C_K=0.0))


def test_descend_trace_invariants(ex1_plant, cross_X):
    init = dlqr.random_stabilizing_init(ex1_plant, 0)
    trace = dlqr.descend(ex1_plant, cross_X, init)
    assert trace.status == dlqr.CONVERGED
    assert trace.final_grad_norm <= 1e-8
    assert not trace.steps[0].canonicalized
    assert trace.canonicalizations > 0
    slack = 64.0 * np.finfo(float).eps
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        # every accepted step, orbit jumps included, is stabilizing, takes a
        # positive step, and satisfies Armijo decrease up to the
        # floating-point slack
        assert cur.step > 0.0
        assert dlqr.is_stabilizing(ex1_plant, cur.controller)
        bound = prev.J - 1e-4 * cur.step * prev.grad_norm**2 + slack * (1.0 + abs(prev.J))
        assert cur.J <= bound
        if cur.canonicalized:
            # a jumped iterate sits at the optimum of its own orbit
            T = dlqr.optimal_transform(ex1_plant, cur.controller, cross_X)
            assert_allclose(T.T, np.eye(1), atol=1e-9)
    for cur, nxt in zip(trace.steps[1:], trace.steps[2:]):
        if cur.canonicalized:
            # no BB quotient spans the jump: the next line search starts
            # from the last accepted step and only halves it
            ratio = np.frexp(nxt.step / cur.step)
            assert ratio[0] == 0.5 and ratio[1] <= 1


# Largest iteration count over seeds 0-9 was 140 (Example 1) and 124
# (Example 2); the budget leaves about 2x margin.
ITERATION_BUDGET = 300


@pytest.mark.parametrize("seed", range(10))
def test_descend_converges_within_budget(ex1_plant, ex2_plant, cross_X, seed):
    cfg = DescentConfig(max_iter=ITERATION_BUDGET)
    for plant in (ex1_plant, ex2_plant):
        cert = dlqr.stationary_candidate(plant, cross_X)
        init = dlqr.random_stabilizing_init(plant, seed)
        trace = dlqr.descend(plant, cross_X, init, cfg)
        assert trace.status == dlqr.CONVERGED
        assert abs(trace.final_J - cert.J) <= 1e-6


def test_descend_without_cross_block_never_jumps(ex1_plant, rounded_k1, monkeypatch):
    # X12 = 0: the orbit minimum is not attained, so every jump is skipped
    # and the descent is the one that never tries to jump
    X = np.eye(2)
    cfg = DescentConfig(max_iter=50)
    first = dlqr.descend(ex1_plant, X, rounded_k1, cfg)
    second = dlqr.descend(ex1_plant, X, rounded_k1, cfg)
    monkeypatch.setattr(descent_mod, "CANON_EVERY", cfg.max_iter + 1)
    plain = dlqr.descend(ex1_plant, X, rounded_k1, cfg)
    assert first.iterations == 50
    assert first.canonicalizations == 0
    for other in (second, plain):
        assert [s.J for s in first.steps] == [s.J for s in other.steps]
        assert [s.step for s in first.steps] == [s.step for s in other.steps]


def test_descend_rejects_jump_that_raises_cost(ex1_plant, cross_X, monkeypatch):
    # H = T^-1 a thousand times the orbit optimum puts the quadratic term
    # of the orbit cost far above any candidate's J, so every jump must be
    # dropped in favour of the line-search candidate
    def worse_transform(plant, controller, X, report):
        best = dlqr.optimal_transform(plant, controller, X, report=report)
        return dlqr.Transform.from_matrix(1e-3 * best.T)

    monkeypatch.setattr(descent_mod, "optimal_transform", worse_transform)
    init = dlqr.random_stabilizing_init(ex1_plant, 0)
    trace = dlqr.descend(ex1_plant, cross_X, init, DescentConfig(max_iter=200))
    assert trace.canonicalizations == 0


def test_descend_backtracks_on_failed_trial_evaluation(
    ex1_plant, rounded_k1, cross_X, monkeypatch
):
    # call 1 evaluates the initial point, call 2 the first trial, which
    # would otherwise be accepted at step0
    calls = []
    real = descent_mod.evaluate

    def fail_first_trial(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 2:
            raise SolverDiverged("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(descent_mod, "evaluate", fail_first_trial)
    trace = dlqr.descend(ex1_plant, cross_X, rounded_k1)
    assert trace.status == dlqr.CONVERGED
    assert trace.steps[1].step == DescentConfig().step0 / 2


def test_descend_reaches_stationary_cost(ex1_plant, ex2_plant, cross_X):
    for plant in (ex1_plant, ex2_plant):
        cert = dlqr.stationary_candidate(plant, cross_X)
        init = dlqr.random_stabilizing_init(plant, 7)
        trace = dlqr.descend(plant, cross_X, init)
        assert trace.status == dlqr.CONVERGED
        assert abs(trace.final_J - cert.J) <= 1e-6


def test_descend_deterministic(ex1_plant, cross_X):
    init = dlqr.random_stabilizing_init(ex1_plant, 3)
    first = dlqr.descend(ex1_plant, cross_X, init)
    second = dlqr.descend(ex1_plant, cross_X, init)
    assert first.status == second.status
    assert [s.J for s in first.steps] == [s.J for s in second.steps]
    assert [s.step for s in first.steps] == [s.step for s in second.steps]


def test_descend_reports_stability_boundary(
    ex1_plant, rounded_k1, cross_X, monkeypatch
):
    # with a single enormous trial step and no backtracking budget, the
    # line search cannot find a stabilizing candidate and must stop at the
    # boundary rather than loop or step outside
    monkeypatch.setattr(descent_mod, "MAX_BACKTRACKS", 1)
    cfg = DescentConfig(step0=1e8)
    trace = dlqr.descend(ex1_plant, cross_X, rounded_k1, cfg)
    assert trace.status == dlqr.STABILITY_BOUNDARY
    assert trace.iterations == 0


def test_random_init_zero_noise_is_riccati_design(ex1_plant, monkeypatch):
    monkeypatch.setattr(descent_mod, "INIT_NOISE_SCALE", 0.0)
    sampled = dlqr.random_stabilizing_init(ex1_plant, 12)
    P = dlqr.solve_dare_control(ex1_plant.A, ex1_plant.B, ex1_plant.Q, ex1_plant.R)
    K = dlqr.lqr_gain(ex1_plant.A, ex1_plant.B, ex1_plant.R, P)
    Sigma = dlqr.solve_dare_filter(ex1_plant.A, ex1_plant.C, np.eye(1))
    L = dlqr.filter_gain(ex1_plant.A, ex1_plant.C, Sigma)
    designed = dlqr.observer_based(ex1_plant, K, L)
    assert_allclose(sampled.A_K, designed.A_K)
    assert_allclose(sampled.B_K, designed.B_K)
    assert_allclose(sampled.C_K, designed.C_K)


def test_random_init_deterministic_and_admissible(ex1_plant):
    a = dlqr.random_stabilizing_init(ex1_plant, 5)
    b = dlqr.random_stabilizing_init(ex1_plant, 5)
    assert_allclose(a.A_K, b.A_K)
    assert_allclose(a.B_K, b.B_K)
    assert_allclose(a.C_K, b.C_K)
    for seed in range(100):
        controller = dlqr.random_stabilizing_init(ex1_plant, seed)
        assert dlqr.is_stabilizing(ex1_plant, controller)
        assert dlqr.is_observable_controller(controller)


def test_random_init_matrix_plant():
    rng = np.random.default_rng(67)
    plant = dlqr.Plant(**random_plant_arrays(rng, 3, 2, 2))
    controller = dlqr.random_stabilizing_init(plant, 9)
    assert controller.A_K.shape == (3, 3)
    assert controller.B_K.shape == (3, 2)
    assert controller.C_K.shape == (2, 3)
    assert dlqr.is_stabilizing(plant, controller)


def test_random_init_gives_up_eventually(ex1_plant, monkeypatch):
    # absurd noise throws every sample far outside the stabilizing set
    monkeypatch.setattr(descent_mod, "INIT_NOISE_SCALE", 1e12)
    with pytest.raises(InitFailed):
        dlqr.random_stabilizing_init(ex1_plant, 0)


def _mimo_plant(seed):
    # stable, two inputs and two outputs, where a perturbation scale that
    # does not shrink never lands in the stabilizing set
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((10, 10))
    A *= 0.9 / dlqr.spectral_radius(A)
    B = rng.standard_normal((10, 2))
    C = rng.standard_normal((2, 10))
    return dlqr.Plant(A=A, B=B, C=C, Q=np.eye(10), R=np.eye(2))


@pytest.mark.parametrize("seed", range(1, 6))
def test_random_init_multi_input_multi_output_plant(seed):
    plant = _mimo_plant(seed)
    controller = dlqr.random_stabilizing_init(plant, 0)
    assert dlqr.is_stabilizing(plant, controller)
    assert dlqr.is_observable_controller(controller)


def _fixed_scale_init(plant, seed, noise_scale=0.5):
    # the sampler with a perturbation scale that never shrinks
    rng = np.random.default_rng(seed)
    P = dlqr.solve_dare_control(plant.A, plant.B, plant.Q, plant.R)
    K0 = dlqr.lqr_gain(plant.A, plant.B, plant.R, P)
    Sigma = dlqr.solve_dare_filter(plant.A, plant.C, np.eye(plant.n))
    L0 = dlqr.filter_gain(plant.A, plant.C, Sigma)
    while True:
        K = K0 + noise_scale * rng.uniform(-1.0, 1.0, K0.shape) * (1.0 + np.abs(K0))
        L = L0 + noise_scale * rng.uniform(-1.0, 1.0, L0.shape) * (1.0 + np.abs(L0))
        candidate = dlqr.observer_based(plant, K, L)
        if dlqr.is_stabilizing(plant, candidate) and dlqr.is_observable_controller(
            candidate
        ):
            return candidate


@pytest.mark.parametrize("seed", range(10))
def test_random_init_scalar_examples_unchanged_by_shrinking(ex1_plant, ex2_plant, seed):
    for plant in (ex1_plant, ex2_plant):
        new = dlqr.random_stabilizing_init(plant, seed)
        old = _fixed_scale_init(plant, seed)
        for name in ("A_K", "B_K", "C_K"):
            assert getattr(new, name).tobytes() == getattr(old, name).tobytes()


def test_descend_step_counters(ex1_plant, cross_X, monkeypatch):
    calls = []
    real = descent_mod.evaluate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(descent_mod, "evaluate", counting)
    init = dlqr.random_stabilizing_init(ex1_plant, 0)
    trace = dlqr.descend(ex1_plant, cross_X, init)
    assert trace.status == dlqr.CONVERGED
    first = trace.steps[0]
    assert (first.evaluations, first.backtracks, first.rejected_unstable) == (1, 0, 0)
    for k, step in enumerate(trace.steps[1:], start=1):
        # every trial but the accepted one was backtracked; a jump attempt
        # at every CANON_EVERY-th step evaluates at most once more
        jump_evals = step.evaluations - step.backtracks - 1
        assert jump_evals in ((0, 1) if k % descent_mod.CANON_EVERY == 0 else (0,))
        assert jump_evals == 1 or not step.canonicalized
        assert 0 <= step.rejected_unstable <= step.backtracks
    assert trace.evaluations == len(calls)
    assert trace.backtracks == sum(s.backtracks for s in trace.steps)
    assert trace.rejected_unstable == sum(s.rejected_unstable for s in trace.steps)


def test_descend_cli_json_reports_counter_totals(ex1_problem_file, tmp_path, capsys):
    from dlqr.cli import main

    argv = ["descend", "--problem", ex1_problem_file, "--json", "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    problem = dlqr.load_problem(ex1_problem_file)
    trace = dlqr.descend(problem.plant, problem.X, problem.seed_controller)
    assert payload["iterations"] == trace.iterations
    assert payload["evaluations"] == trace.evaluations > trace.iterations
    assert payload["backtracks"] == trace.backtracks
    assert payload["rejected_unstable"] == trace.rejected_unstable
