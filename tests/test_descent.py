import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dlqr
from dlqr import Controller, InitFailed, NotStabilizing, SolverDiverged
from dlqr import descent as descent_mod
from dlqr.model import controller_to_vector

from oracles import random_pd_second_moment, random_plant_arrays


def test_config_validation(ex1_plant, rounded_k1, cross_X):
    with pytest.raises(ValueError, match="^max_iter must be at least 1$"):
        dlqr.descend(ex1_plant, cross_X, rounded_k1, max_iter=0)


@pytest.mark.parametrize("budget", [2.5, float("nan"), "3"])
def test_descend_rejects_a_budget_that_is_not_an_integer(
    ex1_plant, rounded_k1, cross_X, budget
):
    with pytest.raises(ValueError, match="^max_iter must be an integer, got "):
        dlqr.descend(ex1_plant, cross_X, rounded_k1, max_iter=budget)


def test_descend_stops_immediately_at_stationary_point(ex1_plant, cross_X):
    cert = dlqr.stationary_candidate(ex1_plant, cross_X)
    trace = dlqr.descend(ex1_plant, cross_X, cert.K_star)
    assert trace.status == dlqr.CONVERGED
    assert trace.iterations == 0
    assert trace.steps[0].step == 0.0
    assert trace.final_J == pytest.approx(cert.J, rel=1e-12)


def test_descend_vacuous_tolerance_returns_init(
    ex1_plant, rounded_k1, cross_X, monkeypatch
):
    # a tolerance above any gradient norm
    monkeypatch.setattr(descent_mod, "GRAD_TOL", 1e300)
    trace = dlqr.descend(ex1_plant, cross_X, rounded_k1)
    assert trace.status == dlqr.CONVERGED
    assert trace.iterations == 0
    assert_allclose(trace.final_controller.A_K, rounded_k1.A_K)


def test_descend_exhausts_iteration_budget(ex1_plant, rounded_k1, cross_X):
    trace = dlqr.descend(ex1_plant, cross_X, rounded_k1, max_iter=1)
    assert trace.status == dlqr.MAX_ITER
    assert trace.iterations == 1


def test_descend_budget_ending_on_the_converging_step_converges(
    ex1_plant, rounded_k1, cross_X
):
    # the stop rule is judged on every accepted step, the last one of the
    # budget too, with the gradient norm that step reports
    full = dlqr.descend(ex1_plant, cross_X, rounded_k1)
    assert full.status == dlqr.CONVERGED
    exact = dlqr.descend(ex1_plant, cross_X, rounded_k1, max_iter=full.iterations)
    assert exact.status == dlqr.CONVERGED
    assert exact.final_grad_norm == full.final_grad_norm <= descent_mod.GRAD_TOL
    assert [s.J for s in exact.steps] == [s.J for s in full.steps]
    short = dlqr.descend(ex1_plant, cross_X, rounded_k1, max_iter=full.iterations - 1)
    assert short.status == dlqr.MAX_ITER
    assert short.final_grad_norm > descent_mod.GRAD_TOL


def test_descend_rejects_nonstabilizing_init(ex1_plant, cross_X):
    with pytest.raises(NotStabilizing):
        dlqr.descend(ex1_plant, cross_X, Controller(A_K=0.0, B_K=0.0, C_K=0.0))


def _armijo_slope(plant, X, step, prev):
    """The slope that step's line search judged Armijo decrease on, taken
    at the previous accepted controller."""
    if step.phase == descent_mod.GRADIENT:
        return prev.grad_norm**2
    report = dlqr.evaluate(plant, prev.controller, X)
    grad = dlqr.analytic_gradient(plant, prev.controller, X, report=report)
    d = descent_mod._gauss_newton_direction(plant, report, grad)
    return float(descent_mod._grad_vector(grad) @ d)


def test_descend_trace_invariants(ex1_plant, cross_X):
    init = dlqr.random_stabilizing_init(ex1_plant, 0)
    trace = dlqr.descend(ex1_plant, cross_X, init)
    assert trace.status == dlqr.CONVERGED
    assert trace.final_grad_norm <= 1e-8
    assert not trace.steps[0].canonicalized
    assert trace.canonicalizations > 0
    # the Gauss-Newton phase comes first and hands over once
    phases = [s.phase for s in trace.steps[1:]]
    assert 0 < trace.gauss_newton_iterations < trace.iterations
    order = [descent_mod.GAUSS_NEWTON, descent_mod.GRADIENT]
    assert phases == sorted(phases, key=order.index)
    slack = 64.0 * np.finfo(float).eps
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        # every accepted step, orbit jumps included, is stabilizing, takes a
        # positive step, and satisfies Armijo decrease on its own slope up
        # to the floating-point slack
        assert cur.step > 0.0
        assert dlqr.is_stabilizing(ex1_plant, cur.controller)
        slope = _armijo_slope(ex1_plant, cross_X, cur, prev)
        assert slope > 0.0
        bound = prev.J - 1e-4 * cur.step * slope + slack * (1.0 + abs(prev.J))
        assert cur.J <= bound
        if cur.phase == descent_mod.GAUSS_NEWTON:
            # the unit step, halved on each backtrack
            assert cur.step == 0.5**cur.backtracks
        if cur.canonicalized:
            # a jumped iterate sits at the optimum of its own orbit
            T = dlqr.optimal_transform(ex1_plant, cur.controller, cross_X)
            assert_allclose(T.T, np.eye(1), atol=1e-9)
    for cur, nxt in zip(trace.steps[1:], trace.steps[2:]):
        if cur.canonicalized and cur.phase == descent_mod.GRADIENT:
            # no BB quotient spans the jump: the next line search starts
            # from the last accepted step and only halves it
            ratio = np.frexp(nxt.step / cur.step)
            assert ratio[0] == 0.5 and ratio[1] <= 1


# Largest iteration count over seeds 0-9 was 38, on Example 1 and on
# Example 2; the budget leaves about 2x margin.
ITERATION_BUDGET = 80


@pytest.mark.parametrize("seed", range(10))
def test_descend_converges_within_budget(ex1_plant, ex2_plant, cross_X, seed):
    for plant in (ex1_plant, ex2_plant):
        cert = dlqr.stationary_candidate(plant, cross_X)
        init = dlqr.random_stabilizing_init(plant, seed)
        trace = dlqr.descend(plant, cross_X, init, max_iter=ITERATION_BUDGET)
        assert trace.status == dlqr.CONVERGED
        assert abs(trace.final_J - cert.J) <= 1e-6


def test_gauss_newton_unit_step_minimizes_each_block_model():
    # with (P, Sigma) held fixed the gradient is affine in each block, and
    # the unit Gauss-Newton step of a block sends that block's gradient,
    # formed on the old report, to zero
    rng = np.random.default_rng(5)
    plant = dlqr.Plant(**random_plant_arrays(rng, 3, 2, 2))
    X = random_pd_second_moment(rng, 3)
    K = dlqr.random_stabilizing_init(plant, 0)
    report = dlqr.evaluate(plant, K, X)
    grad = dlqr.analytic_gradient(plant, K, X, report=report)
    d = descent_mod._gauss_newton_direction(plant, report, grad)
    step = dlqr.controller_from_vector(K, dlqr.controller_to_vector(K) - d)
    moved_AB = Controller(A_K=step.A_K, B_K=step.B_K, C_K=K.C_K)
    moved_C = Controller(A_K=K.A_K, B_K=K.B_K, C_K=step.C_K)
    model_AB = dlqr.analytic_gradient(plant, moved_AB, X, report=report)
    model_C = dlqr.analytic_gradient(plant, moved_C, X, report=report)
    scale = grad.norm
    assert np.abs(model_AB.dA_K).max() <= 1e-10 * scale
    assert np.abs(model_AB.dB_K).max() <= 1e-10 * scale
    assert np.abs(model_C.dC_K).max() <= 1e-10 * scale


def _markov_parameters(controller, count):
    """C_K A_K^k B_K for k < count, stacked: the same on every controller
    of one similarity orbit."""
    out, power = [], controller.B_K
    for _ in range(count):
        out.append(controller.C_K @ power)
        power = controller.A_K @ power
    return np.array(out)


def _gate_plant(s, n):
    """Random single-input single-output plant of order n, its second
    moment and its stationary certificate, drawn from seed (s, n)."""
    rng = np.random.default_rng((s, n))
    plant = dlqr.Plant(**random_plant_arrays(rng, n, 1, 1))
    X = random_pd_second_moment(rng, n)
    return plant, X, dlqr.stationary_candidate(plant, X)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("s", range(4))
def test_descend_reaches_the_unique_stationary_point(s, n):
    # the observable stationary point is unique, so a short descent from a
    # random start must end at its cost, to J's error, and on its
    # similarity orbit
    plant, X, cert = _gate_plant(s, n)
    init = dlqr.random_stabilizing_init(plant, 0)
    trace = dlqr.descend(plant, X, init, max_iter=60)
    assert abs(trace.final_J - cert.J) <= trace.final_J_error + 1e-8 * (1.0 + cert.J)
    M_star = _markov_parameters(cert.K_star, 2 * n)
    M = _markov_parameters(trace.final_controller, 2 * n)
    assert np.linalg.norm(M - M_star) <= 1e-4 * (1.0 + np.linalg.norm(M_star))
    # every accepted step moves the controller
    thetas = [controller_to_vector(step.controller) for step in trace.steps]
    for prev, theta in zip(thetas, thetas[1:]):
        assert not np.array_equal(prev, theta)


def test_descend_stalls_at_the_rounding_floor():
    # this plant reaches J's rounding floor within a few dozen steps; there
    # no trial meets Armijo before it rounds to the iterate, and the
    # descent must end rather than spend its budget on steps that do not
    # move
    plant, X, cert = _gate_plant(1, 2)
    init = dlqr.random_stabilizing_init(plant, 0)
    trace = dlqr.descend(plant, X, init, max_iter=1000)
    assert trace.status == dlqr.STALLED
    assert trace.iterations <= 50
    assert trace.evaluations <= 300
    assert abs(trace.final_J - cert.J) <= trace.final_J_error + 1e-8 * (1.0 + cert.J)


def test_descend_without_cross_block_never_jumps(ex1_plant, rounded_k1, monkeypatch):
    # X12 = 0: the orbit minimum is not attained, so every jump is skipped
    # and the descent is the one that never tries to jump
    X = np.eye(2)
    max_iter = 50
    first = dlqr.descend(ex1_plant, X, rounded_k1, max_iter)
    second = dlqr.descend(ex1_plant, X, rounded_k1, max_iter)
    monkeypatch.setattr(descent_mod, "CANON_EVERY", max_iter + 1)
    plain = dlqr.descend(ex1_plant, X, rounded_k1, max_iter)
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
    trace = dlqr.descend(ex1_plant, cross_X, init, max_iter=200)
    assert trace.canonicalizations == 0


def test_descend_backtracks_on_failed_trial_evaluation(
    ex1_plant, rounded_k1, cross_X, monkeypatch
):
    # call 1 evaluates the initial point, call 2 the first trial, which
    # would otherwise be accepted at the unit Gauss-Newton step
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
    assert trace.steps[1].phase == descent_mod.GAUSS_NEWTON
    assert trace.steps[1].step == 0.5
    assert trace.steps[1].backtracks == 1


def test_descend_hands_over_when_the_gauss_newton_search_finds_no_step(
    ex1_plant, rounded_k1, cross_X, monkeypatch
):
    # every evaluation of the first Gauss-Newton search fails, so it halves
    # the unit step until its trial rounds to the start and finds no step;
    # the gradient phase takes the step instead, at STEP0, and keeps the
    # rest of the descent
    searches, calls = [], []
    real_search, real_evaluate = descent_mod._line_search, descent_mod.evaluate

    def recording_search(*args):
        searches.append(args)
        return real_search(*args)

    def fail_first_search(*args, **kwargs):
        calls.append(len(searches))
        if len(searches) == 1:
            raise SolverDiverged("injected")
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(descent_mod, "_line_search", recording_search)
    monkeypatch.setattr(descent_mod, "evaluate", fail_first_search)
    trace = dlqr.descend(ex1_plant, cross_X, rounded_k1, max_iter=10)
    assert trace.gauss_newton_iterations == 0
    assert all(s.phase == descent_mod.GRADIENT for s in trace.steps[1:])
    # the failed search evaluated the trial steps 0.5**k, k = 0, 1, ..., up
    # to the first whose trial equals the start, which it did not evaluate
    theta, d, t = searches[0][3], searches[0][5], searches[0][6]
    assert t == 1.0
    failed = calls.count(1)
    halvings = next(k for k in range(2000) if (theta - 0.5**k * d == theta).all())
    assert 0 < failed == halvings
    first = trace.steps[1]
    assert first.step == descent_mod.STEP0
    # the failed search's evaluations count towards the step that followed it
    assert (first.evaluations, first.backtracks) == (failed + 1, failed)
    assert trace.evaluations == len(calls)


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


def test_descend_hands_over_at_a_singular_block(ex2_plant, cross_X):
    # with C_K = 0 the controller's state costs nothing, so P22 = 0: the
    # Gauss-Newton direction does not exist and the gradient phase takes
    # every step
    init = Controller(A_K=0.5, B_K=1.0, C_K=0.0)
    report = dlqr.evaluate(ex2_plant, init, cross_X)
    assert not report.P22.any()
    grad = dlqr.analytic_gradient(ex2_plant, init, cross_X, report=report)
    assert descent_mod._gauss_newton_direction(ex2_plant, report, grad) is None
    trace = dlqr.descend(ex2_plant, cross_X, init, max_iter=5)
    assert trace.iterations == 5
    assert trace.gauss_newton_iterations == 0
    first = trace.steps[1]
    assert first.step == descent_mod.STEP0 * 0.5**first.backtracks


def test_descend_reports_stalled(ex1_plant, rounded_k1, cross_X, monkeypatch):
    # with enormous first trial steps in each phase, all of them outside
    # the stabilizing set, both line searches halve until their trial
    # rounds to the start, and the descent must stop there rather than
    # loop or step outside
    calls = []
    real_direction = descent_mod._gauss_newton_direction
    real_evaluate = descent_mod.evaluate

    def reject_trials(*args, **kwargs):
        calls.append(args[1])
        if len(calls) > 1:
            raise NotStabilizing("injected")
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(
        descent_mod, "_gauss_newton_direction", lambda *a: 1e8 * real_direction(*a)
    )
    monkeypatch.setattr(descent_mod, "STEP0", 1e8)
    monkeypatch.setattr(descent_mod, "evaluate", reject_trials)
    trace = dlqr.descend(ex1_plant, cross_X, rounded_k1)
    assert trace.status == dlqr.STALLED
    assert trace.iterations == 0
    # the searches evaluated trials, which the trace does not count
    assert len(calls) > 2
    assert trace.evaluations == 1


def test_random_init_zero_noise_is_riccati_design(ex1_plant, monkeypatch):
    monkeypatch.setattr(descent_mod, "INIT_NOISE_SCALE", 0.0)
    sampled = dlqr.random_stabilizing_init(ex1_plant, 12)
    _, K = dlqr.solve_dare_control(ex1_plant)
    _, L = dlqr.solve_dare_filter(ex1_plant, np.eye(1))
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


def test_random_init_on_oracle_plant_9_6():
    # random_plant_arrays(default_rng((9, 6)), 6, 1, 1): the Kalman
    # matrices of all 106 stable samples have sigma ratios near 4e-13
    plant = dlqr.Plant(**random_plant_arrays(np.random.default_rng((9, 6)), 6, 1, 1))
    controller = dlqr.random_stabilizing_init(plant, 0)
    assert dlqr.is_stabilizing(plant, controller)
    assert dlqr.is_observable_controller(controller)


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
    _, K0 = dlqr.solve_dare_control(plant)
    _, L0 = dlqr.solve_dare_filter(plant, np.eye(plant.n))
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
    assert payload["gauss_newton_iterations"] == trace.gauss_newton_iterations
    assert payload["evaluations"] == trace.evaluations > trace.iterations
    assert payload["backtracks"] == trace.backtracks
    assert payload["rejected_unstable"] == trace.rejected_unstable
