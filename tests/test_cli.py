import argparse
import csv
import json
import re
import warnings

import numpy as np
import pytest

import dlqr
from dlqr import cli, matops
from dlqr.cli import main

from conftest import problem_dict, wire
from oracles import draw_plant, random_pd_second_moment, random_plant_arrays


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_controller(tmp_path, A_K, B_K, C_K, name="controller.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"A_K": wire(A_K), "B_K": wire(B_K), "C_K": wire(C_K)}))
    return str(path)


def test_eval_human_output(ex1_problem_file, capsys, ex1_plant, rounded_k1, cross_X):
    assert main(["eval", "--problem", ex1_problem_file]) == 0
    out = capsys.readouterr().out
    report = dlqr.evaluate(ex1_plant, rounded_k1, cross_X)
    assert f"J = {report.J:.17g}\n" in out
    assert f"J_error = {report.J_error:.17g}\n" in out
    assert "rho = " in out
    assert "residuals.rP12 = " in out


def test_eval_json_output(ex1_problem_file, capsys):
    assert main(["eval", "--problem", ex1_problem_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["J"] == pytest.approx(15.44299003919382, rel=1e-12)
    assert 0.0 < payload["J_error"] <= 1e-12 * payload["J"]
    assert payload["rho"] == pytest.approx(0.156, abs=1e-12)
    assert payload["lambda_min_P"] > 0.0
    assert set(payload["residuals"]) == {
        "rP11",
        "rP12",
        "rP22",
        "rS11",
        "rS12",
        "rS22",
    }


def test_eval_explicit_controller_file(ex2_problem_file, tmp_path, capsys):
    # a decoupled controller on the stable plant: B_K = C_K = 0
    path = write_controller(tmp_path, 0.5, 0.0, 0.0)
    assert main(["eval", "--problem", ex2_problem_file, "--controller", path]) == 0
    payload_missing = capsys.readouterr()
    assert "J" in payload_missing.out


def test_eval_not_stabilizing_exits_2(ex1_problem_file, tmp_path, capsys):
    path = write_controller(tmp_path, 0.0, 0.0, 0.0)
    assert main(["eval", "--problem", ex1_problem_file, "--controller", path]) == 2
    assert "not stabilizing" in capsys.readouterr().err


def test_eval_non_finite_lyapunov_pair_exits_5(tmp_path, capsys):
    # a stable, finite loop whose Lyapunov pair overflows to NaN: no
    # "J": NaN, which is not JSON, but a check failure
    path = tmp_path / "overflow.json"
    plant = {"A": 0.5, "B": 1.0, "C": 1.0, "Q": 1.0, "R": 1.0}
    controller = dlqr.Controller(A_K=-0.5, B_K=1e-155, C_K=1e154)
    X = np.array([[1.0, 0.25], [0.25, 1.0]])
    path.write_text(json.dumps(problem_dict(plant, X, controller)))
    with np.errstate(all="ignore"):
        assert main(["eval", "--problem", str(path), "--json"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Lyapunov solution is not finite" in captured.err


def test_eval_overflowing_closed_loop_exits_5(tmp_path, capsys):
    # B C_K = 1e200 * 1e200 overflows A_cl, which used to reach eigvals and
    # exit 3 with numpy's "Array must not contain infs or NaNs"; the
    # overflow is reported once, as the typed error, with no numpy warning
    path = tmp_path / "overflow.json"
    plant = {"A": 0.5, "B": 1e200, "C": 1.0, "Q": 1.0, "R": 1.0}
    controller = dlqr.Controller(A_K=-0.5, B_K=1e-161, C_K=1e200)
    X = np.array([[1.0, 0.25], [0.25, 1.0]])
    path.write_text(json.dumps(problem_dict(plant, X, controller)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval", "--problem", str(path), "--json"]) == 5
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "dlqr: check failed: closed loop overflows: A_cl has non-finite entries\n"
    )


@pytest.mark.parametrize("flag", ["--step0", "--backtrack", "--armijo", "--grad-tol"])
def test_descend_takes_only_an_iteration_budget(ex1_problem_file, capsys, flag):
    # the line search and the stop rule are constants of the descent module
    assert main(["descend", "--problem", ex1_problem_file, flag, "0.5"]) == 3
    assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err
    assert main(["descend", "--problem", ex1_problem_file, "--max-iter", "0"]) == 3
    assert "max_iter must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, field",
    [
        ("descend", "--step0", "step0"),
        ("descend", "--grad-tol", "grad_tol"),
    ],
)
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_settings_exit_3(ex1_problem_file, capsys, command, flag, field, value):
    # the flags are gone, so a non-finite value is refused by the parser
    # before any field could be built from it
    assert main([command, "--problem", ex1_problem_file, f"{flag}={value}"]) == 3
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}={value}" in err
    assert f"{field} must be" not in err


@pytest.mark.parametrize(
    "command", ["eval", "stationary", "landscape", "gradcheck", "descend"]
)
def test_solver_commands_take_no_tolerance(ex1_problem_file, capsys, command):
    # the solver certificates are judged to matops.SOLVER_RTOL, and so is
    # gradcheck's discrepancy, relative to the size of the gradient's terms
    assert main([command, "--problem", ex1_problem_file, "--tol", "1e-12"]) == 3
    assert "unrecognized arguments: --tol 1e-12" in capsys.readouterr().err


def test_landscape_takes_no_json_flag(ex1_problem_file, tmp_path, capsys):
    # landscape writes CSV; --json belongs to the commands that print one
    # result
    argv = ["landscape", "--problem", ex1_problem_file, "--orbit=1:2:3",
            "--out", str(tmp_path / "orbit.csv"), "--json"]
    assert main(argv) == 3
    assert "unrecognized arguments: --json" in capsys.readouterr().err
    assert not (tmp_path / "orbit.csv").exists()


def test_eval_without_any_controller_exits_3(tmp_path):
    from conftest import EX1, CROSS_X

    path = tmp_path / "bare.json"
    path.write_text(json.dumps(problem_dict(EX1, CROSS_X)))
    assert main(["eval", "--problem", str(path)]) == 3


def test_eval_input_errors_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["eval", "--problem", str(bad)]) == 3
    assert main(["eval", "--problem", str(tmp_path / "missing.json")]) == 3


def test_an_invalid_json_controller_file_exits_3(ex1_problem_file, tmp_path, capsys):
    bad = tmp_path / "controller.json"
    bad.write_text('{"A_K": ')
    assert main(["eval", "--problem", ex1_problem_file, "--controller", str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"dlqr: input error: invalid JSON in {bad}: ")
    assert captured.out == ""


def test_a_string_entry_in_the_problem_file_exits_3(tmp_path, capsys):
    from conftest import EX1, CROSS_X

    obj = problem_dict(EX1, CROSS_X)
    obj["A"]["data"] = ["1.1"]
    path = tmp_path / "string.json"
    path.write_text(json.dumps(obj))
    assert main(["eval", "--problem", str(path)]) == 3
    assert "A: data[0] must be a number, got '1.1'" in capsys.readouterr().err


def test_usage_errors_exit_3(capsys):
    assert main([]) == 3
    assert main(["eval"]) == 3
    assert main(["no-such-command"]) == 3
    assert main(["descend", "--problem", "p.json", "--max-iter"]) == 3  # no value
    assert main(["gradcheck", "--problem", "p.json", "--trials", "1.5"]) == 3
    assert main(["--help"]) == 0
    for command in ("eval", "stationary", "landscape", "gradcheck", "descend"):
        capsys.readouterr()
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: dlqr {command} ")


def test_stationary_human_output(ex1_problem_file, capsys):
    assert main(["stationary", "--problem", ex1_problem_file]) == 0
    out = capsys.readouterr().out
    assert "K_star.B_K = [[4.4000000000000004]]" in out
    assert "T_star = [[4]]" in out
    assert "residuals.gradient_norm = " in out


def _leaves(payload, prefix=""):
    # the dotted key and value of each leaf; a wire matrix is one leaf
    for key, value in payload.items():
        if isinstance(value, dict) and set(value) != {"rows", "cols", "data"}:
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


@pytest.mark.parametrize(
    "argv",
    [
        ["eval"],
        ["stationary"],
        ["gradcheck", "--trials", "2"],
        ["descend", "--max-iter", "3", "--out", "{tmp}/trace.csv"],
    ],
)
def test_text_output_is_one_line_per_json_leaf(ex1_problem_file, tmp_path, capsys, argv):
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--problem", ex1_problem_file]
    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    leaves = list(_leaves(payload))
    assert [line.split(" = ")[0] for line in lines] == [key for key, _ in leaves]
    for line, (key, value) in zip(lines, leaves):
        text = line.partition(" = ")[2]
        if isinstance(value, dict):  # a wire matrix, row by row
            M = np.reshape(value["data"], (value["rows"], value["cols"]))
            assert text == "[" + ", ".join(
                "[" + ", ".join(f"{v:.17g}" for v in row) + "]" for row in M
            ) + "]"
        elif isinstance(value, float):
            assert text == f"{value:.17g}"
        elif isinstance(value, str):
            assert text == value
        else:
            assert text == json.dumps(value)


def test_stationary_json_round_trips(ex2_problem_file, capsys):
    assert main(["stationary", "--problem", ex2_problem_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    k_star = dlqr.controller_from_wire(payload["K_star"], "K_star")
    assert k_star.A_K[0, 0] == pytest.approx(-0.765, abs=5e-4)
    assert k_star.B_K[0, 0] == pytest.approx(3.6, abs=5e-4)
    assert k_star.C_K[0, 0] == pytest.approx(-0.191, abs=5e-4)
    assert dlqr.matrix_from_wire(payload["T_star"], "T_star")[0, 0] == pytest.approx(4.0)
    assert payload["residuals"]["gradient_norm"] <= 1e-8
    assert payload["J"] == pytest.approx(9.36306791478213, rel=1e-12)
    assert 0.0 < payload["J_error"] <= 1e-12 * payload["J"]
    assert sorted(payload["riccati_residuals"]) == ["control", "filter"]
    assert all(0.0 <= r <= 1.0 for r in payload["riccati_residuals"].values())


def test_stationary_singular_cross_block_exits_4(tmp_path, capsys):
    from conftest import EX1

    path = tmp_path / "x0.json"
    path.write_text(json.dumps(problem_dict(EX1, np.eye(2))))
    assert main(["stationary", "--problem", str(path)]) == 4
    assert "non-existence" in capsys.readouterr().err


def test_landscape_orbit_csv(ex1_problem_file, tmp_path):
    out = tmp_path / "orbit.csv"
    args = [
        "landscape",
        "--problem",
        ex1_problem_file,
        "--orbit",
        "0.5:8:151",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    rows = read_csv(out)
    assert len(rows) == 151
    assert list(rows[0]) == ["axis1", "axis2", "J", "stabilizing", "rho"]
    best = min(rows, key=lambda r: float(r["J"]))
    assert float(best["axis1"]) == pytest.approx(4.0, abs=1e-12)
    assert all(r["stabilizing"] == "1" for r in rows)
    # deterministic byte-for-byte output
    out2 = tmp_path / "orbit2.csv"
    assert main(args[:-1] + [str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_landscape_orbit_values_have_full_precision(ex1_problem_file, tmp_path, rounded_k1, ex1_plant, cross_X):
    out = tmp_path / "orbit.csv"
    assert (
        main(
            [
                "landscape",
                "--problem",
                ex1_problem_file,
                "--orbit",
                "2:4:2",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rows = read_csv(out)
    assert len(rows) == 2
    expected = dlqr.transformed_cost(
        ex1_plant, rounded_k1, cross_X, dlqr.Transform.from_matrix([[2.0]])
    )
    assert rows[0]["J"] == f"{expected:.17g}"


def test_landscape_grid_marks_unstable_cells(ex1_problem_file, tmp_path):
    out = tmp_path / "grid.csv"
    assert (
        main(
            [
                "landscape",
                "--problem",
                ex1_problem_file,
                "--sweep",
                "B_K=1:6:6",
                "--sweep",
                "C_K=-1.5:-0.1:8",
                "--fix",
                "A_K=-0.944",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rows = read_csv(out)
    assert len(rows) == 48
    unstable = [r for r in rows if r["stabilizing"] == "0"]
    stable = [r for r in rows if r["stabilizing"] == "1"]
    assert unstable and stable
    assert all(r["J"] == "" for r in unstable)
    assert all(float(r["rho"]) >= 1.0 - 1e-9 for r in unstable)
    assert all(float(r["J"]) > 0.0 for r in stable)
    # rows iterate axis1 outer, axis2 inner
    axis1_order = [float(r["axis1"]) for r in rows]
    assert axis1_order == sorted(axis1_order)


def test_landscape_single_axis(ex1_problem_file, tmp_path):
    out = tmp_path / "line.csv"
    assert (
        main(
            [
                "landscape",
                "--problem",
                ex1_problem_file,
                "--sweep",
                "B_K=2:6:5",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rows = read_csv(out)
    assert len(rows) == 5
    assert all(r["axis2"] == "" for r in rows)


def test_landscape_matrix_entry_addressing(tmp_path):
    rng = np.random.default_rng(71)
    mats = random_plant_arrays(rng, 2, 1, 1)
    plant = dlqr.Plant(**mats)
    controller = dlqr.random_stabilizing_init(plant, 0)
    path = tmp_path / "matrix.json"
    path.write_text(
        json.dumps(problem_dict(mats, np.eye(4) + 0.1, seed_controller=controller))
    )
    out = tmp_path / "m.csv"
    base = float(controller.B_K[1, 0])
    args = [
        "landscape",
        "--problem",
        str(path),
        "--sweep",
        f"B_K[1,0]={base - 0.1}:{base + 0.1}:3",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    assert len(read_csv(out)) == 3
    # bare names only address 1x1 blocks
    assert main(args[:3] + ["--sweep", "B_K=0:1:3", "--out", str(out)]) == 3


def landscape_oracle(plant, X, axes, **fixed):
    """CSV text of a landscape sweep, one evaluate per cell: axes lists
    (name, values) pairs over scalar controller entries, fixed gives the
    other entries. Raises what the first failing cell raises."""
    lines = ["axis1,axis2,J,stabilizing,rho"]
    grid = [[(v,)] for v in axes[0][1]]
    if len(axes) == 2:
        grid = [[(v1, v2) for v2 in axes[1][1]] for v1 in axes[0][1]]
    for row in grid:
        for values in row:
            entries = dict(fixed)
            entries.update({name: v for (name, _), v in zip(axes, values)})
            try:
                report = dlqr.evaluate(plant, dlqr.Controller(**entries), X)
                J, stable, rho = f"{report.J:.17g}", 1, report.rho
            except dlqr.NotStabilizing as exc:
                J, stable, rho = "", 0, exc.rho
            axis2 = f"{values[1]:.17g}" if len(values) == 2 else ""
            lines.append(f"{values[0]:.17g},{axis2},{J},{stable},{rho:.17g}")
    return "\n".join(lines) + "\n"


def test_landscape_one_axis_bytes_match_per_cell_evaluate(
    ex1_problem_file, ex1_plant, cross_X, tmp_path
):
    out = tmp_path / "line.csv"
    argv = ["landscape", "--problem", ex1_problem_file, "--sweep", "C_K=-1.5:0.5:41",
            "--fix", "B_K=1.1", "--out", str(out)]
    assert main(argv) == 0
    expected = landscape_oracle(
        ex1_plant, cross_X, [("C_K", np.linspace(-1.5, 0.5, 41))], A_K=-0.944, B_K=1.1
    )
    assert ",0," in expected and ",1," in expected
    assert out.read_bytes() == expected.encode()


def test_landscape_two_axis_bytes_match_per_cell_evaluate(
    ex2_problem_file, ex2_plant, cross_X, tmp_path
):
    out = tmp_path / "grid.csv"
    argv = ["landscape", "--problem", ex2_problem_file, "--sweep", "B_K=-4:4:17",
            "--sweep", "C_K=-4:4:19", "--out", str(out)]
    assert main(argv) == 0
    axes = [("B_K", np.linspace(-4, 4, 17)), ("C_K", np.linspace(-4, 4, 19))]
    expected = landscape_oracle(ex2_plant, cross_X, axes, A_K=-0.765)
    assert ",0," in expected and ",1," in expected
    assert out.read_bytes() == expected.encode()


def test_landscape_solver_failure_reports_first_failing_cell(
    ex1_problem_file, ex1_plant, cross_X, tmp_path, capsys, monkeypatch
):
    # at this tolerance the certificates of stable cells fail on rounding,
    # each with its own residual; the grid opens on an unstable cell, and
    # the command must fail on the first failing cell in sweep order
    monkeypatch.setattr(matops, "SOLVER_RTOL", 1e-20)
    argv = ["landscape", "--problem", ex1_problem_file, "--sweep", "C_K=-0.3:-0.1:5",
            "--sweep", "B_K=0.5:3:6", "--fix", "A_K=-0.944",
            "--out", str(tmp_path / "grid.csv")]
    capsys.readouterr()
    assert main(argv) == 5
    axes = [("C_K", np.linspace(-0.3, -0.1, 5)), ("B_K", np.linspace(0.5, 3, 6))]
    with pytest.raises(dlqr.SolverDiverged) as exc:
        landscape_oracle(ex1_plant, cross_X, axes, A_K=-0.944)
    assert capsys.readouterr().err == f"dlqr: check failed: {exc.value}\n"
    assert not (tmp_path / "grid.csv").exists()


def test_landscape_spec_errors_exit_3(ex1_problem_file, tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    base = ["landscape", "--problem", ex1_problem_file, "--out", out]
    assert main(base) == 3  # no sweep and no orbit
    assert main(base + ["--sweep", "Z=1:2:3"]) == 3
    assert main(base + ["--sweep", "B_K=1:2:1"]) == 3  # too few steps
    assert main(base + ["--sweep", "B_K=2:1:3"]) == 3  # inverted range
    assert main(base + ["--sweep", "B_K=1:2"]) == 3  # malformed range
    assert main(base + ["--sweep", "A_K[5,5]=1:2:3"]) == 3  # out of bounds
    three = ["--sweep", "A_K=0:1:3", "--sweep", "B_K=0:1:3", "--sweep", "C_K=0:1:3"]
    assert main(base + three) == 3
    assert main(base + ["--orbit", "1:2:3", "--sweep", "B_K=0:1:3"]) == 3
    assert main(base + ["--orbit", "2:1:5"]) == 3
    # one entry named twice, with or without indices
    for twice in (
        ["--sweep", "C_K=-0.4:-0.1:3", "--sweep", "C_K=-0.3:-0.2:2"],
        ["--sweep", "C_K=-0.4:-0.1:3", "--fix", "C_K[0,0]=-0.2"],
        ["--sweep", "B_K=2:6:3", "--fix", "A_K=-0.9", "--fix", "A_K[0,0]=-0.8"],
    ):
        capsys.readouterr()
        assert main(base + twice) == 3
        assert "[0,0] is named more than once" in capsys.readouterr().err
    capsys.readouterr()
    assert main(base + ["--orbit=-1:1:3"]) == 3  # the grid contains t = 0
    assert "t = 0" in capsys.readouterr().err


def test_gradcheck_passes(ex1_problem_file, capsys):
    assert (
        main(
            [
                "gradcheck",
                "--problem",
                ex1_problem_file,
                "--trials",
                "2",
                "--seed",
                "0",
                "--json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["max_rel_err"] <= payload["tol"] == matops.SOLVER_RTOL
    assert payload["trials"] == 3  # seed controller plus two sampled ones


@pytest.mark.parametrize(
    "s, n", [(9, 6), (8, 7), (11, 9), (1, 10), (13, 5), (15, 8), (28, 5), (5, 7)]
)
def test_gradcheck_passes_at_ill_conditioned_stationary_controllers(tmp_path, capsys, s, n):
    # at K* of these plants the gradient's terms reach ||T||_F = 1.4e12 to
    # 2.0e16, so rounding alone put a correct gradient 1.02e-5 to 3.4e-3
    # from the complex step relative to 1 + ||grad J||; relative to
    # ||T||_F it reads about 1e-17
    arrays, X = draw_plant(np.random.default_rng((s, n)), n)
    K_star = dlqr.stationary_candidate(dlqr.Plant(**arrays), X).K_star
    path = tmp_path / "kstar.json"
    path.write_text(json.dumps(problem_dict(arrays, X, K_star)))
    assert main(["gradcheck", "--problem", str(path), "--trials", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True


def test_gradcheck_passes_where_every_term_vanishes(tmp_path, capsys):
    # with B_K = C_K = 0 and X12 = 0 the controller is invisible to J, so
    # both gradients and every term of the closed form are exactly 0
    from conftest import EX2

    controller = dlqr.Controller(A_K=0.5, B_K=0.0, C_K=0.0)
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(problem_dict(EX2, np.eye(2), controller)))
    assert main(["gradcheck", "--problem", str(path), "--trials", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["max_rel_err"] == 0.0


def test_gradcheck_detects_corrupted_gradient(
    ex1_problem_file, capsys, monkeypatch
):
    # a relative error of 1e-6 in one block fails, as one of 0.5 does
    true_gradient = cli.analytic_gradient
    for factor in (1.5, 1.0 + 1e-6):

        def corrupted(plant, controller, X, *args, **kwargs):
            g = true_gradient(plant, controller, X, *args, **kwargs)
            return dlqr.GradientTriple(dA_K=factor * g.dA_K, dB_K=g.dB_K, dC_K=g.dC_K)

        monkeypatch.setattr(cli, "analytic_gradient", corrupted)
        assert main(["gradcheck", "--problem", ex1_problem_file, "--trials", "2"]) == 5
        assert "pass = false" in capsys.readouterr().out


def test_descend_cli_trace_and_report(ex2_problem_file, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    args = [
        "descend",
        "--problem",
        ex2_problem_file,
        "--seed",
        "1",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    report = capsys.readouterr().out
    assert "status = converged" in report
    assert re.search(r"^gauss_newton_iterations = [1-9][0-9]*$", report, re.M)
    assert "distance_to_candidate.canonical = " in report
    with open(out) as fh:
        header = fh.readline().strip()
    assert header == "iter,J,grad_norm,step"
    rows = read_csv(out)
    assert float(rows[-1]["grad_norm"]) <= 1e-8
    assert float(rows[0]["step"]) == 0.0
    out2 = tmp_path / "trace2.csv"
    assert main(args[:-1] + [str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_descend_cli_json(ex1_problem_file, ex1_plant, cross_X, capsys):
    # without --out no trace is written, and stdout is the one JSON result
    assert main(["descend", "--problem", ex1_problem_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, dict)
    assert payload["status"] == "converged"
    assert payload["grad_norm"] <= 1e-8
    assert payload["distance_to_candidate"]["canonical"] <= 1e-4
    assert payload["J"] == pytest.approx(11.914324683979915, abs=1e-6)
    assert 0 < payload["canonicalizations"] <= payload["iterations"]
    assert 0 < payload["gauss_newton_iterations"] < payload["iterations"]
    controller = dlqr.controller_from_wire(payload["controller"], "controller")
    assert dlqr.is_stabilizing(ex1_plant, controller)
    # J_error is the final accepted report's, and the gap to the closed-form
    # stationary cost is J - J_candidate
    report = dlqr.evaluate(ex1_plant, controller, cross_X)
    assert (payload["J"], payload["J_error"]) == (report.J, report.J_error)
    assert 0.0 < payload["J_error"] <= 1e-12 * payload["J"]
    distance = payload["distance_to_candidate"]
    assert distance["J_minus_J_candidate"] == payload["J"] - distance["J_candidate"]
    assert abs(distance["J_minus_J_candidate"]) <= 1e-12 * payload["J"]


def test_descend_cli_without_candidate(tmp_path, capsys, rounded_k1):
    from conftest import EX1

    path = tmp_path / "x0.json"
    path.write_text(json.dumps(problem_dict(EX1, np.eye(2), rounded_k1)))
    assert main(["descend", "--problem", str(path), "--max-iter", "5"]) == 0
    assert "candidate_error = " in capsys.readouterr().out


def test_descend_cli_iteration_budget_flag(ex1_problem_file, capsys):
    assert (
        main(["descend", "--problem", ex1_problem_file, "--max-iter", "1"]) == 0
    )
    assert "status = max_iter" in capsys.readouterr().out


def test_descend_cli_random_start_follows_the_seed(tmp_path, capsys):
    # without seed_controller the start is random_stabilizing_init(--seed)
    problem = bare_problem_file(tmp_path)

    def run(seed, name):
        out = tmp_path / name
        argv = ["descend", "--problem", problem, "--seed", str(seed), "--json",
                "--out", str(out)]
        assert main(argv) == 0
        return out.read_bytes(), capsys.readouterr().out

    (csv_a, json_a), (csv_b, json_b) = run(3, "a.csv"), run(3, "b.csv")
    assert (csv_a, json_a) == (csv_b, json_b)
    assert json.loads(json_a)["status"] == "converged"
    csv_c, _ = run(4, "c.csv")
    assert csv_a.splitlines()[1] != csv_c.splitlines()[1]
    loaded = dlqr.load_problem(problem)
    init = dlqr.random_stabilizing_init(loaded.plant, 3)
    first_J = float(csv_a.splitlines()[1].split(b",")[1])
    assert first_J == dlqr.evaluate(loaded.plant, init, loaded.X).J


def bare_problem_file(tmp_path):
    from conftest import EX1, CROSS_X

    path = tmp_path / "bare.json"
    path.write_text(json.dumps(problem_dict(EX1, CROSS_X)))
    return str(path)


@pytest.mark.parametrize("step", ["0", "-1e-6", "nan", "inf"])
def test_gradcheck_rejects_a_step_that_is_not_positive_and_finite(
    tmp_path, capsys, step
):
    # the complex step is a module constant, so --step is an unknown flag
    # whatever its value, and gradcheck --help no longer offers it
    argv = ["gradcheck", "--problem", bare_problem_file(tmp_path), "--trials", "1",
            f"--step={step}"]
    assert main(argv) == 3
    assert f"unrecognized arguments: --step={step}" in capsys.readouterr().err
    assert main(["gradcheck", "--help"]) == 0
    assert "--step" not in capsys.readouterr().out


def test_gradcheck_passes_on_a_stiff_observer_based_loop(tmp_path, capsys):
    # rho = 0.961 and ||grad J|| = 2.8e7: central differences read 7.3e-5
    # relative to 1 + ||grad J|| here, on a correct gradient; the complex
    # step is exact to rounding, well inside the bound from the terms' size
    arrays, X = draw_plant(np.random.default_rng((13, 5)), 5)
    plant = dlqr.Plant(**arrays)
    _, K = dlqr.solve_dare_control(plant)
    _, L = dlqr.solve_dare_filter(plant, np.eye(5))
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(problem_dict(arrays, X, dlqr.observer_based(plant, K, L))))
    argv = ["gradcheck", "--problem", str(path), "--trials", "0", "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True and payload["tol"] == matops.SOLVER_RTOL
    assert payload["max_rel_err"] <= 1e-3 * matops.SOLVER_RTOL


def test_gradcheck_rejects_negative_trials(ex1_problem_file, capsys):
    assert main(["gradcheck", "--problem", ex1_problem_file, "--trials", "-3"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "dlqr: input error: --trials must not be negative\n"
    assert "pass = " not in captured.out


def test_gradcheck_rejects_an_empty_controller_list(tmp_path, capsys):
    assert main(["gradcheck", "--problem", bare_problem_file(tmp_path), "--trials", "0"]) == 3
    captured = capsys.readouterr()
    assert "no controller to check" in captured.err
    assert "pass = " not in captured.out


def test_gradcheck_fails_on_a_nan_discrepancy(ex1_problem_file, capsys, monkeypatch):
    true_gradient = cli.analytic_gradient

    def nan_gradient(plant, controller, X, *args, **kwargs):
        g = true_gradient(plant, controller, X, *args, **kwargs)
        return dlqr.GradientTriple(dA_K=np.full_like(g.dA_K, np.nan), dB_K=g.dB_K, dC_K=g.dC_K)

    monkeypatch.setattr(cli, "analytic_gradient", nan_gradient)
    assert main(["gradcheck", "--problem", ex1_problem_file, "--trials", "1"]) == 5
    out = capsys.readouterr().out
    assert "max_rel_err = nan" in out
    assert out.endswith("pass = false\n")


@pytest.mark.parametrize(
    "flag, spec",
    [
        ("--sweep", "C_K=-inf:0:3"),
        ("--sweep", "C_K=0:nan:3"),
        ("--orbit", "0.5:inf:3"),
        ("--orbit", "-1.7e308:1.7e308:3"),  # finite bounds, infinite width
    ],
)
def test_landscape_rejects_non_finite_ranges(ex1_problem_file, tmp_path, capsys, flag, spec):
    out = tmp_path / "x.csv"
    argv = ["landscape", "--problem", ex1_problem_file, f"{flag}={spec}", "--out", str(out)]
    rng = spec.split("=")[-1]
    kind = flag[2:]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert err == f"dlqr: input error: {kind} range '{rng}' must have finite bounds\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1e999"])
def test_landscape_rejects_non_finite_fix_values(ex1_problem_file, tmp_path, capsys, value):
    out = tmp_path / "x.csv"
    argv = ["landscape", "--problem", ex1_problem_file, "--sweep", "C_K=-1:0:3",
            "--fix", f"B_K={value}", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"dlqr: input error: fix value '{value}' must be finite\n"
    assert not out.exists()


def orbit_oracle(plant, controller, X, ts):
    """Orbit CSV text with one Transform and one transformed_cost per t."""
    lines = ["axis1,axis2,J,stabilizing,rho"]
    for t in ts:
        try:
            report = dlqr.evaluate(plant, controller, X)
            transform = dlqr.Transform.from_matrix(t * np.eye(plant.n))
            J = f"{dlqr.transformed_cost(plant, controller, X, transform, report=report):.17g}"
            stable, rho = 1, report.rho
        except dlqr.NotStabilizing as exc:
            J, stable, rho = "", 0, exc.rho
        lines.append(f"{t:.17g},,{J},{stable},{rho:.17g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("orbit", ["0.3:8:51", "-3:-0.2:29", "-2:5:9"])
def test_landscape_orbit_bytes_match_per_t_transformed_cost(
    ex1_problem_file, ex1_plant, rounded_k1, cross_X, tmp_path, orbit
):
    out = tmp_path / "orbit.csv"
    assert main(["landscape", "--problem", ex1_problem_file, f"--orbit={orbit}",
                 "--out", str(out)]) == 0
    lo, hi, steps = orbit.split(":")
    ts = np.linspace(float(lo), float(hi), int(steps))
    assert out.read_bytes() == orbit_oracle(ex1_plant, rounded_k1, cross_X, ts).encode()


def test_landscape_orbit_bytes_match_per_t_transformed_cost_order_three(tmp_path):
    rng = np.random.default_rng(5)
    mats = random_plant_arrays(rng, 3, 1, 1)
    plant = dlqr.Plant(**mats)
    X = random_pd_second_moment(rng, 3)
    out = tmp_path / "orbit.csv"
    ts = np.linspace(-4, 6, 37)
    stable = dlqr.random_stabilizing_init(plant, 0)
    unstable = dlqr.Controller(A_K=2 * np.eye(3), B_K=np.ones((3, 1)), C_K=np.ones((1, 3)))
    for controller, stabilizing in ((stable, "1"), (unstable, "0")):
        path = tmp_path / "order3.json"
        path.write_text(json.dumps(problem_dict(mats, X, seed_controller=controller)))
        assert main(["landscape", "--problem", str(path), "--orbit=-4:6:37",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == orbit_oracle(plant, controller, X, ts).encode()
        assert {row["stabilizing"] for row in read_csv(out)} == {stabilizing}


def test_main_builds_no_parser(ex1_problem_file, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["eval", "--problem", ex1_problem_file]) == 0
    assert main(["landscape", "--problem", ex1_problem_file, "--orbit", "1:2:3"]) == 0
    assert main(["landscape", "--help"]) == 0
    assert main(["eval"]) == 3
    assert built == []


@pytest.mark.parametrize(
    "a, b",
    [
        (["landscape", "--sweep", "C_K=-0.4:-0.1:7", "--fix", "A_K=0.1", "--fix", "B_K=4"],
         ["landscape", "--sweep", "C_K=-0.4:-0.1:7"]),
        (["descend", "--max-iter", "3"], ["descend", "--max-iter", "20"]),
    ],
)
def test_repeated_main_calls_carry_no_state(ex1_problem_file, capsys, a, b):
    def run(argv):
        assert main(argv[:1] + ["--problem", ex1_problem_file] + argv[1:]) == 0
        return capsys.readouterr().out

    b_first = run(b)
    a_first = run(a)
    assert run(b) == b_first
    assert run(a) == a_first
    assert a_first != b_first


def test_descend_help_keeps_flag_spellings(capsys):
    assert main(["descend", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--max-iter MAX_ITER" in out
    for flag in ("--step0", "--backtrack", "--armijo", "--grad-tol"):
        assert flag not in out
