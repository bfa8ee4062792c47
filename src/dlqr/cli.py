"""Command-line front end: `dlqr eval|stationary|landscape|gradcheck|descend`.

Problem files are JSON (see the model module schema). Sweeps write CSV
with deterministic row order; all numbers are printed with 17 significant
digits so downstream plots reproduce bit-faithfully.

`eval`, `stationary`, `gradcheck` and `descend` each build one result, a
JSON object, and `_emit` prints it: with `--json` as that object, else as
one `key = value` line per leaf, nested keys dotted (`residuals.rP12`),
wire matrices as nested lists, floats with 17 significant digits and
booleans, integers and null as their JSON scalars. The two outputs carry
the same fields.

The parser is built once, at import, and holds every default: `descend`'s
one tuning flag, `--max-iter`, defaults to descent.ITERATION_BUDGET. No
command takes a tolerance: the certificates and `gradcheck` are judged to
matops.SOLVER_RTOL (see cmd_gradcheck). `main` calls `cmd_<command>(args)`
with the parsed namespace, looking the handler up by name at call time, so
a patched module attribute is the one called.

Exit codes: 0 success, 2 not stabilizing, 3 input/schema error,
4 non-existence of the requested object, 5 check or solver failure.
"""

import argparse
import json
import math
import re
import sys

import numpy as np

from .cost import _Gains, _stacked_costs, evaluate
from .descent import ITERATION_BUDGET, descend, random_stabilizing_init
from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    InitFailed,
    NonSquare,
    NotObservable,
    NotStabilizing,
    OptimalTransformNotFound,
    SchemaError,
    SingularInnovation,
    SingularTransform,
    SingularX12,
    SolverDiverged,
)
from .gradient import GradientTriple, analytic_gradient, finite_difference_gradient
from .gradient import _closed_form, _factors
from .matops import SOLVER_RTOL
from .model import (
    _read_json,
    controller_from_wire,
    controller_to_vector,
    load_problem,
    matrix_to_wire,
)
from .similarity import apply, g_surrogate, optimal_transform
from .stationary import stationary_candidate

_SWEEP_TARGET = re.compile(r"^(A_K|B_K|C_K)(?:\[(\d+),(\d+)\])?$")


def _fmt(x):
    return f"{float(x):.17g}"


def _fmt_matrix(wire):
    data, cols = wire["data"], wire["cols"]
    rows = (
        "[" + ", ".join(map(_fmt, data[i : i + cols])) + "]"
        for i in range(0, len(data), cols)
    )
    return "[" + ", ".join(rows) + "]"


def _lines(result, prefix=""):
    # one (dotted key, text) pair per leaf; a wire matrix is one leaf
    for key, value in result.items():
        key = prefix + key
        if isinstance(value, dict) and value.keys() != {"rows", "cols", "data"}:
            yield from _lines(value, key + ".")
        elif isinstance(value, dict):
            yield key, _fmt_matrix(value)
        elif isinstance(value, float):
            yield key, _fmt(value)
        elif isinstance(value, str):
            yield key, value
        else:  # bool, int or None
            yield key, json.dumps(value)


def _emit(result, as_json):
    """Print a command's result: its JSON, or one `key = value` line per
    leaf, nested keys dotted."""
    if as_json:
        print(json.dumps(result))
    else:
        for key, text in _lines(result):
            print(f"{key} = {text}")


def _controller_wire(controller):
    return {
        "A_K": matrix_to_wire(controller.A_K),
        "B_K": matrix_to_wire(controller.B_K),
        "C_K": matrix_to_wire(controller.C_K),
    }


def _resolve_controller(problem, controller_path):
    if controller_path is not None:
        return controller_from_wire(_read_json(controller_path), "controller")
    if problem.seed_controller is not None:
        return problem.seed_controller
    raise SchemaError("no controller: pass --controller or add seed_controller")


def cmd_eval(args):
    """Evaluate the cost of one controller and print its certificates."""
    problem = load_problem(args.problem)
    controller = _resolve_controller(problem, args.controller)
    report = evaluate(problem.plant, controller, problem.X)
    # the six independent n x n blocks of the certificates' residual
    # matrices (the 21 block duplicates the 12 block by symmetry)
    halves = (slice(None, report.n), slice(report.n, None))
    residuals = {
        f"r{name}{i + 1}{j + 1}": float(np.linalg.norm(M[halves[i], halves[j]]))
        for name, M in (("P", report.r_P), ("S", report.r_Sigma))
        for i, j in ((0, 0), (0, 1), (1, 1))
    }
    result = {
        "J": report.J,
        "J_error": report.J_error,
        "rho": report.rho,
        "lambda_min_P": report.lambda_min_P,
        "lambda_min_Sigma": report.lambda_min_Sigma,
        "residuals": residuals,
    }
    _emit(result, args.as_json)
    return 0


def cmd_stationary(args):
    """Construct the closed-form stationary controller and print it."""
    problem = load_problem(args.problem)
    cert = stationary_candidate(problem.plant, problem.X)
    result = {
        "K_star": _controller_wire(cert.K_star),
        "K_dagger": _controller_wire(cert.K_dagger),
        "T_star": matrix_to_wire(cert.T_star.T),
        "K_gain": matrix_to_wire(cert.K_gain),
        "L_gain": matrix_to_wire(cert.L_gain),
        "P_hat": matrix_to_wire(cert.P_hat),
        "Sigma_hat": matrix_to_wire(cert.Sigma_hat),
        "J": cert.J,
        "J_error": cert.J_error,
        "riccati_residuals": cert.riccati_residuals,
        "residuals": cert.residuals,
    }
    _emit(result, args.as_json)
    return 0


def _parse_target(spec, kind, syntax, controller):
    # NAME[i,j]=VALUE (indices optional for 1x1 matrices); returns the entry
    # (name, i, j), checked against the controller's matrices, and the
    # unparsed VALUE
    if "=" not in spec:
        raise SchemaError(f"{kind} '{spec}' must look like NAME[i,j]={syntax}")
    target, _, value = spec.partition("=")
    m = _SWEEP_TARGET.match(target.strip())
    if m is None:
        raise SchemaError(f"{kind} target '{target}' must be A_K, B_K or C_K [i,j]")
    name, shape = m.group(1), getattr(controller, m.group(1)).shape
    if m.group(2) is None:
        if shape != (1, 1):
            raise SchemaError(f"{name} is {shape[0]}x{shape[1]}; use {name}[i,j]")
        i = j = 0
    else:
        i, j = int(m.group(2)), int(m.group(3))
    if not (0 <= i < shape[0] and 0 <= j < shape[1]):
        raise SchemaError(f"{name}[{i},{j}] is out of bounds for shape {shape}")
    return (name, i, j), value


def _parse_range(spec, kind):
    # min:max:steps
    parts = spec.split(":")
    if len(parts) != 3:
        raise SchemaError(f"{kind} range '{spec}' must be min:max:steps")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SchemaError(f"bad {kind} range '{spec}': {exc}") from exc
    if not math.isfinite(hi - lo):  # an infinite or NaN bound, or width
        raise SchemaError(f"{kind} range '{spec}' must have finite bounds")
    if steps < 2:
        raise SchemaError(f"{kind} steps must be at least 2")
    if not lo < hi:
        raise SchemaError(f"{kind} min must be below max")
    return np.linspace(lo, hi, steps)


def _landscape_lines(axis1, axis2, J, rho):
    """CSV lines of a sweep from lists of its cells' floats: axis2 is None
    for one axis, and a cell's J is None where it is not stabilizing."""
    a2 = [""] * len(axis1) if axis2 is None else [f"{v:.17g}" for v in axis2]
    # the J and stabilizing fields: an empty J and 0 where J is None
    costs = [",0" if j is None else f"{j:.17g},1" for j in J]
    lines = ["axis1,axis2,J,stabilizing,rho"]
    lines += [f"{a:.17g},{b},{c},{r:.17g}" for a, b, c, r in zip(axis1, a2, costs, rho)]
    return lines


def _write_lines(out_csv, lines):
    text = "\n".join(lines) + "\n"
    if out_csv is None:
        sys.stdout.write(text)
    else:
        with open(out_csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_landscape(args):
    """Sweep controller entries (or the orbit parameter) and write CSV."""
    problem = load_problem(args.problem)
    plant = problem.plant
    base = _resolve_controller(problem, args.controller)

    if args.orbit is not None:
        if args.sweep or args.fix:
            raise SchemaError("--orbit cannot be combined with --sweep/--fix")
        ts = _parse_range(args.orbit, "orbit")
        if np.any(ts == 0.0):
            raise SchemaError(
                f"orbit range '{args.orbit}' contains t = 0 (t*I is singular)"
            )
        # Similarity preserves the closed-loop spectrum, so stability and
        # rho are those of the base controller for every t.
        try:
            report = evaluate(plant, base, problem.X)
        except NotStabilizing as exc:
            J, rho = [None] * len(ts), exc.rho
        else:
            # H = (t I)^-1 for every t at once
            H = np.eye(plant.n) / ts[:, None, None]
            J, rho = g_surrogate(report, H).tolist(), report.rho
        _write_lines(args.out, _landscape_lines(ts.tolist(), None, J, [rho] * len(ts)))
        return 0

    if not args.sweep:
        raise SchemaError("landscape needs --sweep (one or two) or --orbit")
    if len(args.sweep) > 2:
        raise SchemaError("at most two sweep axes are supported")
    axes = []
    for spec in args.sweep:
        target, rng = _parse_target(spec, "sweep", "min:max:steps", base)
        axes.append((target, _parse_range(rng, "sweep")))
    fixed = []
    for spec in args.fix:
        target, value = _parse_target(spec, "fix", "value", base)
        try:
            v = float(value)
        except ValueError as exc:
            raise SchemaError(f"bad fix value '{value}': {exc}") from exc
        if not math.isfinite(v):
            raise SchemaError(f"fix value '{value}' must be finite")
        fixed.append((target, v))

    # resolved entries, so that C_K and C_K[0,0] are the same
    targets = [target for target, _ in fixed + axes]
    for k, (name, i, j) in enumerate(targets):
        if (name, i, j) in targets[:k]:
            raise SchemaError(f"{name}[{i},{j}] is named more than once")
    # One slice per cell, in row order: the last axis varies fastest.
    grid = [g.ravel() for g in np.meshgrid(*(v for _, v in axes), indexing="ij")]
    mats = {"A_K": base.A_K, "B_K": base.B_K, "C_K": base.C_K}
    stacks = {k: np.repeat(M[None], len(grid[0]), axis=0) for k, M in mats.items()}
    for (name, i, j), values in zip(targets, [v for _, v in fixed] + grid):
        stacks[name][:, i, j] = values
    J, rho, errors = _stacked_costs(plant, _Gains(**stacks), problem.X.X)
    failed = [k for k, exc in errors.items() if not isinstance(exc, NotStabilizing)]
    if failed:
        raise errors[min(failed)]  # the first failing cell in row order
    J = J.tolist()
    for k in errors:
        J[k] = None
    axis2 = grid[1].tolist() if len(grid) == 2 else None
    _write_lines(args.out, _landscape_lines(grid[0].tolist(), axis2, J, rho.tolist()))
    return 0


def cmd_gradcheck(args):
    """Compare analytic and complex-step gradients; exit 5 on failure,
    which includes a non-finite discrepancy. Both use one P and Sigma, so a
    correct formula differs by rounding alone: pass when ||diff||_F <=
    SOLVER_RTOL ||T||_F, with T the closed form on |every factor|."""
    if args.trials < 0:
        raise SchemaError("--trials must not be negative")
    problem = load_problem(args.problem)
    plant = problem.plant
    controllers = []
    if args.controller is not None or problem.seed_controller is not None:
        controllers.append(_resolve_controller(problem, args.controller))
    for k in range(args.trials):
        controllers.append(random_stabilizing_init(plant, args.seed + k))
    if not controllers:
        raise SchemaError(
            "no controller to check: pass --controller, add seed_controller "
            "or use --trials of at least 1"
        )
    discrepancies = []
    for controller in controllers:
        report = evaluate(plant, controller, problem.X)
        ga = analytic_gradient(plant, controller, problem.X, report=report)
        terms = _closed_form(*map(np.abs, _factors(plant, controller, report)))
        gf = finite_difference_gradient(plant, controller, problem.X)
        diff = GradientTriple(ga.dA_K - gf.dA_K, ga.dB_K - gf.dB_K, ga.dC_K - gf.dC_K)
        # B_K = C_K = 0 with X12 = 0 zeroes every term and both gradients
        err, size = diff.norm, terms.norm
        discrepancies.append(err / size if size else (math.inf if err else 0.0))
    worst = float(np.max(discrepancies))  # NaN propagates, and NaN fails
    passed = worst <= SOLVER_RTOL
    result = {
        "max_rel_err": worst,
        "trials": len(controllers),
        "tol": SOLVER_RTOL,
        "pass": passed,
    }
    _emit(result, args.as_json)
    return 0 if passed else 5


def _candidate_distance(plant, X, final):
    # Parameter distance to the closed-form stationary controller, raw and
    # after canonicalizing the final iterate with its own optimal transform
    # (which removes the sub-tolerance drift along the orbit direction).
    cert = stationary_candidate(plant, X)
    raw = float(
        np.linalg.norm(controller_to_vector(final) - controller_to_vector(cert.K_star))
    )
    try:
        canonical_ctrl = apply(final, optimal_transform(plant, final, X))
        canonical = float(
            np.linalg.norm(
                controller_to_vector(canonical_ctrl)
                - controller_to_vector(cert.K_star)
            )
        )
    except (OptimalTransformNotFound, NotObservable, AssumptionViolated):
        canonical = raw
    return cert, raw, canonical


def cmd_descend(args):
    """Run the descent, write the per-iteration CSV to --out, report the end."""
    problem = load_problem(args.problem)
    plant = problem.plant
    if problem.seed_controller is not None:
        init = problem.seed_controller
    else:
        init = random_stabilizing_init(plant, args.seed)
    trace = descend(plant, problem.X, init, args.max_iter)
    if args.out is not None:  # stdout carries the one result
        lines = ["iter,J,grad_norm,step"]
        for k, rec in enumerate(trace.steps):
            lines.append(f"{k},{_fmt(rec.J)},{_fmt(rec.grad_norm)},{_fmt(rec.step)}")
        _write_lines(args.out, lines)
    final = trace.final_controller
    result = {
        "status": trace.status,
        "iterations": trace.iterations,
        "gauss_newton_iterations": trace.gauss_newton_iterations,
        "canonicalizations": trace.canonicalizations,
        "evaluations": trace.evaluations,
        "backtracks": trace.backtracks,
        "rejected_unstable": trace.rejected_unstable,
        "J": trace.final_J,
        "J_error": trace.final_J_error,
        "grad_norm": trace.final_grad_norm,
        "controller": _controller_wire(final),
    }
    try:
        cert, raw, canonical = _candidate_distance(plant, problem.X, final)
    except (SingularX12, AssumptionViolated, SolverDiverged) as exc:
        result.update(distance_to_candidate=None, candidate_error=str(exc))
    else:
        result["distance_to_candidate"] = {
            "raw": raw,
            "canonical": canonical,
            "J_candidate": cert.J,
            "J_minus_J_candidate": trace.final_J - cert.J,
        }
    _emit(result, args.as_json)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dlqr",
        description="Cost, gradients, transforms and descent for dynamic "
        "output-feedback LQR problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, controller=False, result=True):
        p.add_argument("--problem", required=True, help="problem JSON file")
        if result:
            p.add_argument("--json", action="store_true", dest="as_json")
        if controller:
            p.add_argument(
                "--controller",
                default=None,
                help="controller JSON file (defaults to the seed controller)",
            )

    p = sub.add_parser("eval", help="cost and certificates of one controller")
    common(p, controller=True)

    p = sub.add_parser("stationary", help="closed-form stationary controller")
    common(p)

    p = sub.add_parser("landscape", help="grid or orbit sweep to CSV")
    common(p, controller=True, result=False)
    p.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="NAME[i,j]=MIN:MAX:STEPS",
        help="swept controller entry (repeat for a second axis)",
    )
    p.add_argument(
        "--fix",
        action="append",
        default=[],
        metavar="NAME[i,j]=VALUE",
        help="pinned controller entry",
    )
    p.add_argument(
        "--orbit",
        default=None,
        metavar="MIN:MAX:STEPS",
        help="sweep the similarity parameter t (controller transformed by t*I)",
    )
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p = sub.add_parser("gradcheck", help="analytic vs complex-step gradients")
    common(p, controller=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "descend", help="stability-safeguarded Gauss-Newton, then gradient, descent"
    )
    common(p)
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the random stabilizing start, used only when the "
        "problem has no seed_controller",
    )
    p.add_argument("--out", default=None, help="trace CSV path (no trace without it)")
    p.add_argument(
        "--max-iter", type=int, default=ITERATION_BUDGET, help="iteration budget"
    )
    return parser


_PARSER = _build_parser()

# AssumptionViolated is a ValueError.
_INPUT_ERRORS = (
    SchemaError,
    DimensionMismatch,
    NonSquare,
    SingularTransform,
    ValueError,
    OSError,
)


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the exit-code contract reserves
        # 2 for stability failures and 3 for input errors.
        return 0 if exc.code == 0 else 3
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (NotStabilizing, NotObservable) as exc:
        print(f"dlqr: not stabilizing: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"dlqr: input error: {exc}", file=sys.stderr)
        return 3
    except (SingularX12, OptimalTransformNotFound) as exc:
        print(f"dlqr: non-existence: {exc}", file=sys.stderr)
        return 4
    except (SolverDiverged, SingularInnovation, InitFailed) as exc:
        print(f"dlqr: check failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
