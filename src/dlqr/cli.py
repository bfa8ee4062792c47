"""Command-line front end: `dlqr eval|stationary|landscape|gradcheck|descend`.

Problem files are JSON (see the model module schema). Sweeps write CSV
with deterministic row order; all numbers are printed with 17 significant
digits so downstream plots reproduce bit-faithfully.

The parser is built once, at import, and holds every default: `--tol` is
`gradcheck`'s pass threshold, GRADCHECK_DEFAULT_TOL, and the `descend`
flags are DescentConfig's fields. The solver commands take no tolerance:
their certificates are judged to matops.SOLVER_RTOL. `main`
calls `cmd_<command>(args)` with the parsed namespace, looking the handler
up by name at call time, so a patched module attribute is the one called.

Exit codes: 0 success, 2 not stabilizing, 3 input/schema error,
4 non-existence of the requested object, 5 check or solver failure.
"""

import argparse
import json
import math
import re
import sys

import numpy as np

from .cost import _Gains, _stacked_costs, block_lyapunov_residuals, evaluate
from .descent import (
    DEFAULT_DESCENT_CONFIG,
    DescentConfig,
    descend,
    random_stabilizing_init,
)
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
from .model import (
    controller_from_wire,
    controller_to_vector,
    load_problem,
    matrix_to_wire,
)
from .similarity import apply, g_surrogate, optimal_transform
from .stationary import stationary_candidate

GRADCHECK_DEFAULT_TOL = 1e-5

# descend's line-search flags and the DescentConfig fields they set
_DESCENT_FLAGS = {
    "--step0": "step0",
    "--backtrack": "backtrack_factor",
    "--armijo": "armijo_c",
    "--max-iter": "max_iter",
    "--grad-tol": "grad_tol",
}

_SWEEP_TARGET = re.compile(r"^(A_K|B_K|C_K)(?:\[(\d+),(\d+)\])?$")


def _fmt(x):
    return f"{float(x):.17g}"


def _fmt_matrix(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    rows = ["[" + ", ".join(_fmt(v) for v in row) + "]" for row in M]
    return "[" + ", ".join(rows) + "]"


def _controller_wire(controller):
    return {
        "A_K": matrix_to_wire(controller.A_K),
        "B_K": matrix_to_wire(controller.B_K),
        "C_K": matrix_to_wire(controller.C_K),
    }


def _load_controller_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in controller file: {exc}") from exc
    return controller_from_wire(obj, "controller")


def _resolve_controller(problem, controller_path):
    if controller_path is not None:
        return _load_controller_file(controller_path)
    if problem.seed_controller is not None:
        return problem.seed_controller
    raise SchemaError("no controller: pass --controller or add seed_controller")


def cmd_eval(args):
    """Evaluate the cost of one controller and print its certificates."""
    problem = load_problem(args.problem)
    controller = _resolve_controller(problem, args.controller)
    report = evaluate(problem.plant, controller, problem.X)
    rho, lam_P, lam_S = report.rho, report.lambda_min_P, report.lambda_min_Sigma
    residuals = block_lyapunov_residuals(problem.plant, controller, report)
    if args.as_json:
        print(
            json.dumps(
                {
                    "J": report.J,
                    "J_error": report.J_error,
                    "rho": rho,
                    "lambda_min_P": lam_P,
                    "lambda_min_Sigma": lam_S,
                    "residuals": residuals,
                }
            )
        )
    else:
        print(f"J                = {_fmt(report.J)}")
        print(f"J_error          = {_fmt(report.J_error)}")
        print(f"rho(A_cl)        = {_fmt(rho)}")
        print(f"lambda_min(P)    = {_fmt(lam_P)}")
        print(f"lambda_min(Sigma) = {_fmt(lam_S)}")
        for key in sorted(residuals):
            print(f"residual {key}   = {_fmt(residuals[key])}")
    return 0


def cmd_stationary(args):
    """Construct the closed-form stationary controller and print it."""
    problem = load_problem(args.problem)
    cert = stationary_candidate(problem.plant, problem.X)
    if args.as_json:
        print(
            json.dumps(
                {
                    "K_star": _controller_wire(cert.K_star),
                    "K_dagger": _controller_wire(cert.K_dagger),
                    "T_star": matrix_to_wire(cert.T_star.T),
                    "K_gain": matrix_to_wire(cert.K_gain),
                    "L_gain": matrix_to_wire(cert.L_gain),
                    "P_hat": matrix_to_wire(cert.P_hat),
                    "Sigma_hat": matrix_to_wire(cert.Sigma_hat),
                    "J": cert.J,
                    "residuals": cert.residuals,
                }
            )
        )
    else:
        print(f"K_star.A_K = {_fmt_matrix(cert.K_star.A_K)}")
        print(f"K_star.B_K = {_fmt_matrix(cert.K_star.B_K)}")
        print(f"K_star.C_K = {_fmt_matrix(cert.K_star.C_K)}")
        print(f"K_gain     = {_fmt_matrix(cert.K_gain)}")
        print(f"L_gain     = {_fmt_matrix(cert.L_gain)}")
        print(f"T_star     = {_fmt_matrix(cert.T_star.T)}")
        print(f"P_hat      = {_fmt_matrix(cert.P_hat)}")
        print(f"Sigma_hat  = {_fmt_matrix(cert.Sigma_hat)}")
        print(f"J          = {_fmt(cert.J)}")
        for key in sorted(cert.residuals):
            print(f"residual {key} = {_fmt(cert.residuals[key])}")
    return 0


def _parse_target(spec, kind, syntax):
    # NAME[i,j]=VALUE (indices optional for 1x1 matrices); returns the
    # target and the unparsed VALUE
    if "=" not in spec:
        raise SchemaError(f"{kind} '{spec}' must look like NAME[i,j]={syntax}")
    target, _, value = spec.partition("=")
    m = _SWEEP_TARGET.match(target.strip())
    if m is None:
        raise SchemaError(f"{kind} target '{target}' must be A_K, B_K or C_K [i,j]")
    i = int(m.group(2)) if m.group(2) is not None else None
    j = int(m.group(3)) if m.group(3) is not None else None
    return (m.group(1), i, j), value


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


def _entry(mats, target):
    # (name, i, j) of a sweep or fix target, checked against the matrices
    name, i, j = target
    M = mats[name]
    if i is None:
        if M.shape != (1, 1):
            raise SchemaError(f"{name} is {M.shape[0]}x{M.shape[1]}; use {name}[i,j]")
        i = j = 0
    if not (0 <= i < M.shape[0] and 0 <= j < M.shape[1]):
        raise SchemaError(f"{name}[{i},{j}] is out of bounds for shape {M.shape}")
    return name, i, j


def _csv_row(axis1, axis2, J, stabilizing, rho):
    a2 = _fmt(axis2) if axis2 is not None else ""
    jtxt = _fmt(J) if J is not None else ""
    return f"{_fmt(axis1)},{a2},{jtxt},{int(stabilizing)},{_fmt(rho)}"


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
    lines = ["axis1,axis2,J,stabilizing,rho"]

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
            J, stabilizing, rho = [None] * len(ts), False, exc.rho
        else:
            # H = (t I)^-1 for every t at once, solved as Transform.from_matrix
            # solves each inverse
            eye = np.eye(plant.n)
            H = np.linalg.solve(
                ts[:, None, None] * eye, np.broadcast_to(eye, (len(ts),) + eye.shape)
            )
            J, stabilizing, rho = g_surrogate(report, H), True, report.rho
        for t, cost in zip(ts, J):
            lines.append(_csv_row(t, None, cost, stabilizing, rho))
        _write_lines(args.out, lines)
        return 0

    if not args.sweep:
        raise SchemaError("landscape needs --sweep (one or two) or --orbit")
    if len(args.sweep) > 2:
        raise SchemaError("at most two sweep axes are supported")
    axes = []
    for spec in args.sweep:
        target, rng = _parse_target(spec, "sweep", "min:max:steps")
        axes.append((target, _parse_range(rng, "sweep")))
    fixed = []
    for spec in args.fix:
        target, value = _parse_target(spec, "fix", "value")
        try:
            fixed.append((target, float(value)))
        except ValueError as exc:
            raise SchemaError(f"bad fix value '{value}': {exc}") from exc

    mats = {"A_K": base.A_K.copy(), "B_K": base.B_K.copy(), "C_K": base.C_K.copy()}
    for target, v in fixed:
        name, i, j = _entry(mats, target)
        mats[name][i, j] = v
    entries = [_entry(mats, target) for target, _ in axes]
    # One slice per cell, in row order: the last axis varies fastest.
    grid = [g.ravel() for g in np.meshgrid(*(v for _, v in axes), indexing="ij")]
    stacks = {k: np.repeat(M[None], len(grid[0]), axis=0) for k, M in mats.items()}
    for (name, i, j), values in zip(entries, grid):
        stacks[name][:, i, j] = values
    finite = np.all([np.isfinite(M).all(axis=(1, 2)) for M in stacks.values()], axis=0)
    if not finite.all():
        k = int(np.argmin(finite))
        type(base)(**{key: M[k] for key, M in stacks.items()})  # raises its error
    J, rho, errors = _stacked_costs(plant, _Gains(**stacks), problem.X.X)
    for k, values in enumerate(zip(*grid)):
        exc = errors.get(k)
        if exc is not None and not isinstance(exc, NotStabilizing):
            raise exc
        axis2 = float(values[1]) if len(values) == 2 else None
        cost = J[k] if exc is None else None
        lines.append(_csv_row(float(values[0]), axis2, cost, exc is None, rho[k]))
    _write_lines(args.out, lines)
    return 0


def cmd_gradcheck(args):
    """Compare analytic and finite-difference gradients; exit 5 on failure,
    which includes a non-finite discrepancy."""
    if args.trials < 0:
        raise SchemaError("--trials must not be negative")
    if not 0.0 <= args.tol < math.inf:
        raise SchemaError(f"--tol must be non-negative and finite, got {args.tol}")
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
        ga = analytic_gradient(plant, controller, problem.X)
        gf = finite_difference_gradient(plant, controller, problem.X, step=args.step)
        diff = GradientTriple(ga.dA_K - gf.dA_K, ga.dB_K - gf.dB_K, ga.dC_K - gf.dC_K)
        discrepancies.append(diff.norm / (1.0 + ga.norm))
    worst = float(np.max(discrepancies))  # NaN propagates, and NaN fails
    passed = worst <= args.tol
    if args.as_json:
        print(
            json.dumps(
                {
                    "max_rel_err": worst,
                    "trials": len(controllers),
                    "tol": args.tol,
                    "pass": passed,
                }
            )
        )
    else:
        print(f"gradient check: {len(controllers)} controllers")
        print(f"max relative discrepancy = {_fmt(worst)} (tolerance {_fmt(args.tol)})")
        print("PASS" if passed else "FAIL")
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
    """Run gradient descent, write the per-iteration CSV, report the end."""
    problem = load_problem(args.problem)
    plant = problem.plant
    cfg = DescentConfig(
        **{field: getattr(args, field) for field in _DESCENT_FLAGS.values()}
    )
    if problem.seed_controller is not None:
        init = problem.seed_controller
    else:
        init = random_stabilizing_init(plant, args.seed)
    trace = descend(plant, problem.X, init, cfg)
    lines = ["iter,J,grad_norm,step"]
    for k, step_rec in enumerate(trace.steps):
        lines.append(
            f"{k},{_fmt(step_rec.J)},{_fmt(step_rec.grad_norm)},{_fmt(step_rec.step)}"
        )
    _write_lines(args.out, lines)
    final = trace.final_controller
    try:
        cert, raw, canonical = _candidate_distance(plant, problem.X, final)
        distance = {"raw": raw, "canonical": canonical, "J_candidate": cert.J}
    except (SingularX12, AssumptionViolated, SolverDiverged) as exc:
        distance = None
        reason = str(exc)
    if args.as_json:
        print(
            json.dumps(
                {
                    "status": trace.status,
                    "iterations": trace.iterations,
                    "canonicalizations": trace.canonicalizations,
                    "evaluations": trace.evaluations,
                    "backtracks": trace.backtracks,
                    "rejected_unstable": trace.rejected_unstable,
                    "J": trace.final_J,
                    "grad_norm": trace.final_grad_norm,
                    "controller": _controller_wire(final),
                    "distance_to_candidate": distance,
                }
            )
        )
    else:
        print(f"status     = {trace.status}")
        print(f"iterations = {trace.iterations}")
        print(f"J          = {_fmt(trace.final_J)}")
        print(f"grad_norm  = {_fmt(trace.final_grad_norm)}")
        print(f"A_K        = {_fmt_matrix(final.A_K)}")
        print(f"B_K        = {_fmt_matrix(final.B_K)}")
        print(f"C_K        = {_fmt_matrix(final.C_K)}")
        if distance is not None:
            print(f"distance to stationary candidate (raw)       = {_fmt(distance['raw'])}")
            print(
                f"distance to stationary candidate (canonical) = {_fmt(distance['canonical'])}"
            )
            print(f"candidate J = {_fmt(distance['J_candidate'])}")
        else:
            print(f"stationary candidate unavailable: {reason}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dlqr",
        description="Cost, gradients, transforms and descent for dynamic "
        "output-feedback LQR problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, controller=False):
        p.add_argument("--problem", required=True, help="problem JSON file")
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
    common(p, controller=True)
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

    p = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    common(p, controller=True)
    p.add_argument(
        "--tol",
        type=float,
        default=GRADCHECK_DEFAULT_TOL,
        help="pass threshold on the relative discrepancy",
    )
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-6, help="finite-difference step")

    p = sub.add_parser("descend", help="stability-safeguarded gradient descent")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="trace CSV path (default stdout)")
    for flag, field in _DESCENT_FLAGS.items():
        default = getattr(DEFAULT_DESCENT_CONFIG, field)
        metavar = flag[2:].upper().replace("-", "_")  # as argparse names it
        p.add_argument(
            flag, type=type(default), default=default, dest=field, metavar=metavar
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
