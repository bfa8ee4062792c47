"""Benchmark for dlqr: one workload per run, one JSON result line.

    python3 benchmark/run.py --workload scalar-descent --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The run builds its inputs from --seed, sets
the program up, then repeats whole rounds of the workload's fixed operations
for about --seconds. Every output is checked after all timing and the
memory reading are done; a failed check prints "correct": false and exits 1.
With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
rounds alternate between untraced and traced, and the result holds the
per-layer metrics (see tracing.py). Transient files go to benchmark/out/.
"""

import os

# One BLAS thread, set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh processes that repeat the set-up; setup_s is their median.
SETUP_PROBES = 7

# Closed-loop sizes reported per layer: the scalar examples (2) and the
# generated plants of order 2..10 (4..20).
LOOP_SIZES = tuple(range(2, 21, 2))

CROSS_X = [[1.0, 0.25], [0.25, 1.0]]
EX1 = {"A": 1.1, "B": 1.0, "C": 1.0, "Q": 5.0, "R": 1.0}
EX2 = {"A": 0.9, "B": 1.0, "C": 1.0, "Q": 5.0, "R": 1.0}
# Three-decimal roundings of the stationary controllers in observer form.
EX1_SEED_CONTROLLER = {"A_K": -0.944, "B_K": 1.1, "C_K": -0.944}
EX2_SEED_CONTROLLER = {"A_K": -0.765, "B_K": 0.9, "C_K": -0.765}


class OpFailed(Exception):
    """A command-line operation exited nonzero."""


def _wire(M):
    rows = M if isinstance(M, list) else [[M]]
    return {"rows": len(rows), "cols": len(rows[0]), "data": [float(v) for r in rows for v in r]}


def write_problem(path, plant, controller=None):
    obj = {k: _wire(v) for k, v in plant.items()}
    obj["X"] = _wire(CROSS_X)
    if controller is not None:
        obj["seed_controller"] = {k: _wire(v) for k, v in controller.items()}
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(argv):
    """Run one in-process `dlqr` command; return its standard output."""
    from dlqr import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"dlqr {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class Workload:
    """prepare(seed) is the benchmark's own input generation, outside
    setup_s; setup() is imports, problem building and warm-up (setup_s);
    ops() is one round; collect() reads an op's files after its round;
    check() runs after every measurement and returns error strings."""

    def __init__(self, out):
        self.out = out

    def collect(self, index, record):
        pass

    def iterations(self, records):
        """Accepted descent iterations in one round's records."""
        return 0


class ScalarDescent(Workload):
    """The paper's Examples 1 and 2 through in-process `dlqr descend`, one
    descent per operation, from random_stabilizing_init of fixed seeds so
    that the iteration count is exact. --seed orders the descents."""

    name = "scalar-descent"
    DESCENT_SEEDS = (0, 1, 2)

    def prepare(self, seed):
        files = {
            "ex1": write_problem(self.out / "ex1.json", EX1),
            "ex2": write_problem(self.out / "ex2.json", EX2),
        }
        jobs = [(ex, s) for ex in ("ex1", "ex2") for s in self.DESCENT_SEEDS]
        order = _permutation(seed, len(jobs))
        self.jobs = [(jobs[i][0], jobs[i][1], files[jobs[i][0]]) for i in order]

    def setup(self):
        import dlqr.cli  # noqa: F401

        for ex in ("ex1", "ex2"):
            run_cli(["descend", "--problem", str(self.out / f"{ex}.json"),
                     "--max-iter", "5", "--out", str(self.out / "warm.csv"), "--json"])

    def ops(self):
        def op(i, ex, s, path):
            argv = ["descend", "--problem", path, "--seed", str(s),
                    "--out", str(self.out / f"trace{i}.csv"), "--json"]

            def run(record):
                record["stdout"] = run_cli(argv)

            return (f"{ex}-seed{s}", run)

        return [op(i, *job) for i, job in enumerate(self.jobs)]

    def collect(self, index, record):
        record["csv"] = (self.out / f"trace{index}.csv").read_text()
        record["iterations"] = json.loads(record["stdout"])["iterations"]

    def iterations(self, records):
        return sum(r["iterations"] for r in records)

    def check(self, records):
        import numpy as np
        import reference as ref

        errors = []
        j_star = {
            "ex1": ref.cost(*_stationary_ref(EX1)),
            "ex2": ref.cost(*_stationary_ref(EX2)),
        }
        for (ex, s, _), rec in zip(self.jobs, records):
            tag = f"{ex} seed {s}"
            res = json.loads(rec["stdout"])
            if res["status"] != "converged" or not res["grad_norm"] <= 1e-8:
                errors.append(f"{tag}: status {res['status']}, grad {res['grad_norm']}")
            rows = [line.split(",") for line in rec["csv"].strip().splitlines()[1:]]
            J = np.array([float(r[1]) for r in rows])
            if len(rows) != res["iterations"] + 1 or J[-1] != res["J"]:
                errors.append(f"{tag}: trace CSV does not match the reported run")
            # Armijo acceptance allows the program's floating-point slack,
            # 64 eps (1 + |J|), plus the rounding of that sum (an ulp of J).
            slack = 64.0 * np.finfo(float).eps * (1.0 + np.abs(J[:-1])) + 2 * np.spacing(J[:-1])
            if np.any(np.diff(J) > slack):
                errors.append(f"{tag}: J rose between accepted steps")
            gap = abs(res["J"] - j_star[ex])
            if gap > 1e-6:
                errors.append(f"{tag}: final J {res['J']} is {gap:.2e} from J* {j_star[ex]}")
            cand = res["distance_to_candidate"]
            if cand is None or abs(cand["J_candidate"] - j_star[ex]) > 1e-9 * (1 + j_star[ex]):
                errors.append(f"{tag}: stationary candidate J differs from the reference")
        return errors


class ScalarLandscape(Workload):
    """In-process `dlqr landscape` calls, one grid row per operation: the
    paper's 81x76 Example-1 grid, a wide grid around Example 2's controller
    (B_K, C_K in [-4, 4], shifted by a seeded sub-step offset; about 20%
    of its cells stabilize) and the 151-point Example-1 orbit."""

    name = "scalar-landscape"
    EX1_B = (2.0, 6.0, 81)
    EX1_C = (-0.4, -0.1, 76)
    WIDE_B = (-4.0, 4.0, 61)
    WIDE_C = (-4.0, 4.0, 101)
    ORBIT = "0.5:8:151"

    def __init__(self, out):
        super().__init__(out)
        self.ex1 = str(out / "ex1.json")
        self.ex2 = str(out / "ex2.json")

    def prepare(self, seed):
        import numpy as np

        write_problem(Path(self.ex1), EX1, EX1_SEED_CONTROLLER)
        write_problem(Path(self.ex2), EX2, EX2_SEED_CONTROLLER)
        rng = np.random.default_rng(seed)
        lo, hi, steps = self.WIDE_B
        shift_b = (rng.uniform() - 0.5) * (hi - lo) / (steps - 1)
        lo_c, hi_c, steps_c = self.WIDE_C
        shift_c = (rng.uniform() - 0.5) * (hi_c - lo_c) / (steps_c - 1)
        self.wide_c = (lo_c + shift_c, hi_c + shift_c, steps_c)
        self.rows = []
        for b in np.linspace(*self.EX1_B):
            self.rows.append(("ex1", self.ex1, EX1_SEED_CONTROLLER["A_K"], float(b), self.EX1_C))
        for b in np.linspace(lo + shift_b, hi + shift_b, steps):
            self.rows.append(("wide", self.ex2, EX2_SEED_CONTROLLER["A_K"], float(b), self.wide_c))

    def setup(self):
        import dlqr.cli  # noqa: F401

        run_cli(["landscape", "--problem", self.ex1, "--sweep", "C_K=-0.4:-0.1:3",
                 "--fix", "B_K=3", "--out", str(self.out / "warm.csv")])
        run_cli(["landscape", "--problem", self.ex1, "--orbit", "1:2:3",
                 "--out", str(self.out / "warm.csv")])

    def _argv(self, i):
        if i == len(self.rows):
            return ["landscape", "--problem", self.ex1, "--orbit", self.ORBIT,
                    "--out", str(self.out / f"row{i}.csv")]
        _, path, a_k, b_k, (lo, hi, steps) = self.rows[i]
        return ["landscape", "--problem", path, "--sweep", f"C_K={lo!r}:{hi!r}:{steps}",
                "--fix", f"A_K={a_k!r}", "--fix", f"B_K={b_k!r}",
                "--out", str(self.out / f"row{i}.csv")]

    def ops(self):
        def op(i):
            argv = self._argv(i)

            def run(record):
                run_cli(argv)

            label = "orbit" if i == len(self.rows) else self.rows[i][0]
            return (label, run)

        return [op(i) for i in range(len(self.rows) + 1)]

    def collect(self, index, record):
        record["csv"] = (self.out / f"row{index}.csv").read_text()

    def check(self, records):
        import numpy as np
        import reference as ref

        import dlqr

        errors = []
        header = "axis1,axis2,J,stabilizing,rho"
        for i, (kind, _, a_k, b_k, (lo, hi, steps)) in enumerate(self.rows):
            lines = records[i]["csv"].strip().splitlines()
            if lines[0] != header or len(lines) != steps + 1:
                errors.append(f"row {i}: malformed CSV")
                continue
            plant = _plant_ref(EX1 if kind == "ex1" else EX2)
            grid = np.linspace(lo, hi, steps)
            for line, c_k in zip(lines[1:], grid):
                a1, _, J, stab, rho = line.split(",")
                if float(a1) != c_k:
                    errors.append(f"row {i}: swept C_K {a1} != {c_k!r}")
                    break
                ctrl = _ctrl(a_k, b_k, c_k)
                rho_ref = ref.spectral_radius(ref.closed_loop(plant, *ctrl)[0])
                if abs(float(rho) - rho_ref) > 1e-12 * (1 + rho_ref):
                    errors.append(f"row {i}: rho {rho} != {rho_ref!r}")
                    break
                threshold = 1.0 - 1e-9
                if abs(rho_ref - threshold) > 1e-12 and (stab == "1") != (rho_ref < threshold):
                    errors.append(f"row {i}: stability flag {stab} at rho {rho_ref!r}")
                    break
                if stab == "1":
                    J_ref = ref.cost(plant, *ctrl)
                    if abs(float(J) - J_ref) > _cost_tol(J_ref, rho_ref):
                        errors.append(f"row {i}: J {J} != reference {J_ref!r}")
                        break
                elif J != "":
                    errors.append(f"row {i}: J written for an unstable cell")
                    break
        # Orbit: J(t) against evaluate of the t-scaled controller and the
        # reference solve; no orbit point beats the optimal transform.
        lines = records[len(self.rows)]["csv"].strip().splitlines()
        p = dlqr.Plant(**EX1)
        base = dlqr.Controller(**EX1_SEED_CONTROLLER)
        plant = _plant_ref(EX1)
        rho_ref = ref.spectral_radius(ref.closed_loop(plant, *_ctrl(**EX1_SEED_CONTROLLER))[0])
        orbit_J = []
        for line in lines[1:]:
            t, _, J, stab, rho = line.split(",")
            t, J = float(t), float(J)
            scaled = dlqr.apply(base, dlqr.Transform.from_matrix([[t]]))
            J_eval = dlqr.evaluate(p, scaled, CROSS_X).J
            J_ref = ref.cost(plant, *_ctrl(scaled.A_K[0, 0], scaled.B_K[0, 0], scaled.C_K[0, 0]))
            if stab != "1" or abs(J - J_eval) > 1e-9 * (1 + abs(J_eval)) or abs(J - J_ref) > _cost_tol(J_ref, rho_ref):
                errors.append(f"orbit t={t}: J {J} vs evaluate {J_eval!r}, reference {J_ref!r}")
                break
            orbit_J.append(J)
        if len(orbit_J) != 151:
            errors.append("orbit: expected 151 points")
        T = dlqr.optimal_transform(p, base, CROSS_X)
        J_opt = dlqr.transformed_cost(p, base, CROSS_X, T)
        if orbit_J and min(orbit_J) < J_opt - 1e-12 * (1 + J_opt):
            errors.append(f"orbit: a point beats the optimal transform ({min(orbit_J)} < {J_opt})")
        return errors


class GeneratedCertify(Workload):
    """Seeded random plants of order 2..10 plus the fixed failing plants,
    one certification per operation: evaluate, optimal_transform and
    transformed_cost on the benchmark's observer-based controller, analytic
    and finite-difference gradients there, then stationary_candidate."""

    name = "generated-certify"

    def __init__(self, out):
        super().__init__(out)
        self.inputs = out / "inputs.json"

    def prepare(self, seed):
        # Generated in a child process, so scipy never loads in this one
        # before its peak memory is read.
        proc = subprocess.run(
            [sys.executable, str(HERE / "reference.py"), "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        self.inputs.write_text(proc.stdout)

    def setup(self):
        import numpy as np

        import dlqr

        self.plants = []
        for obj in json.loads(self.inputs.read_text()):
            p = {k: (np.array(v) if isinstance(v, list) else v) for k, v in obj.items()}
            p["plant"] = dlqr.Plant(A=p["A"], B=p["B"], C=p["C"], Q=p["Q"], R=p["R"])
            p["controller"] = dlqr.Controller(A_K=p["A_K"], B_K=p["B_K"], C_K=p["C_K"])
            dlqr.evaluate(p["plant"], p["controller"], p["X"])
            self.plants.append(p)

    def ops(self):
        import dlqr

        def op(p):
            plant, K, X = p["plant"], p["controller"], p["X"]

            def run(record):
                report = dlqr.evaluate(plant, K, X)
                record["J"] = report.J
                T = dlqr.optimal_transform(plant, K, X, report=report)
                record["T"] = T
                record["J_T"] = dlqr.transformed_cost(plant, K, X, T, report=report)
                record["grad"] = dlqr.analytic_gradient(plant, K, X, report=report)
                record["fd"] = dlqr.finite_difference_gradient(plant, K, X)
                record["cert"] = dlqr.stationary_candidate(plant, X)

            return (p["name"], run)

        return [op(p) for p in self.plants]

    def check(self, records):
        import numpy as np
        import reference as ref

        import dlqr

        errors = []
        for p, rec in zip(self.plants, records):
            tag = p["name"]
            err = rec.get("error")
            if err is not None:
                # The one failure kept: stationary_candidate's SolverDiverged
                # on a fixed plant, after every other step succeeded.
                if not (p["expect_fail"] and err[0] == "SolverDiverged" and "fd" in rec):
                    errors.append(f"{tag}: unexpected failure {err}")
                    continue
            ob = (p["A_K"], p["B_K"], p["C_K"])
            J_ref = ref.cost(p, *ob)
            if abs(rec["J"] - J_ref) > 1e-8 * (1 + abs(J_ref)):
                errors.append(f"{tag}: J {rec['J']} != reference {J_ref!r}")
            moved = dlqr.apply(p["controller"], rec["T"])
            J_moved = ref.cost(p, moved.A_K, moved.B_K, moved.C_K)
            if abs(rec["J_T"] - J_moved) > 1e-8 * (1 + abs(J_moved)):
                errors.append(f"{tag}: transformed cost {rec['J_T']} != {J_moved!r}")
            if rec["J_T"] > rec["J"] + 1e-10 * (1 + abs(rec["J"])):
                errors.append(f"{tag}: orbit optimum {rec['J_T']} above J {rec['J']}")
            ga, gf = rec["grad"], rec["fd"]
            diff = np.sqrt(sum(np.sum((a - b) ** 2) for a, b in zip(
                (ga.dA_K, ga.dB_K, ga.dC_K), (gf.dA_K, gf.dB_K, gf.dC_K))))
            if diff / (1.0 + ga.norm) > 1e-5:
                errors.append(f"{tag}: gradient check {diff / (1 + ga.norm):.2e} > 1e-5")
            if "cert" in rec:
                cert = rec["cert"]
                if np.linalg.norm(cert.K_gain - p["K_gain"]) > 1e-8 * (1 + np.linalg.norm(p["K_gain"])):
                    errors.append(f"{tag}: K_gain differs from scipy's DARE gain")
                k = cert.K_star
                J_star = ref.cost(p, k.A_K, k.B_K, k.C_K)
                if abs(cert.J - J_star) > 1e-8 * (1 + abs(J_star)):
                    errors.append(f"{tag}: certificate J {cert.J} != reference {J_star!r}")
        return errors


WORKLOADS = {w.name: w for w in (ScalarDescent, ScalarLandscape, GeneratedCertify)}


# --------------------------------------------------------------------------
# Reference helpers (used by the checks only)
# --------------------------------------------------------------------------


def _plant_ref(spec):
    import numpy as np

    p = {k: np.array([[float(v)]]) for k, v in spec.items()}
    p["X"] = np.array(CROSS_X)
    return p


def _ctrl(A_K, B_K, C_K):
    import numpy as np

    return tuple(np.array([[float(v)]]) for v in (A_K, B_K, C_K))


def _stationary_ref(spec):
    import reference as ref

    p = _plant_ref(spec)
    return (p, *ref.stationary_controller(p)[1])


def _cost_tol(J, rho):
    # Both solvers are backward stable; the condition number of the
    # Lyapunov operator grows like 1 / (1 - rho^2) near the boundary.
    return 1e-10 * (1.0 + abs(J)) / max(1.0 - rho * rho, 1e-6)


def _permutation(seed, n):
    import numpy as np

    return [int(i) for i in np.random.default_rng(seed).permutation(n)]


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------


def run_round(ops, workload, records):
    """Run one round; return (round wall time, per-op latencies)."""
    from dlqr import DlqrError

    latencies = []
    t_round = time.perf_counter()
    for label, run in ops:
        record = {"label": label}
        t0 = time.perf_counter()
        try:
            run(record)
        except (DlqrError, OpFailed) as exc:
            record["error"] = (type(exc).__name__, str(exc))
            latencies.append(None)
        else:
            latencies.append(time.perf_counter() - t0)
        records.append(record)
    wall = time.perf_counter() - t_round
    for i, record in enumerate(records):
        if "error" not in record:
            workload.collect(i, record)
    return wall, latencies


def measure(workload, seconds, traced):
    """Whole rounds until less than half a round of `seconds` is left (and,
    traced, at least one untraced and one traced round), so that a run
    measures close to `seconds` whatever its round length. Returns the
    per-round results."""
    ops = workload.ops()
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
    rounds = []
    t_start = time.perf_counter()
    while True:
        is_traced = traced and len(rounds) % 2 == 1
        records = []
        if is_traced:
            tracer.install(len(rounds))
        try:
            wall, latencies = run_round(ops, workload, records)
        finally:
            if is_traced:
                tracer.uninstall()
        # Only the first round's outputs are kept whole; later rounds keep
        # digests, so memory does not grow with the number of rounds.
        rounds.append({
            "wall": wall,
            "latencies": latencies,
            "traced": is_traced,
            "iterations": workload.iterations(records),
            "digests": [_digest(r) for r in records],
            "records": None if rounds else records,
        })
        elapsed = time.perf_counter() - t_start
        left = seconds - elapsed
        if left < 0.5 * elapsed / len(rounds) and (not traced or len(rounds) >= 2):
            return rounds, tracer


def setup_probe(workload_name):
    """Child process: set up the workload from the inputs its parent
    prepared, and print the time at which it is ready."""
    _import_path()
    WORKLOADS[workload_name](OUT / workload_name).setup()
    print(json.dumps({"ready": time.perf_counter()}))


def measure_setup(workload_name):
    """Median time from spawning a fresh interpreter to a set-up workload.
    perf_counter is the system-wide monotonic clock, so the child's reading
    compares with the parent's."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
             "--seed", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0)
    return statistics.median(times)


def _import_path():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))


def main(argv=None):
    parser = argparse.ArgumentParser(description="dlqr benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "dlqr" / "__init__.py").is_file():
        print(f"benchmark: no dlqr sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    _import_path()
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](out)
    workload.prepare(args.seed)
    workload.setup()
    rounds, tracer = measure(workload, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(len(r["latencies"]) for r in rounds)
    failed = sum(lat is None for r in rounds for lat in r["latencies"])
    iterations = [r["iterations"] for r in rounds]
    untraced = [r for r in rounds if not r["traced"]]

    if args.trace:
        traced_idx = [i for i, r in enumerate(rounds) if r["traced"]]
        from tracing import layer_metrics

        overhead = statistics.median(rounds[i]["wall"] for i in traced_idx) - statistics.median(
            r["wall"] for r in untraced
        )
        metrics = layer_metrics(tracer, traced_idx, iterations[0], overhead, LOOP_SIZES)
    else:
        op_means = _op_means(untraced)
        import numpy as np

        metrics = {
            "setup_s": (measure_setup(args.workload), "s"),
            "wall_s": (statistics.fmean(r["wall"] for r in untraced), "s"),
            "op_p50_s": (float(np.percentile(op_means, 50)), "s"),
            "op_p90_s": (float(np.percentile(op_means, 90)), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    errors = workload.check(rounds[0]["records"])
    errors += _check_repeatable(rounds, iterations)
    if tracer is not None:
        tracer.save(out / "spans.npz")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    log = {"errors": errors, "round_wall_s": [r["wall"] for r in rounds],
           "round_traced": [r["traced"] for r in rounds],
           "round_op_s": [r["latencies"] for r in rounds], **result}
    (out / "result.json").write_text(json.dumps(log, indent=1))
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not errors else 1


def _op_means(rounds):
    """Each successful operation's mean latency over the rounds.

    CPU speed on a shared host can wander by 10-20% over seconds, so a
    round or an operation timed once carries the speed of its moment. A mean over every
    round spreads each operation over the whole run, and the percentiles
    are then taken over operations, which differ in cost by design."""
    means = []
    for i in range(len(rounds[0]["latencies"])):
        lats = [r["latencies"][i] for r in rounds if r["latencies"][i] is not None]
        if lats:
            means.append(statistics.fmean(lats))
    return means


def _check_repeatable(rounds, iterations):
    """Every round must reproduce round 0's outputs exactly."""
    errors = []
    if len(set(iterations)) != 1:
        errors.append(f"descent iterations differ between rounds: {iterations}")
    first = rounds[0]
    for k, r in enumerate(rounds[1:], start=1):
        for rec, a, b in zip(first["records"], first["digests"], r["digests"]):
            if a != b:
                errors.append(f"round {k}: {rec['label']} differs from round 0")
    return errors


def _digest(v):
    """Hash of an op's outputs that changes with any bit of them: arrays by
    their bytes, dlqr's result dataclasses field by field, the rest by repr.
    Digests are compared only within one process."""
    import numpy as np

    if isinstance(v, dict):
        return hash(tuple((k, _digest(x)) for k, x in sorted(v.items())))
    if isinstance(v, np.ndarray):
        return hash((v.shape, v.tobytes()))
    if hasattr(v, "__dataclass_fields__"):
        return _digest({f: getattr(v, f) for f in v.__dataclass_fields__})
    return hash(repr(v))


if __name__ == "__main__":
    sys.exit(main())
