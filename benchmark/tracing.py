"""Traced mode: spans and counts at the boundary of every public dlqr function.

The tracer wraps, from outside the package, each public function of every
dlqr module in every dlqr module namespace that holds it (cli, descent,
gradient, similarity and stationary import evaluate and is_stabilizing by
name, so patching the defining module alone would miss their calls). It also
counts calls to numpy.linalg's eigen and singular-value decompositions.
Spans live in flat arrays in memory; a span's self time is its duration
minus the durations of its direct children. save() writes them out.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

DECOMPOSITIONS = ("eigvals", "eigvalsh", "eigh", "svd")

# Closed-loop size recorded on the spans of the size-dependent layers.
_SIZE_OF = {
    "dlqr.cost.evaluate": lambda args: 2 * args[0].n,
    "dlqr.matops.dlyap_kron": lambda args: np.shape(args[0])[0],
    "dlqr.matops.dlyap_doubling": lambda args: np.shape(args[0])[0],
}

FLAG_FALSE = 1  # the call returned False (is_stabilizing rejected the candidate)
FLAG_RAISED = 2  # the call raised


def _public_functions(modules):
    found = {}
    for mod in modules:
        for obj in vars(mod).values():
            if (
                inspect.isfunction(obj)
                and obj.__module__.startswith("dlqr")
                and not obj.__name__.startswith("_")
            ):
                found[id(obj)] = obj
    return found


class Tracer:
    """Records spans for the rounds run between install() and uninstall()."""

    def __init__(self):
        self.names = []
        # Five ints (name id, parent index, round, closed-loop size, flag)
        # and three doubles (start, end, self time) per span.
        self.ints = array("i")
        self.times = array("d")
        self.decompositions = {}  # round -> numpy.linalg decomposition calls
        self._round = -1
        self._stack = []
        self._patches = []
        self._wrappers = {}

    def _intern(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _span_wrapper(self, fn):
        name = f"{fn.__module__}.{fn.__name__}"
        nid = self._intern(name)
        size_of = _SIZE_OF.get(name)
        flags_false = name == "dlqr.model.is_stabilizing"
        clock = time.perf_counter
        ints, times, stack = self.ints, self.times, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(times) // 3
            ints.extend((
                nid,
                stack[-1][0] if stack else -1,
                self._round,
                size_of(args) if size_of is not None and args else 0,
                0,
            ))
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            times.extend((t0, 0.0, 0.0))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ints[5 * idx + 4] = FLAG_RAISED
                raise
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                times[3 * idx + 1] = t1
                times[3 * idx + 2] = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if flags_false and result is False:
                ints[5 * idx + 4] = FLAG_FALSE
            return result

        return wrapper

    def _count_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.decompositions[self._round] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, round_index):
        """Wrap every public dlqr function and the numpy decompositions."""
        self._round = round_index
        self.decompositions[round_index] = 0
        modules = [
            m for k, m in sys.modules.items() if k == "dlqr" or k.startswith("dlqr.")
        ]
        for key, fn in _public_functions(modules).items():
            if key not in self._wrappers:
                self._wrappers[key] = self._span_wrapper(fn)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for attr in DECOMPOSITIONS:
            fn = getattr(np.linalg, attr)
            self._patches.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, self._count_wrapper(fn))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def spans(self):
        """The spans as numpy arrays, in call order (parents before children)."""
        ints = np.frombuffer(self.ints, dtype=np.int32).reshape(-1, 5)
        times = np.frombuffer(self.times, dtype=np.float64).reshape(-1, 3)
        return {
            "name_id": ints[:, 0],
            "parent": ints[:, 1],
            "round": ints[:, 2],
            "size": ints[:, 3],
            "flag": ints[:, 4],
            "start": times[:, 0],
            "end": times[:, 1],
            "self_time": times[:, 2],
        }

    def save(self, path):
        """Write the name table and the span arrays to one .npz file."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.spans())


def _under(name_id, parent, target):
    """Mask of spans that have a span of name id target among their ancestors."""
    inside = np.zeros(len(name_id), dtype=bool)
    hit = name_id == target
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            inside[i] = inside[p] or hit[p]
    return inside


def _p50(durations, scale):
    return float(np.median(durations)) * scale if len(durations) else 0.0


def _median_per_round(values, rounds, traced_rounds):
    return float(np.median([values[rounds == r].sum() for r in traced_rounds]))


def layer_metrics(tracer, traced_rounds, iterations_per_round, overhead_s, sizes):
    """Per-layer metrics over the traced rounds.

    Counts are per round, except ratios; p50 figures are medians over every
    traced call; *_s figures are medians over rounds. A layer the workload
    never calls reads 0.
    """
    s = tracer.spans()
    name_id, parent, rounds = s["name_id"], s["parent"], s["round"]
    duration = s["end"] - s["start"]
    n_rounds = len(traced_rounds)
    ids = {name: i for i, name in enumerate(tracer.names)}
    module = np.array([n.rsplit(".", 1)[0] for n in tracer.names] or [""])[name_id]

    def is_(name):
        return name_id == ids.get("dlqr." + name, -1)

    def count(mask):
        return int(np.count_nonzero(mask))

    evaluate = is_("cost.evaluate")
    in_descend = _under(name_id, parent, ids.get("dlqr.descent.descend", -1))
    in_fd = _under(
        name_id, parent, ids.get("dlqr.gradient.finite_difference_gradient", -1)
    )
    n_eval = count(evaluate)
    descent_evals = count(evaluate & in_descend)
    iterations = iterations_per_round * n_rounds
    decompositions = sum(tracer.decompositions[r] for r in traced_rounds)
    fd = is_("gradient.finite_difference_gradient")

    def per_eval(n):
        return n / n_eval if n_eval else 0.0

    m = {
        "descent.iterations": (iterations_per_round, "count"),
        "descent.evals_per_iter": (
            descent_evals / iterations if iterations else 0.0,
            "count",
        ),
        "descent.rejected_unstable": (
            count(is_("model.is_stabilizing") & in_descend & (s["flag"] == FLAG_FALSE))
            // n_rounds,
            "count",
        ),
        "descent.accepted_per_eval": (
            iterations / descent_evals if descent_evals else 0.0,
            "ratio",
        ),
        "descent.self_s": (
            _median_per_round(
                s["self_time"] * (module == "dlqr.descent"), rounds, traced_rounds
            ),
            "s",
        ),
        "cost.evaluate.calls": (n_eval // n_rounds, "count"),
        "model.assemble.per_eval": (per_eval(count(is_("model.assemble"))), "count"),
        "matops.spectral_radius.per_eval": (
            per_eval(count(is_("matops.spectral_radius"))),
            "count",
        ),
        "matops.eig.per_eval": (per_eval(decompositions), "count"),
        "cli.self_s": (
            _median_per_round(
                s["self_time"] * (module == "dlqr.cli"), rounds, traced_rounds
            ),
            "s",
        ),
        "gradient.finite_difference_gradient.evals": (
            count(evaluate & in_fd) // n_rounds,
            "count",
        ),
        "gradient.finite_difference_gradient.s": (
            _median_per_round(duration * fd, rounds, traced_rounds),
            "s",
        ),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for name in (
        "model.is_stabilizing",
        "gradient.analytic_gradient",
        "similarity.transformed_cost",
        "similarity.optimal_transform",
    ):
        m[f"{name}.p50_us"] = (_p50(duration[is_(name)], 1e6), "us")
    for name in (
        "matops.solve_dare_control",
        "matops.solve_dare_filter",
        "stationary.stationary_candidate",
        "stationary.verify_stationary",
    ):
        m[f"{name}.p50_ms"] = (_p50(duration[is_(name)], 1e3), "ms")
    for name in ("cost.evaluate", "matops.dlyap_kron", "matops.dlyap_doubling"):
        for k in sizes:
            mask = is_(name) & (s["size"] == k)
            m[f"{name}.p50_us.m{k}"] = (_p50(duration[mask], 1e6), "us")
    return m
