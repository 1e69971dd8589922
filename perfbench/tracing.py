"""Spans around the public functions of each sparseroll layer.

A :class:`Tracer` replaces each target function at every module attribute
where it is bound (``kalman_step`` lives in ``estimator`` but is also bound
in ``simulate``, ``rollout`` and the package), and each target method on its
class.  Every call records one span: name, start, end, parent span and the
trial it belongs to.  Spans stay in memory until :meth:`Tracer.save`.

A target that no longer exists is skipped and every per-layer metric built
on it is reported as absent, so the traced run survives refactors that
delete or reshape a function.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

TRIAL_SPAN = "simulate.trial"


def _dare_observe(args, kwargs, result):
    prob = args[0] if args else kwargs["prob"]
    problem = (prob.state_matrix, prob.input_matrix, prob.state_weight, prob.input_weight,
               prob.cross_weight, prob.discount)
    return result.iterations, problem, result.cost_matrix


def _tables_observe(args, kwargs, result):
    return sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))


def _select_observe(args, kwargs, result):
    tables = args[0] if args else kwargs["tables"]
    return int(result), 1 << tables.horizon


# (span name, home module, attribute, observer of (args, kwargs, result))
TARGETS = (
    ("config.load", "sparseroll.config", "load_config", None),
    ("cli.sweep", "sparseroll.cli", "cmd_sweep", None),
    ("simulate.theta_sweep", "sparseroll.simulate", "theta_sweep", None),
    ("riccati.solve_dare", "sparseroll.riccati", "solve_dare", _dare_observe),
    ("periodic.design_periodic", "sparseroll.periodic", "design_periodic", None),
    ("periodic.best_periodic", "sparseroll.periodic", "best_periodic", None),
    ("plant.build_lifted", "sparseroll.plant", "build_lifted", None),
    ("estimator.steady_kalman", "sparseroll.estimator", "steady_kalman", None),
    ("estimator.kalman_step", "sparseroll.estimator", "kalman_step", None),
    (TRIAL_SPAN, "sparseroll.simulate", "simulate_trial", None),
    ("simulate.plant_step", "sparseroll.simulate", "PlantSim.step", None),
    ("simulate.stage_cost", "sparseroll.simulate", "PlantSim.stage_cost", None),
    ("simulate.noise_streams", "sparseroll.simulate", "noise_streams", None),
    ("simulate.cell_design", "sparseroll.simulate", "make_controller_factory", None),
    ("simulate.estimate_metrics", "sparseroll.simulate", "estimate_metrics", None),
    ("rollout.build_tables", "sparseroll.rollout", "build_tables", _tables_observe),
    ("rollout.select_pattern", "sparseroll.rollout", "select_pattern", _select_observe),
    ("rollout.block", "sparseroll.rollout", "rollout_block", None),
    ("sparse_mpc.build_problem", "sparseroll.sparse_mpc", "build_mpc_problem", None),
    ("sparse_mpc.solve", "sparseroll.sparse_mpc", "solve_sparse_mpc",
     lambda args, kwargs, result: int(result[1])),
    ("sparse_mpc.controller_step", "sparseroll.sparse_mpc", "mpc_controller_step",
     lambda args, kwargs, result: int(result[1])),
)

# Per-layer metric -> (unit, spans it needs).  Metrics marked exact in
# EXACT repeat bit for bit across runs with the same seed.
PER_LAYER = {
    "riccati.solve_dare.calls": ("count", ("riccati.solve_dare",)),
    "riccati.solve_dare.s": ("s", ("riccati.solve_dare",)),
    "riccati.solve_dare.iters_mean": ("count", ("riccati.solve_dare",)),
    "riccati.dare_rel_err_max": ("ratio", ("riccati.solve_dare",)),
    "periodic.design_periodic.calls": ("count", ("periodic.design_periodic",)),
    "periodic.design_periodic.s": ("s", ("periodic.design_periodic",)),
    "periodic.best_periodic.s": ("s", ("periodic.best_periodic",)),
    "plant.build_lifted.s": ("s", ("plant.build_lifted",)),
    "estimator.steady_kalman.s": ("s", ("estimator.steady_kalman",)),
    "estimator.kalman_step.calls": ("count", ("estimator.kalman_step",)),
    "estimator.kalman_step.self_s": ("s", ("estimator.kalman_step",)),
    "simulate.trial.calls": ("count", (TRIAL_SPAN,)),
    "simulate.trial_ms.p50": ("ms", (TRIAL_SPAN,)),
    "simulate.trial_ms.p90": ("ms", (TRIAL_SPAN,)),
    "simulate.trial.self_s": ("s", (TRIAL_SPAN,)),
    "simulate.plant_step.calls": ("count", ("simulate.plant_step",)),
    "simulate.plant_step.self_s": ("s", ("simulate.plant_step",)),
    "simulate.stage_cost.self_s": ("s", ("simulate.stage_cost",)),
    "simulate.noise_streams.s": ("s", ("simulate.noise_streams",)),
    "simulate.cell_design.s": ("s", ("simulate.cell_design",)),
    "simulate.estimate_metrics.s": ("s", ("simulate.estimate_metrics",)),
    "rollout.build_tables.calls": ("count", ("rollout.build_tables",)),
    "rollout.build_tables.s": ("s", ("rollout.build_tables",)),
    "rollout.tables_mb": ("MB", ("rollout.build_tables",)),
    "rollout.select_pattern.calls": ("count", ("rollout.select_pattern",)),
    "rollout.select_pattern.us_mean": ("us", ("rollout.select_pattern",)),
    "rollout.patterns_scored": ("count", ("rollout.select_pattern",)),
    "rollout.block.self_s": ("s", ("rollout.block",)),
    "rollout.base_pattern_ratio": ("ratio", ("rollout.select_pattern",)),
    "sparse_mpc.build_problem.s": ("s", ("sparse_mpc.build_problem",)),
    "sparse_mpc.solve.calls": ("count", ("sparse_mpc.solve",)),
    "sparse_mpc.solve.s": ("s", ("sparse_mpc.solve",)),
    "sparse_mpc.admm_iters.mean": ("count", ("sparse_mpc.solve",)),
    "sparse_mpc.admm_iters.max": ("count", ("sparse_mpc.solve",)),
    "sparse_mpc.us_per_iter": ("us", ("sparse_mpc.solve",)),
    "sparse_mpc.nonconverged": ("count", ("sparse_mpc.solve",)),
    "sparse_mpc.trigger_ratio": ("ratio", ("sparse_mpc.controller_step",)),
    "config.load.s": ("s", ("config.load",)),
    "cli.write.s": ("s", ("cli.sweep", "simulate.theta_sweep")),
    "trace.overhead": ("ratio", ()),
}

EXACT = frozenset({
    "riccati.solve_dare.calls", "riccati.solve_dare.iters_mean",
    "periodic.design_periodic.calls", "estimator.kalman_step.calls",
    "simulate.trial.calls", "simulate.plant_step.calls",
    "rollout.build_tables.calls", "rollout.tables_mb", "rollout.select_pattern.calls",
    "rollout.patterns_scored", "rollout.base_pattern_ratio",
    "sparse_mpc.solve.calls", "sparse_mpc.admm_iters.mean", "sparse_mpc.admm_iters.max",
    "sparse_mpc.nonconverged", "sparse_mpc.trigger_ratio",
})

# Percentiles of trial time need this many trials to be reported.
P90_MIN_TRIALS = 100


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    def __init__(self):
        self._patches = []
        self.missing = set()
        self.reset()

    def reset(self):
        self.names, self.starts, self.ends, self.parents, self.trials = [], [], [], [], []
        self.values = defaultdict(list)
        self.errors = defaultdict(Counter)
        self._stack = [-1]
        self._trial = -1
        self._n_trials = 0

    def _wrap(self, name, fn, observe):
        tracer = self
        is_trial = name == TRIAL_SPAN
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.names)
            outer_trial = tracer._trial
            if is_trial:
                tracer._trial = tracer._n_trials
                tracer._n_trials += 1
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1])
            tracer.trials.append(tracer._trial)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.errors[name][type(exc).__name__] += 1
                raise
            finally:
                tracer.ends[idx] = clock()
                tracer._stack.pop()
                tracer._trial = outer_trial
            if observe is not None:
                try:
                    tracer.values[name].append(observe(args, kwargs, result))
                except Exception:  # noqa: BLE001 - a reshaped result makes the metric absent
                    tracer.values[name].append(None)
            return result

        return wrapper

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sparseroll" or n.startswith("sparseroll."))]
        for name, home, attr, observe in TARGETS:
            owner = sys.modules.get(home)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                original = None if owner is None else owner.__dict__.get(meth)
                places = [(owner, meth)] if original is not None else []
            else:
                original = getattr(owner, attr, None)
                places = [(m, attr) for m in modules if vars(m).get(attr) is original]
            if original is None or not callable(original):
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original, observe)
            for obj, key in places:
                self._patches.append((obj, key, original))
                setattr(obj, key, wrapper)

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _spans(self):
        """Spans as arrays: name codes, name table, start, end, parent, trial, self time."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        names = np.array([code[n] for n in self.names], dtype=np.int32)
        start, end = np.array(self.starts), np.array(self.ends)
        parent = np.array(self.parents, dtype=np.int64)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return names, table, start, end, parent, np.array(self.trials), dur - child

    def save(self, path):
        names, table, start, end, parent, trial, _ = self._spans()
        np.savez(path, name=names, name_table=np.array(table), start=start, end=end,
                 parent=parent, trial=trial)

    def layer_metrics(self):
        """Per-layer metrics of the spans recorded since the last reset.

        Returns (metrics, absent): metrics maps every PER_LAYER name except
        trace.overhead, which needs an untraced run, to a number; absent
        names the metrics whose target is missing or that had nothing to
        measure on this workload.  Absent metrics read 0.
        """
        names, table, start, end, _, _, self_time = self._spans()
        dur = end - start
        code = {n: i for i, n in enumerate(table)}

        def sel(name):
            return names == code.get(name, -1)

        def obs(name):
            vals = self.values.get(name, [])
            return None if None in vals else vals

        def calls(name):
            return int(sel(name).sum())

        def total(name):
            return float(dur[sel(name)].sum())

        def self_total(name):
            return float(self_time[sel(name)].sum())

        def mean(vals):
            return float(np.mean(vals)) if vals else None

        trial_ms = dur[sel(TRIAL_SPAN)] * 1e3
        dare = obs("riccati.solve_dare")
        picks = obs("rollout.select_pattern")
        iters = obs("sparse_mpc.solve")
        tables = obs("rollout.build_tables")
        deltas = obs("sparse_mpc.controller_step")
        n_select = calls("rollout.select_pattern")
        n_solve = calls("sparse_mpc.solve")
        raw = {
            "riccati.solve_dare.calls": calls("riccati.solve_dare"),
            "riccati.solve_dare.s": total("riccati.solve_dare"),
            "riccati.solve_dare.iters_mean": mean([d[0] for d in dare]) if dare else None,
            "riccati.dare_rel_err_max": dare_rel_err_max(dare) if dare else None,
            "periodic.design_periodic.calls": calls("periodic.design_periodic"),
            "periodic.design_periodic.s": total("periodic.design_periodic"),
            "periodic.best_periodic.s": total("periodic.best_periodic"),
            "plant.build_lifted.s": total("plant.build_lifted"),
            "estimator.steady_kalman.s": total("estimator.steady_kalman"),
            "estimator.kalman_step.calls": calls("estimator.kalman_step"),
            "estimator.kalman_step.self_s": self_total("estimator.kalman_step"),
            "simulate.trial.calls": len(trial_ms),
            "simulate.trial_ms.p50": float(np.percentile(trial_ms, 50)) if len(trial_ms) else None,
            "simulate.trial_ms.p90": (float(np.percentile(trial_ms, 90))
                                      if len(trial_ms) >= P90_MIN_TRIALS else None),
            "simulate.trial.self_s": self_total(TRIAL_SPAN),
            "simulate.plant_step.calls": calls("simulate.plant_step"),
            "simulate.plant_step.self_s": self_total("simulate.plant_step"),
            "simulate.stage_cost.self_s": self_total("simulate.stage_cost"),
            "simulate.noise_streams.s": total("simulate.noise_streams"),
            "simulate.cell_design.s": total("simulate.cell_design"),
            "simulate.estimate_metrics.s": total("simulate.estimate_metrics"),
            "rollout.build_tables.calls": calls("rollout.build_tables"),
            "rollout.build_tables.s": total("rollout.build_tables"),
            "rollout.tables_mb": sum(tables) / 2**20 if tables else None,
            "rollout.select_pattern.calls": n_select,
            "rollout.select_pattern.us_mean": (total("rollout.select_pattern") / n_select * 1e6
                                               if n_select else None),
            "rollout.patterns_scored": sum(p[1] for p in picks) if picks else None,
            "rollout.block.self_s": self_total("rollout.block"),
            "rollout.base_pattern_ratio": (sum(p[0] == 1 for p in picks) / len(picks)
                                           if picks else None),
            "sparse_mpc.build_problem.s": total("sparse_mpc.build_problem"),
            "sparse_mpc.solve.calls": n_solve,
            "sparse_mpc.solve.s": total("sparse_mpc.solve"),
            "sparse_mpc.admm_iters.mean": mean(iters) if iters else None,
            "sparse_mpc.admm_iters.max": max(iters) if iters else None,
            "sparse_mpc.us_per_iter": (total("sparse_mpc.solve") / sum(iters) * 1e6
                                       if iters else None),
            "sparse_mpc.nonconverged": self.errors["sparse_mpc.solve"]["NonConvergenceError"],
            "sparse_mpc.trigger_ratio": mean(deltas) if deltas else None,
            "config.load.s": total("config.load"),
            "cli.write.s": total("cli.sweep") - total("simulate.theta_sweep"),
        }
        metrics, absent = {}, []
        for metric, value in raw.items():
            needs = PER_LAYER[metric][1]
            gone = any(n in self.missing for n in needs)
            idle = any(calls(n) == 0 for n in needs)
            if value is None or gone or idle:
                absent.append(metric)
                value = 0
            metrics[metric] = value
        return metrics, absent


def dare_rel_err_max(observed) -> float:
    """Worst relative error of the recorded DARE solutions against scipy's QZ solver.

    The discounted equation maps onto scipy's form with A and B scaled by
    the square root of the discount and the cross weight passed as ``s``.
    """
    from scipy.linalg import solve_discrete_are

    worst, seen = 0.0, set()
    for _, (a, b, q, r, s, g), cost in observed:
        key = (a.tobytes(), b.tobytes(), q.tobytes(), r.tobytes(), s.tobytes(), g,
               cost.tobytes())
        if key in seen:
            continue
        seen.add(key)
        ref = solve_discrete_are(np.sqrt(g) * a, np.sqrt(g) * b, q, r, s=s)
        worst = max(worst, float(np.linalg.norm(cost - ref) / np.linalg.norm(ref)))
    return worst
