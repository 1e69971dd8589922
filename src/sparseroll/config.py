"""Experiment configuration: the one config type, its YAML form and validation.

An :class:`ExperimentConfig` pins every knob of an experiment (model source,
cost, theta grid, per-method parameters, trial counts, seeds), and its
defaults are the benchmark study.  It validates itself on construction, so
``dataclasses.replace`` and the CLI overrides are checked like a loaded
file, and :meth:`ExperimentConfig.build_model` adds the checks that need the
model (dimensions and non-pathological sampling), so runs fail before any
design work.  :func:`parse_config` rejects keys outside the schema and reads
the YAML sections over the defaults.
"""

import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .estimator import steady_kalman
from .exceptions import ConfigError
from .plant import DiscreteModel, build_benchmark_model, discretize
from .riccati import (
    check_pathological_sampling,
    min_eigenvalue,
    require_symmetric,
)
from .rollout import memory_estimate

METHODS = ("rollout", "periodic", "sparse_mpc")

MAX_LOOKAHEAD = 20  # 2^h patterns are enumerated exhaustively
LOOKAHEAD_MEMORY_BUDGET = 1 << 30  # bytes for the lookahead tables and scores of one design

_MODEL_SOURCES = ("builtin-benchmark", "matrices-from-file")

# YAML location of each field: (section, key), or (key,) at the top level.
_YAML_KEYS = {
    "model_source": ("model", "source"),
    "sample_period": ("model", "sample_period"),
    "model_file": ("model", "file"),
    "init_mean": ("model", "init_mean"),
    "q_weight": ("cost", "q"),
    "r_weight": ("cost", "r"),
    "theta_grid": ("theta", "grid"),
    "methods": ("methods",),
    "h": ("rollout", "h"),
    "p": ("rollout", "p"),
    "candidates": ("periodic", "candidates"),
    "mpc_horizon": ("sparse_mpc", "horizon"),
    "mpc_penalty": ("sparse_mpc", "penalty"),
    "mpc_tol": ("sparse_mpc", "tol"),
    "mpc_max_iter": ("sparse_mpc", "max_iter"),
    "trials": ("sim", "trials"),
    "horizon_steps": ("sim", "horizon_steps"),
    "seed_base": ("sim", "seed_base"),
    "output_dir": ("output_dir",),
}
# The other keys of the YAML form: the theta range and the criterion of older files.
_EXTRA_KEYS = (("theta", "start"), ("theta", "stop"), ("theta", "step"), ("rollout", "alpha"))


def _number(value, label) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{label} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, label) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{label} must be an integer, got {value!r}")
    return int(value)


def _method(value, label) -> str:
    if value not in METHODS:
        raise ConfigError(f"unknown method {value!r}; valid: {METHODS}")
    return value


def _matrix(value, label) -> np.ndarray:
    try:
        m = np.atleast_2d(np.asarray(value, dtype=float))
    except (TypeError, ValueError):
        m = None
    if m is None or m.ndim != 2 or not np.isfinite(m).all():
        raise ConfigError(f"{label} must be 'benchmark' or a finite matrix")
    return m


def _list_of(convert):
    def converter(value, label):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{label} must be a list, got {value!r}")
        return tuple(convert(v, f"{label}[{i}]") for i, v in enumerate(value))
    return converter


# Normalises each field to its type; raises ConfigError naming the YAML key.
_CONVERT = {
    "sample_period": _number,
    "init_mean": lambda value, label: None if value is None else _list_of(_number)(value, label),
    "q_weight": _matrix,
    "r_weight": _matrix,
    "theta_grid": _list_of(_number),
    "methods": _list_of(_method),
    "h": _integer,
    "p": _integer,
    "candidates": _list_of(_integer),
    "mpc_horizon": _integer,
    "mpc_penalty": _number,
    "mpc_tol": _number,
    "mpc_max_iter": _integer,
    "trials": _integer,
    "horizon_steps": _integer,
    "seed_base": _integer,
    "output_dir": lambda value, label: str(value),
}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment (see configs/benchmark.yaml); the defaults are the benchmark study.

    The builtin model starts from the mean [1, -1, 0, 0] unless ``init_mean``
    is given, with the predictive filter fixed point as its covariance, so
    the Kalman filter is stationary from the first step.  The model-free
    checks run on construction and the model checks in :meth:`build_model`;
    both raise :class:`ConfigError`.
    """

    model_source: str = "builtin-benchmark"
    sample_period: float = 0.1
    model_file: str | None = None
    init_mean: tuple[float, ...] | None = None
    q_weight: np.ndarray = field(default_factory=lambda: np.array([
        [0.1336, -0.0936, -0.0327, 0.0347],
        [-0.0936, 0.1336, 0.0347, -0.0327],
        [-0.0327, 0.0347, 0.0377, 0.0024],
        [0.0347, -0.0327, 0.0024, 0.0377],
    ]))
    r_weight: np.ndarray = field(default_factory=lambda: np.array([[0.1]]))
    theta_grid: tuple[float, ...] = tuple(round(0.02 * k, 2) for k in range(1, 21))
    methods: tuple[str, ...] = METHODS
    h: int = 6
    p: int = 6
    candidates: tuple[int, ...] = (1, 2, 3, 6)
    mpc_horizon: int = 30
    mpc_penalty: float = 1.0
    mpc_tol: float = 1e-8
    mpc_max_iter: int = 10_000
    trials: int = 50
    horizon_steps: int = 600
    seed_base: int = 20240601
    output_dir: str = "results"
    source_path: str | None = None

    def __post_init__(self):
        for name, convert in _CONVERT.items():
            value = convert(getattr(self, name), ".".join(_YAML_KEYS[name]))
            object.__setattr__(self, name, value)

        if self.model_source not in _MODEL_SOURCES:
            raise ConfigError(f"model.source must be one of {_MODEL_SOURCES}")
        if self.model_source == "matrices-from-file" and not self.model_file:
            raise ConfigError("model.source matrices-from-file requires model.file")
        if self.sample_period <= 0.0:
            raise ConfigError("model.sample_period must be > 0")
        if not self.theta_grid:
            raise ConfigError("theta grid must be non-empty")
        if any(t <= 0.0 for t in self.theta_grid):
            raise ConfigError("every theta must be > 0")
        if not self.methods:
            raise ConfigError("at least one method must be enabled")
        if self.trials < 1 or self.horizon_steps < 1:
            raise ConfigError("sim.trials and sim.horizon_steps must be >= 1")
        if self.h < 1 or self.p < 1:
            raise ConfigError("rollout.h and rollout.p must be >= 1")
        if self.h > MAX_LOOKAHEAD:
            raise ConfigError(f"rollout.h must be <= {MAX_LOOKAHEAD} (exhaustive 2^h enumeration)")
        if self.h % self.p != 0:
            raise ConfigError(f"rollout.h={self.h} must be a multiple of rollout.p={self.p}")
        if "rollout" in self.methods and self.horizon_steps % self.h != 0:
            raise ConfigError("sim.horizon_steps must be a multiple of rollout.h")
        if self.mpc_horizon < 1:
            raise ConfigError("sparse_mpc.horizon must be >= 1")
        if self.mpc_penalty <= 0.0 or self.mpc_tol <= 0.0 or self.mpc_max_iter < 1:
            raise ConfigError("sparse_mpc solver parameters must be positive")
        if not self.candidates or any(c < 1 for c in self.candidates):
            raise ConfigError("periodic.candidates must be positive integers")

        try:
            require_symmetric(self.q_weight, "cost.q")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        q_scale = max(1.0, float(np.linalg.norm(self.q_weight, "fro")))
        if min_eigenvalue(self.q_weight) < -1e-10 * q_scale:
            raise ConfigError("cost.q must be positive semidefinite")
        if min_eigenvalue(self.r_weight) <= 0.0:
            raise ConfigError("cost.r must be positive definite")

        rows = self.trials * len(self.theta_grid)  # one block scores every (theta, trial) row
        need = memory_estimate(self.h, len(self.q_weight), len(self.r_weight), rows)
        if need > LOOKAHEAD_MEMORY_BUDGET:
            raise ConfigError(
                f"rollout.h={self.h} needs about {need / 2**20:.0f} MB for the lookahead tables "
                f"and the scores of {rows} rows, above the "
                f"{LOOKAHEAD_MEMORY_BUDGET / 2**20:.0f} MB budget"
            )

    def build_model(self) -> DiscreteModel:
        """The config's model, checked against the config: dimensions and lifting periods."""
        try:
            dm = self._model()
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"model construction failed: {exc}") from exc
        n = dm.n_states
        if self.q_weight.shape != (n, n):
            raise ConfigError(f"cost.q must be {n}x{n} for this model")
        if self.r_weight.shape != (dm.n_inputs, dm.n_inputs):
            raise ConfigError(f"cost.r must be {dm.n_inputs}x{dm.n_inputs} for this model")
        for p in set(self.candidates) | {self.p}:
            if not check_pathological_sampling(dm.a, p):
                raise ConfigError(f"pathological sampling at period p={p}")
        return dm

    def _model(self) -> DiscreteModel:
        if self.model_source == "builtin-benchmark":
            dm = discretize(build_benchmark_model(), self.sample_period)
            _, _, prior_cov = steady_kalman(dm)
            mean = (1.0, -1.0, 0.0, 0.0) if self.init_mean is None else self.init_mean
            return dm.with_init(np.array(mean), prior_cov)
        base = Path(self.model_file)
        if not base.is_absolute() and self.source_path:
            base = Path(self.source_path).parent / base
        try:
            with open(base) as fh:
                raw = yaml.safe_load(fh)
            return DiscreteModel(
                a=np.array(raw["a"], dtype=float),
                b=np.array(raw["b"], dtype=float),
                c=np.array(raw["c"], dtype=float),
                proc_cov=np.array(raw["proc_cov"], dtype=float),
                meas_cov=np.array(raw["meas_cov"], dtype=float),
                init_mean=np.array(raw["init_mean"] if self.init_mean is None else self.init_mean,
                                   dtype=float),
                init_cov=np.array(raw["init_cov"], dtype=float),
                sample_period=raw.get("sample_period"),
            )
        except (OSError, KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"model file {base}: {exc}") from exc

    def canonical_dict(self) -> dict:
        """Normalized content for round-trip and determinism checks, in the YAML layout."""
        out: dict = {}
        for name, (*sections, key) in _YAML_KEYS.items():
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            elif isinstance(value, tuple):
                value = list(value)
            target = out
            for section in sections:
                target = target.setdefault(section, {})
            target[key] = value
        return out


def _expect_mapping(raw, name):
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return raw


def _theta_values(section):
    """The theta grid as written: a list, ``{grid: [...]}`` or ``{start, stop, step}``."""
    if not isinstance(section, dict):
        return section
    if "grid" in section:
        return section["grid"]
    keys = ("start", "stop", "step")
    if any(section.get(key) is None for key in keys):
        raise ConfigError("theta section needs either 'grid' or start/stop/step")
    start, stop, step = (_number(section[key], f"theta.{key}") for key in keys)
    if step <= 0.0:
        raise ConfigError("theta.step must be > 0")
    span = (stop - start) / step  # inf when the step underflows
    count = round(span) + 1 if math.isfinite(span) else math.inf
    # one design row per value is a lower bound of the lookahead budget: check it before building
    if memory_estimate(1, 1, 1, count) > LOOKAHEAD_MEMORY_BUDGET:
        raise ConfigError(f"theta start/stop/step give {count} values, above the memory budget")
    return [round(start + i * step, 12) for i in range(count)]


def _reject_unknown_keys(raw: dict):
    """ConfigError naming the dotted path of the first key outside the YAML schema."""
    known = {".".join(path) for path in (*_YAML_KEYS.values(), *_EXTRA_KEYS)}
    sections = {path.split(".")[0] for path in known if "." in path}
    for name, value in raw.items():
        if name not in known and name not in sections:
            raise ConfigError(f"unknown key {name!r}")
        for key in value if name in sections and isinstance(value, dict) else ():
            if f"{name}.{key}" not in known:
                raise ConfigError(f"unknown key '{name}.{key}'")


def parse_config(raw: dict, source_path: str | None = None) -> ExperimentConfig:
    """Read a parsed YAML mapping over the defaults; the model is checked when it is built.

    Every key must belong to the schema.  ``rollout.alpha`` may still be
    given, as 1.0: the long-run average cost is the only criterion.
    """
    raw = _expect_mapping(raw, "config")
    _reject_unknown_keys(raw)
    rollout = _expect_mapping(raw.get("rollout"), "rollout")
    if "alpha" in rollout and _number(rollout["alpha"], "rollout.alpha") != 1.0:
        raise ConfigError("rollout.alpha must be 1.0 (the long-run average cost)")
    values = {}
    for name, (*sections, key) in _YAML_KEYS.items():
        if name == "theta_grid":
            continue
        source = _expect_mapping(raw.get(sections[0]), sections[0]) if sections else raw
        if key in source and not (name in ("q_weight", "r_weight") and source[key] == "benchmark"):
            values[name] = source[key]
    if "theta" in raw:
        values["theta_grid"] = _theta_values(raw["theta"])
    return ExperimentConfig(**values, source_path=source_path)


def load_config(path) -> ExperimentConfig:
    """Read and validate a YAML experiment configuration file."""
    path = Path(path)
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return parse_config(raw, source_path=str(path))
