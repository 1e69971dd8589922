"""Experiment configuration: the one config type, its YAML form and validation.

An :class:`ExperimentConfig` pins every knob of an experiment (model source,
cost, theta grid, per-method parameters, trial counts, seeds), and its
defaults are the benchmark study.  It validates itself on construction, so
``dataclasses.replace`` and the CLI overrides are checked like a loaded
file.  :func:`parse_config` reads the YAML sections over the defaults and
adds the checks that need the built model (dimensions and non-pathological
sampling), so runs fail before any compute happens.
"""

import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .benchmark import (
    BENCHMARK_H,
    BENCHMARK_HORIZON_STEPS,
    BENCHMARK_MPC_HORIZON,
    BENCHMARK_PERIOD_CANDIDATES,
    BENCHMARK_Q,
    BENCHMARK_R,
    BENCHMARK_THETA_GRID,
    BENCHMARK_TRIALS,
    BENCHMARK_TS,
    benchmark_discrete_model,
)
from .exceptions import ConfigError
from .plant import DiscreteModel
from .riccati import (
    check_pathological_sampling,
    min_eigenvalue,
    require_symmetric,
)

METHODS = ("rollout", "periodic", "sparse_mpc")

MAX_LOOKAHEAD = 20  # 2^h patterns are enumerated exhaustively

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
    "alpha": ("rollout", "alpha"),
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
    "alpha": _number,
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


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment (see configs/benchmark.yaml); the defaults are the benchmark study.

    The model-free checks run on construction and raise :class:`ConfigError`.
    """

    model_source: str = "builtin-benchmark"
    sample_period: float = BENCHMARK_TS
    model_file: str | None = None
    init_mean: tuple[float, ...] | None = None
    q_weight: np.ndarray = field(default_factory=BENCHMARK_Q.copy)
    r_weight: np.ndarray = field(default_factory=BENCHMARK_R.copy)
    theta_grid: tuple[float, ...] = BENCHMARK_THETA_GRID
    methods: tuple[str, ...] = METHODS
    h: int = BENCHMARK_H
    p: int = BENCHMARK_H
    alpha: float = 1.0
    candidates: tuple[int, ...] = BENCHMARK_PERIOD_CANDIDATES
    mpc_horizon: int = BENCHMARK_MPC_HORIZON
    mpc_penalty: float = 1.0
    mpc_tol: float = 1e-8
    mpc_max_iter: int = 10_000
    trials: int = BENCHMARK_TRIALS
    horizon_steps: int = BENCHMARK_HORIZON_STEPS
    seed_base: int = 20240601
    output_dir: str = "results"
    source_path: str | None = field(default=None, compare=False)

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
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("rollout.alpha must lie in (0, 1]")
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

    def build_model(self) -> DiscreteModel:
        if self.model_source == "builtin-benchmark":
            return benchmark_discrete_model(ts=self.sample_period, init_mean=self.init_mean)
        base = Path(self.model_file)
        if not base.is_absolute() and self.source_path:
            base = Path(self.source_path).parent / base
        try:
            with open(base) as fh:
                raw = yaml.safe_load(fh)
            dm = DiscreteModel(
                a=np.array(raw["a"], dtype=float),
                b=np.array(raw["b"], dtype=float),
                c=np.array(raw["c"], dtype=float),
                proc_cov=np.array(raw["proc_cov"], dtype=float),
                meas_cov=np.array(raw["meas_cov"], dtype=float),
                init_mean=np.array(raw["init_mean"], dtype=float),
                init_cov=np.array(raw["init_cov"], dtype=float),
                sample_period=raw.get("sample_period"),
            )
        except (OSError, KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"model file {base}: {exc}") from exc
        if self.init_mean is not None:
            dm = dm.with_init(np.array(self.init_mean), dm.init_cov)
        return dm

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
    count = int(round((stop - start) / step)) + 1
    return [round(start + i * step, 12) for i in range(count)]


def parse_config(raw: dict, source_path: str | None = None) -> ExperimentConfig:
    """Read a parsed YAML mapping over the defaults and validate it against its model."""
    raw = _expect_mapping(raw, "config")
    values = {}
    for name, (*sections, key) in _YAML_KEYS.items():
        if name == "theta_grid":
            continue
        source = _expect_mapping(raw.get(sections[0]), sections[0]) if sections else raw
        if key in source and not (name in ("q_weight", "r_weight") and source[key] == "benchmark"):
            values[name] = source[key]
    if "theta" in raw:
        values["theta_grid"] = _theta_values(raw["theta"])
    cfg = ExperimentConfig(**values, source_path=source_path)

    # Model-coupled checks: dimensions and non-pathological lifting.
    try:
        dm = cfg.build_model()
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"model construction failed: {exc}") from exc
    n = dm.n_states
    if cfg.q_weight.shape != (n, n):
        raise ConfigError(f"cost.q must be {n}x{n} for this model")
    if cfg.r_weight.shape != (dm.n_inputs, dm.n_inputs):
        raise ConfigError(f"cost.r must be {dm.n_inputs}x{dm.n_inputs} for this model")
    for p in set(cfg.candidates) | {cfg.p}:
        if not check_pathological_sampling(dm.a, p):
            raise ConfigError(f"pathological sampling at period p={p}")
    return cfg


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
