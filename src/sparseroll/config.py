"""Experiment configuration: the one config type, its YAML form and validation.

An :class:`ExperimentConfig` pins every knob of an experiment (model source,
cost, theta grid, per-method parameters, trial counts, seeds), and its
defaults are the benchmark study.  It validates itself on construction, so
``dataclasses.replace`` and the CLI overrides are checked like a loaded
file, and :meth:`ExperimentConfig.build_model` adds the checks that need the
model (dimensions, the sweep's memory, the structural assumptions of each period
a method reads and detectability), so runs fail before any Riccati iteration.  :func:`parse_config`
rejects keys outside the schema and reads the YAML sections over the defaults.
"""

import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .estimator import steady_kalman
from .exceptions import ConfigError
from .periodic import assumption_errors
from .plant import DiscreteModel, build_benchmark_model, discretize
from .riccati import min_eigenvalue, require_psd, require_symmetric, uncontrollable_mode
from .rollout import memory_estimate

METHODS = ("rollout", "periodic", "sparse_mpc")

MAX_LOOKAHEAD = 20  # 2^h patterns are enumerated exhaustively
MEMORY_BUDGET = 1 << 30  # bytes for a lookahead design, and for the noise and records of a sweep

# libyaml's safe loader where PyYAML was built with it (the same documents, ~8x faster)
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_MODEL_SOURCES = ("builtin-benchmark", "matrices-from-file")

# The other keys of the YAML form: the theta range and the criterion of older files.
_EXTRA_KEYS = ("theta.start", "theta.stop", "theta.step", "rollout.alpha")


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


def _list_of(convert, distinct=False):
    def converter(value, label):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{label} must be a list, got {value!r}")
        out = tuple(convert(v, f"{label}[{i}]") for i, v in enumerate(value))
        if distinct and len(set(out)) < len(out):
            raise ConfigError(f"{label} must not repeat an entry, got {list(value)!r}")
        return out
    return converter


def _key(path: str, default, convert=lambda value, label: value):
    """A schema field: its dotted YAML path, its default (an array is copied for each
    config) and its converter to the field's type, which raises ConfigError naming the path."""
    metadata = {"yaml": path, "convert": convert}
    if isinstance(default, np.ndarray):
        return field(default_factory=default.copy, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment (see configs/benchmark.yaml); the defaults are the benchmark study.

    The builtin model starts from the mean [1, -1, 0, 0] unless ``init_mean``
    is given, with the predictive filter fixed point as its covariance, so
    the Kalman filter is stationary from the first step.  The model-free
    checks run on construction and the model checks in :meth:`build_model`;
    both raise :class:`ConfigError`.
    """

    model_source: str = _key("model.source", "builtin-benchmark")
    sample_period: float = _key("model.sample_period", 0.1, _number)
    model_file: str | None = _key("model.file", None)
    init_mean: tuple[float, ...] | None = _key(
        "model.init_mean", None,
        lambda value, label: None if value is None else _list_of(_number)(value, label))
    q_weight: np.ndarray = _key("cost.q", np.array([
        [0.1336, -0.0936, -0.0327, 0.0347],
        [-0.0936, 0.1336, 0.0347, -0.0327],
        [-0.0327, 0.0347, 0.0377, 0.0024],
        [0.0347, -0.0327, 0.0024, 0.0377],
    ]), _matrix)
    r_weight: np.ndarray = _key("cost.r", np.array([[0.1]]), _matrix)
    theta_grid: tuple[float, ...] = _key(
        "theta.grid", tuple(round(0.02 * k, 2) for k in range(1, 21)), _list_of(_number))
    methods: tuple[str, ...] = _key("methods", METHODS, _list_of(_method, distinct=True))
    h: int = _key("rollout.h", 6, _integer)
    p: int = _key("rollout.p", 6, _integer)
    candidates: tuple[int, ...] = _key(
        "periodic.candidates", (1, 2, 3, 6), _list_of(_integer, distinct=True))
    mpc_horizon: int = _key("sparse_mpc.horizon", 30, _integer)
    mpc_penalty: float = _key("sparse_mpc.penalty", 1.0, _number)
    mpc_tol: float = _key("sparse_mpc.tol", 1e-8, _number)
    mpc_max_iter: int = _key("sparse_mpc.max_iter", 10_000, _integer)
    trials: int = _key("sim.trials", 50, _integer)
    horizon_steps: int = _key("sim.horizon_steps", 600, _integer)
    seed_base: int = _key("sim.seed_base", 20240601, _integer)
    output_dir: str = _key("output_dir", "results", lambda value, label: str(value))
    source_path: str | None = None

    def __post_init__(self):
        # theta's values are converted last, once their count has passed the memory budget
        for name in _SCHEMA:
            if name != "theta_grid":
                self._convert(name)

        if self.model_source not in _MODEL_SOURCES:
            raise ConfigError(f"model.source must be one of {_MODEL_SOURCES}")
        if self.model_source == "matrices-from-file" and not self.model_file:
            raise ConfigError("model.source matrices-from-file requires model.file")
        if self.sample_period <= 0.0:
            raise ConfigError("model.sample_period must be > 0")
        if not self.methods:
            raise ConfigError("at least one method must be enabled")
        if self.trials < 1 or self.horizon_steps < 1:
            raise ConfigError("sim.trials and sim.horizon_steps must be >= 1")
        if not 0 <= self.seed_base < 2**64:  # the key of every noise generator
            raise ConfigError(f"sim.seed_base must be in [0, 2**64), got {self.seed_base}")
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
            require_psd(self.q_weight, "cost.q", 1e-10)
            require_symmetric(self.r_weight, "cost.r")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if min_eigenvalue(self.r_weight) <= 0.0:
            raise ConfigError("cost.r must be positive definite")

        grid = self.theta_grid  # one block holds every (theta, trial) row; a non-list fails below
        rows = self.trials * (len(grid) if isinstance(grid, (list, tuple)) else 0)
        need = memory_estimate(self.h, len(self.q_weight), len(self.r_weight), rows)
        if need > MEMORY_BUDGET:
            raise ConfigError(
                f"rollout.h={self.h} needs about {need / 2**20:.0f} MB for the lookahead tables "
                f"and a block of {rows} rows, above the "
                f"{MEMORY_BUDGET / 2**20:.0f} MB budget"
            )

        self._convert("theta_grid")
        if not self.theta_grid:
            raise ConfigError("theta grid must be non-empty")
        if any(t <= 0.0 for t in self.theta_grid):
            raise ConfigError("every theta must be > 0")

    def _convert(self, name):
        meta = _SCHEMA[name].metadata
        object.__setattr__(self, name, meta["convert"](getattr(self, name), meta["yaml"]))

    @property
    def method_periods(self) -> dict:
        """The periods whose policies each method reads (sparse MPC: its terminal weight)."""
        return {"periodic": self.candidates, "rollout": (self.p,), "sparse_mpc": (1,)}

    def build_model(self) -> DiscreteModel:
        """The config's model, checked before any Riccati iteration: dimensions, sweep memory, the
        :func:`~sparseroll.periodic.assumption_errors` of the periods in :attr:`method_periods`
        and detectable (A, C); a builtin model then takes the filter fixed point as ``init_cov``."""
        try:
            dm = self._model()
            for key, m, n in (("q", self.q_weight, dm.n_states), ("r", self.r_weight, dm.n_inputs)):
                if m.shape != (n, n):
                    raise ConfigError(f"cost.{key} must be {n}x{n} for this model")
            steps = self.horizon_steps  # sweep's noise and (rows, N) stage-cost and trigger records
            rows = self.trials * len(self.theta_grid) * max(len(self.methods), 2)  # or verify's
            need = 8 * self.trials * (steps + 1) * (dm.n_states + dm.n_outputs) + 9 * rows * steps
            if need > MEMORY_BUDGET:
                raise ConfigError(f"sim.horizon_steps={steps} needs about {need >> 20} MB for the "
                                  f"noise and the records of {rows} rows, above the "
                                  f"{MEMORY_BUDGET >> 20} MB budget")
            periods = set().union(*self.method_periods.values())  # verify designs every method
            for error in filter(None, assumption_errors(dm, self.q_weight, periods).values()):
                raise ConfigError(str(error))
            mode = uncontrollable_mode(dm.a.T, dm.c.T)
            if mode is not None:
                raise ConfigError(f"(A, C) must be detectable: mode {mode:.6g} is unobservable")
            if self.model_source == "builtin-benchmark":
                mean = (1.0, -1.0, 0.0, 0.0) if self.init_mean is None else self.init_mean
                dm = dm.with_init(np.array(mean), steady_kalman(dm)[2])
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"model construction failed: {exc}") from exc
        return dm

    def _model(self) -> DiscreteModel:
        if self.model_source == "builtin-benchmark":
            return discretize(build_benchmark_model(), self.sample_period)
        base = Path(self.model_file)
        if not base.is_absolute() and self.source_path:
            base = Path(self.source_path).parent / base
        try:
            with open(base) as fh:
                raw = yaml.load(fh, Loader=YAML_LOADER)
            return DiscreteModel(
                a=np.array(raw["a"], dtype=float),
                b=np.array(raw["b"], dtype=float),
                c=np.array(raw["c"], dtype=float),
                proc_cov=np.array(raw["proc_cov"], dtype=float),
                meas_cov=np.array(raw["meas_cov"], dtype=float),
                init_mean=np.array(raw["init_mean"] if self.init_mean is None else self.init_mean,
                                   dtype=float),
                init_cov=np.array(raw["init_cov"], dtype=float),
            )
        except (OSError, yaml.YAMLError, KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"model file {base}: {exc}") from exc

    def canonical_dict(self) -> dict:
        """Normalized content for round-trip and determinism checks, in the YAML layout."""
        out: dict = {}
        for name, f in _SCHEMA.items():
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            elif isinstance(value, tuple):
                value = list(value)
            section, _, key = f.metadata["yaml"].rpartition(".")
            (out.setdefault(section, {}) if section else out)[key] = value
        return out


# The fields of the YAML schema, by name, in declaration order.
_SCHEMA = {f.name: f for f in fields(ExperimentConfig) if "yaml" in f.metadata}


def _expect_mapping(raw, name):
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return raw


def _theta_values(section, trials: int):
    """The theta grid as written: a list, ``{grid: [...]}`` or ``{start, stop, step}``."""
    if not isinstance(section, dict):
        return section
    keys = ("start", "stop", "step")
    if "grid" in section:
        if any(key in section for key in keys):
            raise ConfigError("theta section takes either 'grid' or start/stop/step, not both")
        return section["grid"]
    if any(section.get(key) is None for key in keys):
        raise ConfigError("theta section needs either 'grid' or start/stop/step")
    start, stop, step = (_number(section[key], f"theta.{key}") for key in keys)
    if step <= 0.0:
        raise ConfigError("theta.step must be > 0")
    span = (stop - start) / step  # inf when the step underflows
    # the values up to stop; 1e-9 takes a span such as 5.999... as the 6 steps it means
    count = math.floor(span + 1e-9) + 1 if math.isfinite(span) else math.inf
    # `trials` rows per value in the smallest design: a lower bound of the lookahead budget
    if memory_estimate(1, 1, 1, count * trials) > MEMORY_BUDGET:
        raise ConfigError(f"theta start/stop/step give {count} values, above the memory budget")
    return [round(start + i * step, 12) for i in range(count)]


def _reject_unknown_keys(raw: dict):
    """ConfigError naming the dotted path of the first key outside the YAML schema."""
    known = {f.metadata["yaml"] for f in _SCHEMA.values()} | set(_EXTRA_KEYS)
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
    if "theta" in raw:
        sim = raw.get("sim") or {}  # its trials, or 1 where they are not valid: a lower bound
        trials = sim.get("trials", _SCHEMA["trials"].default) if isinstance(sim, dict) else 1
        trials = max(trials, 1) if isinstance(trials, int) else 1
        raw = {**raw, "theta": {"grid": _theta_values(raw["theta"], trials)}}
    values = {}
    for name, f in _SCHEMA.items():
        section, _, key = f.metadata["yaml"].rpartition(".")
        source = _expect_mapping(raw.get(section), section) if section else raw
        if key in source and not (name in ("q_weight", "r_weight") and source[key] == "benchmark"):
            values[name] = source[key]
    return ExperimentConfig(**values, source_path=source_path)


def load_config(path) -> ExperimentConfig:
    """Read and validate a YAML experiment configuration file."""
    path = Path(path)
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return parse_config(raw, source_path=str(path))
