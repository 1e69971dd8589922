"""Rollout-based sparse intermittent actuation for stochastic linear systems.

Designs optimal periodic base policies, runs receding-horizon lookahead
co-design of actuation timing and feedback, simulates the closed loop under
process/measurement noise, and benchmarks the control-cost versus
actuation-rate trade-off against periodic control and a group-sparse MPC
relaxation.
"""

from .config import ExperimentConfig
from .estimator import kalman_init, kalman_step, steady_kalman
from .exceptions import (
    AssumptionViolatedError,
    ConfigError,
    HorizonMismatchError,
    IllConditionedError,
    NonConvergenceError,
    NonFiniteError,
    SparseRollError,
)
from .oracle import OracleResult, closed_loop_matrices, oracle_select
from .periodic import (
    PeriodicPolicy,
    best_periodic,
    design_periods,
    periodic_average_cost,
)
from .plant import (
    ContinuousModel,
    DiscreteModel,
    LiftedSystem,
    build_benchmark_model,
    build_lifted,
    discretize,
)
from .riccati import (
    RiccatiProblem,
    RiccatiSolution,
    riccati_residual,
    uncontrollable_mode,
)
from .rollout import (
    RolloutPolicy,
    RolloutTables,
    build_tables,
    pattern_bits,
    pattern_scores,
    select_pattern,
)
from .simulate import (
    Design,
    Metrics,
    StabilityReport,
    SweepCell,
    check_mean_square_stability,
    check_performance_bound,
    design,
    noise_streams,
    simulate_trials,
    theta_sweep,
)
from .sparse_mpc import (
    MpcProblem,
    build_mpc_problem,
)

__version__ = "0.1.0"
