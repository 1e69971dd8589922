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
    design_periodic,
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
    check_observability,
    check_pathological_sampling,
    riccati_residual,
    solve_dare,
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
    SimTrace,
    StabilityReport,
    SweepCell,
    check_mean_square_stability,
    check_performance_bound,
    design,
    estimate_metrics,
    noise_streams,
    simulate_trial,
    simulate_trials,
    theta_sweep,
)
from .sparse_mpc import (
    MpcProblem,
    block_soft_threshold,
    build_mpc_problem,
)

__version__ = "0.1.0"
