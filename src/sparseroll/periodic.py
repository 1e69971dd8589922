"""Optimal periodic actuation policies and their closed-form costs.

A period-p policy applies u = F x_hat every p steps and zero in between.
The gain comes from the lifted Riccati design; the long-run average cost
has a closed form evaluated here, which is what makes the periodic family a
convenient base policy for rollout.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import AssumptionViolatedError
from .plant import DiscreteModel, LiftedSystem, build_lifted
from .riccati import (
    RiccatiProblem,
    check_observability,
    check_pathological_sampling,
    psd_sqrt,
    solve_dare,
)


@dataclass(frozen=True)
class PeriodicPolicy:
    """Feedback gain, lifted cost matrix and gain quadratic for one period."""

    period: int
    feedback_gain: np.ndarray
    cost_matrix: np.ndarray
    gain_quadratic: np.ndarray


def design_periodic(dm: DiscreteModel, q_weight, r_weight, p: int) -> PeriodicPolicy:
    """Design the period-p policy that is optimal in long-run average cost.

    Validates non-pathological sampling for p and observability of the
    state-weight pair before solving the lifted Riccati equation.
    """
    q_weight = np.atleast_2d(np.asarray(q_weight, dtype=float))
    r_weight = np.atleast_2d(np.asarray(r_weight, dtype=float))
    if not check_pathological_sampling(dm.a, p):
        raise AssumptionViolatedError(
            f"pathological sampling: lifting by p={p} breaks stabilizability"
        )
    if not check_observability(dm.a, psd_sqrt(q_weight)):
        raise AssumptionViolatedError("(A, Q^{1/2}) must be observable")
    lift = build_lifted(dm, q_weight, r_weight, p)
    prob = RiccatiProblem(
        state_matrix=lift.a_lift,
        input_matrix=lift.b_lift,
        state_weight=lift.q_lift,
        cross_weight=lift.s_lift,
        input_weight=lift.r_lift,
    )
    sol = solve_dare(prob)
    pman = sol.cost_matrix
    denom = lift.b_lift.T @ pman @ lift.b_lift + lift.r_lift
    gain_quadratic = sol.gain.T @ denom @ sol.gain
    return PeriodicPolicy(
        period=p,
        feedback_gain=sol.gain,
        cost_matrix=pman,
        gain_quadratic=0.5 * (gain_quadratic + gain_quadratic.T),
    )


def periodic_average_cost(pol: PeriodicPolicy, lift: LiftedSystem, err_cov, theta: float) -> float:
    """Long-run average cost of the periodic policy, including theta/p.

    ``err_cov`` is the stationary filter covariance.
    """
    if pol.period != lift.period:
        raise ValueError("policy and lifted system periods differ")
    err_cov = np.atleast_2d(np.asarray(err_cov, dtype=float))
    p = pol.period
    noise_term = float(np.trace(pol.cost_matrix @ lift.d_lift @ lift.proc_cov_lift @ lift.d_lift.T))
    gain_term = float(np.trace(pol.gain_quadratic @ err_cov))
    return (noise_term + gain_term + lift.d_avg) / p + theta / p


def design_candidates(dm: DiscreteModel, q_weight, r_weight, candidates) -> dict:
    """``{p: (policy, lifted system)}`` for each candidate period, in ascending p."""
    if not candidates:
        raise ValueError("candidate set must be non-empty")
    return {p: (design_periodic(dm, q_weight, r_weight, p), build_lifted(dm, q_weight, r_weight, p))
            for p in sorted(set(int(p) for p in candidates))}


def cheapest_period(designs: dict, err_cov, theta: float):
    """Smallest-period argmin of the average cost over :func:`design_candidates`; (p, cost)."""
    best_p, best_cost = None, None
    for p in sorted(designs):
        cost = periodic_average_cost(*designs[p], err_cov, theta)
        if best_cost is None or cost < best_cost:
            best_p, best_cost = p, cost
    return best_p, best_cost


def best_periodic(dm: DiscreteModel, q_weight, r_weight, candidates, err_cov, theta: float):
    """Smallest-period argmin of the average cost over candidate periods; (p, cost)."""
    return cheapest_period(design_candidates(dm, q_weight, r_weight, candidates), err_cov, theta)
