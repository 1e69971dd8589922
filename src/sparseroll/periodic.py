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
from .riccati import (RiccatiProblem, check_observability, check_pathological_sampling,
                      psd_sqrt, solve_dare)


@dataclass(frozen=True)
class PeriodicPolicy:
    """One period's feedback gain, lifted cost matrix and gain quadratic, with its lifted system."""

    period: int
    feedback_gain: np.ndarray
    cost_matrix: np.ndarray
    gain_quadratic: np.ndarray
    lifted: LiftedSystem


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
    sol = solve_dare(RiccatiProblem(lift.a_lift, lift.b_lift, lift.q_lift, lift.s_lift,
                                    lift.r_lift))
    pman = sol.cost_matrix
    denom = lift.b_lift.T @ pman @ lift.b_lift + lift.r_lift
    gain_quadratic = sol.gain.T @ denom @ sol.gain
    return PeriodicPolicy(period=p, feedback_gain=sol.gain, cost_matrix=pman,
                          gain_quadratic=0.5 * (gain_quadratic + gain_quadratic.T), lifted=lift)


def periodic_average_cost(pol: PeriodicPolicy, err_cov, theta: float) -> float:
    """Long-run average cost of the periodic policy, including theta/p.

    ``err_cov`` is the stationary filter covariance.
    """
    lift = pol.lifted
    err_cov = np.atleast_2d(np.asarray(err_cov, dtype=float))
    p = pol.period
    noise_term = float(np.trace(pol.cost_matrix @ lift.d_lift @ lift.proc_cov_lift @ lift.d_lift.T))
    gain_term = float(np.trace(pol.gain_quadratic @ err_cov))
    return (noise_term + gain_term + lift.d_avg) / p + theta / p


def design_candidates(dm: DiscreteModel, q_weight, r_weight, candidates) -> dict:
    """``{p: policy}`` for each candidate period, in ascending p."""
    if not candidates:
        raise ValueError("candidate set must be non-empty")
    return {p: design_periodic(dm, q_weight, r_weight, p)
            for p in sorted(set(int(p) for p in candidates))}


def cheapest_period(designs: dict, err_cov, theta: float):
    """Smallest-period argmin of the average cost over :func:`design_candidates`; (p, cost)."""
    costs = {p: periodic_average_cost(designs[p], err_cov, theta) for p in sorted(designs)}
    best = min(costs, key=costs.get)  # the first of equal minima: the smallest period
    return best, costs[best]


def best_periodic(dm: DiscreteModel, q_weight, r_weight, candidates, err_cov, theta: float):
    """Smallest-period argmin of the average cost over candidate periods; (p, cost)."""
    return cheapest_period(design_candidates(dm, q_weight, r_weight, candidates), err_cov, theta)
