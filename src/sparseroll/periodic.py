"""Optimal periodic actuation policies and their closed-form costs.

A period-p policy applies u = F x_hat every p steps and zero in between.
The gain comes from the lifted Riccati design; the long-run average cost
has a closed form evaluated here, which is what makes the periodic family a
convenient base policy for rollout.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import AssumptionViolatedError, NonFiniteError
from .plant import DiscreteModel, LiftedSystem, build_lifted
from .riccati import (RiccatiProblem, range_basis, solve_dares, symmetrize,
                      uncontrollable_mode)


@dataclass(frozen=True)
class PeriodicPolicy:
    """One period's feedback gain, lifted cost matrix and gain quadratic, with its lifted system."""

    period: int
    feedback_gain: np.ndarray
    cost_matrix: np.ndarray
    gain_quadratic: np.ndarray
    lifted: LiftedSystem


def periodic_average_cost(pol: PeriodicPolicy, err_cov, theta: float) -> float:
    """Long-run average cost of the periodic policy, including theta/p.

    ``err_cov`` is the stationary filter covariance.
    """
    lift = pol.lifted
    err_cov = np.atleast_2d(np.asarray(err_cov, dtype=float))
    p = pol.period
    noise_term = float(np.trace(pol.cost_matrix @ lift.noise_cov_lift))
    gain_term = float(np.trace(pol.gain_quadratic @ err_cov))
    return (noise_term + gain_term + lift.d_avg) / p + theta / p


@np.errstate(over="ignore", invalid="ignore")  # a lift that overflows is an error, not a warning
def assumption_errors(dm: DiscreteModel, q_weight, periods) -> dict:
    """``{p: error or None}`` over the distinct ``periods``, in ascending p, by the PBH test
    (:func:`uncontrollable_mode`): (A, B) stabilizable (else every period fails), each lifted pair
    (A^p, A^(p-1) B) stabilizable (a lift that overflows is a :class:`NonFiniteError`) and
    (A, Q^1/2) observable.  Config loading and :func:`design_periods` both gate on it."""
    periods = sorted(set(int(p) for p in periods))
    mode = uncontrollable_mode(dm.a, dm.b)
    if mode is not None:
        return dict.fromkeys(periods, AssumptionViolatedError(
            f"(A, B) must be stabilizable: mode {mode:.6g} of A^1 is uncontrollable"))
    # (A, Q^1/2) and (A, Q) share their unobservable modes, as Q^1/2 and Q share a null space;
    # tested on Q's range, the rank floor does not grow with the scale of Q
    mode = uncontrollable_mode(dm.a.T, range_basis(q_weight), unstable_only=False)
    errors = dict.fromkeys(periods, None if mode is None else AssumptionViolatedError(
        f"(A, Q^{{1/2}}) must be observable: mode {mode:.6g} is unobservable"))
    for p in (p for p in periods if p > 1):  # the period-1 pair is (A, B)
        try:
            mode = uncontrollable_mode(np.linalg.matrix_power(dm.a, p),
                                       np.linalg.matrix_power(dm.a, p - 1) @ dm.b)
            if mode is not None:
                errors[p] = AssumptionViolatedError(f"pathological sampling at period p={p}: "
                                                    f"mode {mode:.6g} of A^{p} is uncontrollable")
        except NonFiniteError:
            errors[p] = NonFiniteError(f"lifting by period p={p} overflows")
    return errors


def design_periods(dm: DiscreteModel, q_weight, r_weight, periods) -> dict:
    """``{p: PeriodicPolicy or error}`` over the distinct ``periods``, in ascending p: each period
    that passes :func:`assumption_errors` is lifted and solved in one :func:`solve_dares`, with the
    bits and failure it has alone.  The period-1 equation is (A, B, Q, 0, R)."""
    designs = assumption_errors(dm, q_weight, periods)
    lifts = {p: build_lifted(dm, q_weight, r_weight, p)
             for p, error in designs.items() if error is None}
    solutions = solve_dares([RiccatiProblem(lift.a_lift, lift.b_lift, lift.q_lift, lift.s_lift,
                                            lift.r_lift) for lift in lifts.values()])
    for (p, lift), sol in zip(lifts.items(), solutions):
        if not isinstance(sol, Exception):
            denom = lift.b_lift.T @ sol.cost_matrix @ lift.b_lift + lift.r_lift
            sol = PeriodicPolicy(period=p, feedback_gain=sol.gain, cost_matrix=sol.cost_matrix,
                                 gain_quadratic=symmetrize(sol.gain.T @ denom @ sol.gain),
                                 lifted=lift)
        designs[p] = sol
    return designs


def period_policies(designs: dict, periods) -> dict:
    """``{p: policy}`` of ``periods`` out of :func:`design_periods`; raises the first failure."""
    chosen = {p: designs[p] for p in sorted(set(int(p) for p in periods))}
    for entry in chosen.values():
        if isinstance(entry, Exception):
            raise entry
    return chosen


def cheapest_period(designs: dict, err_cov, theta: float):
    """Smallest-period argmin of the average cost over ``{p: policy}``; (p, cost)."""
    costs = {p: periodic_average_cost(designs[p], err_cov, theta) for p in sorted(designs)}
    best = min(costs, key=costs.get)  # the first of equal minima: the smallest period
    return best, costs[best]


def best_periodic(dm: DiscreteModel, q_weight, r_weight, candidates, err_cov, theta: float):
    """Smallest-period argmin of the average cost over candidate periods; (p, cost)."""
    designs = design_periods(dm, q_weight, r_weight, candidates)
    return cheapest_period(period_policies(designs, candidates), err_cov, theta)
