"""Receding-horizon MPC with a group-norm actuation penalty.

The per-step problem, condensed into the stacked input vector U, is

    minimize  0.5 U' H U + f(x_hat)' U + theta * sum_i ||u_i||_2,

where the quadratic part encodes predicted state cost plus a terminal
cost-to-go weight.  The group penalty is the convex surrogate for the
actuation count; its proximal operator (block soft thresholding) produces
exact zero blocks, so triggering decisions fall out of the solution.

Solved by scaled ADMM with over-relaxation; the quadratic subproblem is a
single Cholesky solve per iteration.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .exceptions import NonConvergenceError
from .plant import DiscreteModel
from .riccati import RiccatiProblem, min_eigenvalue, solve_dare

# Inputs with norm at or below this are treated as "no actuation".
ZERO_TOL = 1e-9


@dataclass(frozen=True)
class MpcProblem:
    """Condensed sparse-MPC data for one prediction horizon."""

    horizon: int
    phi: np.ndarray            # stacked A^1..A^H          (H n, n)
    psi: np.ndarray            # block lower-triangular    (H n, H q)
    quad_matrix: np.ndarray    # H in the objective        (H q, H q)
    lin_matrix: np.ndarray     # f(x) = lin_matrix @ x     (H q, n)
    group_weight: float        # theta
    group_size: int            # q
    terminal_weight: np.ndarray

    def __post_init__(self):
        if min_eigenvalue(self.quad_matrix) <= 0.0:
            raise ValueError("condensed quadratic cost must be positive definite")


@dataclass
class AdmmState:
    """Splitting iterates carried across warm-started solves."""

    primal: np.ndarray
    auxiliary: np.ndarray
    dual: np.ndarray
    penalty: float
    primal_residual: float = np.inf
    dual_residual: float = np.inf

    def shifted(self, group_size: int) -> "AdmmState":
        """Shift iterates one block forward (receding-horizon warm start)."""
        pad = np.zeros(group_size)
        return AdmmState(
            primal=np.concatenate([self.primal[group_size:], pad]),
            auxiliary=np.concatenate([self.auxiliary[group_size:], pad]),
            dual=np.concatenate([self.dual[group_size:], pad]),
            penalty=self.penalty,
        )


def build_mpc_problem(dm: DiscreteModel, q_weight, r_weight, horizon: int, theta: float,
                      terminal=None) -> MpcProblem:
    """Condense the prediction model and cost over the given horizon.

    ``terminal`` defaults to the unlifted (period-1, undiscounted) Riccati
    cost matrix, the standard stabilizing cost-to-go choice.
    """
    if horizon < 1:
        raise ValueError("prediction horizon must be >= 1")
    if theta < 0.0:
        raise ValueError("group weight must be nonnegative")
    a, b = dm.a, dm.b
    n, q = b.shape
    q_weight = np.atleast_2d(np.asarray(q_weight, dtype=float))
    r_weight = np.atleast_2d(np.asarray(r_weight, dtype=float))
    if terminal is None:
        prob = RiccatiProblem(a, b, q_weight, np.zeros((n, q)), r_weight, discount=1.0)
        terminal = solve_dare(prob).cost_matrix
    terminal = np.atleast_2d(np.asarray(terminal, dtype=float))

    powers = [np.eye(n)]
    for _ in range(horizon):
        powers.append(a @ powers[-1])
    phi = np.vstack(powers[1:])
    psi = np.zeros((horizon * n, horizon * q))
    for i in range(1, horizon + 1):
        for j in range(i):
            psi[(i - 1) * n:i * n, j * q:(j + 1) * q] = powers[i - 1 - j] @ b

    state_weights = [q_weight] * (horizon - 1) + [terminal]
    qt = sla.block_diag(*state_weights)
    rt = sla.block_diag(*([r_weight] * horizon))
    quad = 2.0 * (psi.T @ qt @ psi + rt)
    lin = 2.0 * (psi.T @ qt @ phi)
    return MpcProblem(
        horizon=horizon,
        phi=phi,
        psi=psi,
        quad_matrix=0.5 * (quad + quad.T),
        lin_matrix=lin,
        group_weight=float(theta),
        group_size=q,
        terminal_weight=terminal,
    )


def block_soft_threshold(v, kappa: float) -> np.ndarray:
    """Proximal map of kappa * ||.||_2: shrink toward zero, exactly zero inside."""
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm <= kappa:
        return np.zeros_like(v)
    return (1.0 - kappa / norm) * v


def _block_shrink_rows(v: np.ndarray, kappa: float) -> np.ndarray:
    """Row-wise block soft threshold of a (blocks, group_size) array."""
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    scale = np.zeros_like(norms)
    np.divide(norms - kappa, norms, out=scale, where=norms > kappa)
    return scale * v


def mpc_objective(prob: MpcProblem, u_flat: np.ndarray, f: np.ndarray) -> float:
    groups = u_flat.reshape(prob.horizon, prob.group_size)
    penalty = prob.group_weight * np.linalg.norm(groups, axis=1).sum()
    return float(0.5 * u_flat @ prob.quad_matrix @ u_flat + f @ u_flat + penalty)


def _kkt_residual(prob: MpcProblem, u_flat: np.ndarray, f: np.ndarray) -> float:
    grad = (prob.quad_matrix @ u_flat + f).reshape(prob.horizon, prob.group_size)
    u = u_flat.reshape(prob.horizon, prob.group_size)
    norms = np.linalg.norm(u, axis=1)
    worst = 0.0
    for i in range(prob.horizon):
        if norms[i] == 0.0:
            worst = max(worst, max(0.0, float(np.linalg.norm(grad[i])) - prob.group_weight))
        else:
            worst = max(
                worst,
                float(np.linalg.norm(grad[i] + prob.group_weight * u[i] / norms[i])),
            )
    return worst


def subgradient_residual(prob: MpcProblem, u_seq, estimate) -> float:
    """Worst block violation of the first-order optimality conditions.

    Zero blocks require the quadratic gradient norm to stay below theta;
    nonzero blocks require gradient plus scaled direction to vanish.
    """
    f = prob.lin_matrix @ np.asarray(estimate, dtype=float).reshape(-1)
    return _kkt_residual(prob, np.asarray(u_seq, dtype=float).reshape(-1), f)


def solve_sparse_mpc(prob: MpcProblem, estimate, tol: float = 1e-8, max_iter: int = 10_000,
                     state: AdmmState | None = None, relax: float = 1.5,
                     collect_objective: bool = False):
    """Solve one condensed sparse-MPC instance by over-relaxed scaled ADMM.

    Returns (u_seq, iterations) with u_seq of shape (horizon, group_size);
    zero blocks are exact zeros from the proximal step.  Accepted solutions
    satisfy the block subgradient conditions at ``tol``: zero blocks have
    quadratic-gradient norm below theta + tol, nonzero blocks stationarity
    residual below tol.  ``state`` is updated in place when given, enabling
    warm starts across steps.  With ``collect_objective`` the per-iteration
    objective values are returned as a third element.
    """
    x = np.asarray(estimate, dtype=float).reshape(-1)
    f = prob.lin_matrix @ x
    dim = prob.quad_matrix.shape[0]
    hgroups = prob.horizon
    q = prob.group_size

    if state is None:
        state = AdmmState(
            primal=np.zeros(dim), auxiliary=np.zeros(dim), dual=np.zeros(dim), penalty=1.0,
        )
    rho = state.penalty
    factor = sla.cho_factor(prob.quad_matrix + rho * np.eye(dim))
    z = state.auxiliary
    w = state.dual
    kappa = prob.group_weight / rho
    objectives = [] if collect_objective else None

    for it in range(1, max_iter + 1):
        u = sla.cho_solve(factor, rho * (z - w) - f)
        u_relaxed = relax * u + (1.0 - relax) * z
        z_old = z
        z = _block_shrink_rows((u_relaxed + w).reshape(hgroups, q), kappa).reshape(-1)
        w = w + u_relaxed - z
        primal_res = float(np.linalg.norm(u - z))
        dual_res = float(rho * np.linalg.norm(z - z_old))
        if objectives is not None:
            objectives.append(mpc_objective(prob, z, f))
        if primal_res < tol and dual_res < tol and _kkt_residual(prob, z, f) <= tol:
            break
    else:
        raise NonConvergenceError(
            f"ADMM did not converge in {max_iter} iterations "
            f"(primal {primal_res:.3e}, dual {dual_res:.3e})",
            residual=max(primal_res, dual_res),
            iterations=max_iter,
        )

    state.primal = u
    state.auxiliary = z
    state.dual = w
    state.primal_residual = primal_res
    state.dual_residual = dual_res
    u_seq = z.reshape(hgroups, q).copy()
    if objectives is not None:
        return u_seq, it, objectives
    return u_seq, it


def mpc_controller_step(est, prob: MpcProblem, dm: DiscreteModel, state: AdmmState | None = None,
                        tol: float = 1e-8, max_iter: int = 10_000):
    """Solve at the current estimate and apply the first input.

    Returns (u, delta, warm_state) where delta is 1 iff the first block is
    actuated; sub-threshold first blocks are replaced by exact zeros so the
    trigger/input consistency contract holds.
    """
    estimate = est.estimate if hasattr(est, "estimate") else np.asarray(est, dtype=float)
    if estimate.shape[0] != dm.n_states:
        raise ValueError("estimate dimension does not match the model")
    u_seq, _ = solve_sparse_mpc(prob, estimate, tol=tol, max_iter=max_iter, state=state)
    u0 = u_seq[0].copy()
    if np.linalg.norm(u0) > ZERO_TOL:
        delta = 1
    else:
        delta = 0
        u0 = np.zeros_like(u0)
    warm = state.shifted(prob.group_size) if state is not None else None
    return u0, delta, warm
