"""Receding-horizon MPC with a group-norm actuation penalty.

The per-step problem, condensed into the stacked input vector U, is

    minimize  0.5 U' H U + f(x_hat)' U + theta * sum_i ||u_i||_2,

where the quadratic part encodes predicted state cost plus a terminal
cost-to-go weight.  The group penalty is the convex surrogate for the
actuation count; its proximal operator (block soft thresholding) produces
exact zero blocks, so triggering decisions fall out of the solution.

Solved by scaled ADMM with over-relaxation.  The quadratic subproblem of
every iteration is a solve with H + rho I, which depends on neither theta
nor the estimate, so its Cholesky factor is made once per cell (a sweep
shares it across cells).  All trials of a cell are solved in lockstep over
(T, H q) arrays: one LAPACK ``potrs`` call per iteration covers every
active trial, and a trial leaves the batch at the iteration it converges,
so each trial follows the same iterates as when it is solved alone.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import get_lapack_funcs

from .estimator import row_product
from .exceptions import NonConvergenceError
from .plant import DiscreteModel
from .riccati import RiccatiProblem, min_eigenvalue, solve_dare

# Inputs with norm at or below this are treated as "no actuation".
ZERO_TOL = 1e-9

# Over-relaxation factor of the ADMM iteration.
RELAX = 1.5

# Called directly: cho_solve's argument checks cost as much as the solve.
_potrs = get_lapack_funcs("potrs")


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
        if self.group_weight < 0.0:
            raise ValueError("group weight must be nonnegative")
        if min_eigenvalue(self.quad_matrix) <= 0.0:
            raise ValueError("condensed quadratic cost must be positive definite")


@dataclass
class AdmmState:
    """Splitting iterates carried across warm-started solves.

    The iterates are (dim,) for one solve or (T, dim) for a batch of
    trials; the residuals are floats or (T,) arrays to match.
    """

    primal: np.ndarray
    auxiliary: np.ndarray
    dual: np.ndarray
    penalty: float
    primal_residual: float | np.ndarray = np.inf
    dual_residual: float | np.ndarray = np.inf

    def shifted(self, group_size: int) -> "AdmmState":
        """Shift iterates one block forward (receding-horizon warm start)."""
        def shift(v):
            out = np.zeros_like(v)
            out[..., :-group_size] = v[..., group_size:]
            return out

        return AdmmState(
            primal=shift(self.primal),
            auxiliary=shift(self.auxiliary),
            dual=shift(self.dual),
            penalty=self.penalty,
        )


def build_mpc_problem(dm: DiscreteModel, q_weight, r_weight, horizon: int, theta: float,
                      terminal=None) -> MpcProblem:
    """Condense the prediction model and cost over the given horizon.

    ``terminal`` defaults to the unlifted (period-1, undiscounted) Riccati
    cost matrix, the standard stabilizing cost-to-go choice.  Only
    ``group_weight`` depends on theta.
    """
    if horizon < 1:
        raise ValueError("prediction horizon must be >= 1")
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


def admm_factor(prob: MpcProblem, rho: float):
    """Cholesky factor ``(c, lower)`` of H + rho I, shared by every solve at this rho."""
    return sla.cho_factor(prob.quad_matrix + rho * np.eye(prob.quad_matrix.shape[0]))


def block_soft_threshold(v, kappa: float) -> np.ndarray:
    """Proximal map of kappa * ||.||_2: shrink toward zero, exactly zero inside."""
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm <= kappa:
        return np.zeros_like(v)
    return (1.0 - kappa / norm) * v


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis; each row's bits independent of the batch."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def mpc_objective(prob: MpcProblem, u_flat: np.ndarray, f: np.ndarray) -> float:
    groups = u_flat.reshape(prob.horizon, prob.group_size)
    penalty = prob.group_weight * np.linalg.norm(groups, axis=1).sum()
    return float(0.5 * u_flat @ prob.quad_matrix @ u_flat + f @ u_flat + penalty)


def _kkt_residuals(prob: MpcProblem, u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Worst block violation of the subgradient conditions for each row of u (T, H q)."""
    shape = (len(u), prob.horizon, prob.group_size)
    theta = prob.group_weight
    grad = (row_product(u, prob.quad_matrix) + f).reshape(shape)
    u = u.reshape(shape)
    norms = _row_norms(u)[..., None]
    nonzero = norms > 0.0
    direction = np.divide(theta * u, norms, out=np.zeros_like(u), where=nonzero)
    return np.where(nonzero[..., 0], _row_norms(grad + direction),
                    np.maximum(_row_norms(grad) - theta, 0.0)).max(axis=1)


def subgradient_residual(prob: MpcProblem, u_seq, estimate) -> float:
    """Worst block violation of the first-order optimality conditions.

    Zero blocks require the quadratic gradient norm to stay below theta;
    nonzero blocks require gradient plus scaled direction to vanish.
    """
    f = row_product(np.asarray(estimate, dtype=float).reshape(1, -1), prob.lin_matrix)
    return float(_kkt_residuals(prob, np.asarray(u_seq, dtype=float).reshape(1, -1), f)[0])


def solve_admm(prob: MpcProblem, estimates, state: AdmmState, factor=None, tol: float = 1e-8,
               max_iter: int = 10_000, on_iterate=None):
    """Solve the instances at the estimates (T, n) in lockstep by over-relaxed scaled ADMM.

    ``state`` holds the (T, H q) warm starts and the penalty rho; it is
    updated in place on success.  ``factor`` is :func:`admm_factor` at
    that rho, made here when not given.  A row is frozen and leaves the
    batch at the first iteration where its primal and dual residuals are
    below ``tol`` and its subgradient residual is at most ``tol``, so a
    row's iterates and count do not depend on the other rows.
    ``on_iterate(z, f)`` sees the active rows after every iteration.

    Returns (z, iterations): the solutions (T, H q), whose zero blocks are
    exact zeros from the proximal step, and the iteration count per row.
    Raises :class:`NonConvergenceError` naming the first batch row still
    active after ``max_iter`` iterations.
    """
    f = row_product(np.asarray(estimates, dtype=float), prob.lin_matrix)
    rho = state.penalty
    c, lower = admm_factor(prob, rho) if factor is None else factor
    kappa = prob.group_weight / rho
    n_rows, dim = f.shape
    blocks = (-1, prob.horizon, prob.group_size)
    results = {name: np.empty((n_rows, dim)) for name in ("primal", "auxiliary", "dual")}
    results.update(primal_residual=np.empty(n_rows), dual_residual=np.empty(n_rows))
    iterations = np.zeros(n_rows, dtype=int)
    rows = np.arange(n_rows)
    z, w = state.auxiliary, state.dual

    for it in range(1, max_iter + 1):
        u = _potrs(c, (rho * (z - w) - f).T, lower=lower, overwrite_b=True)[0].T
        u_relaxed = RELAX * u + (1.0 - RELAX) * z
        v = (u_relaxed + w).reshape(blocks)
        norms = _row_norms(v)[..., None]
        scale = np.zeros_like(norms)
        np.divide(norms - kappa, norms, out=scale, where=norms > kappa)
        z_old, z = z, (scale * v).reshape(len(rows), dim)
        w = w + u_relaxed - z
        primal_res = _row_norms(u - z)
        dual_res = rho * _row_norms(z - z_old)
        if on_iterate is not None:
            on_iterate(z, f)
        done = (primal_res < tol) & (dual_res < tol)
        if not done.any():
            continue
        done[done] = _kkt_residuals(prob, z[done], f[done]) <= tol
        if not done.any():
            continue
        finished = rows[done]
        for name, value in (("primal", u), ("auxiliary", z), ("dual", w),
                            ("primal_residual", primal_res), ("dual_residual", dual_res)):
            results[name][finished] = value[done]
        iterations[finished] = it
        keep = ~done
        rows, f, z, w = rows[keep], f[keep], z[keep], w[keep]
        if not rows.size:
            break
    else:
        raise NonConvergenceError(
            f"ADMM did not converge in {max_iter} iterations for trial {rows[0]} of the batch "
            f"(primal {primal_res[0]:.3e}, dual {dual_res[0]:.3e})",
            residual=float(max(primal_res[0], dual_res[0])),
            iterations=max_iter,
        )

    for name, value in results.items():
        setattr(state, name, value)
    return results["auxiliary"], iterations


def solve_sparse_mpc(prob: MpcProblem, estimate, tol: float = 1e-8, max_iter: int = 10_000,
                     state: AdmmState | None = None, collect_objective: bool = False):
    """Solve one condensed sparse-MPC instance: the batch-of-one :func:`solve_admm`.

    Returns (u_seq, iterations) with u_seq of shape (horizon, group_size);
    zero blocks are exact zeros from the proximal step.  Accepted solutions
    satisfy the block subgradient conditions at ``tol``: zero blocks have
    quadratic-gradient norm below theta + tol, nonzero blocks stationarity
    residual below tol.  ``state`` is updated in place when given, enabling
    warm starts across steps.  With ``collect_objective`` the per-iteration
    objective values are returned as a third element.
    """
    x = np.asarray(estimate, dtype=float).reshape(1, -1)
    dim = prob.quad_matrix.shape[0]
    if state is None:
        state = AdmmState(
            primal=np.zeros(dim), auxiliary=np.zeros(dim), dual=np.zeros(dim), penalty=1.0,
        )
    batch = AdmmState(state.primal[None], state.auxiliary[None], state.dual[None], state.penalty)
    objectives = []
    z, iterations = solve_admm(
        prob, x, batch, tol=tol, max_iter=max_iter,
        on_iterate=(lambda z, f: objectives.append(mpc_objective(prob, z[0], f[0])))
        if collect_objective else None)
    for name in ("primal", "auxiliary", "dual", "primal_residual", "dual_residual"):
        setattr(state, name, getattr(batch, name)[0])
    u_seq = z[0].reshape(prob.horizon, prob.group_size)
    if collect_objective:
        return u_seq, int(iterations[0]), objectives
    return u_seq, int(iterations[0])


def first_inputs(z: np.ndarray, group_size: int):
    """Applied inputs (T, q) and triggers (T,) from the first blocks of solutions (T, H q).

    A trigger is 1 iff the first block is actuated; sub-threshold first
    blocks are replaced by exact zeros so the trigger/input consistency
    contract holds.
    """
    u0 = z[:, :group_size]
    delta = _row_norms(u0) > ZERO_TOL
    return np.where(delta[:, None], u0, 0.0), delta.astype(np.int8)
