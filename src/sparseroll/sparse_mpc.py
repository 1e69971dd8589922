"""Receding-horizon MPC with a group-norm actuation penalty.

The per-step problem, condensed into the stacked input vector U, is

    minimize  0.5 U' H U + f(x_hat)' U + theta * sum_i ||u_i||_2,

where the quadratic part encodes predicted state cost plus a terminal
cost-to-go weight.  The group penalty is the convex surrogate for the
actuation count; its proximal operator (block soft thresholding) produces
exact zero blocks, so triggering decisions fall out of the solution.

Solved by scaled ADMM with over-relaxation.  Theta enters only the shrink
threshold theta / rho and the optimality test, never the condensed problem:
the quadratic subproblem of every iteration is a solve with H + rho I, which
depends on neither theta nor the estimate, so one problem and one cached
inverse (H + rho I)^-1 serve every theta of a sweep.  The rows of a batch,
each with its own theta, are solved in lockstep over (T, H q) arrays: one
``row_product`` with the inverse per iteration covers every active row, and
a row leaves the batch at the iteration it converges, so each row follows
the same iterates as when it is solved alone.
"""

from dataclasses import dataclass

import numpy as np

from .estimator import row_product
from .exceptions import NonConvergenceError
from .plant import DiscreteModel
from .riccati import min_eigenvalue

# Inputs with norm at or below this are treated as "no actuation".
ZERO_TOL = 1e-9

# Over-relaxation factor of the ADMM iteration.
RELAX = 1.5


@dataclass(frozen=True)
class MpcProblem:
    """Condensed sparse-MPC data for one prediction horizon; theta is a solve argument."""

    horizon: int
    quad_matrix: np.ndarray    # H in the objective        (H q, H q)
    lin_matrix: np.ndarray     # f(x) = lin_matrix @ x     (H q, n)
    group_size: int            # q
    terminal_weight: np.ndarray

    def __post_init__(self):
        if min_eigenvalue(self.quad_matrix) <= 0.0:
            raise ValueError("condensed quadratic cost must be positive definite")


def build_mpc_problem(dm: DiscreteModel, q_weight, r_weight, horizon: int,
                      terminal) -> MpcProblem:
    """Condense the prediction model and cost over the given horizon.

    ``terminal`` (n, n) is the terminal cost-to-go weight; :func:`~sparseroll.simulate.design`
    passes the cost matrix of the period-1 policy of :func:`~sparseroll.periodic.design_periods`,
    the stabilizing LQ cost-to-go, which needs (A, Q^1/2) observable.
    """
    if horizon < 1:
        raise ValueError("prediction horizon must be >= 1")
    a, b = dm.a, dm.b
    n, q = b.shape
    q_weight = np.atleast_2d(np.asarray(q_weight, dtype=float))
    r_weight = np.atleast_2d(np.asarray(r_weight, dtype=float))

    powers = [np.eye(n)]
    for _ in range(horizon):
        powers.append(a @ powers[-1])
    phi = np.vstack(powers[1:])
    psi = np.zeros((horizon * n, horizon * q))
    for i in range(1, horizon + 1):
        for j in range(i):
            psi[(i - 1) * n:i * n, j * q:(j + 1) * q] = powers[i - 1 - j] @ b

    qt, rt = np.zeros((horizon * n,) * 2), np.zeros((horizon * q,) * 2)  # block diagonals
    for i in range(horizon):
        qt[i * n:(i + 1) * n, i * n:(i + 1) * n] = q_weight if i < horizon - 1 else terminal
        rt[i * q:(i + 1) * q, i * q:(i + 1) * q] = r_weight
    quad = 2.0 * (psi.T @ qt @ psi + rt)
    lin = 2.0 * (psi.T @ qt @ phi)
    return MpcProblem(
        horizon=horizon,
        quad_matrix=0.5 * (quad + quad.T),
        lin_matrix=lin,
        group_size=q,
        terminal_weight=terminal,
    )


def admm_factor(prob: MpcProblem, rho: float):
    """``(inverse, rho)``: (H + rho I)^-1, which exists as H is positive definite, and rho > 0."""
    if not 0.0 < rho < np.inf:
        raise ValueError("the ADMM penalty rho must be positive and finite")
    return np.linalg.inv(prob.quad_matrix + rho * np.eye(prob.quad_matrix.shape[0])), rho


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis; each row's bits independent of the batch."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _shrink(v: np.ndarray, kappa) -> np.ndarray:
    """Proximal map of kappa * ||.||_2 on each last-axis block; kappa (>= 0) broadcasts against v.

    Scales by (norm - kappa) / norm where norm > kappa, else +0, to the bit
    (NaN and overflow too) and without the masked divide, slow on large batches.
    """
    norms = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    scale = np.fmax(norms - kappa, 0.0)
    scale /= np.fmax(norms, 5e-324)
    return scale * v


def kkt_residuals(prob: MpcProblem, u: np.ndarray, f: np.ndarray, theta) -> np.ndarray:
    """Worst block violation of the subgradient conditions for each row of u (T, H q).

    ``f`` is ``row_product(estimates, prob.lin_matrix)``, theta a scalar or
    (T,).  Zero blocks require the quadratic gradient norm to stay below theta;
    nonzero blocks require gradient plus theta times their direction to vanish.
    """
    shape = (len(u), prob.horizon, prob.group_size)
    theta = np.reshape(theta, (-1, 1, 1))
    grad = (row_product(u, prob.quad_matrix) + f).reshape(shape)
    u = u.reshape(shape)
    norms = _row_norms(u)[..., None]
    nonzero = norms > 0.0
    direction = np.divide(theta * u, norms, out=np.zeros_like(u), where=nonzero)
    return np.where(nonzero[..., 0], _row_norms(grad + direction),
                    np.maximum(_row_norms(grad) - theta[..., 0], 0.0)).max(axis=1)


def solve_admm(prob: MpcProblem, estimates, theta, warm, factor, tol: float, max_iter: int):
    """Solve the instances at the estimates (T, n) in lockstep by over-relaxed scaled ADMM.

    ``theta`` is a scalar or (T,).  ``warm`` is the (z, w) pair of (T, H q)
    starting iterates: a previous solve's result, shifted, or zeros.
    ``factor`` is :func:`admm_factor`, whose rho is the penalty.  A row is
    frozen and leaves the batch at the first iteration where its primal and
    dual residuals are below ``tol`` and its subgradient residual is at most
    ``tol``, so a row's iterates and count do not depend on the other rows.

    Returns (z, w, iterations): the solutions (T, H q), whose zero blocks
    are exact zeros from the proximal step, the scaled duals and the
    iteration count per row.  Raises :class:`NonConvergenceError` naming
    the first batch row still active after ``max_iter`` iterations, with its residuals.
    """
    f = row_product(np.asarray(estimates, dtype=float), prob.lin_matrix)
    inverse, rho = factor
    n_rows, dim = f.shape
    theta = np.broadcast_to(np.asarray(theta, dtype=float), (n_rows,))
    if (theta < 0.0).any():
        raise ValueError("theta must be nonnegative")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    kappa = (theta / rho)[:, None, None]
    blocks = (-1, prob.horizon, prob.group_size)
    z_out, w_out = np.empty((n_rows, dim)), np.empty((n_rows, dim))
    iterations = np.zeros(n_rows, dtype=int)
    if not n_rows:
        return z_out, w_out, iterations
    rows = np.arange(n_rows)
    z, w = warm

    for it in range(1, max_iter + 1):
        rhs = z - w
        rhs *= rho
        rhs -= f
        u = row_product(rhs, inverse)
        v = RELAX * u + (1.0 - RELAX) * z
        v += w
        z_old, z = z, _shrink(v.reshape(blocks), kappa).reshape(len(rows), dim)
        w = v - z  # the bits of w + relaxed u - z, as addition commutes
        primal_res = _row_norms(u - z)
        done = primal_res < tol
        if not np.count_nonzero(done):
            continue
        done[done] = rho * _row_norms(z[done] - z_old[done]) < tol
        if not np.count_nonzero(done):
            continue
        done[done] = kkt_residuals(prob, z[done], f[done], theta[done]) <= tol
        if not np.count_nonzero(done):
            continue
        finished = rows[done]
        z_out[finished], w_out[finished] = z[done], w[done]
        iterations[finished] = it
        keep = ~done
        rows, f, z, w, z_old = rows[keep], f[keep], z[keep], w[keep], z_old[keep]
        theta, kappa, primal_res = theta[keep], kappa[keep], primal_res[keep]
        if not rows.size:
            break
    else:
        dual_res = rho * _row_norms(z[:1] - z_old[:1])[0]
        raise NonConvergenceError(
            f"ADMM did not converge in {max_iter} iterations for trial {rows[0]} of the batch "
            f"(primal {primal_res[0]:.3e}, dual {dual_res:.3e})",
            residual=float(max(primal_res[0], dual_res)),
            iterations=max_iter,
        )
    return z_out, w_out, iterations


def first_inputs(z: np.ndarray, group_size: int):
    """Applied inputs (T, q) and triggers (T,) from the first blocks of solutions (T, H q).

    A trigger is 1 iff the first block is actuated; sub-threshold first
    blocks are replaced by exact zeros so the trigger/input consistency
    contract holds.
    """
    u0 = z[:, :group_size]
    delta = _row_norms(u0) > ZERO_TOL
    return np.where(delta[:, None], u0, 0.0), delta.astype(np.int8)
