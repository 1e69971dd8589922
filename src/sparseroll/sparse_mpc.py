"""Receding-horizon MPC with a group-norm actuation penalty.

The per-step problem, condensed into the stacked input vector U, is

    minimize  0.5 U' H U + f(x_hat)' U + theta * sum_i ||u_i||_2,

where the quadratic part encodes predicted state cost plus a terminal
cost-to-go weight.  The group penalty is the convex surrogate for the
actuation count; its proximal operator (block soft thresholding) produces
exact zero blocks, so triggering decisions fall out of the solution.

Solved by over-relaxed scaled ADMM (Boyd et al., Found. Trends Mach. Learn.
3(1), 2011, sec. 3.4.3), written as one linear recurrence.  With z = v - w,
the relaxed point v = r u + (1 - r) z + w of an iteration is
v' = [w, v, x] @ step, for a stacked matrix that depends on neither theta nor
the estimate x, and the shrink is the Moreau form v - Pi(v), Pi the
projection of each block onto the ball of radius theta / rho (Parikh & Boyd,
Proximal Algorithms, 2014, sec. 2.5).  So one problem and one
:class:`AdmmFactor` serve every theta of a sweep.  The rows of a batch, each
with its own theta, are solved in lockstep: an iteration is one stacked
matrix product, each row its own BLAS call of a fixed shape, and one
projection, written into a reused history.  The stopping tests run once per
chunk of iterations over that history, and each row returns the iterates of
its first passing iteration, so each row follows the same iterates and stops
at the same count as when it is solved alone.
"""

import math
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

# Bytes of iterate history a solve keeps between two stopping tests, and the longest chunk
# of iterations between them.
HISTORY_BYTES = 1 << 20
MAX_CHUNK = 32

# Rows that passed leave the batch at a chunk's end once they are 1 / COMPACT_SHARE of it.
COMPACT_SHARE = 8


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


class AdmmFactor:
    """The ADMM iteration at one problem and penalty, built once and shared by every solve.

    With M = (H + rho I)^-1, r = RELAX and z = v - w, the scaled ADMM step
    v' = A1 z + A2 v - r M f, where A1 = 2 r rho M - r I, A2 = I - r rho M and
    f = L x for L = ``lin_matrix``, is v' = [w, v, x] @ ``step``: the stacked
    (2 H q + n, H q) matrix [-A1'; (A1 + A2)'; -(r M L)'].  The factor also
    owns the buffers the solves reuse, step after step: the iterate history
    of a chunk (``history``) and the rows carried from one chunk's layout to
    the next (``carry``).  Each grows to the largest size asked for, so the
    solves that share a factor must run one at a time.
    """

    def __init__(self, prob: MpcProblem, rho: float):
        if not 0.0 < rho < np.inf:
            raise ValueError("the ADMM penalty rho must be positive and finite")
        eye = np.eye(prob.quad_matrix.shape[0])
        inverse = np.linalg.inv(prob.quad_matrix + rho * eye)
        scaled = (RELAX * rho) * inverse
        drive = 2.0 * scaled - RELAX * eye  # A1
        self.rho = rho
        self.horizon = prob.horizon
        self.step = np.asfortranarray(np.vstack([-drive.T, (drive + eye - scaled).T,
                                                 -(RELAX * inverse @ prob.lin_matrix).T]))
        self._work, self._carry = np.empty(0), np.empty(0)

    def history(self, n_iter: int, n_rows: int):
        """Views of the history buffer: the rows [w, v, x] (n_iter + 1, rows, 2 H q + n), the
        iterates z (n_iter + 1, rows, H q), a scratch (n_iter, rows, H q) and the projection
        bounds kappa and -kappa (rows, H, 1)."""
        width, dim = self.step.shape
        return self._views("_work", [(n_iter + 1, n_rows, width), (n_iter + 1, n_rows, dim),
                                     (n_iter, n_rows, dim), (n_rows, self.horizon, 1),
                                     (n_rows, self.horizon, 1)])

    def carry(self, n_rows: int):
        """Views (rows, 2 H q + n) and (rows, H q) of the carry buffer, which holds a chunk's
        last rows [w, v, x] and iterates z while the history takes a new layout."""
        width, dim = self.step.shape
        return self._views("_carry", [(n_rows, width), (n_rows, dim)])

    def _views(self, name: str, shapes):
        """Views of the named buffer in ``shapes``, end to end; it grows to fit them."""
        ends = np.cumsum([math.prod(shape) for shape in shapes])
        if getattr(self, name).size < ends[-1]:
            setattr(self, name, np.empty(ends[-1]))
        buffer = getattr(self, name)
        return [buffer[end - math.prod(shape):end].reshape(shape)
                for shape, end in zip(shapes, ends)]


def admm_factor(prob: MpcProblem, rho: float) -> AdmmFactor:
    """The :class:`AdmmFactor` of ``prob`` at penalty rho > 0 (H + rho I is invertible, as H is
    positive definite)."""
    return AdmmFactor(prob, rho)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis; each row's bits independent of the batch."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _project(v: np.ndarray, kappa, lower, out: np.ndarray) -> np.ndarray:
    """Projection Pi of each last-axis block of v onto the ball of radius kappa, into ``out``.

    A block of one is clipped to [lower, kappa], where lower = -kappa.  A
    longer block is scaled by min(1, kappa / norm), a NaN ratio (0 / 0,
    inf / inf) read as 1.  The proximal map of kappa * ||.||_2 is v - Pi(v)
    (Moreau), so a block of norm at most kappa shrinks to an exact zero.
    """
    if v.shape[-1] == 1:
        return v.clip(lower, kappa, out=out)
    norms = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(kappa, norms, out=norms)
    return np.multiply(v, np.fmin(norms, 1.0, out=norms), out=out)


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


def solve_admm(prob: MpcProblem, estimates, theta, warm, factor: AdmmFactor, tol: float,
               max_iter: int):
    """Solve the instances at the estimates (T, n) in lockstep by over-relaxed scaled ADMM.

    ``theta`` is a scalar or (T,).  ``warm`` is the (z, w) pair of (T, H q)
    starting iterates: a previous solve's result, shifted, or zeros.
    ``factor`` is :func:`admm_factor`, whose rho is the penalty.

    From v = z + w, an iteration is v' = [w, v, x] @ ``factor.step``, then
    w' = Pi(v') (:func:`_project`) and z' = v' - w'.  It passes when its
    primal residual ||u - z'|| and its dual residual rho ||z' - z|| are below
    ``tol`` and its subgradient residual (:func:`kkt_residuals`) is at most
    ``tol``, where u = (v' - (1 - r) z - w) / r is the quadratic step.  The
    tests run once per chunk of iterations, over the chunk's history, and
    each row returns the iterates of its first passing iteration.  A chunk
    keeps about ``HISTORY_BYTES`` of history (at least one iteration), is at
    most ``MAX_CHUNK`` iterations long and ends at ``max_iter`` at the
    latest.  Rows that passed leave the batch at a chunk's end, once they
    are ``1 / COMPACT_SHARE`` of it; until then they iterate on unread.  A
    row's iterates and count do not depend on the other rows.

    Returns (z, w, iterations): the solutions (T, H q), whose zero blocks
    are exact zeros (every zero is +0), the scaled duals and the iteration
    count per row.  Raises :class:`NonConvergenceError` naming the first
    batch row still running after ``max_iter`` iterations, with its
    residuals at that iteration.
    """
    x = np.asarray(estimates, dtype=float)
    rho, step = factor.rho, factor.step
    n_rows, dim = len(x), step.shape[1]
    theta = np.broadcast_to(np.asarray(theta, dtype=float), (n_rows,))
    if (theta < 0.0).any():
        raise ValueError("theta must be nonnegative")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    z_out, w_out = np.empty((n_rows, dim)), np.empty((n_rows, dim))
    iterations = np.zeros(n_rows, dtype=int)
    if not n_rows:
        return z_out, w_out, iterations
    blocks = (prob.horizon, prob.group_size)
    rows = np.arange(n_rows)  # the batch rows of the layout
    live = np.ones(n_rows, dtype=bool)  # the layout's rows still running
    z, w = warm
    done_iter, layout, carried = 0, None, None
    while True:
        size = len(rows)
        n_iter = min(max(HISTORY_BYTES // (8 * (step.shape[0] + 2 * dim) * size) - 1, 1),
                     MAX_CHUNK, max_iter - done_iter)
        if layout != (n_iter, size):
            layout = n_iter, size
            hist, zs, scratch, kappa, lower = factor.history(n_iter, size)
            if carried is None:  # the warm start, v = z + w
                hist[0, :, :dim], zs[0] = w, z
                np.add(z, w, out=hist[0, :, dim:2 * dim])
            else:
                hist[0], zs[0] = carried
            hist[:, :, 2 * dim:] = x
            kappa[...] = (theta / rho)[:, None, None]
            np.negative(kappa, out=lower)
            ws, vs = hist[..., :dim], hist[..., dim:2 * dim]
            w_blocks, v_blocks = (a.reshape(n_iter + 1, size, *blocks) for a in (ws, vs))
            rows_in, v_rows = hist[:, :, None], vs[:, :, None]
        for j in range(n_iter):
            np.matmul(rows_in[j], step, out=v_rows[j + 1])
            _project(v_blocks[j + 1], kappa, lower, w_blocks[j + 1])

        # the stopping tests of every iteration of the chunk: the dual residual of each, then
        # the primal one where the dual passes, with u rebuilt from the history
        np.subtract(vs[1:], ws[1:], out=zs[1:])
        np.subtract(zs[1:], zs[:-1], out=scratch)
        dual_res = rho * np.sqrt(np.add.reduce(np.square(scratch, out=scratch), axis=-1))
        its, cols = np.nonzero((dual_res < tol) & live)
        if its.size:
            u = (vs[its + 1, cols] - (1.0 - RELAX) * zs[its, cols] - ws[its, cols]) / RELAX
            primal = _row_norms(u - zs[its + 1, cols]) < tol
            pending = np.zeros((n_iter, size), dtype=bool)
            pending[its[primal], cols[primal]] = True
            while pending.any():
                cols = np.flatnonzero(pending.any(axis=0))
                its = pending[:, cols].argmax(axis=0)
                f = row_product(x[cols], prob.lin_matrix)
                ok = kkt_residuals(prob, zs[its + 1, cols], f, theta[cols]) <= tol
                pending[:, cols[ok]] = False
                pending[its[~ok], cols[~ok]] = False
                its, cols = its[ok], cols[ok]
                # + 0.0: a zero whose sign numpy's clip leaves open (a tie at 0) reads +0
                z_out[rows[cols]] = zs[its + 1, cols] + 0.0
                w_out[rows[cols]] = ws[its + 1, cols] + 0.0
                iterations[rows[cols]] = done_iter + its + 1
                live[cols] = False
        done_iter += n_iter
        if not live.any():
            return z_out, w_out, iterations
        if done_iter == max_iter:
            row = np.flatnonzero(live)[0]
            u = (vs[-1, row] - (1.0 - RELAX) * zs[-2, row] - ws[-2, row]) / RELAX
            primal, dual = _row_norms(u - zs[-1, row]), dual_res[-1, row]
            raise NonConvergenceError(
                f"ADMM did not converge in {max_iter} iterations for trial {rows[row]} of the "
                f"batch (primal {primal:.3e}, dual {dual:.3e})",
                residual=float(max(primal, dual)),
                iterations=max_iter,
            )
        compact = np.count_nonzero(~live) >= max(size // COMPACT_SHARE, 1)
        if not compact and max_iter - done_iter >= n_iter:
            hist[0], zs[0] = hist[-1], zs[-1]
            continue
        # a new layout: without the rows that passed, or for a shorter last chunk
        keep = np.flatnonzero(live) if compact else np.arange(size)
        carried = factor.carry(len(keep))
        np.take(hist[-1], keep, axis=0, out=carried[0], mode="clip")
        np.take(zs[-1], keep, axis=0, out=carried[1], mode="clip")
        rows, x, theta, live = rows[keep], x[keep], theta[keep], live[keep]
        layout = None


def first_inputs(z: np.ndarray, group_size: int):
    """Applied inputs (T, q) and triggers (T,) from the first blocks of solutions (T, H q).

    A trigger is 1 iff the first block is actuated; sub-threshold first
    blocks are replaced by exact zeros so the trigger/input consistency
    contract holds.
    """
    u0 = z[:, :group_size]
    delta = _row_norms(u0) > ZERO_TOL
    return np.where(delta[:, None], u0, 0.0), delta.astype(np.int8)
