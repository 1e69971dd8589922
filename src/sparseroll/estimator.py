"""Stationary Kalman filtering: steady-state design and per-step estimate updates.

The predictive covariance solves the filter Riccati equation

    X = A X A' + W - A X C' (C X C' + V)^{-1} C X A',

the control equation of the dual problem (A', C', W, 0, V), so
:func:`~sparseroll.riccati.solve_dares` solves it, started from the model's
``init_cov``.  The filter runs at this gain from the first measurement on, so
its error covariance is the stationary Sigma at every step (Anderson & Moore,
*Optimal Filtering*, 1979, ch. 4); ``init_cov`` enters only as the
distribution of x0 and as the start of the iteration.
"""

import numpy as np

from .plant import DiscreteModel
from .riccati import RiccatiProblem, solve_dares, symmetrize


def row_product(x, m):
    """``x @ m.T`` for a row (n,) or rows (T, n), each row's bits independent of T.

    BLAS switches kernels with the row count (gemv for one row, gemm for
    more), which changes the last bits of a row; einsum's loop does not.
    """
    return np.einsum("...j,ij->...i", x, m)


def steady_kalman(dm: DiscreteModel):
    """Stationary Kalman gain with its posterior and predictive covariances.

    Returns (gain, err_cov, prior_cov): the dual Riccati solution X at ``tol=1e-12`` and the
    measurement update at X.  Raises the error of :func:`~sparseroll.riccati.solve_dares`.
    """
    dual = RiccatiProblem(dm.a.T, dm.c.T, dm.proc_cov, np.zeros(dm.c.T.shape), dm.meas_cov)
    (sol,) = solve_dares([dual], tol=1e-12, max_iter=200_000, start=dm.init_cov[None])
    if isinstance(sol, Exception):
        raise sol
    x, c = sol.cost_matrix, dm.c
    gain_t = np.linalg.solve(c @ x @ c.T + dm.meas_cov, c @ x)  # (m, n) = innov^{-1} C X
    return gain_t.T, symmetrize(x - x @ c.T @ gain_t), x


def kalman_init(dm: DiscreteModel, y0, gain):
    """The estimate after the first measurement: the prior mean corrected at ``gain``.

    ``y0`` is one measurement (m,) or a batch (T, m); the estimate is (n,) or (T, n).
    """
    y0 = np.asarray(y0, dtype=float)
    return dm.init_mean + row_product(y0 - dm.c @ dm.init_mean, gain)


def kalman_step(x_hat, u, y_next, dm: DiscreteModel, gain):
    """Advance the estimate with input u and the next measurement at the stationary ``gain``.

    Shape-agnostic: a single estimate (n,) takes u (q,) and y_next (m,), a
    batch (T, n) takes (T, q) and (T, m).
    """
    pred = row_product(x_hat, dm.a) + row_product(np.asarray(u, dtype=float), dm.b)
    return pred + row_product(np.asarray(y_next, dtype=float) - row_product(pred, dm.c), gain)
