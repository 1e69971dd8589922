"""Stationary Kalman filtering: steady-state design and per-step estimate updates.

The steady gain solves the predictive covariance fixed point

    X = A X A' + W - A X C' (C X C' + V)^{-1} C X A'

by direct iteration of the covariance recursion.  The filter runs at this
gain from the first measurement on, so its error covariance is the
stationary Sigma at every step (Anderson & Moore, *Optimal Filtering*,
1979, ch. 4); a model's ``init_cov`` enters only as the distribution of
x0 and as the start of the iteration.
"""

import numpy as np

from .exceptions import NonConvergenceError, NonFiniteError
from .plant import DiscreteModel
from .riccati import symmetrize


def row_product(x, m):
    """``x @ m.T`` for a row (n,) or rows (T, n), each row's bits independent of T.

    BLAS switches kernels with the row count (gemv for one row, gemm for
    more), which changes the last bits of a row; einsum's loop does not.
    """
    return np.einsum("...j,ij->...i", x, m)


def _filter_step_cov(a, c, w, v, x):
    """Map a predictive covariance through one measurement/time update."""
    innov = c @ x @ c.T + v
    gain_t = np.linalg.solve(innov, c @ x)           # (m, n) = innov^{-1} C X
    post = symmetrize(x - x @ c.T @ gain_t)
    nxt = symmetrize(a @ post @ a.T + w)
    return nxt, post, gain_t.T


@np.errstate(over="ignore", invalid="ignore")  # a diverging covariance fails at its overflow
def steady_kalman(dm: DiscreteModel, tol: float = 1e-12, max_iter: int = 200_000):
    """Stationary Kalman gain with its posterior and predictive covariances.

    Returns (gain, err_cov, prior_cov).  Requires (A, proc_cov^{1/2}) controllable and (A, C)
    observable for convergence; a covariance whose norm is not finite raises NonFiniteError.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    a, c, w, v = dm.a, dm.c, dm.proc_cov, dm.meas_cov
    x = dm.init_cov.copy()
    for it in range(1, max_iter + 1):
        x_next, post, gain = _filter_step_cov(a, c, w, v, x)
        if not np.isfinite(norm := np.linalg.norm(x_next, "fro")):
            raise NonFiniteError(f"filter covariance norm is inf/nan at iteration {it}")
        rel = np.linalg.norm(x_next - x, "fro") / max(1.0, norm)
        x = x_next
        if rel < tol:
            # one more half-step so gain/posterior correspond to the fixed point
            _, post, gain = _filter_step_cov(a, c, w, v, x)
            return gain, post, x
    raise NonConvergenceError(
        f"filter covariance iteration did not converge in {max_iter} iterations",
        residual=float(rel),
        iterations=max_iter,
    )


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
