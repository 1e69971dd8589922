"""Kalman filtering: steady-state design and per-step estimate updates.

The steady gain solves the predictive covariance fixed point

    X = A X A' + W - A X C' (C X C' + V)^{-1} C X A'

by direct iteration of the covariance recursion.  When the model's initial
covariance already solves this equation the filter is stationary and the
gain/covariances are computed once and reused; otherwise a warning is
issued and the time-varying recursion runs alongside the estimate.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import NonConvergenceError
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


def _measurement_update(dm: DiscreteModel, prior_cov):
    """Time-varying filter gain and posterior covariance from a predictive covariance."""
    innov_cov = dm.c @ prior_cov @ dm.c.T + dm.meas_cov
    gain = prior_cov @ dm.c.T @ np.linalg.inv(innov_cov)
    return gain, symmetrize(prior_cov - gain @ dm.c @ prior_cov)


def steady_kalman(dm: DiscreteModel, tol: float = 1e-12, max_iter: int = 200_000):
    """Stationary Kalman gain with its posterior and predictive covariances.

    Returns (gain, err_cov, prior_cov).  Requires (A, proc_cov^{1/2})
    controllable and (A, C) observable for convergence.
    """
    a, c, w, v = dm.a, dm.c, dm.proc_cov, dm.meas_cov
    x = dm.init_cov.copy()
    for _ in range(max_iter):
        x_next, post, gain = _filter_step_cov(a, c, w, v, x)
        rel = np.linalg.norm(x_next - x, "fro") / max(1.0, np.linalg.norm(x_next, "fro"))
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


def stationary_residual(dm: DiscreteModel) -> float:
    """Relative fixed-point residual of init_cov under the predictive map."""
    x = dm.init_cov
    x_next, _, _ = _filter_step_cov(dm.a, dm.c, dm.proc_cov, dm.meas_cov, x)
    return float(np.linalg.norm(x_next - x, "fro") / max(1.0, np.linalg.norm(x, "fro")))


@dataclass(frozen=True)
class EstimatorState:
    """Filter state after processing the latest measurement.

    ``estimate`` is one state (n,) or a batch (T, n); the gain and the
    covariances do not depend on the data, so a batch shares them.
    """

    estimate: np.ndarray
    err_cov: np.ndarray
    gain: np.ndarray
    prior_cov: np.ndarray
    stationary: bool = True


def kalman_init(dm: DiscreteModel, y0, steady=None, stationary_tol: float = 1e-8) -> EstimatorState:
    """Initialize the filter from the first measurement.

    ``y0`` is one measurement (m,) or a batch (T, m).  ``steady`` may carry
    a precomputed (gain, err_cov, prior_cov) triple to avoid re-solving the
    steady-state equation per call.  If the model's init_cov does not solve
    the predictive fixed point, the stationary fast path is disabled (with a
    warning) and time-varying gains are used.
    """
    y0 = np.asarray(y0, dtype=float)
    if steady is None:
        steady = steady_kalman(dm)
    gain, err_cov, prior_cov = steady
    stationary = stationary_residual(dm) <= stationary_tol
    if not stationary:
        warnings.warn(
            "init_cov does not solve the predictive covariance fixed point; "
            "running the time-varying filter recursion",
            stacklevel=2,
        )
        prior_cov = dm.init_cov
        gain, err_cov = _measurement_update(dm, prior_cov)
    estimate = dm.init_mean + row_product(y0 - dm.c @ dm.init_mean, gain)
    return EstimatorState(
        estimate=estimate,
        err_cov=err_cov,
        gain=gain,
        prior_cov=prior_cov,
        stationary=stationary,
    )


def kalman_step(st: EstimatorState, u, y_next, dm: DiscreteModel) -> EstimatorState:
    """Advance the estimate with input u and the next measurement.

    Shape-agnostic: a single estimate takes u (q,) and y_next (m,), a batch
    (T, n) takes (T, q) and (T, m).  In stationary mode the gain and
    covariances are reused unchanged; in time-varying mode they are
    propagated alongside the estimate, once for the whole batch.
    """
    a, c = dm.a, dm.c
    pred = row_product(st.estimate, a) + row_product(np.asarray(u, dtype=float), dm.b)
    if st.stationary:
        gain, err_cov, prior_cov = st.gain, st.err_cov, st.prior_cov
    else:
        prior_cov = symmetrize(a @ st.err_cov @ a.T + dm.proc_cov)
        gain, err_cov = _measurement_update(dm, prior_cov)
    estimate = pred + row_product(np.asarray(y_next, dtype=float) - row_product(pred, c), gain)
    return EstimatorState(
        estimate=estimate,
        err_cov=err_cov,
        gain=gain,
        prior_cov=prior_cov,
        stationary=st.stationary,
    )
