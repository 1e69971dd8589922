"""Plant models: continuous dynamics, exact stochastic discretization, lifting.

Discretization uses augmented matrix exponentials, so the zero-order-hold
input matrix and the integrated process-noise covariance are exact to
machine precision.  ``build_lifted`` aggregates p plant steps (input applied
at the block start only) into one lifted step together with the matching
cost reformulation.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import IllConditionedError
from .riccati import as_matrix, min_eigenvalue, require_psd, require_symmetric, symmetrize

# Relative agreement required between e^{M t} and (e^{M t/2})^2.
_EXPM_SELFCHECK_TOL = 1e-8

# Largest ||M||_1 at which the backward error of the degree-13 diagonal Pade approximant of
# e^M is within the unit roundoff (Higham, SIAM J. Matrix Anal. Appl. 26, 2005, Table 2.3).
_PADE_THETA = 5.371920351148152


def _vec(x) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape(-1)


@dataclass(frozen=True)
class ContinuousModel:
    """Linear SDE model dx = (A x + B u) dt + D dw, dy = C x dt + dv."""

    a_cont: np.ndarray
    b_cont: np.ndarray
    d_cont: np.ndarray
    c_cont: np.ndarray
    meas_noise_intensity: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a_cont)
        n = a.shape[0]
        b = np.asarray(self.b_cont, dtype=float).reshape(n, -1)
        d = np.asarray(self.d_cont, dtype=float).reshape(n, -1)
        c = np.asarray(self.c_cont, dtype=float).reshape(-1, n)
        e = as_matrix(self.meas_noise_intensity)
        if a.shape != (n, n) or e.shape != (c.shape[0],) * 2:
            raise ValueError("inconsistent continuous-model dimensions")
        require_symmetric(e, "meas_noise_intensity")
        if min_eigenvalue(e) < -1e-12:
            raise ValueError("meas_noise_intensity must be positive semidefinite")
        for name, val in (("a_cont", a), ("b_cont", b), ("d_cont", d), ("c_cont", c),
                          ("meas_noise_intensity", symmetrize(e))):
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class DiscreteModel:
    """Discrete plant x+ = A x + B u + w, y = C x + v with Gaussian noise."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    proc_cov: np.ndarray
    meas_cov: np.ndarray
    init_mean: np.ndarray
    init_cov: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a)
        n = a.shape[0]
        b = np.asarray(self.b, dtype=float).reshape(n, -1)
        c = np.asarray(self.c, dtype=float).reshape(-1, n)
        pw = as_matrix(self.proc_cov)
        pv = as_matrix(self.meas_cov)
        mean = _vec(self.init_mean)
        cov = as_matrix(self.init_cov)
        if a.shape != (n, n) or pw.shape != (n, n) or cov.shape != (n, n):
            raise ValueError("inconsistent state dimensions")
        if pv.shape != (c.shape[0],) * 2 or mean.shape != (n,):
            raise ValueError("inconsistent output/init dimensions")
        if not all(np.isfinite(x).all() for x in (a, b, c, pw, pv, mean, cov)):
            raise ValueError("model matrices must be finite")
        require_symmetric(pw, "proc_cov")
        require_symmetric(pv, "meas_cov")
        require_symmetric(cov, "init_cov")
        # Integrated noise covariances can be PD in exact arithmetic yet carry
        # roundoff-negative eigenvalues (short-interval Gramians), so the
        # definiteness test is tolerance-based for the process noise.
        pw_scale = max(1.0, float(np.abs(np.linalg.eigvalsh(pw)).max()))
        if min_eigenvalue(pw) < -1e-12 * pw_scale:
            raise ValueError("proc_cov must be positive (semi)definite")
        if min_eigenvalue(pv) <= 0.0:
            raise ValueError("meas_cov must be positive definite")
        require_psd(cov, "init_cov", 1e-10)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "proc_cov", symmetrize(pw))
        object.__setattr__(self, "meas_cov", symmetrize(pv))
        object.__setattr__(self, "init_mean", mean)
        object.__setattr__(self, "init_cov", symmetrize(cov))

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.c.shape[0]

    def with_init(self, mean, cov) -> "DiscreteModel":
        return replace(self, init_mean=_vec(mean), init_cov=as_matrix(cov))


@dataclass(frozen=True)
class LiftedSystem:
    """Period-p aggregation of dynamics, noise, and quadratic cost."""

    period: int
    a_lift: np.ndarray          # A^p
    b_lift: np.ndarray          # A^{p-1} B
    noise_cov_lift: np.ndarray  # sum_{j<p} A^j W A^j', the covariance of the lifted noise
    q_lift: np.ndarray
    s_lift: np.ndarray
    r_lift: np.ndarray
    d_avg: float                # in-period noise cost constant of the average cost


def _expm(m: np.ndarray) -> np.ndarray:
    """e^M by scaling and squaring with the degree-13 diagonal Pade approximant (Higham 2005).

    The approximant of M / 2^s, with ||M / 2^s||_1 <= theta_13, squared s times.  Its numerator
    is even + odd and its denominator even - odd, x^k weighted by (26 - k)! / (k! (13 - k)!).
    """
    norm = float(np.abs(m).sum(axis=0).max())
    if norm == 0.0:  # exactly I, where the solve below leaves 1 - 2^-53 on the diagonal
        return np.eye(len(m))
    # frexp's exponent is the least s with norm / 2^s < theta_13 (one more at an exact
    # power of two); it is 0 for inf and nan, which leave a non-finite result
    s = max(0, math.frexp(norm / _PADE_THETA)[1])
    x = m / 2.0**s
    b = [float(math.factorial(26 - k) // (math.factorial(k) * math.factorial(13 - k)))
         for k in range(14)]
    eye, x2 = np.eye(len(x)), x @ x
    x4 = x2 @ x2  # Higham's evaluation in x^2, x^4, x^6: six products in all
    x6 = x4 @ x2
    odd = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2) + b[7] * x6 + b[5] * x4 + b[3] * x2
               + b[1] * eye)
    even = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2
            + b[0] * eye)
    e = np.linalg.solve(even - odd, even + odd)
    for _ in range(s):
        e = e @ e
    return e


def _expm_checked(m: np.ndarray) -> np.ndarray:
    full = _expm(m)
    half = _expm(0.5 * m)
    err = np.linalg.norm(full - half @ half, "fro")
    if not np.isfinite(err) or err > _EXPM_SELFCHECK_TOL * max(1.0, np.linalg.norm(full, "fro")):
        raise IllConditionedError("matrix exponential failed its internal accuracy check")
    return full


def discretize(cm: ContinuousModel, ts: float) -> DiscreteModel:
    """Exact zero-order-hold discretization at sampling period ts.

    a = e^{A ts}, b = (int_0^ts e^{A tau} dtau) B, and the process-noise
    covariance is the integral of e^{A tau} D D' e^{A' tau} over one period,
    all obtained from augmented matrix exponentials.  The measurement-noise
    covariance is the continuous intensity divided by ts (averaged sampling).
    """
    if ts <= 0.0:
        raise ValueError("sampling period must be positive")
    a_c, b_c, d_c = cm.a_cont, cm.b_cont, cm.d_cont
    n, q = b_c.shape

    aug = np.zeros((n + q, n + q))
    aug[:n, :n] = a_c
    aug[:n, n:] = b_c
    w = d_c @ d_c.T
    vl = np.zeros((2 * n, 2 * n))
    vl[:n, :n] = -a_c
    vl[:n, n:] = w
    vl[n:, n:] = a_c.T
    # a diverging exponential overflows in a self-check or in the covariance product; it
    # ends in an IllConditionedError (there or below), not in a floating-point warning
    with np.errstate(over="ignore", invalid="ignore"):
        e_aug = _expm_checked(aug * ts)
        e_vl = _expm_checked(vl * ts)
        proc_cov = e_vl[n:, n:].T @ e_vl[:n, n:]
    a_d, b_d = e_aug[:n, :n], e_aug[:n, n:]
    if not all(np.isfinite(x).all() for x in (a_d, b_d, proc_cov)):
        raise IllConditionedError("the discretized model is not finite")
    proc_cov = symmetrize(proc_cov)

    meas_cov = cm.meas_noise_intensity / ts
    n_states = a_c.shape[0]
    return DiscreteModel(
        a=a_d,
        b=b_d,
        c=cm.c_cont,
        proc_cov=proc_cov,
        meas_cov=meas_cov,
        init_mean=np.zeros(n_states),
        init_cov=np.zeros((n_states, n_states)),
    )


def build_lifted(dm: DiscreteModel, q_weight, r_weight, p: int) -> LiftedSystem:
    """Aggregate p steps (input at the block start) into one lifted step.

    One pass over the powers A^0..A^p, holding two of them at a time.  Also
    evaluates the in-period noise cost constant of the average cost, the sum
    of tr(Q A^j W A^j') over the strictly-upper triangle of the period, as
    the sum over j of (p - 1 - j) tr(Q A^j W A^j').
    """
    if p < 1:
        raise ValueError("period must be >= 1")
    a, b, w = dm.a, dm.b, dm.proc_cov
    n = dm.n_states
    q = as_matrix(q_weight)
    r = as_matrix(r_weight)
    require_symmetric(q, "q_weight")
    require_symmetric(r, "r_weight")

    q_lift, s_lift, r_lift = np.zeros((n, n)), np.zeros((n, dm.n_inputs)), r.copy()
    noise_cov, d_avg = np.zeros((n, n)), 0.0
    prev, power = None, np.eye(n)  # A^(j-1), A^j
    for j in range(p):
        if j:
            s_lift += power.T @ q @ prev @ b
            r_lift += b.T @ prev.T @ q @ prev @ b
        q_lift += power.T @ q @ power
        noise_cov += power @ w @ power.T
        d_avg += (p - 1 - j) * float(np.trace(q @ power @ w @ power.T))
        prev, power = power, a @ power

    return LiftedSystem(
        period=p,
        a_lift=power,
        b_lift=prev @ b,
        noise_cov_lift=symmetrize(noise_cov),
        q_lift=symmetrize(q_lift),
        s_lift=s_lift,
        r_lift=symmetrize(r_lift),
        d_avg=d_avg,
    )


def build_benchmark_model() -> ContinuousModel:
    """Two-mass-spring benchmark: unit masses coupled by a spring.

    State ordering is [pos1, pos2, vel1, vel2]; the control input and the
    (scalar) process noise act on mass 1 only, and both positions are
    measured with intensity 1e-5 per unit time.
    """
    kappa = 2.0 * np.pi**2
    a_c = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-kappa, kappa, 0.0, 0.0],
        [kappa, -kappa, 0.0, 0.0],
    ])
    b_c = np.array([[0.0], [0.0], [1.0], [0.0]])
    d_c = np.array([[0.0], [0.0], [0.4], [0.0]])
    c_c = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    return ContinuousModel(
        a_cont=a_c,
        b_cont=b_c,
        d_cont=d_c,
        c_cont=c_c,
        meas_noise_intensity=1e-5 * np.eye(2),
    )
