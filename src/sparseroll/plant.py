"""Plant models: continuous dynamics, exact stochastic discretization, lifting.

Discretization uses augmented matrix exponentials, so the zero-order-hold
input matrix and the integrated process-noise covariance are exact to
machine precision.  ``build_lifted`` aggregates p plant steps (input applied
at the block start only) into one lifted step together with the matching
cost reformulation.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .exceptions import IllConditionedError
from .riccati import min_eigenvalue, require_symmetric, symmetrize

# Relative agreement required between e^{M t} and (e^{M t/2})^2.
_EXPM_SELFCHECK_TOL = 1e-8


def _mat(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=float))


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
        a = _mat(self.a_cont)
        n = a.shape[0]
        b = np.asarray(self.b_cont, dtype=float).reshape(n, -1)
        d = np.asarray(self.d_cont, dtype=float).reshape(n, -1)
        c = np.asarray(self.c_cont, dtype=float).reshape(-1, n)
        e = _mat(self.meas_noise_intensity)
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
    sample_period: float | None = None

    def __post_init__(self):
        a = _mat(self.a)
        n = a.shape[0]
        b = np.asarray(self.b, dtype=float).reshape(n, -1)
        c = np.asarray(self.c, dtype=float).reshape(-1, n)
        pw = _mat(self.proc_cov)
        pv = _mat(self.meas_cov)
        mean = _vec(self.init_mean)
        cov = _mat(self.init_cov)
        if a.shape != (n, n) or pw.shape != (n, n) or cov.shape != (n, n):
            raise ValueError("inconsistent state dimensions")
        if pv.shape != (c.shape[0],) * 2 or mean.shape != (n,):
            raise ValueError("inconsistent output/init dimensions")
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
        cov_scale = max(1.0, float(np.linalg.norm(cov, "fro")))
        if min_eigenvalue(cov) < -1e-10 * cov_scale:
            raise ValueError("init_cov must be positive semidefinite")
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
        return replace(self, init_mean=_vec(mean), init_cov=_mat(cov))


@dataclass(frozen=True)
class LiftedSystem:
    """Period-p aggregation of dynamics, noise, and quadratic cost."""

    period: int
    a_lift: np.ndarray          # A^p
    b_lift: np.ndarray          # A^{p-1} B
    d_lift: np.ndarray          # [A^{p-1} ... I]
    proc_cov_lift: np.ndarray   # I_p kron proc_cov
    q_lift: np.ndarray
    s_lift: np.ndarray
    r_lift: np.ndarray
    d_avg: float                # in-period noise cost constant of the average cost


def _expm_checked(m: np.ndarray) -> np.ndarray:
    full = sla.expm(m)
    half = sla.expm(0.5 * m)
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
    e_aug = _expm_checked(aug * ts)
    a_d = e_aug[:n, :n]
    b_d = e_aug[:n, n:]

    w = d_c @ d_c.T
    vl = np.zeros((2 * n, 2 * n))
    vl[:n, :n] = -a_c
    vl[:n, n:] = w
    vl[n:, n:] = a_c.T
    e_vl = _expm_checked(vl * ts)
    proc_cov = symmetrize(e_vl[n:, n:].T @ e_vl[:n, n:])

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
        sample_period=ts,
    )


def build_lifted(dm: DiscreteModel, q_weight, r_weight, p: int) -> LiftedSystem:
    """Aggregate p steps (input at the block start) into one lifted step.

    Also evaluates the in-period noise cost constant of the average cost,
    the sum of tr(Q A^j W A^j') over the strictly-upper triangle of the period.
    """
    if p < 1:
        raise ValueError("period must be >= 1")
    a, b, w = dm.a, dm.b, dm.proc_cov
    n = dm.n_states
    q = _mat(q_weight)
    r = _mat(r_weight)
    require_symmetric(q, "q_weight")
    require_symmetric(r, "r_weight")

    powers = [np.eye(n)]
    for _ in range(p - 1):
        powers.append(a @ powers[-1])
    a_lift = a @ powers[-1]
    b_lift = powers[p - 1] @ b

    q_lift = sum((ai.T @ q @ ai for ai in powers), start=np.zeros((n, n)))
    s_lift = np.zeros((n, dm.n_inputs))
    r_lift = r.copy()
    for i in range(1, p):
        s_lift += powers[i].T @ q @ powers[i - 1] @ b
        r_lift += b.T @ powers[i - 1].T @ q @ powers[i - 1] @ b

    d_lift = np.hstack([powers[p - 1 - i] for i in range(p)])
    proc_cov_lift = np.kron(np.eye(p), w)

    noise_traces = [float(np.trace(q @ ai @ w @ ai.T)) for ai in powers]
    d_avg = sum(noise_traces[j] for i in range(1, p) for j in range(i))

    return LiftedSystem(
        period=p,
        a_lift=a_lift,
        b_lift=b_lift,
        d_lift=d_lift,
        proc_cov_lift=proc_cov_lift,
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
