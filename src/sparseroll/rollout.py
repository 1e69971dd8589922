"""Lookahead co-design of actuation timing and feedback over trigger patterns.

A lookahead block of h steps admits 2^h binary actuation patterns.  For
each pattern a backward Riccati pass (actuated step: full update;
idle step: open-loop update with zero gain) yields per-step gains and a
state-independent score decomposition

    score(m, x) = x' P0[m] x + tr(P0[m] Sigma) + beta[m] + gamma[m],

where beta collects the noise and estimation contributions and gamma the
discounted actuation penalty.  The block controller picks the argmin
pattern once per block and plays its gains open-loop within the block;
a batch of trials picks one pattern per trial in a single scoring call.

Pattern index 1 is always the periodic pattern of the base policy; the
remaining bit strings follow in lexicographic order (time 0 most
significant).  Ties in the argmin go to the smallest index, so the base
pattern wins any exact tie.
"""

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import HorizonMismatchError, NonFiniteError
from .plant import DiscreteModel


@dataclass(frozen=True)
class TriggerPattern:
    """One binary actuation schedule for a lookahead block."""

    index: int
    bits: tuple[int, ...]
    actuation_count: int


@dataclass(frozen=True)
class RolloutTables:
    """Precomputed per-pattern recursion results for one lookahead design.

    Arrays are stacked over patterns (first axis, index m-1):
    cost_matrices has shape (M, h+1, n, n) with [:, h] equal to the
    terminal matrix, gains (M, h, q, n), gain_quadratics (M, h, n, n),
    bits (M, h), noise_score and trigger_score (M,).  Only trigger_score
    depends on theta (see :func:`with_theta`).
    """

    horizon: int
    patterns: tuple[TriggerPattern, ...]
    bits: np.ndarray
    cost_matrices: np.ndarray
    gains: np.ndarray
    gain_quadratics: np.ndarray
    noise_score: np.ndarray
    trigger_score: np.ndarray
    terminal: np.ndarray
    discount: float
    model: DiscreteModel


def periodic_bits(h: int, p: int) -> tuple[int, ...]:
    return tuple(1 if k % p == 0 else 0 for k in range(h))


def enumerate_patterns(h: int, p: int) -> list[TriggerPattern]:
    """All 2^h patterns; index 1 is the periodic one, the rest lexicographic."""
    if h < 1:
        raise ValueError("horizon must be >= 1")
    if h % p != 0:
        raise HorizonMismatchError(f"horizon h={h} is not a multiple of period p={p}")
    base = periodic_bits(h, p)
    patterns = [TriggerPattern(index=1, bits=base, actuation_count=sum(base))]
    idx = 2
    for bits in itertools.product((0, 1), repeat=h):
        if bits == base:
            continue
        patterns.append(TriggerPattern(index=idx, bits=bits, actuation_count=sum(bits)))
        idx += 1
    return patterns


def build_tables(dm: DiscreteModel, q_weight, r_weight, terminal, h: int, p: int,
                 theta: float, alpha: float, err_cov) -> RolloutTables:
    """Backward recursions, gains and score constants for all 2^h patterns.

    ``terminal`` must be the lifted-design cost matrix of the base periodic
    policy at the same discount.  ``err_cov`` is the stationary filter
    covariance; a stack of h covariances selects the transient form in
    which the estimation term uses the covariance at each lookahead offset.
    """
    a = dm.a
    b = dm.b
    n = dm.n_states
    nu = dm.n_inputs
    q = np.atleast_2d(np.asarray(q_weight, dtype=float))
    r = np.atleast_2d(np.asarray(r_weight, dtype=float))
    terminal = np.atleast_2d(np.asarray(terminal, dtype=float))
    err_cov = np.asarray(err_cov, dtype=float)
    if err_cov.ndim == 2:
        cov_seq = np.broadcast_to(err_cov, (h, n, n))
    else:
        if err_cov.shape != (h, n, n):
            raise ValueError("err_cov must be (n, n) or a stack of h covariances")
        cov_seq = err_cov

    patterns = enumerate_patterns(h, p)
    bits = np.array([pat.bits for pat in patterns], dtype=np.int8)
    m_count = len(patterns)

    cost_matrices = np.empty((m_count, h + 1, n, n))
    gains = np.zeros((m_count, h, nu, n))
    gain_quadratics = np.zeros((m_count, h, n, n))
    cost_matrices[:, h] = terminal

    p_stack = np.broadcast_to(terminal, (m_count, n, n)).copy()
    # overflow in the open-loop branch is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for s in reversed(range(h)):
            open_update = q + alpha * (a.T @ p_stack @ a)
            act = bits[:, s] == 1
            if act.any():
                p_act = p_stack[act]
                btp = b.T @ p_act                                   # (Ma, q, n)
                denom = alpha * (btp @ b) + r                       # (Ma, q, q)
                btpa = btp @ a
                k = np.linalg.solve(denom, btpa)
                f = -alpha * k
                gains[act, s] = f
                mq = np.swapaxes(f, 1, 2) @ denom @ f
                gain_quadratics[act, s] = 0.5 * (mq + np.swapaxes(mq, 1, 2))
                p_new = open_update[act] - alpha**2 * (np.swapaxes(btpa, 1, 2) @ k)
                p_stack[act] = 0.5 * (p_new + np.swapaxes(p_new, 1, 2))
            idle = ~act
            if idle.any():
                p_new = open_update[idle]
                p_stack[idle] = 0.5 * (p_new + np.swapaxes(p_new, 1, 2))
            cost_matrices[:, s] = p_stack

    if not np.isfinite(cost_matrices).all():
        raise NonFiniteError("non-finite entry in backward recursion (unstable open-loop growth)")

    weights = alpha ** np.arange(h)
    noise_trace = np.einsum("mtij,ji->mt", cost_matrices[:, 1:], dm.proc_cov)
    est_trace = np.einsum("mtij,tji->mt", gain_quadratics, cov_seq)
    noise_score = (weights * (noise_trace + est_trace)).sum(axis=1)

    return RolloutTables(
        horizon=h,
        patterns=tuple(patterns),
        bits=bits,
        cost_matrices=cost_matrices,
        gains=gains,
        gain_quadratics=gain_quadratics,
        noise_score=noise_score,
        trigger_score=_trigger_score(bits, alpha, theta),
        terminal=terminal,
        discount=float(alpha),
        model=dm,
    )


def _trigger_score(bits: np.ndarray, alpha: float, theta: float) -> np.ndarray:
    return theta * (alpha ** np.arange(bits.shape[1]) * bits).sum(axis=1)


def with_theta(tables: RolloutTables, theta: float) -> RolloutTables:
    """The same tables at another actuation weight; the large arrays are shared."""
    return replace(tables, trigger_score=_trigger_score(tables.bits, tables.discount, theta))


def pattern_scores(tables: RolloutTables, estimate, err_cov) -> np.ndarray:
    """Pattern scores at one estimate (n,) -> (M,), or at a batch (T, n) -> (T, M)."""
    x = np.asarray(estimate, dtype=float)
    if x.ndim != 2:
        x = x.reshape(-1)
    sigma = np.atleast_2d(np.asarray(err_cov, dtype=float))
    # one gather of the strided slice beats two einsum passes over it
    p0 = np.ascontiguousarray(tables.cost_matrices[:, 0])
    quad = np.einsum("...i,mij,...j->...m", x, p0, x)
    trace = np.einsum("mij,ji->m", p0, sigma)
    return quad + trace + tables.noise_score + tables.trigger_score


def pattern_score(tables: RolloutTables, m: int, estimate, err_cov) -> float:
    """Score of pattern m (1-based): quadratic + trace + noise + penalty."""
    if not 1 <= m <= len(tables.patterns):
        raise ValueError(f"pattern index {m} out of range")
    x = np.asarray(estimate, dtype=float).reshape(-1)
    sigma = np.atleast_2d(np.asarray(err_cov, dtype=float))
    p0 = tables.cost_matrices[m - 1, 0]
    return float(
        x @ p0 @ x + np.trace(p0 @ sigma)
        + tables.noise_score[m - 1] + tables.trigger_score[m - 1]
    )


def select_pattern(tables: RolloutTables, estimate, err_cov):
    """Argmin pattern index; exact ties resolve to the smallest index.

    Returns an int for one estimate and an int array for a batch (T, n).
    """
    picks = np.argmin(pattern_scores(tables, estimate, err_cov), axis=-1) + 1
    return int(picks) if picks.ndim == 0 else picks


@dataclass
class RolloutPolicy:
    """Receding-horizon block controller over a batch of trials.

    ``forced_pattern`` pins the selection (diagnostic hook used to compare
    against the base policy on identical noise).
    """

    tables: RolloutTables
    period: int
    theta: float
    forced_pattern: int | None = None
    _block: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tables.horizon % self.period != 0:
            raise HorizonMismatchError(
                f"horizon h={self.tables.horizon} is not a multiple of period p={self.period}"
            )

    def decide(self, est, k: int):
        """Inputs and triggers of step k for the estimates (T, n); patterns change per block."""
        tables = self.tables
        tau = k % tables.horizon
        if tau == 0:
            forced = self.forced_pattern
            picks = (select_pattern(tables, est.estimate, est.err_cov) if forced is None
                     else np.full(len(est.estimate), forced)) - 1
            self._block = (tables.bits[picks], tables.gains[picks])
        bits, gains = self._block
        u = np.einsum("tqn,tn->tq", gains[:, tau], est.estimate)
        return np.where(bits[:, tau, None] == 1, u, 0.0), bits[:, tau]
