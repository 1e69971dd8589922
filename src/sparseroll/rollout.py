"""Lookahead co-design of actuation timing and feedback over trigger patterns.

A lookahead block of h steps admits 2^h binary actuation patterns.  For
each pattern a backward Riccati pass (actuated step: full update;
idle step: open-loop update with zero gain) yields per-step gains and a
state-independent score decomposition

    score(m, x) = x' P0[m] x + tr(P0[m] Sigma) + beta[m] + gamma[m],

where Sigma is the stationary filter's error covariance, beta collects the
noise and estimation contributions and gamma is theta times the pattern's
actuation count.  Only gamma depends on theta, so one set of tables serves
a whole theta grid.  The block controller picks the argmin
pattern once per block and plays its gains open-loop within the block; a
batch of trials picks one pattern per trial in a single scoring call.

The cost matrix of a pattern at step s depends only on its bits from s on,
so the passes share their suffixes: the tables are a binary suffix tree
whose level s holds the 2^(h-s) distinct matrices of step s, and each level
is one batched update of the level below it.  That is 2^(h+1) - 1 stored
matrices instead of (h+1) 2^h, and 2^h - 1 Riccati updates instead of
h 2^(h-1).

Pattern index 1 is always the periodic pattern of the base policy; the
remaining bit strings follow in lexicographic order (time 0 most
significant).  Ties in the argmin go to the smallest index, so the base
pattern wins any exact tie.
"""

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .exceptions import HorizonMismatchError, NonFiniteError
from .plant import DiscreteModel


@dataclass(frozen=True)
class RolloutTables:
    """The backward recursions of all 2^h patterns of one lookahead design, as a suffix tree.

    ``cost_matrices`` (2^(h+1) - 1, n, n) holds the tree level by level,
    from the terminal matrix (level h, index 0) down to level 0.  Level s
    starts at index 2^(h-s) - 1 and holds the matrices of step s by the
    integer value of the suffix bits[s:] (time s most significant), except
    level 0, which holds P0 in pattern order (:attr:`p0`).  ``gains``
    (2^h - 1, q, n) and ``gain_quadratics`` (2^h - 1, n, n) sit at the
    index of the matrix they are computed from: the gain of an actuated
    step s at the index of the pattern's matrix at step s + 1.  ``bits``
    (M, h), ``error_trace``, ``noise_score`` and ``trigger_weight`` (M,) are
    in pattern order.  The error trace is tr(P0[m] Sigma) at the stationary
    filter covariance Sigma that :func:`build_tables` is given, so the tables
    hold for that filter only; the trigger weight is the actuation count
    sum_t bits_t, which :func:`pattern_scores` multiplies by theta.
    :meth:`nodes` gives a pattern's path through the tree.
    """

    horizon: int
    bits: np.ndarray
    cost_matrices: np.ndarray
    gains: np.ndarray
    gain_quadratics: np.ndarray
    error_trace: np.ndarray
    noise_score: np.ndarray
    trigger_weight: np.ndarray
    model: DiscreteModel

    @property
    def p0(self) -> np.ndarray:
        """The step-0 cost matrix of every pattern, (M, n, n); a contiguous view."""
        return self.cost_matrices[len(self.bits) - 1:]

    def nodes(self, m) -> np.ndarray:
        """Tree index of the cost matrix of pattern m (1-based) at steps 0..h, (..., h+1)."""
        pos, bits = self._rows(m)
        idx = self._suffix_nodes(bits)
        idx[..., 0] = len(self.bits) - 1 + pos  # level 0 is in pattern order
        return idx

    def cost_matrix(self, m: int, s: int) -> np.ndarray:
        """Cost-to-go matrix (n, n) of pattern m (1-based) at step s in 0..h."""
        return self.cost_matrices[self.nodes(m)[s]]

    def gain(self, m: int, s: int) -> np.ndarray:
        """Feedback gain (q, n) of pattern m at step s in 0..h-1; zero on an idle step."""
        return self.path_gains(m)[s]

    def path_gains(self, m) -> np.ndarray:
        """Gains (..., h, q, n) of the patterns m (1-based) at steps 0..h-1; zero when idle."""
        _, bits = self._rows(m)
        return self.gains[self._suffix_nodes(bits)[..., 1:]] * bits[..., None, None]

    def _rows(self, m):
        pos = np.asarray(m) - 1
        if pos.size and not (0 <= pos.min() and pos.max() < len(self.bits)):
            raise ValueError(f"pattern index {m} out of range")
        return pos, self.bits[pos]

    def _suffix_nodes(self, bits):
        # level s starts at 2^(h-s) - 1 and is indexed by the low h-s bits of the pattern's
        # value; at s = 0 that is the bit-value order, not the pattern order of the tree
        place, masks = _level_masks(self.horizon)
        return masks + (bits.dot(place)[..., None] & masks)


@cache
def _level_masks(h: int) -> tuple[np.ndarray, np.ndarray]:
    """The place value of each of h bits, and 2^(h-s) - 1 for s = 0..h."""
    return 1 << np.arange(h - 1, -1, -1), (1 << np.arange(h, -1, -1)) - 1


def _base_value(h: int, p: int) -> int:
    """Integer value of the periodic pattern's bits (time 0 most significant)."""
    if h < 1:
        raise ValueError("horizon must be >= 1")
    if p < 1:
        raise ValueError("period must be >= 1")
    if h % p != 0:
        raise HorizonMismatchError(f"horizon h={h} is not a multiple of period p={p}")
    return sum(1 << (h - 1 - k) for k in range(0, h, p))


def _in_pattern_order(rows: np.ndarray, base: int) -> np.ndarray:
    """Rows indexed by bit value, reordered: the base row first, then the others in order."""
    return np.concatenate([rows[base:base + 1], rows[:base], rows[base + 1:]])


def pattern_bits(h: int, p: int) -> np.ndarray:
    """The (2^h, h) int8 bits of every pattern in pattern order; row m-1 is pattern m."""
    base = _base_value(h, p)
    bits = np.zeros((1 << h, h), dtype=np.int8)
    for s in range(h):
        bits.reshape(1 << s, 2, -1, h)[:, 1, :, s] = 1
    return _in_pattern_order(bits, base)


def _backward_tree(a, b, q, r, terminal, h: int, base: int):
    """The suffix tree of cost matrices with the gains and gain quadratics (see RolloutTables).

    Each level is one batched update of the level below, written in place: its
    idle half the open-loop update, its actuated half the Riccati update.
    ``base`` is the bit value of the base pattern, which level 0 puts first.
    """
    n, nu = b.shape
    m_count = 1 << h
    cost_matrices = np.empty((2 * m_count - 1, n, n))
    gains = np.empty((m_count - 1, nu, n))
    gain_quadratics = np.empty((m_count - 1, n, n))
    cost_matrices[0] = terminal
    work = np.empty((m_count // 2, n, n))  # open-loop updates; p_new borrows gain_quadratics

    # overflow in the open-loop branch is caught by the finiteness check of each level
    with np.errstate(over="ignore", invalid="ignore"):
        for s in reversed(range(h)):
            # level s + 1 is [lo, lo + k); level s, its idle then its actuated parents, follows
            k = 1 << (h - s - 1)
            lo = k - 1
            p_stack = cost_matrices[lo:lo + k]
            level = cost_matrices[lo + k:lo + 3 * k]
            open_update, p_new = work[:k], gain_quadratics[lo:lo + k]
            np.matmul(np.matmul(a.T, p_stack, out=p_new), a, out=open_update)
            np.add(q, open_update, out=open_update)
            btp = b.T @ p_stack                                     # (k, q, n)
            denom = btp @ b + r                                     # (k, q, q)
            btpa = btp @ a
            gain = np.linalg.solve(denom, btpa)
            f = np.negative(gain, out=gains[lo:lo + k])
            np.subtract(open_update, np.matmul(np.swapaxes(btpa, 1, 2), gain, out=p_new), out=p_new)
            if s:
                _symmetrize(open_update, level[:k])
                _symmetrize(p_new, level[k:])
            else:
                # pattern order; every idle-first pattern precedes the base, which starts actuated
                _symmetrize(open_update, level[1:k + 1])
                actuated = _symmetrize(p_new, open_update)
                j = base - k
                level[0] = actuated[j]
                level[k + 1:base + 1] = actuated[:j]
                level[base + 1:] = actuated[j + 1:]
            mq = np.matmul(np.swapaxes(f, 1, 2) @ denom, f, out=open_update)
            _symmetrize(mq, gain_quadratics[lo:lo + k])
            built = cost_matrices[lo:lo + 3 * k]  # levels s + 1 and s; min and max propagate NaN
            if not (np.isfinite(built.min()) and np.isfinite(built.max())):
                raise NonFiniteError("non-finite entry in backward recursion (unstable open-loop "
                                     "growth)")
    return cost_matrices, gains, gain_quadratics


def _symmetrize(x, out):
    """out = (x + x') / 2 for a stack of square matrices; out must not overlap x."""
    np.add(x, np.swapaxes(x, 1, 2), out=out)
    return np.multiply(0.5, out, out=out)


def build_tables(dm: DiscreteModel, q_weight, r_weight, terminal, h: int, p: int,
                 err_cov) -> RolloutTables:
    """Backward recursions, gains and score constants for all 2^h patterns.

    ``terminal`` must be the lifted-design cost matrix of the base periodic
    policy.  ``err_cov`` is the (n, n) error covariance Sigma of the
    stationary filter (:func:`~sparseroll.estimator.steady_kalman`).
    """
    n = dm.n_states
    q = np.atleast_2d(np.asarray(q_weight, dtype=float))
    r = np.atleast_2d(np.asarray(r_weight, dtype=float))
    terminal = np.atleast_2d(np.asarray(terminal, dtype=float))
    err_cov = np.asarray(err_cov, dtype=float)
    if err_cov.shape != (n, n):
        raise ValueError("err_cov must be the (n, n) filter covariance")

    base = _base_value(h, p)
    m_count = 1 << h
    cost_matrices, gains, gain_quadratics = _backward_tree(dm.a, dm.b, q, r, terminal, h, base)

    # The step-t noise and estimation terms of every pattern, rows by bit value.  Each
    # einsum form sums tr(X C) in the order of the per-pattern form it replaces.
    noise_node = np.einsum("sij,ij->s", cost_matrices[:m_count - 1],
                           np.ascontiguousarray(dm.proc_cov.T))
    est_node = np.einsum("sij,ji->s", gain_quadratics, err_cov)
    terms = np.empty((m_count, h))
    for t in range(h):
        k = 1 << (h - t - 1)
        lo = k - 1
        terms.reshape(-1, k, h)[:, :, t] = noise_node[lo:lo + k]
        terms.reshape(-1, 2, k, h)[:, 1, :, t] += est_node[lo:lo + k]
    noise_score = _in_pattern_order(terms.sum(axis=1), base)

    bits = pattern_bits(h, p)
    return RolloutTables(
        horizon=h,
        bits=bits,
        cost_matrices=cost_matrices,
        gains=gains,
        gain_quadratics=gain_quadratics,
        error_trace=np.einsum("mij,ji->m", cost_matrices[m_count - 1:], err_cov),
        noise_score=noise_score,
        trigger_weight=bits.sum(axis=1, dtype=float),
        model=dm,
    )


def memory_estimate(h: int, n: int, nu: int, rows: int) -> int:
    """Peak bytes of a lookahead design: its tables, build temporaries and block scores.

    The tables are the arrays :func:`build_tables` returns.  Its temporaries
    peak at the level-0 update, one (2^(h-1), n, n) stack and its gain terms,
    or at the (2^h, h) noise-score terms, plus up to 128 KB of numpy buffers.
    Scoring a block of ``rows`` estimates holds about three (rows, 2^h) arrays.
    """
    m = 1 << h
    tables = 8 * ((2 * m - 1) * n * n + (m - 1) * (nu * n + n * n) + 3 * m) + m * h
    build = 8 * max((m // 2) * (n * n + 4 * nu * n + nu * nu), m * (h + 3)) + (1 << 17)
    scores = 8 * 3 * rows * m
    return tables + build + scores


def pattern_scores(tables: RolloutTables, estimate, theta) -> np.ndarray:
    """Scores at actuation weight theta: one estimate (n,) -> (M,), a batch (T, n) -> (T, M).

    ``theta`` is one weight or, for a batch, one per row (T,).
    """
    x = np.asarray(estimate, dtype=float)
    if x.ndim != 2:
        x = x.reshape(-1)
    quad = np.einsum("...i,mij,...j->...m", x, tables.p0, x)
    theta = np.asarray(theta, dtype=float)[..., None]
    return quad + tables.error_trace + tables.noise_score + theta * tables.trigger_weight


def select_pattern(tables: RolloutTables, estimate, theta):
    """Argmin pattern index at theta, one weight or one per row; ties go to the smallest index.

    Returns an int for one estimate and an int array for a batch (T, n).
    """
    picks = np.argmin(pattern_scores(tables, estimate, theta), axis=-1) + 1
    return int(picks) if picks.ndim == 0 else picks


@dataclass
class RolloutPolicy:
    """Receding-horizon block controller over a batch of rows at actuation weight theta.

    ``theta`` is one weight or one per row.  ``forced_pattern`` pins the
    selection (diagnostic hook used to compare against the base policy on
    identical noise).
    """

    tables: RolloutTables
    theta: float | np.ndarray
    forced_pattern: int | None = None
    _block: tuple = field(default=(), init=False, repr=False, compare=False)

    def decide(self, x_hat, k: int):
        """Inputs and triggers of step k for the estimates (T, n); patterns change per block."""
        tables = self.tables
        tau = k % tables.horizon
        if tau == 0:
            if self.forced_pattern is None:
                picks = select_pattern(tables, x_hat, self.theta)
            else:
                picks = np.full(len(x_hat), self.forced_pattern)
            self._block = (tables.bits[picks - 1], tables.path_gains(picks))
        bits, gains = self._block
        u = np.einsum("tqn,tn->tq", gains[:, tau], x_hat)
        return np.where(bits[:, tau, None] == 1, u, 0.0), bits[:, tau]
