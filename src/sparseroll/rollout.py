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
so the passes share their suffixes: level s of a binary suffix tree holds
the 2^(h-s) distinct matrices of step s, and each level is one batched
update of the level below it, 2^h - 1 Riccati updates instead of
h 2^(h-1).  The build keeps every level in the tail of the step-0 array,
updating a bounded chunk of nodes at a time, and keeps only what scoring
and play read: the step-0 matrices, the gains and the score terms.
Selection scores a bounded chunk of patterns at a time and keeps a running
argmin, so a block of rows never holds a (rows, 2^h) array.

A pattern's index is the integer value of its bits, time 0 most
significant; ``RolloutTables.base`` is the index of the base policy's
periodic pattern.  An exact tie in the argmin goes to the base pattern, any
other tie to the smallest index.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import HorizonMismatchError, NonFiniteError
from .plant import DiscreteModel

_CHUNK = 1024  # tree nodes updated, and patterns whose noise terms are summed, at a time (2^k)
_SCORE_ELEMS = 1 << 16  # (row, pattern) scores per chunk of selection; 512 KB of float64


@dataclass(frozen=True)
class RolloutTables:
    """The step-0 cost matrices, gains and score terms of all 2^h patterns of one lookahead design.

    Every per-pattern array is indexed by the pattern index m, the integer
    value of the pattern's bits (time 0 most significant), and ``base`` is
    the index of the base policy's periodic pattern.  ``p0`` (M, n, n) holds
    the step-0 cost matrix of each pattern, and ``bits`` (M, h),
    ``error_trace``, ``noise_score`` and ``trigger_weight`` (M,) its bits and
    score terms.  ``gains`` (2^h - 1, q, n) is a suffix tree: the gain of an
    actuated step s depends only on the suffix bits[s+1:], and sits at index
    2^(h-s-1) - 1 plus the suffix's value.  The error trace is tr(P0[m] Sigma)
    at the stationary filter covariance Sigma that :func:`build_tables` is
    given, so the tables hold for that filter only; the trigger weight is the
    actuation count sum_t bits_t, which :func:`pattern_scores` multiplies by
    theta.
    """

    horizon: int
    base: int
    bits: np.ndarray
    p0: np.ndarray
    gains: np.ndarray
    error_trace: np.ndarray
    noise_score: np.ndarray
    trigger_weight: np.ndarray
    model: DiscreteModel

    def path_gains(self, m) -> np.ndarray:
        """Gains (..., h, q, n) of the patterns m at steps 0..h-1; zero when idle."""
        m = np.asarray(m)
        if m.size and not (0 <= m.min() and m.max() < len(self.bits)):
            raise ValueError(f"pattern index {m} out of range")
        starts = (1 << np.arange(self.horizon - 1, -1, -1)) - 1  # of the level each gain sits at
        return self.gains[starts + (m[..., None] & starts)] * self.bits[m][..., None, None]


def _base_value(h: int, p: int) -> int:
    """Integer value of the periodic pattern's bits (time 0 most significant)."""
    if h < 1:
        raise ValueError("horizon must be >= 1")
    if p < 1:
        raise ValueError("period must be >= 1")
    if h % p != 0:
        raise HorizonMismatchError(f"horizon h={h} is not a multiple of period p={p}")
    return sum(1 << (h - 1 - k) for k in range(0, h, p))


def pattern_bits(h: int) -> np.ndarray:
    """The (2^h, h) int8 bits of every pattern; row m holds the bits of m, time 0 first."""
    bits = np.zeros((1 << h, h), dtype=np.int8)
    for s in range(h):
        bits.reshape(1 << s, 2, -1, h)[:, 1, :, s] = 1
    return bits


def _backward_tree(a, b, q, r, terminal, h: int, proc_cov_t, err_cov):
    """P0, the gain tree (see RolloutTables) and the noise and estimation trace of each node.

    Every level is kept in the tail of P0: level s + 1 is its last
    2^(h-s-1) entries, starting from the terminal in the last one.  Level s
    is built ``_CHUNK`` parents at a time: a chunk is copied into a reused
    scratch buffer, its actuated children (the Riccati update) are written
    over it and its idle children (the open-loop update) 2^(h-s-1) entries
    earlier, so level 0 ends as P0 in pattern order.  Every temporary but
    the solve's gain is a reused buffer.  The node at index i of level s + 1
    (tree index 2^(h-s-1) - 1 + i) gets tr(P W) and tr(M Sigma), with
    M = F' (B' P B + R) F of the gain F taken from P; each einsum sums in
    the order of the per-pattern form it replaces, which is why W comes
    transposed and C-contiguous (``proc_cov_t``).
    """
    n, nu = b.shape
    m_count = 1 << h
    p0 = np.empty((m_count, n, n))
    gains = np.empty((m_count - 1, nu, n))
    noise_node = np.empty(m_count - 1)
    est_node = np.empty(m_count - 1)
    p0[-1] = terminal
    width = min(_CHUNK, m_count // 2)
    buffers = (*np.empty((3, width, n, n)), *np.empty((2, width, nu, n)),
               np.empty((width, nu, nu)), np.empty((width, n, nu)))

    # overflow in the open-loop branch is caught by the finiteness check of each level
    with np.errstate(over="ignore", invalid="ignore"):
        for s in reversed(range(h)):
            k = 1 << (h - s - 1)
            lo = k - 1
            for j in range(0, k, width):
                c = min(width, k - j)
                p_stack, p_new, open_update, btp, btpa, denom, ft_denom = (
                    x[:c] for x in buffers)
                idle, act = m_count - 2 * k + j, m_count - k + j  # where parent j's children go
                nodes = slice(lo + j, lo + j + c)
                np.copyto(p_stack, p0[act:act + c])
                np.einsum("sij,ij->s", p_stack, proc_cov_t, out=noise_node[nodes])
                np.matmul(np.matmul(a.T, p_stack, out=p_new), a, out=open_update)
                np.add(q, open_update, out=open_update)
                np.matmul(b.T, p_stack, out=btp)
                np.add(np.matmul(btp, b, out=denom), r, out=denom)
                np.matmul(btp, a, out=btpa)
                gain = np.linalg.solve(denom, btpa)
                f = np.negative(gain, out=gains[nodes])
                np.subtract(open_update, np.matmul(np.swapaxes(btpa, 1, 2), gain, out=p_new),
                            out=p_new)
                _symmetrize(p_new, p0[act:act + c])
                _symmetrize(open_update, p0[idle:idle + c])
                mq = np.matmul(np.matmul(np.swapaxes(f, 1, 2), denom, out=ft_denom), f,
                               out=open_update)
                np.einsum("sij,ji->s", _symmetrize(mq, p_stack), err_cov, out=est_node[nodes])
            level = p0[m_count - 2 * k:]
            if not (np.isfinite(level.min()) and np.isfinite(level.max())):  # both propagate NaN
                raise NonFiniteError("non-finite entry in backward recursion (unstable open-loop "
                                     "growth)")
    return p0, gains, noise_node, est_node


def _noise_score(noise_node, est_node, h: int) -> np.ndarray:
    """Sum over steps t of each pattern's tr(P_{t+1} W), plus tr(M_t Sigma) where it actuates.

    The terms are summed row by row, in the order of the per-pattern
    recursion they replace, over chunks of ``_CHUNK`` patterns (a power of
    two) in one reused (chunk, h) buffer.  Within a chunk starting at m0,
    step t takes the nodes m mod 2^(h-t-1) of level t + 1: one run of the
    chunk's length when the level is at least as long, else the whole level
    repeated, as over all 2^h patterns.
    """
    m_count = 1 << h
    width = min(_CHUNK, m_count)
    score = np.empty(m_count)
    terms = np.empty((width, h))
    for m0 in range(0, m_count, width):
        for t in range(h):
            k = 1 << (h - t - 1)
            lo = k - 1
            if k >= width:  # bit t is (m0 & k) across the chunk
                i = lo + m0 % k
                terms[:, t] = noise_node[i:i + width]
                if m0 & k:
                    terms[:, t] += est_node[i:i + width]
            else:
                terms.reshape(-1, k, h)[:, :, t] = noise_node[lo:lo + k]
                terms.reshape(-1, 2, k, h)[:, 1, :, t] += est_node[lo:lo + k]
        terms.sum(axis=1, out=score[m0:m0 + width])
    return score


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
    p0, gains, *node_traces = _backward_tree(
        dm.a, dm.b, q, r, terminal, h, np.ascontiguousarray(dm.proc_cov.T), err_cov)
    noise_score = _noise_score(*node_traces, h)
    del node_traces  # freed before the bits, so the build peaks at the tables
    bits = pattern_bits(h)
    return RolloutTables(
        horizon=h,
        base=base,
        bits=bits,
        p0=p0,
        gains=gains,
        error_trace=np.einsum("mij,ji->m", p0, err_cov),
        noise_score=noise_score,
        trigger_weight=bits.sum(axis=1, dtype=float),
        model=dm,
    )


def _score_width(rows) -> int:
    """Patterns per chunk of selection over ``rows`` estimates: about ``_SCORE_ELEMS`` scores."""
    return max(1, _SCORE_ELEMS // max(rows, 1))


def memory_estimate(h: int, n: int, nu: int, rows) -> int:
    """Peak bytes of a lookahead design: its tables, build temporaries and block of ``rows``.

    The tables are the arrays :func:`build_tables` returns.  The build adds
    the reused buffers of one chunk of ``_CHUNK`` nodes or patterns and up to
    128 KB of numpy buffers; its per-node traces are freed before the bits
    and two score terms are made, so they fit under the tables.  A block of
    ``rows`` estimates holds up to three (rows, width) score arrays of one
    chunk of patterns (width from :func:`_score_width`), the running argmin
    and the pattern gains and bits that each row plays.
    """
    m = 1 << h
    c = min(_CHUNK, m)
    tables = 8 * (m * n * n + (m - 1) * nu * n + 3 * m) + m * h
    build = 8 * c * (3 * n * n + 4 * nu * n + 2 * nu * nu + n * nu + h) + (1 << 17)
    block = rows * (8 * 3 * min(m, _score_width(rows)) + 8 * (8 + 2 * h * nu * n + h) + h)
    return tables + build + block


def pattern_scores(tables: RolloutTables, estimate, theta, patterns=slice(None)) -> np.ndarray:
    """Scores at actuation weight theta: one estimate (n,) -> (M,), a batch (T, n) -> (T, M).

    ``theta`` is one weight or, for a batch, one per row (T,).  ``patterns``,
    a slice of pattern indices, scores those alone, with the same bits.
    """
    x = np.asarray(estimate, dtype=float)
    if x.ndim != 2:
        x = x.reshape(-1)
    scores = np.einsum("...i,mij,...j->...m", x, tables.p0[patterns], x)
    scores += tables.error_trace[patterns]
    scores += tables.noise_score[patterns]
    scores += np.asarray(theta, dtype=float)[..., None] * tables.trigger_weight[patterns]
    return scores


def select_pattern(tables: RolloutTables, estimate, theta):
    """Argmin pattern index at theta, one weight or one per row.

    An exact tie with the base pattern goes to ``tables.base``, any other tie
    to the smallest index.  Returns an int for one estimate and an int array
    for a batch (T, n).  The patterns are scored a chunk at a time (see
    :func:`_score_width`) with a running minimum; a NaN score wins, as in
    ``argmin``.
    """
    x = np.asarray(estimate, dtype=float)
    width = _score_width(len(x) if x.ndim == 2 else 1)
    base = tables.base
    for lo in range(0, len(tables.bits), width):
        scores = pattern_scores(tables, x, theta, slice(lo, lo + width))
        low, arg = scores.min(axis=-1), scores.argmin(axis=-1) + lo
        if lo:
            better = (low < best) | (np.isnan(low) & ~np.isnan(best))
            best, picks = np.where(better, low, best), np.where(better, arg, picks)
        else:
            best, picks = low, arg
        if lo <= base < lo + width:
            base_score = scores[..., base - lo]
    picks = np.where(base_score == best, base, picks)
    return int(picks) if picks.ndim == 0 else picks


@dataclass
class RolloutPolicy:
    """Receding-horizon block controller over a batch of rows at actuation weight theta.

    ``theta`` is one weight or one per row.
    """

    tables: RolloutTables
    theta: float | np.ndarray
    _block: tuple = field(default=(), init=False, repr=False, compare=False)

    def decide(self, x_hat, k: int):
        """Inputs and triggers of step k for the estimates (T, n); patterns change per block."""
        tables = self.tables
        tau = k % tables.horizon
        if tau == 0:
            picks = select_pattern(tables, x_hat, self.theta)
            self._block = (tables.bits[picks], tables.path_gains(picks))
        bits, gains = self._block
        u = np.einsum("tqn,tn->tq", gains[:, tau], x_hat)
        return np.where(bits[:, tau, None] == 1, u, 0.0), bits[:, tau]
