"""Brute-force verification of the lookahead pattern selection.

``oracle_select`` and ``oracle_picks`` evaluate, for every pattern, the
conditional expected block cost by direct moment propagation: the estimate
mean and its second moment are pushed through the actuated/idle steps while
stage costs, actuation penalties and the terminal cost-to-go accumulate.
Each pattern's gains come from its own backward pass, computed once per call
for all estimates and many patterns side by side.  No suffix tree, score
decomposition or cost-matrix bookkeeping is reused from the table builder,
so agreement with :func:`sparseroll.rollout.select_pattern` validates the
whole backward-recursion pipeline against the definition of the block cost.

``closed_loop_matrices`` exposes the per-pattern h-step transition of the
estimate dynamics (products of A + rho B F), useful as a stability and
propagation diagnostic.
"""

from dataclasses import dataclass

import numpy as np

from .plant import DiscreteModel
from .rollout import RolloutTables, _base_value, pattern_bits


@dataclass(frozen=True)
class OracleResult:
    best_pattern: int
    best_score: float
    all_scores: dict[int, float]


# Patterns whose gains and closed-loop maps one pass of the oracle holds at a time.
_CHUNK = 256


def _pattern_gains(a, b, q, r, terminal, bits):
    """Backward gain passes of the patterns ``bits`` (M, h), side by side (independent
    transcription): one Riccati step per pattern and time, no shared suffixes."""
    m, h = bits.shape
    p_mat = np.broadcast_to(terminal, (m,) + terminal.shape)
    gains = np.zeros((m, h, b.shape[1], a.shape[0]))
    for s in reversed(range(h)):
        on = bits[:, s] == 1
        p_on = p_mat[on]
        k = np.linalg.solve(b.T @ p_on @ b + r, b.T @ p_on @ a)
        gains[on, s] = -k
        p_next = q + a.T @ p_mat @ a
        p_next[on] -= (a.T @ p_on @ b) @ k
        p_mat = 0.5 * (p_next + p_next.transpose(0, 2, 1))
    return gains


def _chunk_scores(dm: DiscreteModel, q_weight, r_weight, terminal, h: int, theta: float,
                  estimates, err_cov):
    """Yields (first pattern, (E, M) expected block costs) for each chunk of M patterns.

    Over a block the estimate is Gaussian given x_hat: its mean m and covariance N follow
    m' = C m and N' = C N C' + G C (A Sigma A' + W) from m = x_hat and N = 0, where C is
    the step's closed-loop map (A + B F actuated, A idle) and G the stationary gain.  A
    step costs tr((Q + F' R F) (m m' + N)) + tr(Q Sigma) (+ theta if actuated), and the
    terminal tr(P_T (m m' + N + Sigma)).  The covariance terms do not depend on x_hat,
    so each chunk's gains, maps and covariance terms are built once for all E estimates,
    whose means are then pushed through every pattern of the chunk at once.
    """
    a, b, c = dm.a, dm.b, dm.c
    q = np.atleast_2d(np.asarray(q_weight, dtype=float))
    r = np.atleast_2d(np.asarray(r_weight, dtype=float))
    terminal = np.atleast_2d(np.asarray(terminal, dtype=float))
    sigma = np.atleast_2d(np.asarray(err_cov, dtype=float))
    estimates = np.asarray(estimates, dtype=float).reshape(len(estimates), -1)

    # Innovation-driven covariance injected into the estimate each step:
    # Cov(G nu) = G C (A Sigma A' + W), with G the stationary gain.
    prior = a @ sigma @ a.T + dm.proc_cov
    innov_cov = c @ prior @ c.T + dm.meas_cov
    gain = prior @ c.T @ np.linalg.inv(innov_cov)
    est_noise = gain @ c @ prior
    est_noise = 0.5 * (est_noise + est_noise.T)

    all_bits = pattern_bits(h)
    for start in range(0, len(all_bits), _CHUNK):
        bits = all_bits[start:start + _CHUNK]
        gains = _pattern_gains(a, b, q, r, terminal, bits)
        closed = a + b @ gains  # idle steps have zero gains: A
        weights = q + gains.transpose(0, 1, 3, 2) @ r @ gains
        const = (h * float(np.trace(q @ sigma)) + float(np.trace(terminal @ sigma))
                 + theta * bits.sum(axis=1))
        cov = np.zeros((len(bits),) + a.shape)
        for tau in range(h):
            const += np.einsum("mij,mji->m", weights[:, tau], cov)
            cov = closed[:, tau] @ cov @ closed[:, tau].transpose(0, 2, 1) + est_noise
        const += np.einsum("ij,mji->m", terminal, cov)
        mean = np.broadcast_to(estimates, (len(bits),) + estimates.shape)  # (M, E, n)
        scores = np.broadcast_to(const[:, None], mean.shape[:2]).copy()
        for tau in range(h):
            scores += np.einsum("mei,mei->me", mean @ weights[:, tau], mean)
            mean = mean @ closed[:, tau].transpose(0, 2, 1)
        scores += np.einsum("mei,mei->me", mean @ terminal, mean)
        yield start, scores.T


def _best(scores, start: int, base: int):
    """Sort key (score, not base, index) of the least of one chunk's scores; the base wins a
    tie, then the smallest index."""
    lowest = scores.min()
    ties = np.flatnonzero(scores == lowest) + start
    best = base if base in ties else int(ties[0])
    return float(lowest), best != base, best


def oracle_select(dm: DiscreteModel, q_weight, r_weight, terminal, h: int, p: int,
                  theta: float, estimate, err_cov) -> OracleResult:
    """Exhaustive argmin of the conditional block cost over all patterns at one estimate.

    Patterns are indexed by the value of their bits, as in the tables.  An exact tie with
    the base pattern resolves to it, any other tie to the smallest index.
    """
    base = _base_value(h, p)
    all_scores = np.concatenate([scores[0] for _, scores in _chunk_scores(
        dm, q_weight, r_weight, terminal, h, theta, np.asarray(estimate, dtype=float)[None],
        err_cov)])
    best_score, _, best = _best(all_scores, 0, base)
    return OracleResult(best_pattern=best, best_score=best_score,
                        all_scores=dict(enumerate(all_scores.tolist())))


def oracle_picks(dm: DiscreteModel, q_weight, r_weight, terminal, h: int, p: int,
                 theta: float, estimates, err_cov):
    """The :func:`oracle_select` pattern and score at each of the estimates (E, n), as two
    (E,) arrays; each chunk's gains serve every estimate, and no (E, 2^h) array is held."""
    base = _base_value(h, p)
    best = [(np.inf, True, -1)] * len(estimates)
    for start, scores in _chunk_scores(dm, q_weight, r_weight, terminal, h, theta, estimates,
                                       err_cov):
        best = [min(key, _best(row, start, base)) for key, row in zip(best, scores)]
    return np.array([key[2] for key in best]), np.array([key[0] for key in best])


def closed_loop_matrices(tables: RolloutTables, m: int):
    """h-step estimate transition (phi) and stacked noise map (gamma) of pattern m.

    phi is the ordered product of the per-step closed-loop matrices
    A + rho B F (latest step leftmost); gamma horizontally stacks the
    partial products applied to each step's innovation term, with the
    trailing block the identity.  Over one block the estimate satisfies
    x_hat_next_block = phi x_hat + gamma [omega_0; ...; omega_{h-1}].
    """
    gains = tables.path_gains(m)
    a, b = tables.model.a, tables.model.b
    h = tables.horizon
    n = a.shape[0]

    thetas = [a + b @ gains[s] if tables.bits[m, s] else a for s in range(h)]

    blocks = [np.eye(n)] * h
    for j in reversed(range(h - 1)):
        blocks[j] = blocks[j + 1] @ thetas[j + 1]
    phi = blocks[0] @ thetas[0]
    gamma = np.hstack(blocks)
    return phi, gamma
