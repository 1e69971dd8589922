"""Brute-force verification of the lookahead pattern selection.

``oracle_select`` evaluates, for every pattern, the conditional expected
block cost by direct moment propagation: the estimate mean and its second
moment are pushed through the actuated/idle steps while stage costs,
actuation penalties and the terminal cost-to-go accumulate.  No score
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
from .rollout import RolloutTables, pattern_bits


@dataclass(frozen=True)
class OracleResult:
    best_pattern: int
    best_score: float
    all_scores: dict[int, float]


def _pattern_gains(a, b, q, r, terminal, bits):
    """Backward gain pass for one fixed pattern (independent transcription)."""
    h = len(bits)
    p_mat = terminal.copy()
    gains = [None] * h
    for s in reversed(range(h)):
        if bits[s]:
            denom = b.T @ p_mat @ b + r
            k = np.linalg.solve(denom, b.T @ p_mat @ a)
            gains[s] = -k
            p_mat = q + a.T @ p_mat @ a - (a.T @ p_mat @ b) @ k
        else:
            gains[s] = np.zeros((b.shape[1], a.shape[0]))
            p_mat = q + a.T @ p_mat @ a
        p_mat = 0.5 * (p_mat + p_mat.T)
    return gains


def oracle_select(dm: DiscreteModel, q_weight, r_weight, terminal, h: int, p: int,
                  theta: float, estimate, err_cov) -> OracleResult:
    """Exhaustive argmin of the conditional block cost over all patterns.

    For each pattern the expected cost is accumulated step by step from the
    conditional moments of the estimate; the estimation-error contribution
    enters through the stationary covariance and the innovation-driven
    estimate noise.  Ties resolve to the smallest pattern index.
    """
    a, b, c = dm.a, dm.b, dm.c
    q = np.atleast_2d(np.asarray(q_weight, dtype=float))
    r = np.atleast_2d(np.asarray(r_weight, dtype=float))
    terminal = np.atleast_2d(np.asarray(terminal, dtype=float))
    sigma = np.atleast_2d(np.asarray(err_cov, dtype=float))
    x_hat = np.asarray(estimate, dtype=float).reshape(-1)

    # Innovation-driven covariance injected into the estimate each step:
    # Cov(G nu) = G C (A Sigma A' + W), with G the stationary gain.
    prior = a @ sigma @ a.T + dm.proc_cov
    innov_cov = c @ prior @ c.T + dm.meas_cov
    gain = prior @ c.T @ np.linalg.inv(innov_cov)
    est_noise = gain @ c @ prior
    est_noise = 0.5 * (est_noise + est_noise.T)

    trace_q_sigma = float(np.trace(q @ sigma))
    trace_term_sigma = float(np.trace(terminal @ sigma))

    scores: dict[int, float] = {}
    for index, bits in enumerate(pattern_bits(h, p).tolist(), start=1):
        gains = _pattern_gains(a, b, q, r, terminal, bits)
        second = np.outer(x_hat, x_hat)
        cost = 0.0
        for tau in range(h):
            cost += float(np.trace(q @ second)) + trace_q_sigma
            if bits[tau]:
                f = gains[tau]
                cost += float(np.trace(f.T @ r @ f @ second)) + theta
                closed = a + b @ f
            else:
                closed = a
            second = closed @ second @ closed.T + est_noise
        cost += float(np.trace(terminal @ second)) + trace_term_sigma
        scores[index] = cost

    best = min(scores, key=lambda m: (scores[m], m))
    return OracleResult(best_pattern=best, best_score=scores[best], all_scores=scores)


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

    thetas = [a + b @ gains[s] if tables.bits[m - 1, s] else a for s in range(h)]

    blocks = [np.eye(n)] * h
    for j in reversed(range(h - 1)):
        blocks[j] = blocks[j + 1] @ thetas[j + 1]
    phi = blocks[0] @ thetas[0]
    gamma = np.hstack(blocks)
    return phi, gamma
