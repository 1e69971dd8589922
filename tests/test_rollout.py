import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparseroll as sr
from sparseroll.exceptions import HorizonMismatchError, NonFiniteError
from sparseroll import rollout
from sparseroll.rollout import _backward_tree, _base_value, memory_estimate

BENCH = sr.ExperimentConfig()  # the benchmark study
PHI = (1.0 + math.sqrt(5.0)) / 2.0
THETA = 0.2  # actuation weight the benchmark tables are scored at


def _flat_recursion(dm, q_weight, r_weight, terminal, h, err_cov):
    """The per-pattern backward recursion that the suffix tree replaced, as it was.

    Returns bits, cost matrices (M, h+1, n, n), gains (M, h, q, n), gain
    quadratics (M, h, n, n) and noise scores (M,), row m the pattern of value m.
    """
    a, b = dm.a, dm.b
    n, nu = dm.n_states, dm.n_inputs
    q = np.atleast_2d(np.asarray(q_weight, dtype=float))
    r = np.atleast_2d(np.asarray(r_weight, dtype=float))
    terminal = np.atleast_2d(np.asarray(terminal, dtype=float))
    err_cov = np.asarray(err_cov, dtype=float)
    bits = sr.pattern_bits(h)
    m_count = len(bits)
    cost_matrices = np.empty((m_count, h + 1, n, n))
    gains = np.zeros((m_count, h, nu, n))
    gain_quadratics = np.zeros((m_count, h, n, n))
    cost_matrices[:, h] = terminal
    p_stack = np.broadcast_to(terminal, (m_count, n, n)).copy()
    for s in reversed(range(h)):
        open_update = q + a.T @ p_stack @ a
        act = bits[:, s] == 1
        if act.any():
            p_act = p_stack[act]
            btp = b.T @ p_act
            denom = btp @ b + r
            btpa = btp @ a
            k = np.linalg.solve(denom, btpa)
            f = -k
            gains[act, s] = f
            mq = np.swapaxes(f, 1, 2) @ denom @ f
            gain_quadratics[act, s] = 0.5 * (mq + np.swapaxes(mq, 1, 2))
            p_new = open_update[act] - np.swapaxes(btpa, 1, 2) @ k
            p_stack[act] = 0.5 * (p_new + np.swapaxes(p_new, 1, 2))
        idle = ~act
        if idle.any():
            p_new = open_update[idle]
            p_stack[idle] = 0.5 * (p_new + np.swapaxes(p_new, 1, 2))
        cost_matrices[:, s] = p_stack
    # each trace runs over a flat (M h, n, n) stack, whose length does not change the order
    # numpy sums a trace's n^2 products in; over the (M, h) form that order is one way for
    # h > 1 and another for h = 1, which moved h = 1 scores off the tables by an ulp
    w_t = np.ascontiguousarray(dm.proc_cov.T)
    noise_trace = np.einsum("sij,ij->s", cost_matrices[:, 1:].reshape(-1, n, n),
                            w_t).reshape(m_count, h)
    est_trace = np.einsum("sij,ji->s", gain_quadratics.reshape(-1, n, n),
                          err_cov).reshape(m_count, h)
    noise_score = (noise_trace + est_trace).sum(axis=1)
    return bits, cost_matrices, gains, gain_quadratics, noise_score


def _out_of_place_tree(a, b, q, r, terminal, h):
    """The suffix-tree build as it was before it wrote each level in place into the tree.

    Returns the whole tree of cost matrices (2^(h+1) - 1, n, n), level 0 last and
    by bit value, with the gains and gain quadratics (2^h - 1, ...) of its nodes.
    """
    n, nu = b.shape
    m_count = 1 << h
    cost_matrices = np.empty((2 * m_count - 1, n, n))
    gains = np.empty((m_count - 1, nu, n))
    gain_quadratics = np.empty((m_count - 1, n, n))
    cost_matrices[0] = terminal
    for s in reversed(range(h)):
        k = 1 << (h - s - 1)
        lo = k - 1
        p_stack = cost_matrices[lo:lo + k]
        open_update = q + a.T @ p_stack @ a
        idle = 0.5 * (open_update + np.swapaxes(open_update, 1, 2))
        btp = b.T @ p_stack
        denom = btp @ b + r
        btpa = btp @ a
        gain = np.linalg.solve(denom, btpa)
        f = -gain
        gains[lo:lo + k] = f
        mq = np.swapaxes(f, 1, 2) @ denom @ f
        gain_quadratics[lo:lo + k] = 0.5 * (mq + np.swapaxes(mq, 1, 2))
        p_new = open_update - np.swapaxes(btpa, 1, 2) @ gain
        actuated = 0.5 * (p_new + np.swapaxes(p_new, 1, 2))
        cost_matrices[lo + k:lo + 2 * k] = idle
        cost_matrices[lo + 2 * k:lo + 3 * k] = actuated
    return cost_matrices, gains, gain_quadratics


@pytest.fixture(scope="module")
def benchmark_tables(benchmark_model):
    dm = benchmark_model
    _, err_cov, _ = sr.steady_kalman(dm)
    pol = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [6])[6]
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                             6, 6, err_cov)
    return dm, pol, err_cov, tables


def test_enumeration_h2_p2():
    # pattern m is row m, the bits of m with time 0 most significant; its actuation count is
    # the row sum, and the base pattern of p = 2 is 0b10
    bits = sr.pattern_bits(2)
    assert bits.dtype == np.int8
    assert bits.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert bits.sum(axis=1).tolist() == [0, 1, 1, 2]
    assert _base_value(2, 2) == 2


def test_enumeration_h1_p1():
    assert sr.pattern_bits(1).tolist() == [[0], [1]]
    assert _base_value(1, 1) == 1


def test_enumeration_h6_p6():
    bits = sr.pattern_bits(6)
    assert bits.shape == (64, 6)  # indices 0..63
    assert bits[_base_value(6, 6)].tolist() == [1, 0, 0, 0, 0, 0]
    assert bits[_base_value(6, 2)].tolist() == [1, 0, 1, 0, 1, 0]
    assert np.array_equal(bits @ (1 << np.arange(5, -1, -1)), np.arange(64))


def test_enumeration_horizon_mismatch(benchmark_model, benchmark_steady):
    dm = benchmark_model
    terminal = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [2])[2].cost_matrix
    with pytest.raises(HorizonMismatchError):
        _base_value(5, 2)
    with pytest.raises(HorizonMismatchError):
        sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, terminal, 5, 2, benchmark_steady[1])


def test_nonpositive_period_is_a_value_error(benchmark_model, benchmark_steady):
    # a zero period used to fail in h % p with ZeroDivisionError, a negative one gave no base
    dm = benchmark_model
    terminal = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [1])[1].cost_matrix
    err_cov = benchmark_steady[1]
    for p in (0, -2):
        with pytest.raises(ValueError, match="period must be >= 1"):
            _base_value(6, p)
        with pytest.raises(ValueError, match="period must be >= 1"):
            sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, terminal, 6, p, err_cov)
        with pytest.raises(ValueError, match="period must be >= 1"):
            sr.oracle_select(dm, BENCH.q_weight, BENCH.r_weight, terminal, 6, p, 0.1,
                             np.zeros(4), err_cov)


def test_base_pattern_recovers_terminal(benchmark_tables):
    _, pol, _, tables = benchmark_tables
    assert tables.base == 0b100000 and tables.bits[tables.base].tolist() == [1, 0, 0, 0, 0, 0]
    resid = (np.linalg.norm(tables.p0[tables.base] - pol.cost_matrix, "fro")
             / np.linalg.norm(pol.cost_matrix, "fro"))
    assert resid < 1e-8


def test_scalar_all_ones_single_step_fixed_point(scalar_model):
    # one actuated backward step from the fixed point stays at the fixed point
    terminal = np.array([[PHI]])
    tables = sr.build_tables(scalar_model, [[1.0]], [[1.0]], terminal, 1, 1,
                             err_cov=[[PHI - 1.0]])
    assert tables.base == 1
    actuated = tables.p0[1, 0, 0]
    assert abs(actuated - PHI) < 1e-12
    by_hand = 1.0 + PHI - PHI**2 / (PHI + 1.0)
    assert abs(actuated - by_hand) < 1e-12


def test_trigger_score_values(benchmark_model):
    dm = benchmark_model
    _, err_cov, _ = sr.steady_kalman(dm)
    pol = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [2])[2]
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                             6, 2, err_cov)
    for bits, weight in zip(tables.bits, tables.trigger_weight):
        assert weight == bits.sum()
    idx = [tuple(bits) for bits in tables.bits.tolist()].index((1, 0, 1, 0, 1, 0))
    assert abs(0.1 * tables.trigger_weight[idx] - 0.3) < 1e-15
    # theta enters the score as theta * weight, last
    x = np.array([1.0, -1.0, 0.3, 0.2])
    assert np.array_equal(sr.pattern_scores(tables, x, 0.1),
                          sr.pattern_scores(tables, x, 0.0)
                          + 0.1 * tables.trigger_weight)


def test_base_pattern_score_closed_form(benchmark_tables):
    dm, pol, err_cov, tables = benchmark_tables
    h, p, theta = 6, 6, 0.2
    cap_h = h // p
    lift = sr.build_lifted(dm, BENCH.q_weight, BENCH.r_weight, p)
    beta1_closed = cap_h * (
        float(np.trace(pol.cost_matrix @ lift.noise_cov_lift))
        + float(np.trace(pol.gain_quadratic @ err_cov))
        + lift.d_avg
    )
    gamma1_closed = cap_h * theta
    base = tables.base
    assert abs(tables.noise_score[base] - beta1_closed) < 1e-8 * abs(beta1_closed)
    assert abs(theta * tables.trigger_weight[base] - gamma1_closed) < 1e-12

    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.standard_normal(4)
        gap = (sr.pattern_scores(tables, x, theta)[base]
               - float(np.trace(pol.cost_matrix @ err_cov)) - beta1_closed - gamma1_closed)
        assert abs(gap - x @ pol.cost_matrix @ x) < 1e-8 * max(1.0, abs(gap))


def test_score_at_zero_estimate(benchmark_tables):
    _, _, err_cov, tables = benchmark_tables
    for m in (tables.base, 3, 63):
        expected = (float(np.trace(tables.p0[m] @ err_cov))
                    + tables.noise_score[m] + THETA * tables.trigger_weight[m])
        assert abs(sr.pattern_scores(tables, np.zeros(4), THETA)[m] - expected) < 1e-12


def test_score_even_in_estimate(benchmark_tables, rng):
    _, _, _, tables = benchmark_tables
    for _ in range(20):
        x = rng.standard_normal(4) * rng.uniform(0.1, 3.0)
        s_plus = sr.pattern_scores(tables, x, THETA)
        s_minus = sr.pattern_scores(tables, -x, THETA)
        assert np.array_equal(s_plus, s_minus)
        assert (sr.select_pattern(tables, x, THETA)
                == sr.select_pattern(tables, -x, THETA))


def test_error_trace_is_the_stored_sigma_term(benchmark_tables, rng):
    # build_tables keeps tr(P0 Sigma); scores add it second, and the policy picks by them
    _, _, err_cov, tables = benchmark_tables
    x = rng.standard_normal((5, 4)) * rng.uniform(0.1, 3.0, size=(5, 1))
    assert np.array_equal(tables.error_trace, np.einsum("mij,ji->m", tables.p0, err_cov))
    quad = np.einsum("...i,mij,...j->...m", x, tables.p0, x)
    assert np.array_equal(sr.pattern_scores(tables, x, THETA),
                          quad + tables.error_trace + tables.noise_score
                          + THETA * tables.trigger_weight)
    pol = sr.RolloutPolicy(tables=tables, theta=THETA)
    _, bits = pol.decide(x, 0)
    picks = sr.select_pattern(tables, x, THETA)
    assert np.array_equal(bits, tables.bits[picks, 0])
    assert np.array_equal(pol._block[0], tables.bits[picks])


def test_huge_theta_selects_all_zero(benchmark_model):
    dm = benchmark_model
    _, err_cov, _ = sr.steady_kalman(dm)
    pol = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [6])[6]
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                             6, 6, err_cov)
    m = sr.select_pattern(tables, np.array([1.0, -1.0, 0.3, 0.2]), 1e9)
    assert m == 0 and tables.bits[m].sum() == 0


def test_lookahead_dominance(benchmark_tables, rng):
    _, _, _, tables = benchmark_tables
    for _ in range(50):
        x = rng.standard_normal(4) * rng.uniform(0.05, 3.0)
        scores = sr.pattern_scores(tables, x, THETA)
        assert scores.min() <= scores[tables.base] + 1e-12


def test_theta_monotone_actuation(benchmark_model, rng):
    dm = benchmark_model
    _, err_cov, _ = sr.steady_kalman(dm)
    pol = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [6])[6]
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                             6, 6, err_cov)
    for _ in range(25):
        t1 = rng.uniform(0.01, 0.5)
        t2 = t1 + rng.uniform(0.01, 0.5)
        x = rng.standard_normal(4) * rng.uniform(0.05, 2.0)
        m1 = sr.select_pattern(tables, x, t1)
        m2 = sr.select_pattern(tables, x, t2)
        assert tables.bits[m2].sum() <= tables.bits[m1].sum()


def test_cost_matrices_symmetric_psd(benchmark_tables):
    _, _, _, tables = benchmark_tables
    pm = tables.p0
    assert np.array_equal(pm, np.swapaxes(pm, -1, -2))
    assert np.linalg.eigvalsh(pm).min() > -1e-9


def test_gains_zero_on_idle_steps(benchmark_tables):
    _, _, _, tables = benchmark_tables
    gains = tables.path_gains(np.arange(64))
    for m, bits in enumerate(tables.bits.tolist()):
        for s, bit in enumerate(bits):
            assert np.all(gains[m, s] == 0.0) == (not bit)
            assert np.array_equal(tables.path_gains(m)[s], gains[m, s])


def test_nonfinite_recursion_detected():
    dm = sr.DiscreteModel(a=[[1e80]], b=[[1.0]], c=[[1.0]], proc_cov=[[1.0]],
                          meas_cov=[[1.0]], init_mean=[0.0], init_cov=[[1.0]])
    with pytest.raises(NonFiniteError):
        sr.build_tables(dm, [[1.0]], [[1.0]], [[1.0]], 4, 2, [[1.0]])


def test_free_actuation_reduces_to_lqg(scalar_model):
    # h = p = 1 with theta = 0: actuating always wins since the actuated
    # cost-to-go is dominated by the idle one and the penalty is free
    dm = scalar_model
    _, err_cov, _ = sr.steady_kalman(dm)
    pol = sr.design_periods(dm, [[1.0]], [[1.0]], [1])[1]
    tables = sr.build_tables(dm, [[1.0]], [[1.0]], pol.cost_matrix, 1, 1,
                             err_cov=err_cov)
    p_act = tables.p0[1, 0, 0]
    p_idle = tables.p0[0, 0, 0]
    assert p_act < p_idle  # scalar Riccati gap is positive
    for x in np.linspace(-3.0, 3.0, 25):
        if abs(x) < 1e-2:
            continue  # the gap vanishes exactly at the origin
        assert sr.select_pattern(tables, np.array([x]), 0.0) == 1 == tables.base
    # and the applied gain is the standard LQG feedback
    assert abs(tables.path_gains(1)[0, 0, 0] - pol.feedback_gain[0, 0]) < 1e-10


def _tree_layout(flat_gains, h):
    """Per-pattern gains (M, h, q, n) gathered into the suffix-tree layout of the table gains.

    Level s + 1 starts at 2^(h-s-1) - 1, and its node v holds the step-s gain of
    pattern 2^(h-s-1) + v: bit s set, suffix v and no other bit.
    """
    return np.concatenate([flat_gains[1 << (h - s - 1):1 << (h - s), s]
                           for s in reversed(range(h))])


# the ids end in 1.0, the alpha of the long-run average cost that the tables price
@pytest.mark.parametrize("h,p", [(1, 1), (6, 6), (6, 3), (10, 2)],
                         ids=["1-1-1.0", "6-6-1.0", "6-3-1.0", "10-2-1.0"])
@pytest.mark.parametrize("stacked", [False, True])
def test_tree_matches_flat_recursion(benchmark_model, h, p, stacked):
    # every stored array is bit-identical to the per-pattern recursion, row m the pattern of
    # value m; the tables take the stationary (n, n) covariance only, never a stack of h
    dm = benchmark_model
    _, err_cov, _ = sr.steady_kalman(dm)
    pol = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [p])[p]
    if stacked:
        stack = np.stack([err_cov * (1.0 + 0.1 * t) for t in range(h)])
        with pytest.raises(ValueError, match=r"\(n, n\) filter covariance"):
            sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                            h, p, stack)
        return
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                             h, p, err_cov)
    _assert_tables_match_flat_recursion(tables, dm, BENCH.q_weight, BENCH.r_weight,
                                        pol.cost_matrix, err_cov)
    assert tables.base == _base_value(h, p)
    assert tables.gains.shape == (2**h - 1, 1, 4)


def _assert_tables_match_flat_recursion(tables, dm, q_weight, r_weight, terminal, err_cov):
    h = tables.horizon
    bits, costs, gains, _, noise_score = _flat_recursion(dm, q_weight, r_weight, terminal, h,
                                                         err_cov)
    assert np.array_equal(tables.bits, bits)
    assert tables.p0.tobytes() == costs[:, 0].tobytes()
    assert tables.gains.tobytes() == _tree_layout(gains, h).tobytes()
    # an idle step's gain is the stored gain times 0, so its zeros may carry a sign
    assert np.array_equal(tables.path_gains(np.arange(len(bits))), gains)
    assert tables.noise_score.tobytes() == noise_score.tobytes()
    expected_trace = np.einsum("mij,ji->m", costs[:, 0], np.asarray(err_cov, dtype=float))
    assert tables.error_trace.tobytes() == expected_trace.tobytes()
    assert tables.trigger_weight.tobytes() == bits.sum(axis=1, dtype=float).tobytes()


def _spd(rng, n, floor):
    m = rng.standard_normal((n, n))
    return m @ m.T + floor * np.eye(n)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), nu=st.integers(1, 2),
       hp=st.sampled_from([(h, p) for h in range(1, 9) for p in range(1, h + 1) if h % p == 0]))
def test_tables_match_the_recursion_and_the_oracle_on_random_models(seed, n, nu, hp):
    # a random model with every state measured, so the stationary filter exists; the terminal
    # is any positive definite matrix, which the oracle takes as given
    h, p = hp
    rng = np.random.Generator(np.random.Philox(seed))
    dm = sr.DiscreteModel(a=rng.standard_normal((n, n)) / math.sqrt(n),
                          b=rng.standard_normal((n, nu)),
                          c=np.eye(n) + 0.3 * rng.standard_normal((n, n)),
                          proc_cov=_spd(rng, n, 0.1), meas_cov=_spd(rng, n, 0.1),
                          init_mean=np.zeros(n), init_cov=np.eye(n))
    q, r, terminal = _spd(rng, n, 0.0), _spd(rng, nu, 0.1), _spd(rng, n, 0.1)
    err_cov = sr.steady_kalman(dm)[1]
    tables = sr.build_tables(dm, q, r, terminal, h, p, err_cov)
    _assert_tables_match_flat_recursion(tables, dm, q, r, terminal, err_cov)
    for _ in range(2):
        x = rng.standard_normal(n) * rng.uniform(0.05, 3.0)
        theta = rng.uniform(0.0, 0.5)
        res = sr.oracle_select(dm, q, r, terminal, h, p, theta, x, err_cov)
        best, second = sorted(res.all_scores.values())[:2]
        sel = sr.select_pattern(tables, x, theta)
        if second - best > 1e-9 * abs(best):
            assert sel == res.best_pattern
        score = sr.pattern_scores(tables, x, theta)[sel]
        assert abs(score - res.best_score) <= 1e-8 * abs(res.best_score)


def test_exact_tie_with_the_base_goes_to_the_base(benchmark_tables):
    # at x = 0 and theta = 0 the score is error_trace + noise_score; pattern 5, below the
    # base 32, is made to tie the base exactly and every other pattern to lose
    _, _, _, tables = benchmark_tables
    base, m = tables.base, 5
    noise = np.full(64, 1e6)
    noise[base] = tables.noise_score[base]
    noise[m] = tables.error_trace[base] + noise[base] - tables.error_trace[m]
    tied = dataclasses.replace(tables, noise_score=noise)
    scores = sr.pattern_scores(tied, np.zeros(4), 0.0)
    assert scores[m] == scores[base] == scores.min() and np.argmin(scores) == m
    assert sr.select_pattern(tied, np.zeros(4), 0.0) == base
    assert sr.select_pattern(tied, np.zeros((3, 4)), 0.0).tolist() == [base] * 3
    # one step off the tie, the smaller index wins
    noise[m] = np.nextafter(noise[m], -np.inf)
    assert sr.select_pattern(tied, np.zeros(4), 0.0) == m


def _unchunked_argmin(tables, x, theta):
    """The argmin over all 2^h scores at once, with the tie rule of select_pattern."""
    scores = sr.pattern_scores(tables, x, theta)
    base = tables.base
    return np.where(scores[..., base] == scores.min(axis=-1), base, scores.argmin(axis=-1))


@pytest.mark.parametrize("width", [1, 3, 64, 2**10])
def test_chunked_argmin_matches_the_unchunked_argmin(benchmark_model, benchmark_steady, rng,
                                                      monkeypatch, width):
    # a chunk of `width` patterns per row: the running minimum picks what the argmin over
    # all 2^10 scores picks, and each chunk's scores are the bits of the full scores
    dm = benchmark_model
    terminal = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [2])[2].cost_matrix
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, terminal, 10, 2,
                             benchmark_steady[1])
    for rows in (1, 7, 40):
        monkeypatch.setattr(rollout, "_SCORE_ELEMS", width * rows)
        x = rng.standard_normal((rows, 4)) * rng.uniform(0.01, 3.0, (rows, 1))
        theta = rng.uniform(0.0, 0.5, rows)
        assert np.array_equal(sr.select_pattern(tables, x, theta),
                              _unchunked_argmin(tables, x, theta))
        assert sr.select_pattern(tables, x[0], 0.2) == _unchunked_argmin(tables, x[0], 0.2)
        full = sr.pattern_scores(tables, x, theta)
        for lo in range(0, 2**10, width):
            chunk = sr.pattern_scores(tables, x, theta, slice(lo, lo + width))
            assert chunk.tobytes() == np.ascontiguousarray(full[:, lo:lo + width]).tobytes()


@pytest.mark.parametrize("width", [1, 3, 16])
def test_exact_tie_with_the_base_holds_across_chunks(benchmark_tables, monkeypatch, width):
    # the tie of test_exact_tie_with_the_base_goes_to_the_base with pattern 5 and the base 32
    # in different chunks, and a tie between two other patterns in different chunks
    _, _, _, tables = benchmark_tables
    base, m, other = tables.base, 5, 40
    noise = np.full(64, 1e6)
    noise[base] = tables.noise_score[base]
    noise[m] = tables.error_trace[base] + noise[base] - tables.error_trace[m]
    tied = dataclasses.replace(tables, noise_score=noise)
    monkeypatch.setattr(rollout, "_SCORE_ELEMS", 3 * width)
    assert sr.select_pattern(tied, np.zeros((3, 4)), 0.0).tolist() == [base] * 3
    noise[m] = np.nextafter(noise[m], -np.inf)
    noise[other] = tables.error_trace[m] + noise[m] - tables.error_trace[other]
    scores = sr.pattern_scores(tied, np.zeros(4), 0.0)
    assert scores[m] == scores[other] == scores.min()
    assert sr.select_pattern(tied, np.zeros((3, 4)), 0.0).tolist() == [m] * 3
    # a NaN score wins, as it does in argmin
    assert sr.select_pattern(tied, np.full((3, 4), np.nan), 0.0).tolist() == [0] * 3


@pytest.mark.parametrize("chunk", [1, 2, 4])
def test_chunked_tree_matches_out_of_place_build(benchmark_model, benchmark_steady,
                                                  monkeypatch, chunk):
    # levels and noise-score terms built a few nodes at a time keep the bits of the tree
    # built out of place and of the per-pattern recursion
    dm = benchmark_model
    err_cov = benchmark_steady[1]
    q, r = np.asarray(BENCH.q_weight, dtype=float), np.atleast_2d(BENCH.r_weight)
    terminal = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [3])[3].cost_matrix
    monkeypatch.setattr(rollout, "_CHUNK", chunk)
    for h in (3, 6):
        costs, gains, _ = _out_of_place_tree(dm.a, dm.b, q, r, terminal, h)
        got = _backward_tree(dm.a, dm.b, q, r, terminal, h,
                             np.ascontiguousarray(dm.proc_cov.T), err_cov)
        assert [got[0].tobytes(), got[1].tobytes()] == [costs[2**h - 1:].tobytes(),
                                                        gains.tobytes()]
        tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, terminal, h, 3, err_cov)
        _assert_tables_match_flat_recursion(tables, dm, BENCH.q_weight, BENCH.r_weight,
                                            terminal, err_cov)


@pytest.mark.parametrize("h,p", sorted({(h, p) for h in range(1, 11) for p in (1, h)}))
def test_in_place_tree_matches_out_of_place_build(benchmark_model, benchmark_steady, h, p):
    # the two-level build keeps level 0 and the gains of the tree built out of place, and
    # takes each node's noise and estimation traces as it goes, with the same bits; p moves
    # only the base, which the tree does not depend on
    dm = benchmark_model
    err_cov = benchmark_steady[1]
    q, r = np.asarray(BENCH.q_weight, dtype=float), np.atleast_2d(BENCH.r_weight)
    terminal = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [1])[1].cost_matrix
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, terminal, h, p, err_cov)
    costs, gains, quadratics = _out_of_place_tree(dm.a, dm.b, q, r, terminal, h)
    m_count = 2**h
    proc_cov_t = np.ascontiguousarray(dm.proc_cov.T)
    expected = (costs[m_count - 1:], gains,
                np.einsum("sij,ij->s", costs[:m_count - 1], proc_cov_t),
                np.einsum("sij,ji->s", quadratics, err_cov))
    got = _backward_tree(dm.a, dm.b, q, r, terminal, h, proc_cov_t, err_cov)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]
    assert [tables.p0.tobytes(), tables.gains.tobytes()] == [x.tobytes() for x in expected[:2]]
    assert tables.base == _base_value(h, p)


@pytest.mark.parametrize("h", [8, 10, 12, 14])
def test_memory_estimate_bounds_the_build_peak(benchmark_model, benchmark_steady, h):
    # rows = 0 leaves the tables and build terms; numpy reports its arrays to tracemalloc
    dm = benchmark_model
    terminal = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [2])[2].cost_matrix
    tracemalloc.start()
    try:
        sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, terminal, h, 2, benchmark_steady[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = memory_estimate(h, dm.n_states, dm.n_inputs, 0)
    assert peak <= estimate
    if h == 14:
        assert estimate <= 2 * peak


def test_block_of_1000_rows_stays_under_the_estimate(benchmark_model, benchmark_steady, rng):
    # a block's scores come a chunk of patterns at a time: at h = 12, 1000 rows used to peak
    # at 93.8 MB in three (1000, 4096) arrays
    dm = benchmark_model
    terminal = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [2])[2].cost_matrix
    h, rows = 12, 1000
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, terminal, h, 2,
                             benchmark_steady[1])
    x = rng.standard_normal((rows, dm.n_states))
    theta = rng.uniform(0.0, 0.5, rows)
    peaks = []
    for call in (lambda: sr.select_pattern(tables, x, theta),
                 lambda: sr.RolloutPolicy(tables, theta).decide(x, 0)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    term = (memory_estimate(h, dm.n_states, dm.n_inputs, rows)
            - memory_estimate(h, dm.n_states, dm.n_inputs, 0))
    assert peaks[0] <= peaks[1] <= term < 4 * 2**20


def test_pattern_index_out_of_range(benchmark_tables):
    _, _, err_cov, tables = benchmark_tables
    for m in (-1, 64):
        with pytest.raises(ValueError, match="out of range"):
            tables.path_gains(m)
        with pytest.raises(ValueError, match="out of range"):
            sr.closed_loop_matrices(tables, m)


def test_deep_lookahead_tables_are_small(benchmark_model):
    # h = 14 keeps the 2^14 step-0 matrices and the 2^14 - 1 gains, not the 2^15 - 1 cost
    # matrices of the whole tree
    dm = benchmark_model
    _, err_cov, _ = sr.steady_kalman(dm)
    pol = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [7])[7]
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                             14, 7, err_cov)
    arrays = [v for v in vars(tables).values() if isinstance(v, np.ndarray)]
    assert sum(v.nbytes for v in arrays) < 3.5e6
    assert all(v.shape != (2**15 - 1, 4, 4) for v in arrays)
    assert len(tables.bits) == 2**14 and tables.p0.shape == (2**14, 4, 4)
