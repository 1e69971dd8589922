import math

import numpy as np
import pytest

import sparseroll as sr
from sparseroll.exceptions import HorizonMismatchError, NonFiniteError

BENCH = sr.ExperimentConfig()  # the benchmark study
PHI = (1.0 + math.sqrt(5.0)) / 2.0
THETA = 0.2  # actuation weight the benchmark tables are scored at


def _flat(tables):
    """The tables in the per-pattern layout: costs (M, h+1, n, n), gains, gain quadratics."""
    nodes = tables.nodes(np.arange(1, len(tables.bits) + 1))
    actuated = (tables.bits == 1)[..., None, None]
    return (tables.cost_matrices[nodes],
            np.where(actuated, tables.gains[nodes[:, 1:]], 0.0),
            np.where(actuated, tables.gain_quadratics[nodes[:, 1:]], 0.0))


def _flat_recursion(dm, q_weight, r_weight, terminal, h, p, err_cov):
    """The per-pattern backward recursion that the suffix tree replaced, as it was.

    Returns bits, cost matrices (M, h+1, n, n), gains (M, h, q, n), gain
    quadratics (M, h, n, n) and noise scores (M,) in pattern order.
    """
    a, b = dm.a, dm.b
    n, nu = dm.n_states, dm.n_inputs
    q = np.atleast_2d(np.asarray(q_weight, dtype=float))
    r = np.atleast_2d(np.asarray(r_weight, dtype=float))
    terminal = np.atleast_2d(np.asarray(terminal, dtype=float))
    err_cov = np.asarray(err_cov, dtype=float)
    cov_seq = np.broadcast_to(err_cov, (h, n, n))
    bits = sr.pattern_bits(h, p)
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
    noise_trace = np.einsum("mtij,ji->mt", cost_matrices[:, 1:], dm.proc_cov)
    est_trace = np.einsum("mtij,tji->mt", gain_quadratics, cov_seq)
    noise_score = (noise_trace + est_trace).sum(axis=1)
    return bits, cost_matrices, gains, gain_quadratics, noise_score


@pytest.fixture(scope="module")
def benchmark_tables(benchmark_model):
    dm = benchmark_model
    _, err_cov, _ = sr.steady_kalman(dm)
    pol = sr.design_periodic(dm, BENCH.q_weight, BENCH.r_weight, 6)
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                             6, 6, err_cov)
    return dm, pol, err_cov, tables


def test_enumeration_h2_p2():
    # pattern m is row m - 1 (the base pattern first); its actuation count is the row sum
    bits = sr.pattern_bits(2, 2)
    assert bits.dtype == np.int8
    assert [bits[m - 1].tolist() for m in (1, 2, 3, 4)] == [[1, 0], [0, 0], [0, 1], [1, 1]]
    assert [int(bits[m - 1].sum()) for m in (1, 2, 3, 4)] == [1, 0, 1, 2]


def test_enumeration_h1_p1():
    assert sr.pattern_bits(1, 1).tolist() == [[1], [0]]


def test_enumeration_h6_p6():
    bits = sr.pattern_bits(6, 6)
    assert bits.shape == (64, 6)  # indices 1..64
    assert bits[0].tolist() == [1, 0, 0, 0, 0, 0]
    assert len({tuple(row) for row in bits.tolist()}) == 64


def test_enumeration_horizon_mismatch():
    with pytest.raises(HorizonMismatchError):
        sr.pattern_bits(5, 2)


def test_base_pattern_recovers_terminal(benchmark_tables):
    _, pol, _, tables = benchmark_tables
    resid = (np.linalg.norm(tables.cost_matrix(1, 0) - pol.cost_matrix, "fro")
             / np.linalg.norm(pol.cost_matrix, "fro"))
    assert resid < 1e-8
    assert np.array_equal(_flat(tables)[0][:, 6], np.broadcast_to(pol.cost_matrix, (64, 4, 4)))


def test_scalar_all_ones_single_step_fixed_point(scalar_model):
    # one actuated backward step from the fixed point stays at the fixed point
    terminal = np.array([[PHI]])
    tables = sr.build_tables(scalar_model, [[1.0]], [[1.0]], terminal, 1, 1,
                             err_cov=[[PHI - 1.0]])
    actuated = tables.cost_matrix(1, 0)[0, 0]
    assert abs(actuated - PHI) < 1e-12
    by_hand = 1.0 + PHI - PHI**2 / (PHI + 1.0)
    assert abs(actuated - by_hand) < 1e-12


def test_trigger_score_values(benchmark_model):
    dm = benchmark_model
    _, err_cov, _ = sr.steady_kalman(dm)
    pol = sr.design_periodic(dm, BENCH.q_weight, BENCH.r_weight, 2)
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
        float(np.trace(pol.cost_matrix @ lift.d_lift @ lift.proc_cov_lift @ lift.d_lift.T))
        + float(np.trace(pol.gain_quadratic @ err_cov))
        + lift.d_avg
    )
    gamma1_closed = cap_h * theta
    assert abs(tables.noise_score[0] - beta1_closed) < 1e-8 * abs(beta1_closed)
    assert abs(theta * tables.trigger_weight[0] - gamma1_closed) < 1e-12

    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.standard_normal(4)
        gap = (sr.pattern_scores(tables, x, theta)[0]
               - float(np.trace(pol.cost_matrix @ err_cov)) - beta1_closed - gamma1_closed)
        assert abs(gap - x @ pol.cost_matrix @ x) < 1e-8 * max(1.0, abs(gap))


def test_score_at_zero_estimate(benchmark_tables):
    _, _, err_cov, tables = benchmark_tables
    for m in (1, 5, 64):
        expected = (float(np.trace(tables.cost_matrix(m, 0) @ err_cov))
                    + tables.noise_score[m - 1] + THETA * tables.trigger_weight[m - 1])
        assert abs(sr.pattern_scores(tables, np.zeros(4), THETA)[m - 1]
                   - expected) < 1e-12


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
    assert np.array_equal(bits, tables.bits[picks - 1, 0])
    assert np.array_equal(pol._block[0], tables.bits[picks - 1])


def test_huge_theta_selects_all_zero(benchmark_model):
    dm = benchmark_model
    _, err_cov, _ = sr.steady_kalman(dm)
    pol = sr.design_periodic(dm, BENCH.q_weight, BENCH.r_weight, 6)
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                             6, 6, err_cov)
    m = sr.select_pattern(tables, np.array([1.0, -1.0, 0.3, 0.2]), 1e9)
    assert tables.bits[m - 1].sum() == 0


def test_lookahead_dominance(benchmark_tables, rng):
    _, _, _, tables = benchmark_tables
    for _ in range(50):
        x = rng.standard_normal(4) * rng.uniform(0.05, 3.0)
        scores = sr.pattern_scores(tables, x, THETA)
        assert scores.min() <= scores[0] + 1e-12


def test_theta_monotone_actuation(benchmark_model, rng):
    dm = benchmark_model
    _, err_cov, _ = sr.steady_kalman(dm)
    pol = sr.design_periodic(dm, BENCH.q_weight, BENCH.r_weight, 6)
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                             6, 6, err_cov)
    for _ in range(25):
        t1 = rng.uniform(0.01, 0.5)
        t2 = t1 + rng.uniform(0.01, 0.5)
        x = rng.standard_normal(4) * rng.uniform(0.05, 2.0)
        m1 = sr.select_pattern(tables, x, t1)
        m2 = sr.select_pattern(tables, x, t2)
        assert tables.bits[m2 - 1].sum() <= tables.bits[m1 - 1].sum()


def test_cost_matrices_symmetric_psd(benchmark_tables):
    _, _, _, tables = benchmark_tables
    pm = _flat(tables)[0]
    assert np.abs(pm - np.swapaxes(pm, -1, -2)).max() < 1e-12
    eigs = np.linalg.eigvalsh(pm.reshape(-1, 4, 4))
    assert eigs.min() > -1e-9


def test_gain_quadratics_zero_on_idle_steps(benchmark_tables):
    _, _, _, tables = benchmark_tables
    _, gains, gain_quadratics = _flat(tables)
    for mi, bits in enumerate(tables.bits.tolist()):
        for s, bit in enumerate(bits):
            if not bit:
                assert np.all(gains[mi, s] == 0.0)
                assert np.all(tables.gain(mi + 1, s) == 0.0)
                assert np.all(gain_quadratics[mi, s] == 0.0)


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
    pol = sr.design_periodic(dm, [[1.0]], [[1.0]], 1)
    tables = sr.build_tables(dm, [[1.0]], [[1.0]], pol.cost_matrix, 1, 1,
                             err_cov=err_cov)
    p_act = tables.cost_matrix(1, 0)[0, 0]
    p_idle = tables.cost_matrix(2, 0)[0, 0]
    assert p_act < p_idle  # scalar Riccati gap is positive
    for x in np.linspace(-3.0, 3.0, 25):
        if abs(x) < 1e-2:
            continue  # the gap vanishes exactly at the origin
        assert sr.select_pattern(tables, np.array([x]), 0.0) == 1
    # and the applied gain is the standard LQG feedback
    assert abs(tables.gain(1, 0)[0, 0] - pol.feedback_gain[0, 0]) < 1e-10


# the ids end in the discount 1.0 of the long-run average cost that the tables price
@pytest.mark.parametrize("h,p", [(1, 1), (6, 6), (6, 3), (10, 2)],
                         ids=["1-1-1.0", "6-6-1.0", "6-3-1.0", "10-2-1.0"])
@pytest.mark.parametrize("stacked", [False, True])
def test_tree_matches_flat_recursion(benchmark_model, h, p, stacked):
    # every (pattern, step) entry of the tree is bit-identical to the per-pattern recursion;
    # the tables take the stationary (n, n) covariance only, never a stack of h of them
    dm = benchmark_model
    _, err_cov, _ = sr.steady_kalman(dm)
    pol = sr.design_periodic(dm, BENCH.q_weight, BENCH.r_weight, p)
    if stacked:
        stack = np.stack([err_cov * (1.0 + 0.1 * t) for t in range(h)])
        with pytest.raises(ValueError, match=r"\(n, n\) filter covariance"):
            sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                            h, p, stack)
        return
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                             h, p, err_cov)
    bits, costs, gains, gain_quadratics, noise_score = _flat_recursion(
        dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix, h, p, err_cov)
    assert tables.cost_matrices.shape == (2 ** (h + 1) - 1, 4, 4)
    assert tables.gains.shape == (2**h - 1, 1, 4)
    assert np.array_equal(tables.bits, bits)
    assert np.array_equal(tables.bits, sr.pattern_bits(h, p))
    tree_costs, tree_gains, tree_quadratics = _flat(tables)
    assert np.array_equal(tree_costs, costs)
    assert np.array_equal(tree_gains, gains)
    assert np.array_equal(tree_quadratics, gain_quadratics)
    assert np.array_equal(tables.noise_score, noise_score)
    assert np.array_equal(tables.p0, costs[:, 0])
    assert np.array_equal(tables.path_gains(np.arange(1, len(bits) + 1)), gains)
    for m in range(1, min(len(bits), 64) + 1):
        for s in range(h):
            assert np.array_equal(tables.cost_matrix(m, s), costs[m - 1, s])
            assert np.array_equal(tables.gain(m, s), gains[m - 1, s])
        assert np.array_equal(tables.cost_matrix(m, h), costs[m - 1, h])


def test_pattern_index_out_of_range(benchmark_tables):
    _, _, err_cov, tables = benchmark_tables
    for m in (0, 65):
        with pytest.raises(ValueError, match="out of range"):
            tables.cost_matrix(m, 0)
        with pytest.raises(ValueError, match="out of range"):
            sr.closed_loop_matrices(tables, m)


def test_deep_lookahead_tables_are_small(benchmark_model):
    # h = 14 stores 2^15 - 1 cost matrices, not 15 * 2^14
    dm = benchmark_model
    _, err_cov, _ = sr.steady_kalman(dm)
    pol = sr.design_periodic(dm, BENCH.q_weight, BENCH.r_weight, 7)
    tables = sr.build_tables(dm, BENCH.q_weight, BENCH.r_weight, pol.cost_matrix,
                             14, 7, err_cov)
    total = sum(v.nbytes for v in vars(tables).values() if isinstance(v, np.ndarray))
    assert total < 10 * 2**20
    assert len(tables.bits) == 2**14 and tables.p0.shape == (2**14, 4, 4)
