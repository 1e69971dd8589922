import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import sparseroll as sr
from sparseroll.exceptions import (AssumptionViolatedError, ConfigError, IllConditionedError,
                                  NonFiniteError)
from sparseroll.periodic import design_periods, period_policies
from sparseroll.riccati import solve_dares, symmetrize

BENCH = sr.ExperimentConfig()  # the benchmark study
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def test_p1_matches_unlifted_lqg(benchmark_model):
    dm = benchmark_model
    # lifting at p=1 is the exact identity on the problem data
    lift = sr.build_lifted(dm, BENCH.q_weight, BENCH.r_weight, 1)
    assert np.array_equal(lift.a_lift, dm.a) and np.array_equal(lift.b_lift, dm.b)
    assert np.array_equal(lift.q_lift, np.atleast_2d(BENCH.q_weight))
    pol = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [1])[1]
    prob = sr.RiccatiProblem(dm.a, dm.b, BENCH.q_weight, np.zeros((4, 1)), BENCH.r_weight)
    (sol,) = solve_dares([prob])
    assert np.allclose(pol.feedback_gain, sol.gain, rtol=0, atol=1e-12)
    assert np.allclose(pol.cost_matrix, sol.cost_matrix, rtol=1e-12)


def test_scalar_analytic_design(scalar_model):
    pol = sr.design_periods(scalar_model, [[1.0]], [[1.0]], [1])[1]
    assert abs(pol.cost_matrix[0, 0] - PHI) < 1e-10
    assert abs(pol.feedback_gain[0, 0] + PHI / (PHI + 1.0)) < 1e-10


def test_benchmark_p6_positive_definite(benchmark_model):
    pol = sr.design_periods(benchmark_model, BENCH.q_weight, BENCH.r_weight, [6])[6]
    assert np.linalg.eigvalsh(pol.cost_matrix).min() > 0.0


def test_design_rejects_pathological_period():
    dm = sr.DiscreteModel(a=np.diag([1.0, -1.0]), b=[[1.0], [1.0]], c=np.eye(2),
                          proc_cov=np.eye(2), meas_cov=np.eye(2),
                          init_mean=np.zeros(2), init_cov=np.eye(2))
    design = sr.design_periods(dm, np.eye(2), [[1.0]], [2])[2]
    assert isinstance(design, AssumptionViolatedError)
    assert str(design) == "pathological sampling at period p=2: mode 1 of A^2 is uncontrollable"


def test_stable_modes_that_alias_do_not_stop_a_design():
    # 0.5 and -0.5 coincide in A^2, but a stable mode needs no input: the lifted pair stays
    # stabilizable and the period-2 policy is designed
    dm = sr.DiscreteModel(a=np.diag([0.5, -0.5]), b=[[1.0], [1.0]], c=np.eye(2),
                          proc_cov=np.eye(2), meas_cov=np.eye(2),
                          init_mean=np.zeros(2), init_cov=np.eye(2))
    pol = sr.design_periods(dm, np.eye(2), [[1.0]], [2])[2]
    assert pol.period == 2 and np.linalg.eigvalsh(pol.cost_matrix).min() > 0.0


def test_unstabilizable_pair_fails_every_period():
    dm = sr.DiscreteModel(a=np.diag([1.5, 0.5]), b=[[0.0], [1.0]], c=np.eye(2),
                          proc_cov=np.eye(2), meas_cov=np.eye(2),
                          init_mean=np.zeros(2), init_cov=np.eye(2))
    designs = design_periods(dm, np.eye(2), [[1.0]], [1, 2])
    for p in (1, 2):
        assert isinstance(designs[p], AssumptionViolatedError)
        assert str(designs[p]) == "(A, B) must be stabilizable: mode 1.5 of A^1 is uncontrollable"


def test_observability_gate_holds_at_every_scale_of_q(benchmark_model, monkeypatch):
    # the PBH test runs on an orthonormal basis of Q's range, so a positive definite Q passes
    # however it is scaled and a Q blind to a mode fails however it is scaled.  The stub stands
    # in for the fixed point, which takes seconds at condition 1e10
    stacks = []
    monkeypatch.setattr(sr.periodic, "solve_dares", lambda problems: stacks.append(
        len(problems)) or [ValueError("not solved")] * len(problems))
    r = BENCH.r_weight
    for s in (1.0, 1e6, 1e10, 1e12, 1e200):
        for q in (np.diag([s, 1.0, 1.0, 1.0]), s * np.diag([1.0, 0.0, 0.0, 0.0])):
            designs = design_periods(benchmark_model, q, r, [1, 2])
            assert [str(d) for d in designs.values()] == ["not solved"] * 2, s
    blind = sr.DiscreteModel(a=np.diag([1.2, 0.5, 1.0]), b=[[1.0], [1.0], [1.0]], c=np.eye(3),
                             proc_cov=np.eye(3), meas_cov=np.eye(3),
                             init_mean=np.zeros(3), init_cov=np.eye(3))
    for s in (1.0, 1e10, 1e200):
        designs = design_periods(blind, np.diag([s, 0.0, 1.0]), [[1.0]], [1, 2])
        assert all(isinstance(d, AssumptionViolatedError) for d in designs.values())
        assert {str(d) for d in designs.values()} == {
            "(A, Q^{1/2}) must be observable: mode 0.5 is unobservable"}
    # an eigenvalue counts in the range above 3 eps lambda_max: 1e-3 next to 1e10 does
    for s in (1.0, 1e10):
        assert str(design_periods(blind, np.diag([s, 1e-3, 1.0]), [[1.0]], [1])[1]) == "not solved"
    assert stacks == [2] * 10 + [0] * 3 + [1] * 2


# Block spectra of the drawn models: real modes, and rotations at angles some period aliases
REAL_MODES = [-1.0, -0.5, 0.3, 0.9, 1.0, 1.2]
ROTATIONS = [(w, r) for w in (np.pi / 2, 2 * np.pi / 3, 2 * np.pi / 5, 1.0)
             for r in (0.8, 1.0, 1.1)]


DRAWN_MODEL = dict(
    blocks=st.lists(st.one_of(st.sampled_from(REAL_MODES), st.sampled_from(ROTATIONS)),
                    min_size=1, max_size=2),
    n_inputs=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))


def drawn_model(blocks, n_inputs, seed):
    """A model whose A is similar to the drawn block diagonal, with a random B; and the rng."""
    rng = np.random.Generator(np.random.Philox(seed))
    parts = [np.array([[mode]]) if np.isscalar(mode) else
             mode[1] * np.array([[np.cos(mode[0]), -np.sin(mode[0])],
                                 [np.sin(mode[0]), np.cos(mode[0])]]) for mode in blocks]
    n = sum(len(m) for m in parts)
    jordan = np.zeros((n, n))
    i = 0
    for m in parts:
        jordan[i:i + len(m), i:i + len(m)] = m
        i += len(m)
    t = np.linalg.qr(rng.standard_normal((n, n)))[0] @ np.diag(np.exp(rng.uniform(-0.7, 0.7, n)))
    dm = sr.DiscreteModel(a=t @ jordan @ np.linalg.inv(t), b=rng.standard_normal((n, n_inputs)),
                          c=np.eye(n), proc_cov=np.eye(n), meas_cov=np.eye(n),
                          init_mean=np.zeros(n), init_cov=np.eye(n))
    return dm, rng


@settings(max_examples=50, deadline=None)
@given(p=st.integers(1, 6), **DRAWN_MODEL)
def test_a_lifted_pair_that_passes_the_rank_test_designs(blocks, n_inputs, p, seed):
    dm, _ = drawn_model(blocks, n_inputs, seed)
    n = dm.n_states
    design = design_periods(dm, np.eye(n), np.eye(n_inputs), [p])[p]
    # the lifted pair of the rank test, with its powers from matrix_power
    lifted = (np.linalg.matrix_power(dm.a, p), np.linalg.matrix_power(dm.a, p - 1) @ dm.b)
    if sr.uncontrollable_mode(dm.a, dm.b) is None and sr.uncontrollable_mode(*lifted) is None:
        assert isinstance(design, sr.PeriodicPolicy), design
    else:
        assert isinstance(design, AssumptionViolatedError)


@settings(max_examples=50, deadline=None)
@given(q_rank=st.integers(0, 4), candidates=st.sets(st.integers(1, 6), min_size=1),
       rollout_p=st.integers(1, 6), **DRAWN_MODEL)
def test_load_and_design_reject_the_same_periods_with_the_same_message(
        tmp_path_factory, blocks, n_inputs, seed, q_rank, candidates, rollout_p):
    # config loading and design_periods gate on one test: a file config fails to load exactly
    # when some period its methods read fails its design structurally, with that message.
    # The stub stands in for the fixed point, which the gate runs before
    dm, rng = drawn_model(blocks, n_inputs, seed)
    n = dm.n_states
    g = rng.standard_normal((n, min(q_rank, n)))
    q = symmetrize(g @ g.T)  # positive semidefinite of rank q_rank (at most n)
    model = {name: getattr(dm, name).tolist() for name in
             ("a", "b", "c", "proc_cov", "meas_cov", "init_mean", "init_cov")}
    path = tmp_path_factory.mktemp("drawn") / "model.yaml"
    path.write_text(yaml.safe_dump(model))
    cfg = sr.ExperimentConfig(model_source="matrices-from-file", model_file=str(path),
                              q_weight=q, r_weight=np.eye(n_inputs), methods=("periodic",),
                              candidates=tuple(sorted(candidates)), h=rollout_p, p=rollout_p,
                              horizon_steps=60, trials=1, theta_grid=(0.1,))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sr.periodic, "solve_dares",
                      lambda problems: [ValueError("not solved")] * len(problems))
        designs = design_periods(cfg._model(), q, cfg.r_weight,
                                 set().union(*cfg.method_periods.values()))
        failures = [d for d in designs.values()
                    if isinstance(d, (AssumptionViolatedError, NonFiniteError))]
        if failures:
            with pytest.raises(ConfigError) as err:
                cfg.build_model()
            assert str(err.value) == str(failures[0])
        else:
            assert np.array_equal(cfg.build_model().a, dm.a)


def test_gain_first_order_optimality(benchmark_model):
    for p in (1, 3, 6, 2):
        pol = sr.design_periods(benchmark_model, BENCH.q_weight, BENCH.r_weight, [p])[p]
        lift = sr.build_lifted(benchmark_model, BENCH.q_weight, BENCH.r_weight, p)
        stationarity = (
            (lift.b_lift.T @ pol.cost_matrix @ lift.b_lift + lift.r_lift) @ pol.feedback_gain
            + (lift.b_lift.T @ pol.cost_matrix @ lift.a_lift + lift.s_lift.T)
        )
        assert np.abs(stationarity).max() < 1e-9


def test_policy_carries_its_lifted_system(benchmark_model):
    # the lifted system the gain was designed on, the one its average cost reads
    for p in (1, 3):
        pol = sr.design_periods(benchmark_model, BENCH.q_weight, BENCH.r_weight, [p])[p]
        lift = sr.build_lifted(benchmark_model, BENCH.q_weight, BENCH.r_weight, p)
        assert pol.lifted.period == p and pol.lifted.d_avg == lift.d_avg
        for name in ("a_lift", "b_lift", "noise_cov_lift", "q_lift", "s_lift", "r_lift"):
            assert np.array_equal(getattr(pol.lifted, name), getattr(lift, name)), name


def test_average_cost_degenerate_terms(scalar_model):
    pol = sr.design_periods(scalar_model, [[1.0]], [[1.0]], [1])[1]
    cost = sr.periodic_average_cost(pol, err_cov=[[0.0]], theta=0.0)
    expected = np.trace(pol.cost_matrix @ scalar_model.proc_cov)
    assert abs(cost - expected) < 1e-12


def test_average_cost_theta_slope(benchmark_model, benchmark_steady):
    _, err_cov, _ = benchmark_steady
    for p in (1, 4):
        pol = sr.design_periods(benchmark_model, BENCH.q_weight, BENCH.r_weight, [p])[p]
        c1 = sr.periodic_average_cost(pol, err_cov, theta=0.0)
        c2 = sr.periodic_average_cost(pol, err_cov, theta=0.4)
        assert abs((c2 - c1) - 0.4 / p) < 1e-14


def test_p1_average_cost_is_classic_lqg(benchmark_model, benchmark_steady):
    _, err_cov, _ = benchmark_steady
    pol = sr.design_periods(benchmark_model, BENCH.q_weight, BENCH.r_weight, [1])[1]
    cost = sr.periodic_average_cost(pol, err_cov, theta=0.0)
    classic = (np.trace(pol.cost_matrix @ benchmark_model.proc_cov)
               + np.trace(pol.gain_quadratic @ err_cov))
    assert abs(cost - classic) < 1e-12


def test_average_cost_monte_carlo_cross_check(stationary_benchmark, benchmark_steady):
    # long single-run average against the closed form, stationary start
    dm = stationary_benchmark
    gain, err_cov, _ = benchmark_steady
    p, theta = 2, 0.2
    pol = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, [p])[p]
    formula = sr.periodic_average_cost(pol, err_cov, theta)

    n_steps = 1_000_000
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(99)))
    lw = np.linalg.cholesky(dm.proc_cov)
    lv = np.linalg.cholesky(dm.meas_cov)
    lx = np.linalg.cholesky(dm.init_cov)
    w_all = gen.standard_normal((n_steps, 4)) @ lw.T
    v_all = gen.standard_normal((n_steps + 1, 2)) @ lv.T
    a, b, c = dm.a, dm.b, dm.c
    q, r = BENCH.q_weight, BENCH.r_weight
    f = pol.feedback_gain
    igc = np.eye(4) - gain @ c

    x = dm.init_mean + lx @ gen.standard_normal(4)
    xh = dm.init_mean + gain @ (c @ x + v_all[0] - c @ dm.init_mean)
    total = 0.0
    triggers = 0
    for k in range(n_steps):
        if k % p == 0:
            u = f @ xh
            triggers += 1
            total += x @ q @ x + u @ r @ u
        else:
            u = None
            total += x @ q @ x
        x = a @ x + w_all[k] if u is None else a @ x + b @ u + w_all[k]
        pred = a @ xh if u is None else a @ xh + b @ u
        xh = igc @ pred + gain @ (c @ x + v_all[k + 1])
    empirical = total / n_steps + theta * triggers / n_steps
    assert abs(empirical - formula) / formula < 0.01


def test_best_periodic_prefers_dense_when_control_free(rng):
    a = np.array([[1.2]])
    dm = sr.DiscreteModel(a=a, b=[[1.0]], c=[[1.0]], proc_cov=[[1.0]],
                          meas_cov=[[1.0]], init_mean=[0.0], init_cov=[[1.0]])
    _, err_cov, _ = sr.steady_kalman(dm)
    p_star, cost = sr.best_periodic(dm, [[1.0]], [[1e-6]], {1, 2}, err_cov, theta=0.0)
    assert p_star == 1
    # direct comparison of the two formula values
    costs = {}
    for p in (1, 2):
        pol = sr.design_periods(dm, [[1.0]], [[1e-6]], [p])[p]
        costs[p] = sr.periodic_average_cost(pol, err_cov, 0.0)
    assert costs[1] < costs[2]
    assert abs(cost - costs[1]) < 1e-12


def test_best_periodic_large_theta(benchmark_model, benchmark_steady):
    _, err_cov, _ = benchmark_steady
    p_star, _ = sr.best_periodic(benchmark_model, BENCH.q_weight, BENCH.r_weight,
                                 (1, 2, 3, 6), err_cov, theta=1e6)
    assert p_star == 6


def test_best_periodic_theta_table(benchmark_model, benchmark_steady):
    _, err_cov, _ = benchmark_steady
    chosen = [
        sr.best_periodic(benchmark_model, BENCH.q_weight, BENCH.r_weight,
                         BENCH.candidates, err_cov, theta)[0]
        for theta in BENCH.theta_grid
    ]
    assert chosen[0] == 1
    assert chosen[-1] == 6
    assert all(b >= a for a, b in zip(chosen, chosen[1:]))


def test_candidates_raise_the_smallest_period_failure():
    # p = 1 fails its solve (rank-one B, tiny R) and p = 2 its sampling check; designed
    # one period after another, p = 1 fails first, so its error is the one raised
    dm = sr.DiscreteModel(a=np.diag([1.0, -1.0]), b=np.ones((2, 2)), c=np.eye(2),
                          proc_cov=np.eye(2), meas_cov=np.eye(2),
                          init_mean=np.zeros(2), init_cov=np.eye(2))
    tiny_r = 1e-15 * np.eye(2)

    def policies(r_weight, periods):
        return period_policies(design_periods(dm, np.eye(2), r_weight, periods), periods)

    with pytest.raises(IllConditionedError):
        policies(tiny_r, [2, 1])
    with pytest.raises(AssumptionViolatedError, match="p=2"):
        policies(np.eye(2), [1, 2])
    with pytest.raises(AssumptionViolatedError, match="p=2"):
        policies(tiny_r, [2])
    assert list(policies(np.eye(2), [1])) == [1]
