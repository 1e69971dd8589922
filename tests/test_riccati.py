import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import sparseroll as sr
from sparseroll.exceptions import IllConditionedError, NonConvergenceError, NonFiniteError
from sparseroll.riccati import COND_LIMIT, _riccati_map, _stack, riccati_residual, solve_dares

BENCH = sr.ExperimentConfig()  # the benchmark study
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def scalar_problem(a=1.0, b=1.0, q=1.0, s=0.0, r=1.0):
    return sr.RiccatiProblem(
        state_matrix=[[a]], input_matrix=[[b]], state_weight=[[q]],
        cross_weight=[[s]], input_weight=[[r]],
    )


def random_problem(rng, n=3, q=2, with_cross=False):
    # Stable A plus PD Q keeps the fixed point well posed.
    a = rng.standard_normal((n, n))
    a *= 0.9 / max(1e-9, np.abs(np.linalg.eigvals(a)).max())
    b = rng.standard_normal((n, q))
    m = rng.standard_normal((n, n))
    qw = m @ m.T + 0.1 * np.eye(n)
    s = 0.05 * rng.standard_normal((n, q)) if with_cross else np.zeros((n, q))
    r = np.eye(q) + 0.1 * np.diag(rng.uniform(0, 1, q))
    return sr.RiccatiProblem(a, b, qw, s, r)


def test_scalar_golden_value():
    prob = scalar_problem()
    (sol,) = solve_dares([prob])
    assert abs(sol.cost_matrix[0, 0] - PHI) < 1e-10
    assert abs(sol.gain[0, 0] - (-PHI / (PHI + 1.0))) < 1e-10
    assert riccati_residual(prob, sol.cost_matrix) < 1e-10


def test_lyapunov_case_zero_input():
    (sol,) = solve_dares([scalar_problem(a=0.5, b=0.0, q=1.0, r=1.0)])
    assert abs(sol.cost_matrix[0, 0] - 4.0 / 3.0) < 1e-10
    assert sol.gain[0, 0] == 0.0


def test_benchmark_lifted_p1_residual(benchmark_model):
    dm = benchmark_model
    prob = sr.RiccatiProblem(dm.a, dm.b, BENCH.q_weight, np.zeros((4, 1)), BENCH.r_weight)
    (sol,) = solve_dares([prob])
    assert riccati_residual(prob, sol.cost_matrix) < 1e-8
    # independent residual: re-apply the map inline
    p = sol.cost_matrix
    btp = dm.b.T @ p
    gain = -np.linalg.solve(btp @ dm.b + BENCH.r_weight, btp @ dm.a)
    p_next = BENCH.q_weight + dm.a.T @ p @ dm.a + (dm.a.T @ p @ dm.b) @ gain
    resid = np.linalg.norm(p_next - p, "fro") / np.linalg.norm(p, "fro")
    assert resid < 1e-9


def test_solution_symmetric(rng):
    for _ in range(5):
        (sol,) = solve_dares([random_problem(rng, with_cross=True)])
        p = sol.cost_matrix
        assert np.linalg.norm(p - p.T, "fro") < 1e-10 * np.linalg.norm(p, "fro")


def test_positive_definite_under_observability(rng):
    # PD state weight makes (A, Q^{1/2}) observable; the solution is PD.
    for _ in range(5):
        prob = random_problem(rng)
        (sol,) = solve_dares([prob])
        assert np.linalg.eigvalsh(sol.cost_matrix).min() > 0.0


def test_matches_scipy_dare(rng):
    prob = random_problem(rng, with_cross=True)
    (sol,) = solve_dares([prob], tol=1e-13)
    ref = sla.solve_discrete_are(prob.state_matrix, prob.input_matrix,
                                 prob.state_weight, prob.input_weight, s=prob.cross_weight)
    assert np.allclose(sol.cost_matrix, ref, rtol=1e-8, atol=1e-10)


def test_state_weight_monotonicity(rng):
    for _ in range(5):
        prob = random_problem(rng)
        base = solve_dares([prob])[0].cost_matrix
        eps = 0.3
        bumped = sr.RiccatiProblem(
            prob.state_matrix, prob.input_matrix,
            prob.state_weight + eps * np.eye(len(prob.state_matrix)),
            prob.cross_weight, prob.input_weight,
        )
        inflated = solve_dares([bumped])[0].cost_matrix
        assert np.linalg.eigvalsh(inflated - base).min() > -1e-9


def test_residual_checked_independently(rng):
    prob = random_problem(rng, with_cross=True)
    (sol,) = solve_dares([prob], tol=1e-12)
    assert riccati_residual(prob, sol.cost_matrix) < 1e-11


def lifted_pair(a, b, p):
    """(A^p, A^(p-1) B), multiplied up as build_lifted does."""
    a, power = np.asarray(a, dtype=float), np.eye(len(a))
    for _ in range(p - 1):
        power = a @ power
    return a @ power, power @ np.asarray(b, dtype=float)


def rotation(w, r=1.0):
    return r * np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]])


def observability_matrix_rank_test(a, c_half):
    """Full rank of the stacked observability matrix: an independent oracle of observability."""
    a, c = np.atleast_2d(a), np.atleast_2d(c_half)
    blocks, row = [], c
    for _ in range(len(a)):
        blocks.append(row)
        row = row @ a
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return bool(s.size > 0 and s[0] > 0.0 and np.sum(s > 1e-9 * s[0]) == len(a))


def observable(a, c):
    return sr.uncontrollable_mode(np.transpose(a), np.transpose(c), unstable_only=False) is None


def test_observability_examples(benchmark_model):
    assert not observable(np.eye(2), np.array([[1.0, 0.0]]))
    assert observable(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert observable(benchmark_model.a, BENCH.q_weight)


def test_pathological_sampling_examples(benchmark_model):
    # a controllable pair whose lifted pair (A^p, A^(p-1) B) loses the modes that alias
    b = [[1.0], [1.0]]
    assert sr.uncontrollable_mode(np.diag([1.0, -1.0]), b) is None
    assert sr.uncontrollable_mode(*lifted_pair(np.diag([1.0, -1.0]), b, 2)) == 1.0
    assert sr.uncontrollable_mode(*lifted_pair(np.diag([0.5, 0.9]), np.zeros((2, 1)), 3)) is None
    dm = benchmark_model
    for p in (1, 2, 3, 6, 7):
        assert sr.uncontrollable_mode(*lifted_pair(dm.a, dm.b, p)) is None, p
    for p in (5, 10):
        assert sr.uncontrollable_mode(*lifted_pair(dm.a, dm.b, p)) is not None, p
    # oscillator pair aliasing under its own rotation
    rot = rotation(2.0 * np.pi / 5.0)
    assert sr.uncontrollable_mode(rot, [[1.0], [0.0]]) is None
    mode = sr.uncontrollable_mode(*lifted_pair(rot, [[1.0], [0.0]], 5))
    assert abs(mode - 1.0) < 1e-9


def test_zero_input_is_rejected_whatever_the_scale_of_a():
    # B = 0 with A^3 = I under a similarity: every singular value of the lifted pencil is
    # roundoff, so a floor relative to the largest one would pass the pair
    rng = np.random.Generator(np.random.Philox(7))
    t = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    a = t @ rotation(2.0 * np.pi / 3.0) @ np.linalg.inv(t)
    a3, b3 = lifted_pair(a, np.zeros((2, 1)), 3)
    assert np.abs(a3 - np.eye(2)).max() < 1e-12
    assert sr.uncontrollable_mode(a3, b3) is not None
    assert sr.uncontrollable_mode(a, np.zeros((2, 1))) is not None


def test_rank_test_of_a_pair_that_is_not_finite():
    with pytest.raises(NonFiniteError):
        sr.uncontrollable_mode([[np.inf]], [[1.0]])
    with pytest.raises(NonFiniteError):
        sr.uncontrollable_mode([[2.0]], [[np.nan]])


def similarity(rng, n):
    """A random transform with condition number at most e^1.4."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(np.exp(rng.uniform(-0.7, 0.7, n))) @ q2


def planted(seed, n1, spectrum, n_inputs):
    """(A, B) with a random controllable n1-block and an uncontrollable block, under a
    random similarity; the block is stable (|lambda| <= 0.95), at +-1 or a rotation."""
    rng = np.random.Generator(np.random.Philox(seed))
    if spectrum == "rotation":
        a2 = rotation(rng.uniform(0.1, np.pi - 0.1))
    elif spectrum == "unit":
        a2 = np.diag(rng.choice([-1.0, 1.0], rng.integers(1, 4 - n1)))
    elif rng.random() < 0.5:
        a2 = rotation(rng.uniform(0.0, np.pi), rng.uniform(0.0, 0.95))
    else:
        a2 = np.diag(rng.uniform(-0.95, 0.95, rng.integers(1, 4 - n1)))
    n2 = len(a2)
    a = np.block([[rng.standard_normal((n1, n1)), rng.standard_normal((n1, n2))],
                  [np.zeros((n2, n1)), a2]])
    b = np.vstack([rng.standard_normal((n1, n_inputs)), np.zeros((n2, n_inputs))])
    t = similarity(rng, n1 + n2)
    return t @ a @ np.linalg.inv(t), t @ b


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n1=st.integers(0, 2), n_inputs=st.integers(1, 2),
       spectrum=st.sampled_from(["stable", "unit", "rotation"]))
def test_rank_test_finds_an_uncontrollable_block_iff_it_is_unstable(seed, n1, spectrum,
                                                                    n_inputs):
    a, b = planted(seed, n1, spectrum, n_inputs)
    mode = sr.uncontrollable_mode(a, b)
    if spectrum == "stable":
        assert mode is None
    else:
        assert mode is not None and abs(abs(mode) - 1.0) < 1e-6
    # read as (A', C'), the pair is unobservable at the planted block whatever its |lambda|,
    # and the rank of the stacked observability matrix agrees
    assert not observable(a.T, b.T) and not observability_matrix_rank_test(a.T, b.T)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), outputs=st.integers(1, 4))
def test_observability_agrees_with_the_observability_matrix(seed, n, outputs):
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.standard_normal((n, n))
    c = rng.standard_normal((min(outputs, n), n))
    assert observable(a, c) == observability_matrix_rank_test(a, c)


def test_problem_validation():
    with pytest.raises(ValueError):
        scalar_problem(r=0.0)
    with pytest.raises(ValueError):
        scalar_problem(q=-1.0)


def test_nonconvergence_reports_residual():
    # unobservable unstable mode: the iteration diverges
    prob = scalar_problem(a=2.0, b=0.0, q=1.0, r=1.0)
    (error,) = solve_dares([prob], max_iter=50)
    assert isinstance(error, NonConvergenceError)
    assert error.iterations == 50
    assert error.residual is not None


def test_ill_conditioned_inner_inverse():
    # rank-one B'PB with a vanishing input weight leaves a near-null direction
    prob = sr.RiccatiProblem(
        state_matrix=np.eye(2) * 0.5,
        input_matrix=np.array([[1.0, 1.0], [0.0, 0.0]]),
        state_weight=np.eye(2),
        cross_weight=np.zeros((2, 2)),
        input_weight=1e-15 * np.eye(2),
    )
    (error,) = solve_dares([prob])
    assert isinstance(error, IllConditionedError)


def _reference_dare(prob, tol=1e-10, max_iter=100_000):
    """The one-problem fixed-point loop the lockstep solver replaced, kept as its reference."""
    def step(p):
        a, b = prob.state_matrix, prob.input_matrix
        btp = b.T @ p
        denom = btp @ b + prob.input_weight
        cond = np.linalg.cond(denom)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise IllConditionedError(
                f"inner inverse condition number {cond:.3e} exceeds {COND_LIMIT:.1e}")
        gain = -np.linalg.solve(denom, btp @ a + prob.cross_weight.T)
        p_next = prob.state_weight + a.T @ p @ a + (a.T @ p @ b + prob.cross_weight) @ gain
        return 0.5 * (p_next + p_next.T), gain

    p = prob.state_weight.copy()
    for it in range(1, max_iter + 1):
        p_next, gain = step(p)
        rel = np.linalg.norm(p_next - p, "fro") / max(1.0, np.linalg.norm(p_next, "fro"))
        p = p_next
        if rel < tol:
            return sr.RiccatiSolution(p, gain, it)
    raise NonConvergenceError(
        f"Riccati iteration did not converge in {max_iter} iterations (residual {rel:.3e})",
        residual=float(rel), iterations=max_iter)


def _solo(prob, **kwargs):
    """What ``prob`` gives solved alone: the batch of one."""
    (result,) = solve_dares([prob], **kwargs)
    return result


def _outcome(solve, *args, **kwargs):
    """What a solve gives, its iteration count last: the solution's bits, or the error's data."""
    try:
        result = solve(*args, **kwargs)
    except (IllConditionedError, NonConvergenceError, NonFiniteError) as exc:
        result = exc
    if isinstance(result, Exception):
        return (type(result), str(result), getattr(result, "residual", None),
                getattr(result, "iterations", None))
    return result.cost_matrix.tobytes(), result.gain.tobytes(), result.iterations


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 4), q=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       k=st.integers(1, 5))
def test_lockstep_matches_each_problem_alone(n, q, seed, k):
    # each problem's P, gain and count are its own, bit for bit, and those of the
    # one-problem loop the lockstep replaced
    rng = np.random.default_rng(seed)
    probs = [random_problem(rng, n, q, with_cross=True) for _ in range(k)]
    for prob, got in zip(probs, solve_dares(probs)):
        alone = _outcome(_solo, prob)
        assert _outcome(lambda: got) == alone == _outcome(_reference_dare, prob)
        assert isinstance(got, sr.RiccatiSolution)


def test_lockstep_failures_match_each_problem_alone(rng):
    # an ill-conditioned, a diverging and a good problem keep their own outcome in any order
    ill = sr.RiccatiProblem(np.eye(2) * 0.5, np.array([[1.0, 1.0], [0.0, 0.0]]), np.eye(2),
                            np.zeros((2, 2)), 1e-15 * np.eye(2))
    diverging = sr.RiccatiProblem(2.0 * np.eye(2), np.zeros((2, 2)), np.eye(2),
                                  np.zeros((2, 2)), np.eye(2))
    good = random_problem(rng, n=2, q=2, with_cross=True)
    alone = [_outcome(_solo, prob, max_iter=50) for prob in (ill, diverging, good)]
    assert [a[0] for a in alone[:2]] == [IllConditionedError, NonConvergenceError]
    assert alone[1][-1] == 50 and alone[2][-1] < 50
    assert alone == [_outcome(_reference_dare, prob, max_iter=50)
                     for prob in (ill, diverging, good)]
    for order in itertools.permutations(range(3)):
        got = solve_dares([(ill, diverging, good)[i] for i in order], max_iter=50)
        assert [_outcome(lambda r=r: r) for r in got] == [alone[i] for i in order]


def test_nan_inner_matrix_fails_only_its_problem():
    # with B = 0 the diverging P overflows; it fails at its first non-finite iterate, before
    # B'PB can turn NaN, and the other problem, still iterating, keeps its solution
    diverging = scalar_problem(a=2.0, b=0.0)
    slow = scalar_problem(a=1.0, b=1.0, q=1e-4)
    with np.errstate(over="ignore", invalid="ignore"):
        got = solve_dares([diverging, slow])
        alone = [_outcome(_solo, prob) for prob in (diverging, slow)]
    assert isinstance(got[0], NonFiniteError) and "nan" in str(got[0])
    assert [_outcome(lambda r=r: r) for r in got] == alone
    assert alone[1][-1] > 600  # still in the stack when the other one fails


def test_overflowing_problem_fails_at_its_first_nonfinite_iterate(rng):
    # a mode that B cannot reach grows until the iterate's norm overflows, where the relative
    # step finite / inf = 0 would pass the stop test; that problem fails there with
    # NonFiniteError, alone or stacked, a good problem in its stack keeps its solo bits, and
    # no warning escapes, also from a map that overflows (a = 1e200)
    diverging = [sr.RiccatiProblem(np.diag([a, 0.5]), [[0.0], [1.0]], np.eye(2),
                                   np.zeros((2, 1)), [[1.0]]) for a in (1.5, 1.1, 1e200)]
    good = random_problem(rng, n=2, q=1, with_cross=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = [_outcome(_solo, prob) for prob in (*diverging, good)]
        stacked = [solve_dares([diverging[0], good, diverging[1], diverging[2]]),
                   solve_dares([diverging[2], good, *diverging[1::-1]])]
    for outcome, it in zip(alone, (437, 1853, 1)):
        assert outcome == (NonFiniteError, f"Riccati iterate norm is inf/nan at iteration {it}",
                           None, None)
    assert alone[3] == _outcome(_reference_dare, good) and alone[3][0] != NonFiniteError
    assert [_outcome(lambda r=r: r) for r in stacked[0]] == [alone[0], alone[3], *alone[1:3]]
    assert [_outcome(lambda r=r: r) for r in stacked[1]] == [alone[2], alone[3], *alone[1::-1]]


def test_solution_independent_of_memory_layout(benchmark_model):
    # the model's A and B are strided views of the exponential's block
    dm = benchmark_model
    assert not dm.b.flags.c_contiguous
    args = (BENCH.q_weight, np.zeros((4, 1)), BENCH.r_weight)
    strided = sr.RiccatiProblem(dm.a, dm.b, *args)
    contiguous = sr.RiccatiProblem(np.ascontiguousarray(dm.a), np.ascontiguousarray(dm.b), *args)
    fortran = sr.RiccatiProblem(np.asfortranarray(dm.a), np.asfortranarray(dm.b), *args)
    assert all(prob.state_matrix.flags.c_contiguous and prob.input_matrix.flags.c_contiguous
               for prob in (strided, fortran))
    outcomes = [_outcome(_solo, prob) for prob in (strided, contiguous, fortran)]
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_lockstep_rejects_mismatched_shapes_and_iteration_caps(rng):
    with pytest.raises(ValueError, match="same shape"):
        solve_dares([random_problem(rng, n=3, q=2), random_problem(rng, n=3, q=1)])
    with pytest.raises(ValueError, match="same shape"):
        solve_dares([random_problem(rng, n=2, q=1), random_problem(rng, n=3, q=1)])
    assert solve_dares([]) == []
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            solve_dares([scalar_problem()], max_iter=max_iter)


def test_degenerate_scalar_inner_matrices_end_as_with_the_svd():
    # a 1x1 inner matrix d = B'PB + R skips the SVD only when it is finite and nonzero; every
    # other d keeps the condition number np.linalg.cond gives it, and its error message
    overflow = _outcome(_solo, scalar_problem(b=1e200))  # d = +inf
    assert overflow == (IllConditionedError,
                        "inner inverse condition number inf exceeds 1.0e+12", None, None)
    subnormal = scalar_problem(a=0.5, b=0.0, r=1e-320)  # d = 1e-320 at every iterate
    solved = _outcome(_solo, subnormal)
    assert solved == _outcome(_reference_dare, subnormal) and solved[-1] == 17
    stack = _stack([scalar_problem()])
    for p, cond in ((-1.0, "inf"), (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "inf")):
        p_next, gain, (error,) = _riccati_map(stack, np.array([[[p]]]))  # d = p + 1
        assert p_next is None and gain is None and type(error) is IllConditionedError
        assert str(error) == f"inner inverse condition number {cond} exceeds 1.0e+12"


class SvdReached(Exception):
    pass


def test_scalar_inner_matrices_skip_the_svd(monkeypatch, benchmark_model):
    # the single-input benchmark designs every period without an SVD, with the bits of the
    # one-problem loop that takes each condition number; the two-output filter still takes it
    dm, periods = benchmark_model, (1, 2, 3, 6)
    reference = [_outcome(_reference_dare, sr.RiccatiProblem(
        lift.a_lift, lift.b_lift, lift.q_lift, lift.s_lift, lift.r_lift))
        for lift in (sr.build_lifted(dm, BENCH.q_weight, BENCH.r_weight, p) for p in periods)]

    def no_svd(*args, **kwargs):
        raise SvdReached
    monkeypatch.setattr(np.linalg, "cond", no_svd)
    designs = sr.design_periods(dm, BENCH.q_weight, BENCH.r_weight, periods)
    assert [(pol.cost_matrix.tobytes(), pol.feedback_gain.tobytes())
            for pol in designs.values()] == [outcome[:2] for outcome in reference]
    assert dm.c.shape[0] == 2
    with pytest.raises(SvdReached):
        sr.steady_kalman(dm)
