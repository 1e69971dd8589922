"""Discrete-time algebraic Riccati equations and structural checks.

Every design here solves the cross-weighted equation

    P = Q + A'PA - (A'PB + S)(B'PB + R)^{-1} (B'PA + S'),

with Q >= 0 and R > 0.  One :func:`solve_dares` stack solves all of a design's
equations; the Kalman filter's is the dual problem (A', C', W, 0, V).  One rank
test, :func:`uncontrollable_mode`, checks the structural assumptions that gate
every design built on this module.

All functions are pure; returned matrices are freshly allocated.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .exceptions import IllConditionedError, NonConvergenceError, NonFiniteError

# Relative tolerance used for symmetry / definiteness validation of inputs.
SYM_TOL = 1e-8

# Condition-number ceiling for the inner (B'PB + R) inverse.
COND_LIMIT = 1e12

# Singular-value floor of the PBH rank test, relative to the spectral norms of the pair.
RANK_TOL = 1e-9

# Distance inside the unit circle within which a mode counts as unstable in the PBH test.
UNIT_CIRCLE_TOL = 1e-6


def as_matrix(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=float))


def symmetrize(m: np.ndarray) -> np.ndarray:
    """The symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def _unit_scaled(m: np.ndarray) -> tuple[np.ndarray, float]:
    """m / c and c = max(1, max |m_ij|): the scale at which no Frobenius norm overflows."""
    c = max(1.0, float(np.abs(m).max(initial=0.0)))
    return m / c, c


def require_symmetric(m: np.ndarray, name: str) -> None:
    """ValueError unless ||m - m'|| <= SYM_TOL max(1, ||m||) (Frobenius), tested on m / c."""
    s, c = _unit_scaled(m)
    if np.linalg.norm(s - s.T, "fro") > SYM_TOL * max(1.0 / c, float(np.linalg.norm(s, "fro"))):
        raise ValueError(f"{name} must be symmetric")


def require_psd(m: np.ndarray, name: str, tol: float) -> None:
    """ValueError unless the least eigenvalue of m is >= -tol max(1, ||m||), tested on m / c."""
    s, c = _unit_scaled(m)
    if min_eigenvalue(s) < -tol * max(1.0 / c, float(np.linalg.norm(s, "fro"))):
        raise ValueError(f"{name} must be positive semidefinite")


def min_eigenvalue(m: np.ndarray) -> float:
    if m.shape[0] == 0:
        return np.inf
    return float(np.linalg.eigvalsh(symmetrize(m)).min())


@dataclass(frozen=True)
class RiccatiProblem:
    """One LQ design problem in fixed-point form; ``cross_weight`` may be zero."""

    state_matrix: np.ndarray
    input_matrix: np.ndarray
    state_weight: np.ndarray
    cross_weight: np.ndarray
    input_weight: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.state_matrix)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("state_matrix must be square")
        b = np.asarray(self.input_matrix, dtype=float)
        if b.ndim == 1:
            b = b.reshape(n, -1)
        q = as_matrix(self.state_weight)
        s = np.asarray(self.cross_weight, dtype=float).reshape(n, b.shape[1])
        r = as_matrix(self.input_weight)
        if b.shape[0] != n or q.shape != (n, n) or r.shape != (b.shape[1],) * 2:
            raise ValueError("inconsistent problem dimensions")
        require_symmetric(q, "state_weight")
        require_symmetric(r, "input_weight")
        require_psd(q, "state_weight", SYM_TOL)
        if r.shape[0] > 0 and min_eigenvalue(r) <= 0.0:
            raise ValueError("input_weight must be positive definite")
        # C-contiguous, as the bits of the solvers' matrix products depend on the layout
        object.__setattr__(self, "state_matrix", np.ascontiguousarray(a))
        object.__setattr__(self, "input_matrix", np.ascontiguousarray(b))
        object.__setattr__(self, "state_weight", symmetrize(q))
        object.__setattr__(self, "cross_weight", np.ascontiguousarray(s))
        object.__setattr__(self, "input_weight", symmetrize(r))


@dataclass(frozen=True)
class RiccatiSolution:
    """Converged cost matrix, the associated feedback gain and the iteration count."""

    cost_matrix: np.ndarray
    gain: np.ndarray
    iterations: int


def _stack(problems) -> tuple:
    """A, B, Q, S and R of same-shaped problems as (K, ...) arrays."""
    return tuple(np.stack([getattr(prob, f.name) for prob in problems])
                 for f in fields(RiccatiProblem))


def _fro(m: np.ndarray) -> float:
    """``np.linalg.norm(m, "fro")`` of a C-contiguous matrix, bit for bit, but faster."""
    return math.sqrt(np.vdot(m, m))


def _riccati_map(stack: tuple, p: np.ndarray):
    """The fixed-point map on a stack at ``p``: (next P, gain at p, per-row error or None).

    A row errs when its inner inverse is ill-conditioned; then next P and gain are None.
    """
    a, b, q, s, r = stack
    btp = b.transpose(0, 2, 1) @ p
    denom = btp @ b + r
    try:  # an empty or a finite nonzero 1x1 matrix has condition number 1.0 (|d|/|d|): no SVD
        trivial = denom.shape[-1] <= 1 and np.isfinite(denom).all() and denom.all()
        cond = [1.0] * len(p) if trivial else np.linalg.cond(denom).tolist()
    except np.linalg.LinAlgError:  # the SVD of a NaN matrix fails the whole stack
        cond = [np.linalg.cond(d) if np.isfinite(d).all() else np.nan for d in denom]
    errors = [None if c <= COND_LIMIT else IllConditionedError(
        f"inner inverse condition number {c:.3e} exceeds {COND_LIMIT:.1e}") for c in cond]
    if any(errors):
        return None, None, errors
    gain = -np.linalg.solve(denom, btp @ a + s.transpose(0, 2, 1))
    atp = a.transpose(0, 2, 1) @ p
    return symmetrize(q + atp @ a + (atp @ b + s) @ gain), gain, errors


def riccati_residual(prob: RiccatiProblem, p: np.ndarray) -> float:
    """Relative Frobenius distance between p and its fixed-point image."""
    p = np.asarray(p, dtype=float)
    p_next, _, (error,) = _riccati_map(_stack([prob]), p[None])
    if error:
        raise error
    return float(np.linalg.norm(p_next[0] - p, "fro") / max(1.0, np.linalg.norm(p, "fro")))


@np.errstate(over="ignore", invalid="ignore")  # a diverging row fails alone, at its overflow
def solve_dares(problems, tol: float = 1e-10, max_iter: int = 100_000, start=None) -> list:
    """Solve same-shaped Riccati equations in lockstep by fixed-point iteration.

    Iterates the map on the stack from P = ``start`` (K, n, n; default: the state weights),
    symmetrizing each step, until a problem's relative Frobenius update falls below ``tol``.
    A problem leaves at its convergence or failure, so its iterates, count and error are the
    ones it has alone.  Returns its :class:`RiccatiSolution` or error (a :class:`NonFiniteError`
    at the first iterate whose norm is not finite).  :func:`riccati_residual` checks a solution.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    results = [None] * len(problems)
    if not problems:
        return results
    stack = _stack(problems)
    p = stack[2] if start is None else np.asarray(start, dtype=float)
    rows = list(range(len(problems)))  # the problem of each stacked row
    it = 0
    while rows:
        p_next, gain, errors = _riccati_map(stack, p)
        if p_next is None:  # the ill-conditioned rows leave; the others map again
            for k, error in zip(rows, errors):
                results[k] = error
        else:
            it += 1
            steps = p_next - p
            for i, k in enumerate(rows):
                if not math.isfinite(norm := _fro(p_next[i])):
                    results[k] = NonFiniteError(f"Riccati iterate norm is inf/nan at iteration {it}")
                elif (rel := _fro(steps[i]) / max(1.0, norm)) < tol:
                    results[k] = RiccatiSolution(p_next[i].copy(), gain[i].copy(), it)
                elif it >= max_iter:
                    results[k] = NonConvergenceError(
                        f"Riccati iteration did not converge in {max_iter} iterations "
                        f"(residual {rel:.3e})", residual=rel, iterations=max_iter)
            p = p_next
        stay = [results[k] is None for k in rows]
        if not all(stay):
            stack, p = tuple(x[stay] for x in stack), p[stay]
            rows = [k for k, keep in zip(rows, stay) if keep]
    return results


def range_basis(m) -> np.ndarray:
    """Orthonormal (n, r) basis of the range of a symmetric PSD m: the eigenvectors of eigenvalue
    above n eps lambda_max.  The PBH test of (a', basis) finds the unobservable modes of (a, m)
    at the scale of a alone, however m is scaled."""
    lam, vec = np.linalg.eigh(as_matrix(m))
    return vec[:, lam > len(lam) * np.finfo(float).eps * lam.max(initial=0.0)]


def uncontrollable_mode(a: np.ndarray, b: np.ndarray, unstable_only: bool = True):
    """The first eigenvalue mu of ``a`` at which ``[a - mu I, b]`` loses rank, or None.

    The PBH test of the modes with |mu| >= 1 - ``UNIT_CIRCLE_TOL`` (every mode if not
    ``unstable_only``): None iff (a, b) is stabilizable (controllable), or on (a', c') iff (a, c)
    is detectable (observable).  The floor of the pencil's n-th singular value is ``RANK_TOL``
    times the larger spectral norm of a and b; a pair that is not finite is a NonFiniteError.
    """
    a = as_matrix(a)
    b = np.asarray(b, dtype=float).reshape(len(a), -1)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NonFiniteError("the pair (A, B) of the rank test is not finite")
    modes = np.linalg.eigvals(a)
    if unstable_only:
        modes = modes[abs(modes) >= 1.0 - UNIT_CIRCLE_TOL]
    pencil = np.concatenate([a - modes[:, None, None] * np.eye(len(a)),
                             np.broadcast_to(b, (len(modes), *b.shape))], axis=2)
    # [[X, -Y], [Y, X]] has each singular value of X + iY twice; its real SVD keeps the
    # complex LAPACK routines (about 0.6 MB of resident code) out of every command
    x, y = pencil.real, pencil.imag
    real = np.concatenate([np.concatenate([x, -y], 2), np.concatenate([y, x], 2)], 1)
    floor = RANK_TOL * max(np.linalg.norm(a, 2), np.linalg.norm(b, 2))
    lost = np.linalg.svd(real, compute_uv=False)[:, -1] <= floor
    return next((modes[i].item() for i in np.flatnonzero(lost)), None)
