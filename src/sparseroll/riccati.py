"""Discrete-time algebraic Riccati equations and structural checks.

Every design here solves the cross-weighted, undiscounted equation

    P = Q + A'PA - (A'PB + S)(B'PB + R)^{-1} (B'PA + S'),

with Q >= 0 and R > 0.  ``RiccatiProblem.discount`` (g in (0, 1], scaling
A'PA, A'PB and B'PB) is always 1.0; it stays while the benchmark's Riccati
cross-check reads it.  The structural predicates (observability and
non-pathological sampling) gate every periodic design built on this module.

All functions are pure; returned matrices are freshly allocated.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import IllConditionedError, NonConvergenceError

# Relative tolerance used for symmetry / definiteness validation of inputs.
SYM_TOL = 1e-8

# Condition-number ceiling for the inner (g B'PB + R) inverse.
COND_LIMIT = 1e12


def _as_matrix(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=float))


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def require_symmetric(m: np.ndarray, name: str, tol: float = SYM_TOL) -> None:
    scale = max(1.0, float(np.linalg.norm(m, "fro")))
    if np.linalg.norm(m - m.T, "fro") > tol * scale:
        raise ValueError(f"{name} must be symmetric")


def min_eigenvalue(m: np.ndarray) -> float:
    if m.shape[0] == 0:
        return np.inf
    return float(np.linalg.eigvalsh(symmetrize(m)).min())


def psd_sqrt(m: np.ndarray, tol: float = SYM_TOL) -> np.ndarray:
    """Symmetric square root of a PSD matrix, clipping roundoff negatives."""
    m = _as_matrix(m)
    require_symmetric(m, "matrix")
    w, v = np.linalg.eigh(symmetrize(m))
    scale = max(1.0, float(abs(w).max()) if w.size else 1.0)
    if w.min(initial=0.0) < -tol * scale:
        raise ValueError("matrix is not positive semidefinite")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


@dataclass(frozen=True)
class RiccatiProblem:
    """One discounted LQ design problem in fixed-point form.

    ``discount`` multiplies both quadratic propagation terms; 1.0 gives the
    undiscounted equation.  ``cross_weight`` may be zero.
    """

    state_matrix: np.ndarray
    input_matrix: np.ndarray
    state_weight: np.ndarray
    cross_weight: np.ndarray
    input_weight: np.ndarray
    discount: float = 1.0

    def __post_init__(self):
        a = _as_matrix(self.state_matrix)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("state_matrix must be square")
        b = np.asarray(self.input_matrix, dtype=float)
        if b.ndim == 1:
            b = b.reshape(n, -1)
        q = _as_matrix(self.state_weight)
        s = np.asarray(self.cross_weight, dtype=float).reshape(n, b.shape[1])
        r = _as_matrix(self.input_weight)
        if b.shape[0] != n or q.shape != (n, n) or r.shape != (b.shape[1],) * 2:
            raise ValueError("inconsistent problem dimensions")
        require_symmetric(q, "state_weight")
        require_symmetric(r, "input_weight")
        q_scale = max(1.0, float(np.linalg.norm(q, "fro")))
        if min_eigenvalue(q) < -SYM_TOL * q_scale:
            raise ValueError("state_weight must be positive semidefinite")
        if r.shape[0] > 0 and min_eigenvalue(r) <= 0.0:
            raise ValueError("input_weight must be positive definite")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError("discount must lie in (0, 1]")
        object.__setattr__(self, "state_matrix", a)
        object.__setattr__(self, "input_matrix", b)
        object.__setattr__(self, "state_weight", symmetrize(q))
        object.__setattr__(self, "cross_weight", s)
        object.__setattr__(self, "input_weight", symmetrize(r))
        object.__setattr__(self, "discount", float(self.discount))

    @property
    def n_states(self) -> int:
        return self.state_matrix.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.input_matrix.shape[1]


@dataclass(frozen=True)
class RiccatiSolution:
    """Converged cost matrix, the associated feedback gain and diagnostics."""

    cost_matrix: np.ndarray
    gain: np.ndarray
    residual_norm: float
    iterations: int


def riccati_step(prob: RiccatiProblem, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One application of the fixed-point map; returns (next P, gain at p)."""
    a, b = prob.state_matrix, prob.input_matrix
    g = prob.discount
    btp = b.T @ p
    denom = g * (btp @ b) + prob.input_weight
    if denom.shape[0] > 0:
        cond = np.linalg.cond(denom)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise IllConditionedError(
                f"inner inverse condition number {cond:.3e} exceeds {COND_LIMIT:.1e}"
            )
    rhs = g * (btp @ a) + prob.cross_weight.T
    gain = -np.linalg.solve(denom, rhs) if denom.shape[0] > 0 else np.zeros((0, a.shape[0]))
    p_next = prob.state_weight + g * (a.T @ p @ a) + (g * (a.T @ p @ b) + prob.cross_weight) @ gain
    return symmetrize(p_next), gain


def riccati_residual(prob: RiccatiProblem, p: np.ndarray) -> float:
    """Relative Frobenius distance between p and its fixed-point image."""
    p_next, _ = riccati_step(prob, p)
    return float(np.linalg.norm(p_next - p, "fro") / max(1.0, np.linalg.norm(p, "fro")))


def solve_dare(prob: RiccatiProblem, tol: float = 1e-10, max_iter: int = 100_000) -> RiccatiSolution:
    """Solve the discounted Riccati equation by fixed-point iteration.

    Iterates the map from P = state_weight, symmetrizing each step to
    suppress floating-point asymmetry drift, until the relative Frobenius
    update falls below ``tol``.  Convergence is guaranteed under the usual
    stabilizability/observability conditions on the (discount-scaled) pair.
    """
    p = prob.state_weight.copy()
    for it in range(1, max_iter + 1):
        p_next, gain = riccati_step(prob, p)
        rel = np.linalg.norm(p_next - p, "fro") / max(1.0, np.linalg.norm(p_next, "fro"))
        p = p_next
        if rel < tol:
            return RiccatiSolution(
                cost_matrix=p,
                gain=gain,
                residual_norm=riccati_residual(prob, p),
                iterations=it,
            )
    raise NonConvergenceError(
        f"Riccati iteration did not converge in {max_iter} iterations (residual {rel:.3e})",
        residual=float(rel),
        iterations=max_iter,
    )


def _numeric_rank(m: np.ndarray, tol_rank: float) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol_rank * s[0]))


def check_observability(a: np.ndarray, c_half: np.ndarray, tol_rank: float = 1e-9) -> bool:
    """Numeric rank test on the stacked observability matrix of (a, c_half)."""
    a = _as_matrix(a)
    c = _as_matrix(c_half)
    n = a.shape[0]
    blocks = []
    row = c
    for _ in range(n):
        blocks.append(row)
        row = row @ a
    return _numeric_rank(np.vstack(blocks), tol_rank) == n


def check_pathological_sampling(a: np.ndarray, p: int, tol: float = 1e-9) -> bool:
    """True iff lifting by period p cannot destroy stabilizability.

    Flags an eigenvalue pair (l1, l2) when l1 coincides with l2 rotated by a
    p-th root of unity.  A pair of equal eigenvalues (within tol) with the
    identity rotation does not count: the same mode trivially maps to itself.
    """
    if p < 1:
        raise ValueError("period must be >= 1")
    eig = np.linalg.eigvals(_as_matrix(a))
    rotations = np.exp(2j * np.pi * np.arange(p) / p)
    for l1 in eig:
        for l2 in eig:
            same = abs(l1 - l2) <= tol
            for q, rot in enumerate(rotations):
                if same and q == 0:
                    continue
                if abs(l1 - l2 * rot) < tol:
                    return False
    return True
