"""Dense symmetric positive (semi)definite matrix helpers.

All k x k log determinants go through Cholesky factorizations: for a factor L with
A = L L^T, logdet(A) = 2 * sum(log(diag(L))). Factorizations that fail get a
second chance through an escalating diagonal jitter; see `jitter_schedule`.
`PsdMatrix` is the only owner of a cached factor L, inverse factor L^-1 and
inverse, each formed on first use, so a k x k matrix is wrapped in one only
where one of them is read; every other curvature is a plain array. Solves are
products with L^-1: A^-1 B = L^-T (L^-1 B).
Ratios of determinants such as logdet(F P^-1 + I) are evaluated as
logdet(F + P) - logdet(P) so that both terms stay symmetric and factorizable;
the rank-C term of a single candidate instead goes through the C x C
identities in `scores`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteMatrix, NotPositiveDefinite

# Multipliers applied to the base jitter, tried in order. The leading zero
# means well-conditioned matrices are factorized untouched.
JITTER_MULTIPLIERS = (0.0, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6)

# Triangular blocks up to this size are inverted by LAPACK directly; larger
# ones are split in two (see `lower_inverse`).
INVERSE_BLOCK = 32


class PsdMatrix:
    """Symmetric matrix that caches its factorization.

    Construction symmetrizes the input through (A + A^T) / 2, so stored
    entries satisfy M[i, j] == M[j, i] exactly. Positive semidefiniteness is
    a caller obligation; it is enforced lazily by the factorizing routines.
    The wrapped array is frozen to keep instances safely shareable, which
    also lets the Cholesky factor, its inverse and the matrix inverse be
    computed once, on first use, and reused. Wrap a matrix only where one
    of them is read.
    """

    __slots__ = ("values", "_factor", "_factor_inv", "_inverse")

    def __init__(self, values):
        a = np.array(values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteMatrix("matrix entries must be finite")
        a = (a + a.T) / 2.0
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    def __setattr__(self, name, value):
        raise AttributeError("PsdMatrix is immutable")

    @classmethod
    def identity(cls, dim: int) -> "PsdMatrix":
        return cls(np.eye(dim))

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def _cached(self, name: str, compute) -> np.ndarray:
        try:
            return getattr(self, name)
        except AttributeError:
            value = compute()
            value.setflags(write=False)
            object.__setattr__(self, name, value)
            return value

    def factor(self) -> np.ndarray:
        """Lower Cholesky factor L (jittered if needed), computed on first use."""
        return self._cached("_factor", lambda: _cholesky_jittered(self.values)[0])

    def factor_inv(self) -> np.ndarray:
        """L^-1, the inverse of `factor`, computed on first use."""
        return self._cached("_factor_inv", lambda: lower_inverse(self.factor()))

    def inverse(self) -> np.ndarray:
        """(L L^T)^-1 = L^-T L^-1, computed on first use."""
        return self._cached("_inverse", lambda: self.factor_inv().T @ self.factor_inv())

    @property
    def trace(self) -> float:
        return float(np.trace(self.values))

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.values.astype(dtype)
        return self.values

    def __add__(self, other):
        return PsdMatrix(self.values + np.asarray(other))

    __radd__ = __add__

    def __mul__(self, scalar):
        return PsdMatrix(self.values * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"PsdMatrix(dim={self.dim})"


def as_psd(a) -> PsdMatrix:
    """Coerce an array-like to PsdMatrix (no-op if it already is one)."""
    if isinstance(a, PsdMatrix):
        return a
    return PsdMatrix(a)


def jitter_schedule(a: np.ndarray, base: float | None = None):
    """Yield the jitter magnitudes tried for `a`, in escalation order.

    The default base scales with the diagonal, 1e-10 * (1 + max(diag A)),
    so the schedule adapts to the matrix magnitude.
    """
    if base is None:
        diag = np.diagonal(a)
        base = 1e-10 * (1.0 + float(np.max(diag)) if diag.size else 1.0)
    for mult in JITTER_MULTIPLIERS:
        yield mult * base


def _cholesky_jittered(a: np.ndarray, base: float | None = None):
    """Lower Cholesky factor of `a`, escalating jitter until it succeeds.

    Returns (L, eps) where eps is the diagonal shift that was needed.
    Raises NotPositiveDefinite past the schedule, NonFiniteMatrix when `a`
    holds an inf or NaN.
    """
    if not np.all(np.isfinite(a)):
        raise NonFiniteMatrix(
            f"{a.shape[0]}x{a.shape[0]} matrix: array must not contain infs or NaNs"
        )
    eps = 0.0
    for eps in jitter_schedule(a, base):
        try:
            shifted = a if eps == 0.0 else a + eps * np.eye(a.shape[0])
            return np.linalg.cholesky(shifted), eps
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveDefinite(
        f"Cholesky failed for {a.shape[0]}x{a.shape[0]} matrix "
        f"even with jitter {eps:.3e}"
    )


def chol_logdet(a) -> float:
    """log det of a positive definite matrix via its Cholesky factor.

    The jitter schedule is applied if the plain factorization fails, which
    keeps log determinants finite for nearly rank-deficient inputs.
    """
    m = as_psd(a)
    if m.dim == 0:
        return 0.0
    return factor_logdet(m.factor())


def factor_logdet(factor: np.ndarray) -> float:
    """log det(L L^T) from the lower Cholesky factor L."""
    return float(2.0 * np.sum(np.log(np.diagonal(factor))))


def lower_inverse(factor: np.ndarray) -> np.ndarray:
    """L^-1 for a lower triangular L, itself lower triangular.

    numpy has no triangular solve, so L is split into blocks
    [[A, 0], [B, C]] with inverse [[A^-1, 0], [-C^-1 B A^-1, C^-1]]; the
    diagonal blocks recurse down to INVERSE_BLOCK. This costs ~k^3/3 flops
    in matrix products, a third of a general inverse.
    """
    n = factor.shape[0]
    if n <= INVERSE_BLOCK:
        return np.tril(np.linalg.inv(factor))
    h = n // 2
    head, tail = lower_inverse(factor[:h, :h]), lower_inverse(factor[h:, h:])
    out = np.zeros_like(factor)
    out[:h, :h] = head
    out[h:, h:] = tail
    out[h:, :h] = -tail @ (factor[h:, :h] @ head)
    return out


def solve_psd(a, b) -> np.ndarray:
    """Solve A X = B for symmetric positive definite A.

    B may be a vector or a matrix of right hand sides. The residual satisfies
    ||A X - B||_F <= 1e-8 ||B||_F for well-conditioned systems.
    """
    m = as_psd(a)
    rhs = np.asarray(b, dtype=float)
    if rhs.shape[0] != m.dim:
        raise DimensionMismatch(
            f"matrix of dim {m.dim} against right hand side {rhs.shape}"
        )
    factor_inv = m.factor_inv()
    return factor_inv.T @ (factor_inv @ rhs)


def solve_lower(a, b) -> np.ndarray:
    """Solve L X = B, where L is the lower Cholesky factor of A.

    L is the factor solve_psd uses, so ||X||^2 = B^T A^-1 B column by
    column. B may be a vector or a matrix of right hand sides.
    """
    m = as_psd(a)
    rhs = np.asarray(b, dtype=float)
    if rhs.shape[0] != m.dim:
        raise DimensionMismatch(
            f"matrix of dim {m.dim} against right hand side {rhs.shape}"
        )
    return m.factor_inv() @ rhs


def kron(a, b) -> np.ndarray:
    """Kronecker product with entry (iP+k, jQ+l) = A[i,j] * B[k,l]."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def jitter_to_pd(a, base: float | None = None) -> PsdMatrix:
    """Return A + eps*I for the smallest scheduled eps that factorizes.

    A matrix that is already positive definite comes back unchanged
    (eps = 0). Raises NotPositiveDefinite when the schedule is exhausted.
    """
    m = as_psd(a)
    _, eps = _cholesky_jittered(m.values, base)
    if eps == 0.0:
        return m
    return PsdMatrix(m.values + eps * np.eye(m.dim))
