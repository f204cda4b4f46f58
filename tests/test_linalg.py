import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_psd, random_spd
from infoselect.errors import DimensionMismatch, NonFiniteMatrix, NotPositiveDefinite
from infoselect.glm import Head, _logsumexp
from infoselect.linalg import (
    INVERSE_BLOCK,
    JITTER_MULTIPLIERS,
    PsdMatrix,
    _cholesky_jittered,
    as_psd,
    chol_logdet,
    jitter_to_pd,
    kron,
    lower_inverse,
    solve_lower,
    solve_psd,
)
from infoselect.posterior import GaussianPosterior, sample_weights
from infoselect.scores import trace_ratio


def test_construction_symmetrizes():
    a = np.array([[1.0, 3.0], [1.0, 2.0]])
    m = PsdMatrix(a)
    assert np.array_equal(m.values, (a + a.T) / 2.0)
    assert np.array_equal(m.values, m.values.T)


def test_construction_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        PsdMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        PsdMatrix([[np.nan, 0.0], [0.0, 1.0]])


def test_instances_are_frozen():
    m = PsdMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.values = np.zeros((2, 2))
    with pytest.raises(ValueError):
        m.values[0, 0] = 5.0


def test_logdet_identity():
    assert chol_logdet(PsdMatrix.identity(3)) == 0.0


def test_logdet_diagonal():
    assert chol_logdet(np.diag([2.0, 2.0])) == pytest.approx(2.0 * np.log(2.0), abs=1e-12)


def test_logdet_empty_matrix():
    assert chol_logdet(np.zeros((0, 0))) == 0.0


def test_logdet_eigenvalue_oracle():
    # independent oracle: sum of log eigenvalues from an eigendecomposition
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = random_psd(rng, 5) + np.eye(5)
        expected = float(np.sum(np.log(np.linalg.eigvalsh(a))))
        assert chol_logdet(a) == pytest.approx(expected, rel=1e-9)


def test_logdet_indefinite_raises():
    with pytest.raises(NotPositiveDefinite):
        chol_logdet(np.diag([1.0, -1.0]))


def test_solve_identity_returns_rhs():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((4, 2))
    assert np.allclose(solve_psd(np.eye(4), b), b, atol=1e-14)


def test_solve_scalar():
    assert solve_psd(np.array([[4.0]]), np.array([8.0])) == pytest.approx([2.0])


def test_solve_inverse_oracle():
    # independent oracle: explicit matrix inverse
    rng = np.random.default_rng(7)
    a = random_spd(rng, 6)
    b = rng.standard_normal((6, 3))
    assert np.allclose(solve_psd(a, b), np.linalg.inv(a) @ b, atol=1e-8)


def test_solve_recovers_known_solution():
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = random_spd(rng, 5)
        x = rng.standard_normal((5, 2))
        got = solve_psd(a, a @ x)
        assert np.linalg.norm(got - x) <= 1e-7 * max(1.0, np.linalg.norm(x))


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_psd(np.eye(3), np.zeros(4))


def test_solve_lower_whitens_against_the_inverse():
    # independent oracle: explicit inverse for the quadratic forms, numpy's
    # Cholesky for the factor
    rng = np.random.default_rng(23)
    a = random_spd(rng, 6)
    b = rng.standard_normal((6, 4))
    x = solve_lower(a, b)
    assert np.allclose(np.linalg.cholesky(a) @ x, b, atol=1e-10)
    want = np.einsum("kn,kn->n", b, np.linalg.inv(a) @ b)
    assert np.allclose(np.einsum("kn,kn->n", x, x), want, rtol=1e-8)
    with pytest.raises(DimensionMismatch):
        solve_lower(np.eye(3), np.zeros(4))


def test_kron_scalar_factor():
    b = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(kron([[3.0]], b), 3.0 * b)


def test_kron_identity_gives_blocks():
    x = np.array([1.0, 2.0])
    xxt = np.outer(x, x)
    got = kron(np.eye(2), xxt)
    assert np.array_equal(got[:2, :2], xxt)
    assert np.array_equal(got[2:, 2:], xxt)
    assert np.array_equal(got[:2, 2:], np.zeros((2, 2)))


def test_kron_elementwise_oracle():
    # independent oracle: the defining formula, entry by entry
    rng = np.random.default_rng(23)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3))
    got = kron(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                for el in range(3):
                    assert got[i * 3 + k, j * 3 + el] == a[i, j] * b[k, el]


def test_kron_mixed_product():
    rng = np.random.default_rng(29)
    a, c = rng.standard_normal((2, 3)), rng.standard_normal((3, 2))
    b, d = rng.standard_normal((2, 2)), rng.standard_normal((2, 3))
    left = kron(a, b) @ kron(c, d)
    right = kron(a @ c, b @ d)
    assert np.allclose(left, right, rtol=1e-10, atol=1e-12)


def test_jitter_leaves_spd_alone():
    rng = np.random.default_rng(31)
    a = random_spd(rng, 4)
    out = jitter_to_pd(a)
    assert np.array_equal(out.values, as_psd(a).values)


def test_jitter_zero_matrix_first_step():
    out = jitter_to_pd(np.zeros((3, 3)), base=1e-10)
    assert np.array_equal(out.values, 1e-10 * np.eye(3))


def test_jitter_rank_one_refactorizes():
    # oracle: whatever shift comes back must itself factorize, and no
    # smaller scheduled shift may
    g = np.array([1.0, 2.0, 3.0])
    a = np.outer(g, g)
    out = jitter_to_pd(a, base=1e-10)
    np.linalg.cholesky(out.values)
    shift = out.values[0, 0] - a[0, 0]
    schedule = [m * 1e-10 for m in JITTER_MULTIPLIERS]
    eps = min(schedule, key=lambda s: abs(s - shift))  # snap subtraction noise
    assert eps > 0.0
    for s in [s for s in schedule if s < eps]:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a + s * np.eye(3))


def test_jitter_exhausted_raises():
    with pytest.raises(NotPositiveDefinite):
        jitter_to_pd(np.diag([1.0, -1.0]), base=1e-10)


def test_logdet_trace_bound_on_random_psd():
    # logdet(A + I) <= trace(A), equality only at the zero matrix
    rng = np.random.default_rng(37)
    for i in range(100):
        a = random_psd(rng, 4, rank=rng.integers(1, 5))
        assert chol_logdet(a + np.eye(4)) <= np.trace(a) + 1e-9
    assert chol_logdet(np.zeros((4, 4)) + np.eye(4)) == pytest.approx(0.0, abs=1e-12)


def test_psd_arithmetic_helpers():
    m = PsdMatrix(np.diag([1.0, 2.0]))
    assert (m + np.eye(2)).values[0, 0] == 2.0
    assert (2.0 * m).values[1, 1] == 4.0
    assert m.trace == 3.0
    assert m.dim == 2
    assert np.array_equal(np.asarray(m), m.values)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10_000))
def test_logdet_trace_bound_property(dim, seed):
    rng = np.random.default_rng(seed)
    a = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
    assert chol_logdet(a + np.eye(dim)) <= np.trace(a) + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_solve_residual_property(seed):
    rng = np.random.default_rng(seed)
    a = random_spd(rng, 4)
    b = rng.standard_normal(4)
    x = solve_psd(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-8 * max(1.0, np.linalg.norm(b))


# ---------------------------------------------------------------------------
# oracles: the scipy calls that the numpy-only paths replaced

RTOL = 1e-10
# sizes on both sides of INVERSE_BLOCK, so lower_inverse recurses
ORACLE_DIMS = (1, 2, 5, INVERSE_BLOCK, INVERSE_BLOCK + 1, 64, 100, 160)


def assert_rel(got, want):
    """Max-norm error within RTOL of the oracle's max-norm."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def graded_spd(seed, dim, spread):
    """random_spd rescaled by a diagonal spanning `spread` decades."""
    rng = np.random.default_rng(seed)
    d = 10.0 ** rng.uniform(0.0, spread, dim)
    return d[:, None] * random_spd(rng, dim) * d[None, :], rng


def check_against_scipy(a, rng):
    m = PsdMatrix(a)
    dim = m.dim
    want_factor = scipy.linalg.cholesky(m.values, lower=True)
    assert_rel(m.factor(), want_factor)
    assert_rel(_cholesky_jittered(m.values)[0], want_factor)
    want_inv_factor = scipy.linalg.solve_triangular(want_factor, np.eye(dim), lower=True)
    assert_rel(m.factor_inv(), want_inv_factor)
    assert np.array_equal(np.triu(m.factor_inv(), 1), np.zeros((dim, dim)))
    assert_rel(m.inverse(), scipy.linalg.cho_solve((want_factor, True), np.eye(dim)))
    b = rng.standard_normal((dim, 3))
    assert_rel(solve_psd(m, b), scipy.linalg.cho_solve((want_factor, True), b))
    assert_rel(solve_psd(m, b[:, 0]), scipy.linalg.cho_solve((want_factor, True), b[:, 0]))
    assert_rel(solve_lower(m, b), scipy.linalg.solve_triangular(want_factor, b, lower=True))
    term = random_psd(rng, dim)
    want_trace = 0.5 * np.trace(scipy.linalg.cho_solve((want_factor, True), term))
    assert trace_ratio(term, m.inverse()) == pytest.approx(want_trace, rel=RTOL, abs=0.0)
    post = GaussianPosterior(rng.standard_normal(dim), m, 1.0)
    z = np.random.default_rng(5).standard_normal((dim, 4))
    want_draws = post.mode + scipy.linalg.solve_triangular(want_factor.T, z, lower=False).T
    assert_rel(sample_weights(post, 4, 5), want_draws)


@pytest.mark.parametrize("dim", ORACLE_DIMS)
def test_factor_paths_match_scipy(dim):
    a, rng = graded_spd(dim, dim, 2.0)
    check_against_scipy(a, rng)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    dim=st.integers(min_value=1, max_value=3 * INVERSE_BLOCK),
    spread=st.sampled_from([0.0, 1.0, 2.0]),
)
def test_factor_paths_match_scipy_property(seed, dim, spread):
    a, rng = graded_spd(seed, dim, spread)
    check_against_scipy(a, rng)


def test_jittered_factor_matches_scipy_at_its_shift():
    # rank one: the plain factorization fails, a shifted one succeeds
    g = np.arange(1.0, 41.0)
    a = np.outer(g, g)
    factor, eps = _cholesky_jittered(a)
    assert eps > 0.0
    assert_rel(factor, scipy.linalg.cholesky(a + eps * np.eye(40), lower=True))
    assert_rel(lower_inverse(factor) @ factor, np.eye(40))


def test_non_finite_matrix_raises_before_factorizing():
    for bad in (np.inf, -np.inf, np.nan):
        a = np.eye(3)
        a[1, 1] = bad
        with pytest.raises(NonFiniteMatrix, match="3x3 matrix: array must not contain infs"):
            _cholesky_jittered(a)


LOGSUMEXP_EDGES = [
    [0.0, -40.0],  # the max dominates: the remainder survives through log1p
    [1000.0, 0.0],
    [-1000.0, -1000.0],
    [3.0, 3.0, 1.0],  # a tie at the max
    [5.0],
    [np.inf, 1.0],
    [-np.inf, -np.inf],
    [-np.inf, 2.0],
    [np.nan, 1.0],
]


@pytest.mark.parametrize("row", LOGSUMEXP_EDGES)
def test_logsumexp_edges_match_scipy(row):
    z = np.array(row)
    with np.errstate(all="ignore"):
        got = _logsumexp(z)
        want = scipy.special.logsumexp(z, axis=-1, keepdims=True)
    assert got.shape == want.shape
    if np.isfinite(want).all():
        assert got == pytest.approx(want, rel=RTOL, abs=0.0)
    else:
        np.testing.assert_array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    classes=st.integers(min_value=1, max_value=12),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 60.0, 800.0]),
    ties=st.booleans(),
)
def test_logsumexp_matches_scipy_property(seed, classes, scale, ties):
    rng = np.random.default_rng(seed)
    z = scale * rng.standard_normal((7, classes))
    if ties:
        z[:, -1] = np.max(z, axis=1)
    got = _logsumexp(z)
    want = scipy.special.logsumexp(z, axis=-1, keepdims=True)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)


def test_predictive_at_logit_scale_60_matches_scipy_form():
    # the predictive is scipy's softmax bit for bit, with no clamp: entries
    # far below 1e-12 keep their value and a gap of 800 underflows to 0
    rng = np.random.default_rng(60)
    z = 60.0 * rng.standard_normal((50, 6))
    z[0] = [800.0, 0.0, -5.0, 3.0, 0.0, 1.0]
    got = Head.categorical(6).predictive(z)
    want = scipy.special.softmax(z, axis=-1)
    np.testing.assert_array_equal(got, want)
    assert np.any((got > 0.0) & (got < 1e-100))
    np.testing.assert_array_equal(got[0], np.eye(6)[0])
    assert np.max(np.abs(got.sum(axis=-1) - 1.0)) <= 1e-15


def test_curvature_rows_sum_to_zero_at_logit_scale_60():
    # Lambda = diag(pi) - pi pi^T annihilates the ones vector; a clamp that
    # does not renormalize leaves rows summing to ~1e-12. Where pi_c rounds
    # to 1, pi_c - pi_c^2 would be 0 beside off-diagonals of ~1e-20 and
    # Lambda indefinite: each one must stay PSD against its own size.
    rng = np.random.default_rng(60)
    z = 60.0 * rng.standard_normal((50, 6))
    lam = Head.categorical(6).curvature(z)
    assert np.max(np.abs(lam.sum(axis=-1))) <= 1e-15
    size = np.max(np.abs(lam), axis=(1, 2))
    assert np.all(np.linalg.eigvalsh(lam)[:, 0] >= -1e-12 * size)
