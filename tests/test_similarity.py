import numpy as np
import pytest

from conftest import fitted_setup, random_spd
from infoselect.errors import DimensionMismatch, MissingLabels, SingularGram
from infoselect.glm import Dataset, GlmModel, Head, fisher_information, score_jacobian
from infoselect.linalg import PsdMatrix, chol_logdet
from infoselect.similarity import (
    GIVEN,
    HARD,
    SAMPLED,
    JacobianDataMatrix,
    build_data_matrix,
    cross,
    eig_uninformative,
    eig_uninformative_limit,
    eig_via_similarity,
    epig_via_similarity,
    gram,
    gram_weighted,
    logdet_cmi,
    logdet_mi,
    one_sample_fisher,
)


def random_rows(rng, n, k, mode=SAMPLED):
    return JacobianDataMatrix(rng.standard_normal((n, k)), mode)


def slogdet(m):
    sign, val = np.linalg.slogdet(m)
    assert sign > 0
    return val


# ---------------------------------------------------------------------------
# data matrix construction


def test_gaussian_hard_rows_are_exactly_zero():
    # argmax label of a Gaussian head is the mode prediction itself, so the
    # residual (z - y) vanishes and with it every gradient row.
    rng = np.random.default_rng(3)
    model = GlmModel(Head.gaussian(), rng.standard_normal((4, 1)))
    data = Dataset(rng.standard_normal((6, 4)))
    g = build_data_matrix(model, data, HARD)
    assert np.all(g.rows == 0.0)
    assert eig_via_similarity(g, PsdMatrix.identity(4)) == 0.0
    assert np.all(one_sample_fisher(g).values == 0.0)

    sampled = build_data_matrix(model, data, SAMPLED, seed=0)
    assert np.any(sampled.rows != 0.0)
    assert eig_via_similarity(sampled, PsdMatrix.identity(4)) > 0.0


def test_hard_label_tie_breaks_to_lowest_class():
    # zero weights, two classes: predictive is uniform, argmax must pick 0,
    # and the gradient row is the (-x/2, x/2) block pair.
    x = np.array([1.5, -2.0, 0.25])
    model = GlmModel(Head.categorical(2), np.zeros((3, 2)))
    g = build_data_matrix(model, Dataset(x[None, :]), HARD)
    expected = np.concatenate([-0.5 * x, 0.5 * x])
    np.testing.assert_array_equal(g.rows[0], expected)


def test_sampled_mode_is_deterministic_in_seed():
    _, model, _, _ = fitted_setup(seed=5, n=30, d=3, c=3)
    rng = np.random.default_rng(7)
    data = Dataset(rng.standard_normal((12, 3)))
    a = build_data_matrix(model, data, SAMPLED, seed=42)
    b = build_data_matrix(model, data, SAMPLED, seed=42)
    c = build_data_matrix(model, data, SAMPLED, seed=43)
    np.testing.assert_array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, c.rows)


def test_repeats_emit_consecutive_rows_per_point():
    _, model, _, _ = fitted_setup(seed=5, n=30, d=2, c=3)
    xs = np.array([[1.0, 0.0], [0.0, 1.0]])
    g = build_data_matrix(model, Dataset(xs), SAMPLED, seed=1, repeats=3)
    assert g.rows.shape == (6, 6)
    # each row reshaped to (C, D) has every class block parallel to its x
    for j in range(6):
        blocks = g.rows[j].reshape(3, 2)
        x = xs[j // 3]
        for b in blocks:
            assert abs(b[0] * x[1] - b[1] * x[0]) < 1e-12


def test_repeats_require_sampled_mode():
    _, model, _, _ = fitted_setup(seed=0, n=20, d=3, c=3)
    data = Dataset(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        build_data_matrix(model, data, HARD, repeats=2)


def test_given_mode_uses_dataset_labels():
    data, model, _, _ = fitted_setup(seed=2, n=15, d=3, c=3)
    g = build_data_matrix(model, data, GIVEN)
    for i in range(data.n):
        np.testing.assert_array_equal(
            g.rows[i], score_jacobian(model, data.features[i], data.labels[i])
        )


def test_given_mode_without_labels_raises():
    _, model, _, _ = fitted_setup(seed=2, n=15, d=3, c=3)
    with pytest.raises(MissingLabels):
        build_data_matrix(model, Dataset(np.zeros((2, 3))), GIVEN)


def test_build_rejects_empty_data_and_unknown_mode():
    _, model, _, _ = fitted_setup(seed=0, n=20, d=3, c=3)
    with pytest.raises(ValueError):
        build_data_matrix(model, Dataset(np.zeros((0, 3))), HARD)
    with pytest.raises(ValueError):
        build_data_matrix(model, Dataset(np.zeros((2, 3))), "argmax")


def test_bias_flag_tracks_label_mode():
    _, model, _, _ = fitted_setup(seed=0, n=20, d=3, c=3)
    data = Dataset(np.ones((2, 3)))
    assert build_data_matrix(model, data, HARD).biased
    assert not build_data_matrix(model, data, SAMPLED, seed=0).biased


# ---------------------------------------------------------------------------
# similarity matrices


def test_gram_of_single_zero_row():
    g = JacobianDataMatrix(np.zeros((1, 4)), HARD)
    s = gram(g)
    assert s.shape == (1, 1)
    assert s[0, 0] == 0.0


def test_gram_weighted_identity_metric_matches_gram():
    rng = np.random.default_rng(11)
    g = random_rows(rng, 4, 6)
    np.testing.assert_allclose(
        gram_weighted(g, PsdMatrix.identity(6)),
        gram(g),
        atol=1e-12,
    )


def test_gram_weighted_against_explicit_inverse():
    rng = np.random.default_rng(12)
    g = random_rows(rng, 5, 7)
    p = random_spd(rng, 7)
    want = g.rows @ np.linalg.inv(p) @ g.rows.T
    s = gram_weighted(g, p)
    np.testing.assert_allclose(s, want, atol=1e-8)
    # the two solves round differently on either side of the diagonal
    assert np.array_equal(s, s.T)


def test_cross_block_euclidean_and_weighted():
    rng = np.random.default_rng(13)
    g1 = random_rows(rng, 3, 5)
    g2 = random_rows(rng, 4, 5)
    np.testing.assert_array_equal(cross(g1, g2), g1.rows @ g2.rows.T)
    p = random_spd(rng, 5)
    want = g1.rows @ np.linalg.inv(p) @ g2.rows.T
    np.testing.assert_allclose(cross(g1, g2, p), want, atol=1e-8)


def test_dimension_checks():
    rng = np.random.default_rng(14)
    g = random_rows(rng, 3, 5)
    with pytest.raises(DimensionMismatch):
        gram_weighted(g, PsdMatrix.identity(4))
    with pytest.raises(DimensionMismatch):
        cross(g, random_rows(rng, 3, 6))
    with pytest.raises(DimensionMismatch):
        JacobianDataMatrix(np.zeros(5), HARD)
    with pytest.raises(DimensionMismatch):
        logdet_mi(np.eye(2), np.eye(3), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# one-sample Fisher estimate


def test_one_sample_fisher_rank_one():
    g = JacobianDataMatrix(np.array([[1.0, -2.0, 3.0]]), SAMPLED)
    np.testing.assert_array_equal(
        one_sample_fisher(g).values, np.outer(g.rows[0], g.rows[0])
    )
    zero = JacobianDataMatrix(np.zeros((3, 4)), SAMPLED)
    assert np.all(one_sample_fisher(zero).values == 0.0)


def test_one_sample_fisher_mean_converges_to_fisher():
    # sampled labels make g g^T unbiased for the Fisher; 20000 draws of the
    # same point should land within 2% in Frobenius norm.
    _, model, _, _ = fitted_setup(seed=9, n=40, d=2, c=3)
    x = np.array([0.8, -0.5])
    g = build_data_matrix(model, Dataset(x[None, :]), SAMPLED, seed=100, repeats=20000)
    est = one_sample_fisher(g).values / 20000.0
    exact = fisher_information(model, x).values
    rel = np.linalg.norm(est - exact) / np.linalg.norm(exact)
    assert rel < 0.02


# ---------------------------------------------------------------------------
# information scores in similarity space


def test_eig_zero_rows_score_zero():
    g = JacobianDataMatrix(np.zeros((3, 4)), SAMPLED)
    assert eig_via_similarity(g, PsdMatrix.identity(4)) == pytest.approx(0.0, abs=1e-14)


def test_eig_single_row_scalar_lemma():
    rng = np.random.default_rng(21)
    g = random_rows(rng, 1, 6)
    p = random_spd(rng, 6)
    s = float(g.rows[0] @ np.linalg.inv(p) @ g.rows[0])
    assert eig_via_similarity(g, p) == pytest.approx(0.5 * np.log1p(s), rel=1e-12)


@pytest.mark.parametrize("n,k", [(3, 8), (8, 3), (5, 5)])
def test_eig_duality_against_weight_space(n, k):
    # matrix determinant lemma: the n x n similarity route and the k x k
    # weight route must agree whichever side is smaller.
    rng = np.random.default_rng(22)
    for _ in range(25):
        g = random_rows(rng, n, k)
        p = random_spd(rng, k)
        want = 0.5 * (slogdet(g.rows.T @ g.rows + p) - slogdet(p))
        assert eig_via_similarity(g, p) == pytest.approx(want, abs=1e-9)


def test_eig_uninformative_orthonormal_rows():
    g = JacobianDataMatrix(np.eye(5)[:3], SAMPLED)
    assert eig_uninformative(g, 1.0) == pytest.approx(1.5 * np.log(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        eig_uninformative(g, 0.0)


def test_eig_uninformative_matches_weight_space_flat_prior():
    rng = np.random.default_rng(23)
    for lam in (1e-2, 1.0, 10.0):
        g = random_rows(rng, 4, 7)
        want = 0.5 * (
            slogdet(g.rows.T @ g.rows + lam * np.eye(7)) - 7 * np.log(lam)
        )
        assert eig_uninformative(g, lam) == pytest.approx(want, abs=1e-9)
        dual = eig_via_similarity(g, PsdMatrix(lam * np.eye(7)))
        assert eig_uninformative(g, lam) == pytest.approx(dual, abs=1e-9)


def test_eig_uninformative_limit_and_rank_deficiency():
    rng = np.random.default_rng(24)
    g = random_rows(rng, 3, 8)
    want = 0.5 * slogdet(g.rows @ g.rows.T)
    assert eig_uninformative_limit(g) == pytest.approx(want, abs=1e-9)

    doubled = JacobianDataMatrix(np.vstack([g.rows, g.rows[:1]]), SAMPLED)
    with pytest.raises(SingularGram):
        eig_uninformative_limit(doubled)


def test_epig_zero_acquisition_scores_zero():
    rng = np.random.default_rng(31)
    ga = JacobianDataMatrix(np.zeros((2, 6)), SAMPLED)
    ge = random_rows(rng, 4, 6)
    p = random_spd(rng, 6)
    assert epig_via_similarity(ga, ge, p) == pytest.approx(0.0, abs=1e-12)


def test_epig_single_pair_closed_form():
    # one shared row g: joint block is [[1+s, s], [s, 1+s]] with
    # s = g P^-1 g^T, so the score is log((1+s)^2 / (1+2s)) / 2.
    rng = np.random.default_rng(32)
    row = rng.standard_normal(5)
    g = JacobianDataMatrix(row[None, :], SAMPLED)
    p = random_spd(rng, 5)
    s = float(row @ np.linalg.inv(p) @ row)
    want = 0.5 * (2.0 * np.log1p(s) - np.log1p(2.0 * s))
    assert epig_via_similarity(g, g, p) == pytest.approx(want, rel=1e-10)


def test_epig_recomposes_from_eig_terms():
    rng = np.random.default_rng(33)
    for _ in range(10):
        ga = random_rows(rng, 3, 9)
        ge = random_rows(rng, 4, 9)
        p = random_spd(rng, 9)
        stacked = JacobianDataMatrix(np.vstack([ga.rows, ge.rows]), SAMPLED)
        want = (
            eig_via_similarity(ge, p)
            - eig_via_similarity(stacked, p)
            + eig_via_similarity(ga, p)
        )
        got = epig_via_similarity(ga, ge, p)
        assert got == pytest.approx(want, abs=1e-9)
        assert got >= -1e-10


def test_epig_diagonal_blocks_match_their_own_grams():
    # the former form: acquisition, eval and joint Grams formed separately.
    # Values round relative to the three log-dets the score subtracts.
    rng = np.random.default_rng(35)
    for n_acq, n_eval, k in ((1, 1, 5), (3, 4, 9), (6, 10, 12), (20, 30, 8)):
        ga, ge = random_rows(rng, n_acq, k), random_rows(rng, n_eval, k)
        p = PsdMatrix(random_spd(rng, k))
        stacked = JacobianDataMatrix(np.vstack([ga.rows, ge.rows]), SAMPLED)
        terms = [
            chol_logdet(cross(g, g, p) + np.eye(g.n)) for g in (ge, stacked, ga)
        ]
        want = 0.5 * (terms[0] - terms[1] + terms[2])
        got = epig_via_similarity(ga, ge, p)
        assert abs(got - want) <= 1e-12 * (1.0 + sum(abs(v) for v in terms))


def test_epig_flat_prior_terms_cancel_in_the_limit():
    # with P = lam * Id every block scales like 1/lam but the log lam
    # terms cancel, leaving a finite limit: half the Euclidean-block
    # mutual information. Check convergence through three decades.
    rng = np.random.default_rng(34)
    ga = random_rows(rng, 3, 12)
    ge = random_rows(rng, 4, 12)
    vals = [
        epig_via_similarity(ga, ge, PsdMatrix(lam * np.eye(12)))
        for lam in (1e-2, 1e-4, 1e-6)
    ]
    limit = 0.5 * logdet_mi(
        ga.rows @ ga.rows.T, ge.rows @ ge.rows.T, ga.rows @ ge.rows.T
    )
    assert abs(vals[2] - limit) < 1e-4
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])


# ---------------------------------------------------------------------------
# log-det MI objectives


def test_logdet_mi_independent_blocks_score_zero():
    rng = np.random.default_rng(41)
    sa = random_spd(rng, 3)
    se = random_spd(rng, 2)
    assert logdet_mi(sa, se, np.zeros((3, 2))) == pytest.approx(0.0, abs=1e-12)


def test_logdet_mi_scalar_schur():
    assert logdet_mi(
        np.array([[2.0]]), np.array([[4.0]]), np.array([[1.0]])
    ) == pytest.approx(np.log(2.0) - np.log(2.0 - 0.25), rel=1e-12)


def test_logdet_mi_rearrangement():
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = rng.standard_normal((2, 10))
        e = rng.standard_normal((3, 10))
        sa, se, c = a @ a.T, e @ e.T, a @ e.T
        want = -slogdet(
            np.eye(2) - np.linalg.inv(sa) @ c @ np.linalg.inv(se) @ c.T
        )
        assert logdet_mi(sa, se, c) == pytest.approx(want, abs=1e-9)


def test_logdet_mi_singular_inputs_raise():
    rng = np.random.default_rng(43)
    e = rng.standard_normal((3, 10))
    se = e @ e.T
    rank_deficient = np.ones((2, 2))
    with pytest.raises(SingularGram):
        logdet_mi(rank_deficient, se, np.zeros((2, 3)))
    # acquisition row inside the eval row space: Schur complement vanishes
    a = e[:1]
    with pytest.raises(SingularGram):
        logdet_mi(a @ a.T, se, a @ e.T)


def test_logdet_cmi_empty_conditioning_reduces_to_mi():
    rng = np.random.default_rng(44)
    ga = random_rows(rng, 2, 9)
    ge = random_rows(rng, 3, 9)
    want = logdet_mi(
        ga.rows @ ga.rows.T, ge.rows @ ge.rows.T, ga.rows @ ge.rows.T
    )
    assert logdet_cmi(ga, ge) == pytest.approx(want, abs=1e-10)
    empty = JacobianDataMatrix(np.zeros((0, 9)), SAMPLED)
    assert logdet_cmi(ga, ge, empty) == pytest.approx(want, abs=1e-10)


def test_logdet_cmi_orthogonal_blocks_score_zero():
    ga = JacobianDataMatrix(np.eye(4)[:2], SAMPLED)
    ge = JacobianDataMatrix(np.eye(4)[2:], SAMPLED)
    assert logdet_cmi(ga, ge) == pytest.approx(0.0, abs=1e-12)


def test_logdet_cmi_information_decomposition():
    # conditional MI as a difference of joint-Gram log determinants,
    # computed independently with slogdet.
    rng = np.random.default_rng(45)

    def mi(rows, eval_rows):
        joint = np.vstack([rows, eval_rows])
        return (
            slogdet(rows @ rows.T)
            + slogdet(eval_rows @ eval_rows.T)
            - slogdet(joint @ joint.T)
        )

    for _ in range(10):
        ga = random_rows(rng, 2, 9)
        ge = random_rows(rng, 2, 9)
        gc = random_rows(rng, 1, 9)
        stacked = np.vstack([ga.rows, gc.rows])
        want = mi(stacked, ge.rows) - mi(gc.rows, ge.rows)
        assert logdet_cmi(ga, ge, gc) == pytest.approx(want, abs=1e-8)
