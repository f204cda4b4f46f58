from unittest import mock

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import fitted_setup
from infoselect.errors import (
    DegenerateConstantInput,
    EmptyEvalSet,
    LengthMismatch,
    TooFewSamples,
    TooManyConfigurations,
)
from infoselect import prediction
from infoselect.glm import Head
from infoselect.prediction import (
    PosteriorSamples,
    bald_mc,
    draw_posterior_samples,
    epig_mc,
    joint_eig_exact,
    mc_pool_scores,
    predictive_probs,
    spearman,
)

HEAD2 = Head.categorical(2)

# two samples whose predictives at x=1 are (almost exactly) (1,0) and (0,1)
OPPOSED = PosteriorSamples(np.array([[20.0, -20.0], [-20.0, 20.0]]), seed=0)
X1 = np.array([1.0])


def softmax(z):
    e = np.exp(z - np.max(z))
    return e / e.sum()


def manual_probs(weights, head, x):
    c = head.num_outputs
    d = len(x)
    return np.array([softmax(w.reshape(c, d) @ x) for w in weights])


# ---------------------------------------------------------------------------
# BALD


def test_bald_identical_samples_score_zero():
    samples = PosteriorSamples(np.tile([[0.3, -0.7]], (5, 1)), seed=0)
    assert bald_mc(samples, HEAD2, X1) == 0.0


def test_bald_maximal_disagreement_is_log_two():
    assert bald_mc(OPPOSED, HEAD2, X1) == pytest.approx(np.log(2.0), abs=1e-9)


def test_bald_bounded_by_log_classes():
    _, model, post, _ = fitted_setup(seed=1, n=40, d=3, c=4)
    samples = draw_posterior_samples(post, 200, seed=3)
    rng = np.random.default_rng(4)
    for x in rng.standard_normal((10, 3)):
        v = bald_mc(samples, model.head, x)
        assert 0.0 <= v <= np.log(4.0) + 1e-9


def test_bald_pool_matches_single_point_calls():
    _, model, post, _ = fitted_setup(seed=2, n=40, d=3, c=3)
    samples = draw_posterior_samples(post, 100, seed=5)
    xs = np.random.default_rng(6).standard_normal((7, 3))
    pooled = mc_pool_scores(samples, model.head, xs)[0]
    singles = [bald_mc(samples, model.head, x) for x in xs]
    np.testing.assert_allclose(pooled, singles, atol=1e-12)


def test_bald_requires_two_samples():
    one = PosteriorSamples(np.zeros((1, 2)), seed=0)
    with pytest.raises(TooFewSamples):
        bald_mc(one, HEAD2, X1)
    with pytest.raises(TooFewSamples):
        mc_pool_scores(one, HEAD2, X1[None, :])


def test_predictive_probs_against_manual_softmax():
    _, model, post, _ = fitted_setup(seed=3, n=40, d=3, c=3)
    samples = draw_posterior_samples(post, 20, seed=7)
    xs = np.random.default_rng(8).standard_normal((4, 3))
    probs = predictive_probs(samples, model.head, xs)
    for i, x in enumerate(xs):
        np.testing.assert_allclose(
            probs[i], manual_probs(samples.weights, model.head, x), atol=1e-12
        )


# ---------------------------------------------------------------------------
# joint EIG by exact enumeration


def test_joint_singleton_equals_bald():
    _, model, post, _ = fitted_setup(seed=4, n=40, d=3, c=3)
    samples = draw_posterior_samples(post, 150, seed=9)
    rng = np.random.default_rng(10)
    for x in rng.standard_normal((5, 3)):
        assert joint_eig_exact(samples, model.head, x[None, :]) == pytest.approx(
            bald_mc(samples, model.head, x), abs=1e-12
        )


def test_joint_pair_against_hand_enumeration():
    # batch of 2, C=2, 3 samples: walk all four label configurations by hand.
    rng = np.random.default_rng(11)
    samples = PosteriorSamples(rng.standard_normal((3, 2)), seed=0)
    xs = rng.standard_normal((2, 1))
    got = joint_eig_exact(samples, HEAD2, xs)

    p0 = manual_probs(samples.weights, HEAD2, xs[0])
    p1 = manual_probs(samples.weights, HEAD2, xs[1])
    mixture = np.zeros((2, 2))
    mean_entropy = 0.0
    for s in range(3):
        for y0 in range(2):
            for y1 in range(2):
                pr = p0[s, y0] * p1[s, y1]
                mixture[y0, y1] += pr / 3.0
                mean_entropy -= pr * np.log(pr) / 3.0
    want = -np.sum(mixture * np.log(mixture)) - mean_entropy
    assert got == pytest.approx(want, abs=1e-12)


def test_joint_duplicate_batch_below_twice_single():
    v1 = bald_mc(OPPOSED, HEAD2, X1)
    v2 = joint_eig_exact(OPPOSED, HEAD2, np.vstack([X1, X1]))
    assert v1 > 0.0
    assert v2 < 2.0 * v1 - 1e-6
    assert v2 <= 2.0 * np.log(2.0) + 1e-9


def test_joint_configuration_budget():
    samples = PosteriorSamples(np.zeros((2, 10)), seed=0)
    with pytest.raises(TooManyConfigurations):
        joint_eig_exact(samples, Head.categorical(10), np.ones((6, 1)))


# ---------------------------------------------------------------------------
# EPIG


def test_epig_identical_samples_score_zero():
    samples = PosteriorSamples(np.tile([[0.3, -0.7]], (5, 1)), seed=0)
    xs = np.array([[1.0], [2.0]])
    assert epig_mc(samples, HEAD2, X1, xs) == pytest.approx(0.0, abs=1e-12)


def test_epig_self_point_equals_log_two():
    assert epig_mc(OPPOSED, HEAD2, X1, X1[None, :]) == pytest.approx(
        np.log(2.0), abs=1e-9
    )


def test_epig_against_joint_table_oracle():
    # independent KL-form oracle: sum p log(p / (p_e p_a)) over the C x C
    # joint assembled from explicit per-sample outer products.
    _, model, post, _ = fitted_setup(seed=5, n=40, d=3, c=2)
    samples = draw_posterior_samples(post, 60, seed=12)
    rng = np.random.default_rng(13)
    x_acq = rng.standard_normal(3)
    eval_xs = rng.standard_normal((4, 3))

    pa = manual_probs(samples.weights, model.head, x_acq)
    total = 0.0
    for xe in eval_xs:
        pe = manual_probs(samples.weights, model.head, xe)
        joint = np.zeros((2, 2))
        for s in range(samples.n_samples):
            joint += np.outer(pe[s], pa[s]) / samples.n_samples
        me, ma = joint.sum(axis=1), joint.sum(axis=0)
        for i in range(2):
            for j in range(2):
                if joint[i, j] > 0.0:
                    total += joint[i, j] * np.log(joint[i, j] / (me[i] * ma[j]))
    want = total / eval_xs.shape[0]
    assert epig_mc(samples, model.head, x_acq, eval_xs) == pytest.approx(
        want, abs=1e-10
    )


def test_epig_pool_matches_single_point_calls():
    _, model, post, _ = fitted_setup(seed=6, n=40, d=3, c=3)
    samples = draw_posterior_samples(post, 80, seed=14)
    rng = np.random.default_rng(15)
    pool = rng.standard_normal((5, 3))
    eval_xs = rng.standard_normal((3, 3))
    with mock.patch.object(prediction, "MC_CHUNK", 2):
        pooled = mc_pool_scores(samples, model.head, pool, eval_xs)[1]
    singles = [epig_mc(samples, model.head, x, eval_xs) for x in pool]
    np.testing.assert_allclose(pooled, singles, atol=1e-12)


def test_epig_input_checks():
    with pytest.raises(EmptyEvalSet):
        epig_mc(OPPOSED, HEAD2, X1, np.zeros((0, 1)))
    with pytest.raises(EmptyEvalSet):
        mc_pool_scores(OPPOSED, HEAD2, X1[None, :], np.zeros((0, 1)))
    one = PosteriorSamples(np.zeros((1, 2)), seed=0)
    with pytest.raises(TooFewSamples):
        epig_mc(one, HEAD2, X1, X1[None, :])


def test_estimator_variance_shrinks_with_more_samples():
    # across independent seeds the spread at 1000 draws should be well
    # under the spread at 100 draws.
    _, model, post, _ = fitted_setup(seed=7, n=40, d=3, c=3)
    x = np.array([0.5, -1.0, 0.25])
    small = [
        bald_mc(draw_posterior_samples(post, 100, seed=s), model.head, x)
        for s in range(30)
    ]
    large = [
        bald_mc(draw_posterior_samples(post, 1000, seed=1000 + s), model.head, x)
        for s in range(30)
    ]
    assert np.std(large) < 0.6 * np.std(small)


# ---------------------------------------------------------------------------
# rank correlation


def test_spearman_monotone_extremes():
    a = np.array([0.1, 0.4, 0.2, 0.9, 0.5])
    assert spearman(a, a) == pytest.approx(1.0)
    assert spearman(a, -a) == pytest.approx(-1.0)
    assert spearman(a, np.exp(a)) == pytest.approx(1.0)


def test_spearman_pinned_example():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
    # sum of squared rank differences is 4: 1 - 6*4 / (5*24)
    assert spearman(a, b) == pytest.approx(0.8, rel=1e-12)


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(16)
    for _ in range(10):
        a = rng.integers(0, 5, size=20).astype(float)
        b = rng.integers(0, 5, size=20).astype(float) + 0.5 * a
        want = spearmanr(a, b).statistic
        assert spearman(a, b) == pytest.approx(want, abs=1e-12)
        assert -1.0 <= spearman(a, b) <= 1.0


def test_spearman_negation_flips_sign():
    rng = np.random.default_rng(17)
    a = rng.integers(0, 4, size=15).astype(float)
    b = rng.standard_normal(15)
    assert spearman(-a, b) == pytest.approx(-spearman(a, b), abs=1e-12)


def test_spearman_input_checks():
    with pytest.raises(LengthMismatch):
        spearman([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        spearman([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DegenerateConstantInput):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateConstantInput):
        spearman([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
