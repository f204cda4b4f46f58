import itertools

import numpy as np
import pytest

from conftest import fitted_setup
from infoselect.errors import DimensionMismatch, EmptyEvalSet, EmptySampleSet
from infoselect.glm import (
    Dataset,
    GlmModel,
    Head,
    fisher_batch,
    predictive,
    score_jacobian,
)
from infoselect.linalg import PsdMatrix
from infoselect.posterior import GaussianPosterior, entropy_approx
from infoselect.scores import (
    ScorePair,
    Scorer,
    conditional_entropy_proxy,
    egl_score,
    eig_pool_scores,
    eig_score,
    epig_pool_scores,
    epig_score,
    grand_score,
    ig_score,
    jepig_pool_scores,
    jepig_score,
    jpig_score,
    pig_score,
)

LOG_TWO_PI_E = np.log(2.0 * np.pi) + 1.0


def test_scorer_rejects_mismatched_posterior():
    _, model, _, _ = fitted_setup(seed=0, n=20, d=3, c=3)
    wrong = GaussianPosterior(np.zeros(4), PsdMatrix.identity(4), 1.0)
    with pytest.raises(DimensionMismatch):
        Scorer(model, wrong)


def test_eig_eigenvalue_oracle():
    # oracle: both terms from independent eigendecompositions and an
    # explicit inverse
    data, model, post, s = fitted_setup(seed=1)
    xs = data.features[:3]
    f = fisher_batch(model, xs)
    p = post.precision.values
    want_logdet = 0.5 * (
        np.sum(np.log(np.linalg.eigvalsh(f + p))) - np.sum(np.log(np.linalg.eigvalsh(p)))
    )
    want_trace = 0.5 * np.trace(np.linalg.inv(p) @ f)
    got = eig_score(s, xs)
    assert got.logdet == pytest.approx(want_logdet, rel=1e-9)
    assert got.trace == pytest.approx(want_trace, rel=1e-9)


def test_eig_empty_and_zero_candidates():
    _, _, _, s = fitted_setup(seed=2)
    assert eig_score(s, np.zeros((0, 3))) == ScorePair(0.0, 0.0)
    zeroed = eig_score(s, np.zeros((1, 3)))
    assert zeroed.logdet == pytest.approx(0.0, abs=1e-9)
    assert zeroed.trace == pytest.approx(0.0, abs=1e-12)


def test_eig_logdet_bounded_by_trace():
    # logdet(F P^-1 + I) <= tr(F P^-1), so the pair is ordered
    data, _, _, s = fitted_setup(seed=3, n=60)
    for i in range(0, 50, 5):
        pair = eig_score(s, data.features[i : i + 3])
        assert pair.logdet <= pair.trace + 1e-9
        assert pair.logdet >= 0.0 - 1e-12


def test_ig_equals_eig_on_same_inputs():
    # label independence of the curvature
    data, _, _, s = fitted_setup(seed=4)
    xs = data.features[:4]
    labeled = list(zip(xs, data.labels[:4]))
    a, b = ig_score(s, labeled), eig_score(s, xs)
    assert a.logdet == pytest.approx(b.logdet, abs=1e-12)
    assert a.trace == pytest.approx(b.trace, abs=1e-12)
    relabeled = [(x, (y + 1) % 3) for x, y in labeled]
    c = ig_score(s, relabeled)
    assert c.logdet == pytest.approx(b.logdet, abs=1e-12)


def test_ig_accepts_labeled_dataset():
    data, _, _, s = fitted_setup(seed=5)
    sub = data.subset(range(4))
    a = ig_score(s, sub)
    b = eig_score(s, sub.features)
    assert a.logdet == pytest.approx(b.logdet, abs=1e-12)


def test_conditional_entropy_proxy_identity():
    # proxy == eig.logdet - posterior entropy, and the empty batch gives
    # minus the entropy
    data, _, post, s = fitted_setup(seed=6)
    xs = data.features[:3]
    want = eig_score(s, xs).logdet - entropy_approx(post)
    assert conditional_entropy_proxy(s, xs) == pytest.approx(want, abs=1e-10)
    assert conditional_entropy_proxy(s, np.zeros((0, 3))) == pytest.approx(
        -entropy_approx(post), abs=1e-10
    )


def test_epig_dense_formula_oracle():
    # oracle: dense slogdet/inv evaluation of the defining expression
    data, model, post, s = fitted_setup(seed=7, n=60)
    cand = data.features[:2]
    ev = data.features[10:25]
    f_cand = fisher_batch(model, cand)
    e_mean = fisher_batch(model, ev) / ev.shape[0]
    p = post.precision.values
    q = f_cand + p
    want_logdet = 0.5 * (np.linalg.slogdet(e_mean + q)[1] - np.linalg.slogdet(q)[1])
    want_trace = 0.5 * np.trace(np.linalg.inv(q) @ e_mean)
    got = epig_score(s, cand, ev)
    assert got.logdet == pytest.approx(want_logdet, rel=1e-9)
    assert got.trace == pytest.approx(want_trace, rel=1e-9)


def test_jepig_dense_formula_oracle():
    data, model, post, s = fitted_setup(seed=8, n=60)
    cand = data.features[:2]
    ev = data.features[10:25]
    f_cand = fisher_batch(model, cand)
    e_sum = fisher_batch(model, ev)
    q = f_cand + post.precision.values
    want_logdet = 0.5 * (np.linalg.slogdet(e_sum + q)[1] - np.linalg.slogdet(q)[1])
    got = jepig_score(s, cand, ev)
    assert got.logdet == pytest.approx(want_logdet, rel=1e-9)


def test_jepig_trace_is_m_times_epig_trace():
    data, _, _, s = fitted_setup(seed=9, n=60)
    cand = data.features[:3]
    ev = data.features[5:17]
    m = ev.shape[0]
    a, b = epig_score(s, cand, ev), jepig_score(s, cand, ev)
    assert b.trace == pytest.approx(m * a.trace, abs=1e-10)
    # the log-det variants genuinely differ once m >= 2
    assert abs(b.logdet - m * a.logdet) > 1e-6
    assert abs(b.logdet - a.logdet) > 1e-6


def test_jepig_single_eval_point_equals_epig():
    data, _, _, s = fitted_setup(seed=10)
    cand = data.features[:2]
    ev = data.features[5:6]
    assert jepig_score(s, cand, ev) == epig_score(s, cand, ev)


def test_transductive_scores_reject_empty_eval():
    data, _, _, s = fitted_setup(seed=11)
    with pytest.raises(EmptyEvalSet):
        epig_score(s, data.features[:2], np.zeros((0, 3)))
    with pytest.raises(EmptyEvalSet):
        jepig_score(s, data.features[:2], np.zeros((0, 3)))
    with pytest.raises(EmptyEvalSet):
        pig_score(s, data.subset([0]), Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int)))


def test_pig_jpig_equal_their_unlabeled_twins():
    data, _, _, s = fitted_setup(seed=12, n=50)
    cands = data.subset([0, 1])
    evals = data.subset(range(10, 20))
    a, b = pig_score(s, cands, evals), epig_score(s, cands.features, evals.features)
    assert a.logdet == pytest.approx(b.logdet, abs=1e-12)
    assert a.trace == pytest.approx(b.trace, abs=1e-12)
    c, d = jpig_score(s, cands, evals), jepig_score(s, cands.features, evals.features)
    assert c.logdet == pytest.approx(d.logdet, abs=1e-12)


def test_trace_is_additive_logdet_is_not():
    # the batch pathology: trace ignores redundancy, log-det does not.
    # Zero weights give a uniform predictive and the weak prior keeps the
    # candidate Fisher comparable to the precision, so the gap is visible.
    model = GlmModel(Head.categorical(3), np.zeros((3, 3)))
    post = GaussianPosterior(np.zeros(9), PsdMatrix(0.1 * np.eye(9)), 0.1)
    s = Scorer(model, post)
    x = np.array([1.0, 0.5, -0.2])
    single = eig_score(s, x[None, :])
    double = eig_score(s, np.stack([x, x]))
    assert double.trace == pytest.approx(2.0 * single.trace, abs=1e-10)
    assert double.logdet < 2.0 * single.logdet - 1e-3


def test_eig_trace_additive_over_disjoint_batches():
    data, _, _, s = fitted_setup(seed=14, n=50)
    a, b = data.features[:3], data.features[3:8]
    both = eig_score(s, np.vstack([a, b]))
    assert both.trace == pytest.approx(
        eig_score(s, a).trace + eig_score(s, b).trace, abs=1e-10
    )


def test_eig_logdet_is_submodular_exhaustively():
    # every S subset T and outside candidate a:
    # gain(S, a) >= gain(T, a)
    data, _, _, s = fitted_setup(seed=15, n=30)
    pool = data.features[:6]

    def value(subset):
        if not subset:
            return 0.0
        return eig_score(s, pool[list(subset)]).logdet

    universe = range(6)
    for t_size in range(3):
        for t in itertools.combinations(universe, t_size):
            for a in universe:
                if a in t:
                    continue
                gain_t = value(t + (a,)) - value(t)
                for s_size in range(t_size + 1):
                    for sub in itertools.combinations(t, s_size):
                        gain_s = value(sub + (a,)) - value(sub)
                        assert gain_s >= gain_t - 1e-9


def test_eig_logdet_monotone():
    data, _, _, s = fitted_setup(seed=16, n=40)
    pool = data.features[:5]
    base = eig_score(s, pool[:2]).logdet
    assert eig_score(s, pool[:3]).logdet >= base - 1e-12
    assert base >= 0.0 - 1e-12


def test_pool_helpers_match_singletons():
    data, _, _, s = fitted_setup(seed=17, n=50)
    pool = data.features[:8]
    ev = data.features[10:20]
    for got, x in zip(map(ScorePair, *eig_pool_scores(s, pool)), pool):
        want = eig_score(s, x[None, :])
        assert got.logdet == pytest.approx(want.logdet, abs=1e-12)
        assert got.trace == pytest.approx(want.trace, abs=1e-12)
    for got, x in zip(map(ScorePair, *epig_pool_scores(s, pool, ev)), pool):
        want = epig_score(s, x[None, :], ev)
        assert got.logdet == pytest.approx(want.logdet, abs=1e-12)
        assert got.trace == pytest.approx(want.trace, abs=1e-12)
    for got, x in zip(map(ScorePair, *jepig_pool_scores(s, pool, ev)), pool):
        want = jepig_score(s, x[None, :], ev)
        assert got.logdet == pytest.approx(want.logdet, abs=1e-12)


def test_egl_equals_fisher_trace():
    data, model, _, s = fitted_setup(seed=18)
    for x in data.features[:10]:
        want = float(np.trace(fisher_batch(model, x[None, :])))
        assert egl_score(s, x) == pytest.approx(want, abs=1e-10)


def test_egl_matches_class_enumeration():
    # oracle: sum_y pi_y ||score_jacobian(x, y)||^2 over every class
    data, model, _, s = fitted_setup(seed=18)
    for x in data.features[:10]:
        js = [score_jacobian(model, x, y) for y in range(model.num_outputs)]
        want = sum(p * float(j @ j) for p, j in zip(predictive(model, x), js))
        assert egl_score(s, x) == pytest.approx(want, rel=1e-10)


def test_egl_gaussian_is_squared_norm():
    rng = np.random.default_rng(19)
    xs = rng.standard_normal((12, 2))
    ys = rng.standard_normal(12)
    from infoselect.glm import map_fit
    from infoselect.posterior import build_posterior

    model = map_fit(Dataset(xs, ys), Head.gaussian(), 1.0)
    post = build_posterior(model, Dataset(xs, ys), 1.0)
    s = Scorer(model, post)
    x = np.array([0.3, -1.2])
    assert egl_score(s, x) == pytest.approx(float(x @ x), abs=1e-12)


def test_egl_shape_check():
    _, _, _, s = fitted_setup(seed=20)
    with pytest.raises(DimensionMismatch):
        egl_score(s, np.zeros(5))


def test_grand_definition_oracle():
    # oracle: rebuild each sampled model and average the squared gradient
    data, model, _, s = fitted_setup(seed=21)
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((6, model.num_weights))
    x, y = data.features[0], int(data.labels[0])
    want = np.mean(
        [
            float(np.sum(score_jacobian(GlmModel.from_flat(model.head, 3, w), x, y) ** 2))
            for w in samples
        ]
    )
    assert grand_score(s, x, y, samples) == pytest.approx(want, abs=1e-12)


def test_grand_rejects_empty_samples():
    data, _, _, s = fitted_setup(seed=22)
    with pytest.raises(EmptySampleSet):
        grand_score(s, data.features[0], 0, np.zeros((0, s.num_weights)))


def test_grand_at_mode_exceeds_vanishing_expectation():
    # at the fitted mode itself, an on-model label gives a small gradient;
    # a wrong confident label gives a bigger one
    data, model, _, s = fitted_setup(seed=23, n=60, class_sep=4.0)
    w = model.flat_weights()[None, :]
    x = data.features[0]
    y = int(data.labels[0])
    right = grand_score(s, x, y, w)
    wrong = grand_score(s, x, (y + 1) % 3, w)
    assert wrong > right
