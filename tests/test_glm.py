import numpy as np
import pytest
import scipy.optimize

from infoselect.errors import (
    DidNotConverge,
    DimensionMismatch,
    LabelOutOfRange,
    MissingLabels,
)
from infoselect.glm import (
    Dataset,
    GlmModel,
    Head,
    fisher_batch,
    fisher_information,
    logits,
    map_fit,
    nll,
    observed_information,
    predictive,
    score_jacobian,
    _map_gradient,
    _map_objective,
)


def random_model(rng, d=3, c=4, kind="categorical"):
    head = Head.categorical(c) if kind == "categorical" else Head.gaussian()
    return GlmModel(head, rng.standard_normal((d, head.num_outputs)))


# ---------------------------------------------------------------------------
# datasets and heads


def test_dataset_shape_checks():
    with pytest.raises(DimensionMismatch):
        Dataset(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        Dataset(np.zeros((3, 2)), labels=[0, 1])
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf, 0.0]]))


def test_dataset_labels_optional():
    d = Dataset(np.zeros((2, 3)))
    assert not d.is_labeled
    with pytest.raises(MissingLabels):
        d.require_labels()
    sub = Dataset(np.eye(3), labels=[0, 1, 2]).subset([2, 0])
    assert sub.n == 2 and list(sub.labels) == [2, 0]


def test_head_validation():
    with pytest.raises(ValueError):
        Head.categorical(1)
    with pytest.raises(ValueError):
        Head("poisson", 3)
    head = Head.categorical(3)
    assert head.validate_label(2) == 2
    with pytest.raises(LabelOutOfRange):
        head.validate_label(3)
    with pytest.raises(LabelOutOfRange):
        head.validate_label(0.5)
    with pytest.raises(LabelOutOfRange):
        Head.gaussian().validate_label(np.nan)


def test_sample_label_deterministic():
    head = Head.categorical(3)
    z = np.array([0.1, 0.5, -0.3])
    a = head.sample_label(z, np.random.default_rng(5))
    b = head.sample_label(z, np.random.default_rng(5))
    assert a == b


# ---------------------------------------------------------------------------
# likelihood pieces


def test_logits_loop_oracle():
    rng = np.random.default_rng(0)
    m = random_model(rng)
    x = rng.standard_normal(3)
    z = logits(m, x)
    for c in range(4):
        assert z[c] == pytest.approx(sum(m.weights[i, c] * x[i] for i in range(3)), abs=1e-14)


def test_predictive_naive_softmax_oracle():
    rng = np.random.default_rng(1)
    m = random_model(rng)
    x = rng.standard_normal(3)
    z = logits(m, x)
    naive = np.exp(z) / np.exp(z).sum()
    assert np.allclose(predictive(m, x), naive, atol=1e-12)


def test_nll_pinned_values():
    # two equal logits -> ln 2; gaussian at its mean -> 0.5 log(2 pi)
    m = GlmModel(Head.categorical(2), np.zeros((2, 2)))
    assert nll(m, [1.0, 0.0], 0) == pytest.approx(np.log(2.0), abs=1e-12)
    g = GlmModel(Head.gaussian(), np.array([[1.0], [0.0]]))
    assert nll(g, [2.0, 5.0], 2.0) == pytest.approx(0.5 * np.log(2.0 * np.pi), abs=1e-12)


def test_nll_stable_for_large_logits():
    m = GlmModel(Head.categorical(2), np.array([[1000.0, 0.0]]))
    assert np.isfinite(nll(m, [1.0], 1))
    assert nll(m, [1.0], 0) == pytest.approx(0.0, abs=1e-12)


def test_flat_weight_layout():
    # flat index c*D + i holds weights[i, c]
    rng = np.random.default_rng(2)
    m = random_model(rng, d=3, c=4)
    flat = m.flat_weights()
    for c in range(4):
        for i in range(3):
            assert flat[c * 3 + i] == m.weights[i, c]
    back = GlmModel.from_flat(m.head, 3, flat)
    assert np.array_equal(back.weights, m.weights)


# ---------------------------------------------------------------------------
# derivatives vs finite differences


def _fd_gradient(head, d, flat, x, y, step=1e-5):
    grad = np.zeros_like(flat)
    for j in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[j] += step
        dn[j] -= step
        grad[j] = (
            nll(GlmModel.from_flat(head, d, up), x, y)
            - nll(GlmModel.from_flat(head, d, dn), x, y)
        ) / (2 * step)
    return grad


def _fd_hessian(head, d, flat, x, y, step=1e-5):
    k = flat.size
    hess = np.zeros((k, k))
    for j in range(k):
        up, dn = flat.copy(), flat.copy()
        up[j] += step
        dn[j] -= step
        hess[:, j] = (
            _fd_gradient(head, d, up, x, y) - _fd_gradient(head, d, dn, x, y)
        ) / (2 * step)
    return hess


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_score_jacobian_matches_finite_differences(kind):
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = random_model(rng, d=3, c=3, kind=kind)
        x = rng.standard_normal(3)
        y = int(rng.integers(3)) if kind == "categorical" else float(rng.normal())
        got = score_jacobian(m, x, y)
        want = _fd_gradient(m.head, 3, m.flat_weights(), x, y)
        assert np.max(np.abs(got - want)) <= 1e-6


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_observed_information_matches_finite_differences(kind):
    rng = np.random.default_rng(4)
    for _ in range(25):
        m = random_model(rng, d=2, c=3, kind=kind)
        x = rng.standard_normal(2)
        y = int(rng.integers(3)) if kind == "categorical" else float(rng.normal())
        got = observed_information(m, x, y).values
        want = _fd_hessian(m.head, 2, m.flat_weights(), x, y)
        assert np.max(np.abs(got - want)) <= 1e-5


def test_observed_information_is_label_free():
    rng = np.random.default_rng(5)
    m = random_model(rng)
    x = rng.standard_normal(3)
    h0 = observed_information(m, x, 0).values
    for y in range(1, 4):
        assert np.max(np.abs(observed_information(m, x, y).values - h0)) <= 1e-12
    assert np.max(np.abs(observed_information(m, x).values - h0)) <= 1e-12
    assert np.max(np.abs(fisher_information(m, x).values - h0)) <= 1e-12


def test_fisher_is_score_covariance():
    # class-sum oracle: sum_y p(y) J_y J_y^T
    rng = np.random.default_rng(6)
    m = random_model(rng)
    x = rng.standard_normal(3)
    pi = predictive(m, x)
    total = np.zeros((12, 12))
    for y in range(4):
        j = score_jacobian(m, x, y)
        total += pi[y] * np.outer(j, j)
    assert np.max(np.abs(fisher_information(m, x).values - total)) <= 1e-10


def test_vanishing_score_expectation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_model(rng)
        x = rng.standard_normal(3)
        pi = predictive(m, x)
        mean = sum(pi[y] * score_jacobian(m, x, y) for y in range(4))
        assert np.max(np.abs(mean)) <= 1e-10


def test_fisher_kron_naive_oracle():
    # entry oracle: F[(c,i),(d,j)] = curvature[c,d] * x[i] * x[j]
    rng = np.random.default_rng(8)
    m = random_model(rng, d=2, c=3)
    x = rng.standard_normal(2)
    lam = m.head.curvature(logits(m, x))
    f = fisher_information(m, x).values
    for c in range(3):
        for dd in range(3):
            for i in range(2):
                for j in range(2):
                    assert f[c * 2 + i, dd * 2 + j] == pytest.approx(
                        lam[c, dd] * x[i] * x[j], abs=1e-12
                    )


def test_fisher_batch_is_sum_of_singles():
    rng = np.random.default_rng(9)
    m = random_model(rng)
    xs = rng.standard_normal((6, 3))
    total = sum(fisher_information(m, x).values for x in xs)
    assert np.allclose(fisher_batch(m, xs), total, atol=1e-10)
    assert np.array_equal(fisher_batch(m, np.zeros((0, 3))), np.zeros((12, 12)))


# ---------------------------------------------------------------------------
# MAP fitting


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_map_objective_and_gradient_match_per_row_sums(kind):
    # oracle: the per-row nll and score_jacobian sums the fit minimizes
    rng = np.random.default_rng(13)
    m = random_model(rng, d=3, c=4, kind=kind)
    xs = rng.standard_normal((25, 3))
    if kind == "categorical":
        ys = rng.integers(0, 4, size=25)
    else:
        ys = rng.standard_normal(25)
    data, lam, w = Dataset(xs, ys), 0.7, m.flat_weights()
    want_value = sum(nll(m, x, y) for x, y in zip(xs, ys)) + 0.5 * lam * w @ w
    want_grad = lam * w + sum(score_jacobian(m, x, y) for x, y in zip(xs, ys))
    assert _map_objective(m, data, lam) == pytest.approx(want_value, rel=1e-10)
    scale = np.max(np.abs(want_grad))
    np.testing.assert_allclose(
        _map_gradient(m, data, lam), want_grad, rtol=1e-10, atol=1e-10 * scale
    )


def test_map_fit_closed_form_ridge():
    # gaussian head, one weight: argmin is sum(x*y) / (sum(x^2) + lam)
    xs = np.array([[1.0], [2.0], [-1.0], [0.5]])
    ys = np.array([0.3, 1.1, -0.2, 0.4])
    lam = 0.7
    model = map_fit(Dataset(xs, ys), Head.gaussian(), lam, tol=1e-12)
    expected = float(xs[:, 0] @ ys) / (float(xs[:, 0] @ xs[:, 0]) + lam)
    assert model.weights[0, 0] == pytest.approx(expected, abs=1e-8)


def test_map_fit_matches_bfgs_oracle():
    # independent optimizer on the same objective
    rng = np.random.default_rng(10)
    xs = rng.standard_normal((30, 3))
    ys = rng.integers(0, 3, size=30)
    data = Dataset(xs, ys)
    head = Head.categorical(3)
    lam = 0.5
    model = map_fit(data, head, lam, tol=1e-10)

    def objective(flat):
        m = GlmModel.from_flat(head, 3, flat)
        return sum(nll(m, x, y) for x, y in zip(xs, ys)) + 0.5 * lam * flat @ flat

    res = scipy.optimize.minimize(objective, np.zeros(9), method="BFGS", tol=1e-12)
    assert objective(model.flat_weights()) <= res.fun + 1e-8
    assert np.max(np.abs(model.flat_weights() - res.x)) <= 1e-4


def test_map_fit_reports_convergence():
    rng = np.random.default_rng(11)
    xs = rng.standard_normal((20, 2))
    ys = rng.integers(0, 2, size=20)
    model, info = map_fit(Dataset(xs, ys), Head.categorical(2), 1.0, full_output=True)
    assert info.grad_norm <= 1e-6
    assert info.iterations >= 1
    assert model.weights.shape == (2, 2)


def test_map_fit_did_not_converge_carries_state():
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((20, 2))
    ys = rng.integers(0, 2, size=20)
    with pytest.raises(DidNotConverge) as err:
        map_fit(Dataset(xs, ys), Head.categorical(2), 1.0, max_iters=1, tol=0.0)
    assert err.value.weights is not None
    assert err.value.grad_norm > 0.0


def test_map_fit_input_checks():
    with pytest.raises(ValueError):
        map_fit(Dataset(np.zeros((0, 2)), np.zeros(0)), Head.categorical(2), 1.0)
    with pytest.raises(MissingLabels):
        map_fit(Dataset(np.ones((2, 2))), Head.categorical(2), 1.0)
    with pytest.raises(LabelOutOfRange):
        map_fit(Dataset(np.ones((1, 2)), [5]), Head.categorical(2), 1.0)
