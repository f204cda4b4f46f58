import itertools
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from conftest import fitted_setup
from infoselect import linalg
from infoselect.errors import BatchTooLarge, EmptyEvalSet, TooManySubsets
from infoselect.glm import GlmModel, Head, fisher_batch, fisher_information
from infoselect.linalg import PsdMatrix
from infoselect.posterior import GaussianPosterior, build_posterior
from infoselect.scores import (
    Scorer,
    eig_score,
    epig_pool_scores,
    epig_score,
    jepig_pool_scores,
    jepig_score,
)
from infoselect.selection import (
    SelectionResult,
    badge_kmeanspp,
    bait_forward_backward,
    exhaustive_best,
    greedy_logdet,
    top_k,
)
from infoselect.similarity import SAMPLED, JacobianDataMatrix


def weak_prior_scorer(d=3, c=3, prior=0.1):
    # zero weights give a uniform predictive; a weak prior keeps candidate
    # Fisher terms comparable to the precision so redundancy is visible.
    model = GlmModel(Head.categorical(c), np.zeros((d, c)))
    k = d * c
    post = GaussianPosterior(np.zeros(k), PsdMatrix(prior * np.eye(k)), prior)
    return Scorer(model, post)


def slogdet(m):
    sign, val = np.linalg.slogdet(m)
    assert sign > 0
    return val


# ---------------------------------------------------------------------------
# top-k


def test_top_k_pinned_and_full_pool():
    r = top_k([3.0, 1.0, 2.0], 2)
    assert r.indices == (0, 2)
    assert r.objective_value == pytest.approx(5.0)
    assert r.gains == (3.0, 2.0)
    assert set(top_k([3.0, 1.0, 2.0], 3).indices) == {0, 1, 2}


def test_top_k_breaks_ties_to_lowest_index():
    assert top_k([1.0, 2.0, 2.0, 0.0], 2).indices == (1, 2)
    assert top_k([5.0, 5.0, 5.0], 2).indices == (0, 1)


def test_top_k_against_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        scores = rng.standard_normal(30)
        k = int(rng.integers(0, 31))
        got = top_k(scores, k)
        want = sorted(range(30), key=lambda i: (-scores[i], i))[:k]
        assert list(got.indices) == want


def test_top_k_bounds():
    with pytest.raises(BatchTooLarge):
        top_k([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        top_k([1.0, 2.0], -1)
    empty = top_k([1.0, 2.0], 0)
    assert empty.indices == () and empty.objective_value == 0.0


def test_selection_result_rejects_duplicates():
    with pytest.raises(ValueError):
        SelectionResult((1, 1), 0.0, "x", (0.0, 0.0))


# ---------------------------------------------------------------------------
# greedy log-det


def test_greedy_first_pick_equals_top_singleton():
    # a pool column is step 0 of selection on the same objective
    rng = np.random.default_rng(1)
    s = weak_prior_scorer()
    pool = rng.standard_normal((7, 3))
    singles = [eig_score(s, x[None, :]).logdet for x in pool]
    got = greedy_logdet(s, pool, 1, "eig")
    assert got.indices == top_k(singles, 1).indices
    assert got.objective_value == pytest.approx(max(singles), abs=1e-12)

    evals = rng.standard_normal((4, 3))
    none = np.zeros((0, 3))
    for objective, pool_scores, score in (
        ("epig", epig_pool_scores, epig_score),
        ("jepig", jepig_pool_scores, jepig_score),
    ):
        column, _ = pool_scores(s, pool, evals)
        got = greedy_logdet(s, pool, 1, objective, evals)
        assert got.indices == (int(np.argmin(column)),)
        empty = score(s, none, evals).logdet
        assert got.gains[0] == pytest.approx(column.min() - empty, abs=1e-12)

    # k = 1 at multiplier 1 is a single forward step, with no drops
    _, column = epig_pool_scores(s, pool, evals)
    got = bait_forward_backward(s, pool, 1, evals, forward_multiplier=1)
    assert got.indices == (int(np.argmin(column)),)
    empty = epig_score(s, none, evals).trace
    assert got.gains[0] == pytest.approx(2.0 * (column.min() - empty), abs=1e-12)


def test_greedy_suppresses_duplicate_candidates():
    # two copies of a high-scoring point plus one independent direction:
    # the additive trace ranking takes both copies, the log-det does not.
    s = weak_prior_scorer()
    pool = np.array([[2.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.5, 0.0]])
    greedy = greedy_logdet(s, pool, 2, "eig")
    assert 2 in greedy.indices
    assert set(greedy.indices) != {0, 1}

    traces = [eig_score(s, x[None, :]).trace for x in pool]
    assert set(top_k(traces, 2).indices) == {0, 1}


def test_greedy_matches_exhaustive_within_submodular_bound():
    rng = np.random.default_rng(2)
    s = weak_prior_scorer()
    bound = 1.0 - 1.0 / np.e - 1e-6
    for _ in range(20):
        pool = 1.5 * rng.standard_normal((8, 3))
        greedy = greedy_logdet(s, pool, 3, "eig")
        best = exhaustive_best(s, pool, 3, "eig")
        assert best.objective_value >= greedy.objective_value - 1e-9
        assert greedy.objective_value >= bound * best.objective_value


def test_greedy_gains_nonincreasing():
    rng = np.random.default_rng(3)
    s = weak_prior_scorer()
    pool = rng.standard_normal((10, 3))
    gains = greedy_logdet(s, pool, 5, "eig").gains
    for a, b in zip(gains, gains[1:]):
        assert b <= a + 1e-9
    assert all(g >= -1e-9 for g in gains)


def test_greedy_objective_recomputes_from_final_set():
    rng = np.random.default_rng(4)
    data, model, post, s = fitted_setup(seed=4, n=40, d=3, c=3)
    pool = rng.standard_normal((6, 3))
    evals = rng.standard_normal((5, 3))
    r = greedy_logdet(s, pool, 2, "epig", eval_xs=evals)
    f_set = fisher_batch(model, pool[list(r.indices)])
    f_bar = np.mean(
        [fisher_information(model, x).values for x in evals], axis=0
    )
    q = f_set + post.precision.values
    want = 0.5 * (slogdet(f_bar + q) - slogdet(q))
    assert r.objective_value == pytest.approx(want, abs=1e-9)


def test_set_values_are_the_batch_scores_bit_for_bit():
    data, model, post, s = fitted_setup()
    pool, evals = data.features[:20], data.features[20:30]
    for objective, score in (
        ("eig", lambda xs: eig_score(s, xs)),
        ("epig", lambda xs: epig_score(s, xs, evals)),
        ("jepig", lambda xs: jepig_score(s, xs, evals)),
    ):
        r = greedy_logdet(s, pool, 3, objective, None if objective == "eig" else evals)
        assert r.objective_value == score(pool[list(r.indices)]).logdet
    r = bait_forward_backward(s, pool, 3, evals)
    assert r.objective_value == 2.0 * epig_score(s, pool[list(r.indices)], evals).trace


@contextmanager
def counted_factorizations():
    """Count k x k Cholesky factorizations and inverse factors as they are formed.

    Used at k <= linalg.INVERSE_BLOCK, where lower_inverse does not recurse.
    """
    counts = {"cholesky": 0, "lower_inverse": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    with mock.patch.object(
        linalg, "_cholesky_jittered", counted("cholesky", linalg._cholesky_jittered)
    ), mock.patch.object(
        linalg, "lower_inverse", counted("lower_inverse", linalg.lower_inverse)
    ):
        yield counts


def test_only_factors_that_are_read_are_formed():
    data, model, _, _ = fitted_setup()
    post = build_posterior(model, data, 1.0)  # nothing factorized yet
    pool, evals = data.features[:20], data.features[20:30]
    assert model.num_weights <= linalg.INVERSE_BLOCK
    with counted_factorizations() as counts:
        s = Scorer(model, post)
    assert counts == {"cholesky": 0, "lower_inverse": 0}
    post.precision.inverse()  # P's factors are cached from here on
    for objective in ("epig", "jepig"):
        with counted_factorizations() as counts:
            greedy_logdet(s, pool, 3, objective, evals)
        # E + P for the carried state; the objective factorizes q and E + q
        # and inverts neither
        assert counts == {"cholesky": 3, "lower_inverse": 1}
    with counted_factorizations() as counts:
        bait_forward_backward(s, pool, 3, evals)
    assert counts == {"cholesky": 1, "lower_inverse": 1}  # the objective's q only
    with counted_factorizations() as counts:
        epig_pool_scores(s, pool, evals)
    assert counts == {"cholesky": 1, "lower_inverse": 1}  # E + P, once


def test_greedy_transductive_needs_eval_points():
    s = weak_prior_scorer()
    pool = np.eye(3)
    with pytest.raises(EmptyEvalSet):
        greedy_logdet(s, pool, 1, "epig")
    with pytest.raises(EmptyEvalSet):
        greedy_logdet(s, pool, 1, "jepig", eval_xs=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        greedy_logdet(s, pool, 1, "entropy")
    with pytest.raises(BatchTooLarge):
        greedy_logdet(s, pool, 4, "eig")


def test_additive_trace_greedy_equals_top_k():
    # the trace score is additive, so a greedy loop over marginal trace
    # gains must reproduce the top-k ranking pick for pick.
    rng = np.random.default_rng(5)
    s = weak_prior_scorer()
    pool = rng.standard_normal((9, 3))
    singles = np.array([eig_score(s, x[None, :]).trace for x in pool])

    chosen = []
    remaining = list(range(9))
    for _ in range(4):
        best = max(remaining, key=lambda i: (singles[i], -i))
        chosen.append(best)
        remaining.remove(best)
    assert tuple(chosen) == top_k(singles, 4).indices


# ---------------------------------------------------------------------------
# BAIT forward-backward


def trace_objective(s, model, eval_xs, f_batch):
    f_bar = np.mean(
        [fisher_information(model, x).values for x in eval_xs], axis=0
    )
    q = f_batch + s.posterior.precision.values
    return float(np.trace(np.linalg.solve(q, f_bar)))


def test_bait_two_candidates_picks_exhaustive_best():
    rng = np.random.default_rng(6)
    s = weak_prior_scorer()
    pool = rng.standard_normal((2, 3))
    evals = rng.standard_normal((4, 3))
    r = bait_forward_backward(s, pool, 1, evals)
    vals = [
        trace_objective(s, s.model, evals, fisher_information(s.model, x).values)
        for x in pool
    ]
    assert r.indices == (int(np.argmin(vals)),)
    assert r.objective_value == pytest.approx(min(vals), abs=1e-10)


def test_bait_homogeneous_pool_matches_any_choice():
    s = weak_prior_scorer()
    pool = np.tile(np.array([[1.0, -0.5, 0.25]]), (5, 1))
    evals = np.array([[0.5, 1.0, 0.0], [1.0, 0.0, -1.0]])
    r = bait_forward_backward(s, pool, 2, evals)
    assert len(r.indices) == 2
    f2 = 2.0 * fisher_information(s.model, pool[0]).values
    assert r.objective_value == pytest.approx(
        trace_objective(s, s.model, evals, f2), abs=1e-10
    )


def test_bait_backward_pass_usually_helps():
    # no guarantee claimed: the pruned 2k->k result should beat the plain
    # forward-greedy (multiplier 1) on at least half of random instances.
    rng = np.random.default_rng(7)
    s = weak_prior_scorer()
    wins = 0
    for _ in range(20):
        pool = 1.5 * rng.standard_normal((8, 3))
        evals = rng.standard_normal((5, 3))
        refined = bait_forward_backward(s, pool, 3, evals, forward_multiplier=2)
        plain = bait_forward_backward(s, pool, 3, evals, forward_multiplier=1)
        assert np.isfinite(refined.objective_value)
        assert np.isfinite(plain.objective_value)
        if refined.objective_value <= plain.objective_value + 1e-12:
            wins += 1
    assert wins >= 10


def test_bait_bounds_and_empty_eval():
    s = weak_prior_scorer()
    pool = np.eye(3)
    with pytest.raises(BatchTooLarge):
        bait_forward_backward(s, pool, 2, np.eye(3))
    with pytest.raises(EmptyEvalSet):
        bait_forward_backward(s, pool, 1, np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# BADGE k-means++


def test_badge_full_selection_and_determinism():
    rng = np.random.default_rng(8)
    g = JacobianDataMatrix(rng.standard_normal((6, 4)), SAMPLED)
    full = badge_kmeanspp(g, 6, seed=0)
    assert set(full.indices) == set(range(6))
    a = badge_kmeanspp(g, 3, seed=11)
    b = badge_kmeanspp(g, 3, seed=11)
    assert a.indices == b.indices
    assert a.gains == b.gains


def test_badge_identical_rows_fall_back_to_uniform():
    g = JacobianDataMatrix(np.ones((5, 3)), SAMPLED)
    r = badge_kmeanspp(g, 4, seed=2)
    assert len(set(r.indices)) == 4
    assert r.objective_value == 0.0
    assert all(gain == 0.0 for gain in r.gains)


def test_badge_spreads_over_distant_clusters():
    # two tight, far-apart clusters: the second pick lands in the other
    # cluster because its distances dominate the sampling weights.
    rows = np.vstack([np.zeros((3, 2)), 100.0 + np.zeros((3, 2))])
    g = JacobianDataMatrix(rows, SAMPLED)
    for seed in range(5):
        r = badge_kmeanspp(g, 2, seed)
        sides = {int(i >= 3) for i in r.indices}
        assert sides == {0, 1}


def test_badge_bounds():
    g = JacobianDataMatrix(np.zeros((3, 2)), SAMPLED)
    with pytest.raises(BatchTooLarge):
        badge_kmeanspp(g, 4, seed=0)
    assert badge_kmeanspp(g, 0, seed=0).indices == ()


# ---------------------------------------------------------------------------
# exhaustive oracle


def test_exhaustive_small_cases():
    rng = np.random.default_rng(9)
    s = weak_prior_scorer()
    pool = rng.standard_normal((5, 3))
    one = exhaustive_best(s, pool, 1, "eig")
    singles = [eig_score(s, x[None, :]).logdet for x in pool]
    assert one.indices == (int(np.argmax(singles)),)
    assert exhaustive_best(s, pool, 5, "eig").indices == tuple(range(5))


def test_exhaustive_matches_independent_enumeration():
    rng = np.random.default_rng(10)
    s = weak_prior_scorer()
    pool = rng.standard_normal((6, 3))
    got = exhaustive_best(s, pool, 2, "eig")

    prec = s.posterior.precision.values
    best_set, best_val = None, -np.inf
    for subset in itertools.combinations(range(6), 2):
        f = fisher_batch(s.model, pool[list(subset)])
        v = 0.5 * (slogdet(f + prec) - slogdet(prec))
        if v > best_val:
            best_set, best_val = subset, v
    assert got.indices == best_set
    assert got.objective_value == pytest.approx(best_val, abs=1e-9)


def test_exhaustive_tie_keeps_first_subset():
    s = weak_prior_scorer()
    pool = np.tile(np.array([[1.0, 0.0, 0.0]]), (3, 1))
    assert exhaustive_best(s, pool, 1, "eig").indices == (0,)


def test_exhaustive_subset_budget_guard():
    s = weak_prior_scorer(d=2, c=2)
    pool = np.random.default_rng(11).standard_normal((40, 2))
    with pytest.raises(TooManySubsets):
        exhaustive_best(s, pool, 10, "eig")


# ---------------------------------------------------------------------------
# shared contract


def test_all_methods_return_distinct_in_range_indices():
    rng = np.random.default_rng(12)
    s = weak_prior_scorer()
    pool = rng.standard_normal((8, 3))
    evals = rng.standard_normal((4, 3))
    g = JacobianDataMatrix(rng.standard_normal((8, 9)), SAMPLED)
    results = [
        top_k(rng.standard_normal(8), 3),
        greedy_logdet(s, pool, 3, "eig"),
        greedy_logdet(s, pool, 3, "epig", eval_xs=evals),
        greedy_logdet(s, pool, 3, "jepig", eval_xs=evals),
        bait_forward_backward(s, pool, 3, evals),
        badge_kmeanspp(g, 3, seed=1),
        exhaustive_best(s, pool, 3, "eig"),
    ]
    for r in results:
        assert len(r.indices) == 3
        assert len(set(r.indices)) == 3
        assert all(0 <= i < 8 for i in r.indices)
