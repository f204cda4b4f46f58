"""Batched paths against the per-candidate and per-row loops they replaced.

Pool scores, greedy log-det selection and BAIT read every candidate's
change from one engine, `scores.RankCState`: its `logdet_changes` and
`trace_changes` are the C x C Sylvester/Woodbury identities on the
`candidate_projection` stacks it holds, and a pool column is step 0 of
greedy or BAIT on the same state. Their oracles are the per-candidate
loops those paths replaced: one or two k x k Cholesky factorizations per
candidate (and per step). Values must
agree to 1e-10 relative to the k x k quantities the oracle subtracts; picks
must agree except at a near tie (relative gap < 1e-9 in the oracle's own
values), after which the two trajectories may part.

Greedy and BAIT carry q^-1 and the candidate stacks across steps in
`RankCState.update`. After every update, the carried arrays are held to
a fresh inverse and fresh `candidate_projection`s to 1e-10 relative, and
the selections to the loops that refactorized q and built a fresh
`RankCState` at every step.

The score columns built in one array pass (sampled labels, data matrices,
`eig_logdet_sim`, `egl`, `grand`, the Monte Carlo BALD/EPIG pass) are held
to the per-row loops they replaced, to 1e-10 relative to the terms those
loops subtract; sampled labels must be equal.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoselect import prediction
from infoselect import scores as scores_module
from infoselect.dataio import gen_synthetic
from infoselect.errors import NotPositiveDefinite
from infoselect.glm import (
    Dataset,
    GlmModel,
    Head,
    candidate_projection,
    fisher_batch,
    fisher_information,
    map_fit,
)
from infoselect.linalg import PsdMatrix, _cholesky_jittered, factor_logdet
from infoselect.posterior import GaussianPosterior, build_posterior
from infoselect.prediction import (
    PosteriorSamples,
    bald_mc,
    epig_mc,
    mc_pool_scores,
    predictive_probs,
)
from infoselect.scores import (
    RankCState,
    Scorer,
    egl_pool_scores,
    eig_pool_scores,
    epig_pool_scores,
    eval_fisher,
    grand_pool_scores,
    jepig_pool_scores,
    logdet_gains,
    logdet_ratio,
    trace_ratio,
)
from infoselect.selection import (
    _eval_term,
    _set_value,
    bait_forward_backward,
    greedy_logdet,
)
from infoselect.similarity import (
    GIVEN,
    HARD,
    SAMPLED,
    JacobianDataMatrix,
    build_data_matrix,
    eig_via_similarity,
    eig_via_similarity_pool,
)

RTOL = 1e-10
NEAR_TIE = 1e-9


def make_problem(seed, categorical, few_rows, structure, logit_scale):
    """Random scorer, pool and eval rows; n < k or n > k by `few_rows`."""
    rng = np.random.default_rng(seed)
    c = int(rng.integers(2, 5)) if categorical else 1
    d = int(rng.integers(1, 5)) if not few_rows else int(rng.integers(2, 5))
    k = c * d
    n = int(rng.integers(1, k)) if few_rows else int(rng.integers(k + 1, 3 * k + 2))
    head = Head.categorical(c) if categorical else Head.gaussian()
    model = GlmModel(head, logit_scale * rng.standard_normal((d, c)))
    pool = rng.standard_normal((n, d))
    if structure == "duplicated":
        half = (n + 1) // 2
        pool[half:] = pool[: n - half]
    elif structure == "rank_deficient":
        pool = rng.standard_normal((n, 1)) @ rng.standard_normal((1, d))
    train = rng.standard_normal((int(rng.integers(0, 2 * k)), d))
    lam = float(rng.choice([0.05, 1.0, 10.0]))
    prec = PsdMatrix(fisher_batch(model, train) + lam * np.eye(k))
    s = Scorer(model, GaussianPosterior(np.zeros(k), prec, lam))
    evals = rng.standard_normal((int(rng.integers(1, 6)), d))
    return s, pool, evals


problems = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    categorical=st.booleans(),
    few_rows=st.booleans(),
    structure=st.sampled_from(["plain", "duplicated", "rank_deficient"]),
    logit_scale=st.sampled_from([0.0, 0.3, 3.0, 60.0]),
)


def assert_close(got, want, scale):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.all(np.abs(got - want) <= RTOL * (np.abs(want) + scale))


# ---------------------------------------------------------------------------
# oracles: the per-candidate k x k loops the core replaced


def _trace_by_factor(term, base_factor):
    """1/2 tr(base^-1 term) by two triangular solves against base's factor."""
    return 0.5 * float(np.trace(scipy.linalg.cho_solve((base_factor, True), term)))


def oracle_pool_scores(s, pool, eval_term=None):
    """(logdet, trace) per candidate, factorizing F_n + P for each one."""
    out = []
    p = s.posterior.precision
    for x in pool:
        f = fisher_information(s.model, x).values
        if eval_term is None:
            out.append((logdet_ratio(p + f, p), _trace_by_factor(f, p.factor())))
        else:
            q = p + f
            out.append((logdet_ratio(q + eval_term, q), _trace_by_factor(eval_term, q.factor())))
    return np.array(out).reshape(-1, 2)


def oracle_greedy(s, pool, k, eval_term):
    """Greedy log-det growth; every candidate's set value from k x k factors."""
    fishers = [fisher_information(s.model, x).values for x in pool]
    p = s.posterior.precision

    def value(f):
        if eval_term is None:
            return logdet_ratio(p + f, p)
        q = p + f
        return logdet_ratio(q + eval_term, q)

    sign = 1.0 if eval_term is None else -1.0
    chosen, gains, steps = [], [], []
    f_cur = np.zeros_like(s.posterior.precision.values)
    value_cur = value(f_cur)
    remaining = list(range(len(pool)))
    for _ in range(k):
        values = {i: value(f_cur + fishers[i]) for i in remaining}
        best = remaining[0]
        for i in remaining:
            if sign * values[i] > sign * values[best]:
                best = i
        steps.append(values)
        chosen.append(best)
        remaining.remove(best)
        gains.append(values[best] - value_cur)
        f_cur = f_cur + fishers[best]
        value_cur = values[best]
    return chosen, value_cur, gains, steps


def oracle_bait(s, pool, k, eval_xs, forward_multiplier=2):
    """BAIT forward-backward; every candidate's trace from a k x k factor."""
    eval_term = eval_fisher(s, eval_xs, "mean")
    fishers = [fisher_information(s.model, x).values for x in pool]

    def value(f):
        q_factor, _ = _cholesky_jittered(f + s.posterior.precision.values)
        return 2.0 * _trace_by_factor(eval_term, q_factor)

    width = forward_multiplier * k
    chosen, gains, steps = [], [], []
    f_cur = np.zeros_like(s.posterior.precision.values)
    value_cur = value(f_cur)
    remaining = list(range(len(pool)))
    for step in range(2 * width - k):
        adding = step < width
        cands = remaining if adding else chosen
        sign = 1.0 if adding else -1.0
        values = {i: value(f_cur + sign * fishers[i]) for i in cands}
        best = cands[0]
        for i in cands:
            if values[i] < values[best]:
                best = i
        steps.append(values)
        cands.remove(best)
        if adding:
            chosen.append(best)
        gains.append(values[best] - value_cur)
        f_cur = f_cur + sign * fishers[best]
        value_cur = values[best]
    return chosen, value_cur, gains, steps


def assert_same_picks(got, want, steps, sign):
    """Equal picks, unless the oracle's best two values nearly tied at a step.

    sign is +1 where the oracle maximizes and -1 where it minimizes.
    Returns whether the two selections agree.
    """
    if tuple(got) == tuple(want):
        return True

    def near_tie(values):
        v = sorted((sign * x for x in values.values()), reverse=True)
        return len(v) > 1 and v[0] - v[1] <= NEAR_TIE * max(1.0, abs(v[0]), abs(v[1]))

    assert any(near_tie(values) for values in steps)
    return False


def test_candidate_projection_matches_explicit_factor():
    # S_n = U_n^T A U_n with U_n = I_C (x) x_n built explicitly; A is not
    # symmetric, so a transposed block or output would show.
    rng = np.random.default_rng(0)
    for head, d in ((Head.categorical(3), 4), (Head.gaussian(), 5)):
        model = GlmModel(head, rng.standard_normal((d, head.num_outputs)))
        k = model.num_weights
        xs = rng.standard_normal((6, d))
        a = rng.standard_normal((k, k))
        got = candidate_projection(model, xs, a)
        for x, s_n, curv in zip(xs, got, head.curvature(xs @ model.weights)):
            u = np.kron(np.eye(head.num_outputs), x[:, None])
            np.testing.assert_allclose(s_n, u.T @ a @ u, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(
                u @ curv @ u.T, fisher_information(model, x).values, atol=1e-15
            )


# ---------------------------------------------------------------------------
# pool scores


@settings(max_examples=60, deadline=None)
@given(**problems)
def test_pool_scores_match_per_candidate_oracle(seed, categorical, few_rows, structure, logit_scale):
    s, pool, evals = make_problem(seed, categorical, few_rows, structure, logit_scale)
    half_logdet_p = 0.5 * abs(factor_logdet(s.posterior.precision.factor()))

    got = np.column_stack(eig_pool_scores(s, pool))
    want = oracle_pool_scores(s, pool)
    assert_close(got[:, 0], want[:, 0], 1.0 + half_logdet_p)
    assert_close(got[:, 1], want[:, 1], np.max(want[:, 1]))
    assert np.all(got[:, 0] <= got[:, 1] + RTOL * (1.0 + half_logdet_p))

    for pool_scores, reduce in ((epig_pool_scores, "mean"), (jepig_pool_scores, "sum")):
        eval_term = eval_fisher(s, evals, reduce)
        got = np.column_stack(pool_scores(s, pool, evals))
        want = oracle_pool_scores(s, pool, eval_term)
        r_factor, _ = _cholesky_jittered(eval_term + s.posterior.precision.values)
        ld_scale = 1.0 + half_logdet_p + 0.5 * abs(factor_logdet(r_factor))
        assert_close(got[:, 0], want[:, 0], ld_scale)
        p_factor = s.posterior.precision.factor()
        assert_close(got[:, 1], want[:, 1], _trace_by_factor(eval_term, p_factor))


@settings(max_examples=60, deadline=None)
@given(**problems)
def test_removing_members_matches_oracle(seed, categorical, few_rows, structure, logit_scale):
    # the BAIT backward step: q = P + F(members) minus one member's F_n.
    # q - F_n stays positive definite, so every det(I - L S) is positive.
    s, pool, evals = make_problem(seed, categorical, few_rows, structure, logit_scale)
    members = pool[: max(1, len(pool) // 2)]
    q = s.precision_with(members)
    q_factor, q_inv = q.factor(), q.inverse()
    eval_term = eval_fisher(s, evals, "mean")
    state = RankCState(s.model, members, s.curvatures(members), q_inv, eval_term)
    got_ld = state.logdet_changes(sign=-1.0)
    got_tr = state.trace_changes(sign=-1.0)
    for x, ld, tr in zip(members, got_ld, got_tr):
        down = q.values - fisher_information(s.model, x).values
        down_factor, _ = _cholesky_jittered(down)
        want_ld = 0.5 * (factor_logdet(down_factor) - factor_logdet(q_factor))
        assert_close(ld, want_ld, 1.0 + 0.5 * abs(factor_logdet(q_factor)))
        want_tr = _trace_by_factor(eval_term, down_factor) - _trace_by_factor(eval_term, q_factor)
        assert_close(tr, want_tr, _trace_by_factor(eval_term, down_factor))


def test_indefinite_update_raises():
    # Gaussian head, P = I: removing F = x x^T with |x|^2 = 4 > 1 leaves
    # I - x x^T indefinite, and det(I - L S) = 1 - 4 < 0.
    model = GlmModel(Head.gaussian(), np.zeros((2, 1)))
    s = Scorer(model, GaussianPosterior(np.zeros(2), PsdMatrix.identity(2), 1.0))
    x = np.array([[2.0, 0.0], [0.5, 0.0]])
    state = RankCState(model, x, s.curvatures(x), np.eye(2), np.eye(2))
    with pytest.raises(NotPositiveDefinite, match="candidate 0"):
        state.logdet_changes(sign=-1.0)
    with pytest.raises(NotPositiveDefinite):
        state.trace_changes(sign=-1.0)
    kept = state.logdet_changes([1], -1.0)
    assert kept[0] == pytest.approx(0.5 * np.log(1.0 - 0.25), rel=1e-14)


# ---------------------------------------------------------------------------
# selection


@settings(max_examples=40, deadline=None)
@given(objective=st.sampled_from(["eig", "epig", "jepig"]), **problems)
def test_greedy_matches_oracle(objective, seed, categorical, few_rows, structure, logit_scale):
    s, pool, evals = make_problem(seed, categorical, few_rows, structure, logit_scale)
    k = min(3, len(pool))
    eval_xs = None if objective == "eig" else evals
    eval_term = None if objective == "eig" else eval_fisher(
        s, evals, "mean" if objective == "epig" else "sum"
    )
    got = greedy_logdet(s, pool, k, objective, eval_xs)
    want, want_value, want_gains, steps = oracle_greedy(s, pool, k, eval_term)
    scale = 1.0 + 0.5 * abs(factor_logdet(s.posterior.precision.factor())) + abs(want_value)
    if assert_same_picks(got.indices, want, steps, 1.0 if eval_term is None else -1.0):
        assert_close(got.objective_value, want_value, scale)
        assert_close(got.gains, want_gains, scale)
    # the reported objective is always the k x k value of the reported set
    f_set = fisher_batch(s.model, pool[list(got.indices)])
    p = s.posterior.precision
    if eval_term is None:
        set_value = logdet_ratio(p + f_set, p)
    else:
        q = p + f_set
        set_value = logdet_ratio(q + eval_term, q)
    assert_close(got.objective_value, set_value, scale)


@settings(max_examples=40, deadline=None)
@given(**problems)
def test_bait_matches_oracle(seed, categorical, few_rows, structure, logit_scale):
    s, pool, evals = make_problem(seed, categorical, few_rows, structure, logit_scale)
    k = max(1, len(pool) // 4)
    width = min(2 * k, len(pool))
    multiplier = width // k
    got = bait_forward_backward(s, pool, k, evals, forward_multiplier=multiplier)
    want, want_value, want_gains, steps = oracle_bait(s, pool, k, evals, multiplier)
    scale = 2.0 * _trace_by_factor(eval_fisher(s, evals, "mean"), s.posterior.precision.factor())
    if assert_same_picks(got.indices, want, steps, -1.0):
        assert_close(got.objective_value, want_value, scale)
        assert_close(got.gains, want_gains, scale)
    q_factor = s.precision_with(pool[list(got.indices)]).factor()
    set_value = 2.0 * _trace_by_factor(eval_fisher(s, evals, "mean"), q_factor)
    assert_close(got.objective_value, set_value, scale)


# ---------------------------------------------------------------------------
# carried rank-C state: the refactorize-each-step loops it replaced


def refactorized_greedy(s, pool, k, objective, eval_xs):
    """Greedy log-det growth that factorizes q = P + F_batch at every step."""
    eval_term = _eval_term(s, objective, eval_xs)
    chosen, gains, steps = [], [], []
    remaining = list(range(len(pool)))
    for _ in range(k):
        q = s.precision_with(pool[chosen])
        rows = pool[remaining]
        curv = s.curvatures(rows)
        q_state = RankCState(s.model, rows, curv, q.inverse())
        r_state = None if eval_term is None else RankCState(
            s.model, rows, curv, (q + eval_term).inverse()
        )
        change = logdet_gains(q_state, r_state)
        best = int(np.argmax(change) if eval_term is None else np.argmin(change))
        steps.append(dict(zip(remaining, change)))
        gains.append(float(change[best]))
        chosen.append(remaining.pop(best))
    return chosen, _set_value(s, pool[chosen], eval_term), gains, steps


def refactorized_bait(s, pool, k, eval_xs, forward_multiplier=2):
    """BAIT that factorizes q = P + F_batch and re-projects at every step."""
    width = forward_multiplier * k
    eval_term = eval_fisher(s, eval_xs, "mean")
    curv = s.curvatures(pool)
    chosen, gains, steps = [], [], []
    remaining = list(range(len(pool)))
    for step in range(2 * width - k):
        adding = step < width
        cands = remaining if adding else chosen
        q_inv = s.precision_with(pool[chosen]).inverse()
        value = 2.0 * trace_ratio(eval_term, q_inv)
        fresh = RankCState(s.model, pool[cands], curv[cands], q_inv, eval_term)
        values = value + 2.0 * fresh.trace_changes(sign=1.0 if adding else -1.0)
        best = int(np.argmin(values))
        steps.append(dict(zip(cands, values)))
        gains.append(float(values[best] - value))
        picked = cands.pop(best)
        if adding:
            chosen.append(picked)
    q_inv = s.precision_with(pool[chosen]).inverse()
    return chosen, 2.0 * trace_ratio(eval_term, q_inv), gains, steps


@contextmanager
def carried_states():
    """Log every RankCState update with copies of the arrays it leaves.

    Yields {state: [(b, sign, inverse, proj, sandwich, xs), ...]} in the
    order the states first update, which is the order they were made. xs
    holds the rows the state carries at that update (`keep` narrows them),
    and b indexes them.
    """
    log = {}
    update = RankCState.update

    def spy(self, b, sign):
        update(self, b, sign)
        sandwich = None if self.sandwich is None else self.sandwich.copy()
        log.setdefault(self, []).append(
            (b, sign, self.inverse.copy(), self.proj.copy(), sandwich, self.xs.copy())
        )

    with mock.patch.object(RankCState, "update", spy):
        yield log


def assert_carried_match_fresh(s, log, bases, term=None):
    """Each logged state against a fresh inverse and fresh projections.

    bases holds each state's starting matrix A, in the order of the log;
    after every update, A has gained sign F_b for each update so far.
    Row n of a projection U_n^T M U_n is held to ||x_n||^2 ||M||_2, the
    size of the terms its quadratic form sums: on a rank-deficient pool the
    value can sit decades below them, where only that scale bounds rounding.
    """
    assert len(log) == len(bases)
    for base, updates in zip(bases, log.values()):
        a = np.array(base, dtype=float)
        for b, sign, inverse, proj, sandwich, xs in updates:
            sq_norms = np.sum(xs**2, axis=1)[:, None, None]
            a = a + sign * fisher_information(s.model, xs[b]).values
            fresh = PsdMatrix(a).inverse()
            assert_close(inverse, fresh, np.max(np.abs(fresh)))
            want = candidate_projection(s.model, xs, fresh)
            assert_close(proj, want, sq_norms * np.linalg.norm(fresh, 2))
            if term is not None:
                m = fresh @ term @ fresh
                want = candidate_projection(s.model, xs, m)
                assert_close(sandwich, want, sq_norms * np.linalg.norm(m, 2))


@settings(max_examples=40, deadline=None)
@given(objective=st.sampled_from(["eig", "epig", "jepig"]), **problems)
def test_greedy_carried_state_matches_refactorized_steps(
    objective, seed, categorical, few_rows, structure, logit_scale
):
    s, pool, evals = make_problem(seed, categorical, few_rows, structure, logit_scale)
    k = min(4, len(pool))
    eval_xs = None if objective == "eig" else evals
    with carried_states() as log:
        got = greedy_logdet(s, pool, k, objective, eval_xs)
    bases = [s.posterior.precision.values]
    if objective != "eig":
        bases.append(s.posterior.precision.values + _eval_term(s, objective, evals))
    # the last pick's update would go unread, so k picks make k - 1 updates
    assert all(len(updates) == k - 1 for updates in log.values())
    assert_carried_match_fresh(s, log, bases if k > 1 else [])

    want, want_value, want_gains, steps = refactorized_greedy(s, pool, k, objective, eval_xs)
    scale = 1.0 + 0.5 * abs(factor_logdet(s.posterior.precision.factor())) + abs(want_value)
    if assert_same_picks(got.indices, want, steps, 1.0 if objective == "eig" else -1.0):
        assert got.objective_value == want_value
        assert_close(got.gains, want_gains, scale)


@settings(max_examples=40, deadline=None)
@given(**problems)
# a rank-deficient pool whose sandwich entries sit six decades below their terms
@example(seed=434, categorical=False, few_rows=False, structure="rank_deficient",
         logit_scale=0.0)
# eval probabilities that round to 1: a Lambda diagonal of pi - pi^2 reads 0
# there, the eval Fisher turns indefinite and the gains' trace scale negative
@example(seed=6691, categorical=True, few_rows=True, structure="plain", logit_scale=60.0)
def test_bait_carried_state_matches_refactorized_steps(
    seed, categorical, few_rows, structure, logit_scale
):
    s, pool, evals = make_problem(seed, categorical, few_rows, structure, logit_scale)
    k = max(1, len(pool) // 4)
    multiplier = min(2 * k, len(pool)) // k
    with carried_states() as log:
        got = bait_forward_backward(s, pool, k, evals, forward_multiplier=multiplier)
    eval_term = eval_fisher(s, evals, "mean")
    width = multiplier * k
    # every pick and drop updates the state but the last, whose result goes unread
    signs = ([1.0] * width + [-1.0] * (width - k))[:-1]
    assert_carried_match_fresh(s, log, [s.posterior.precision.values] if signs else [], eval_term)
    updates = next(iter(log.values()), [])
    assert [sign for _, sign, *_ in updates] == signs
    forward = [b for b, *_ in updates[:width]]
    for _, sign, *_, xs in updates:
        if sign < 0:  # the backward pass carries the forward picks' rows only
            np.testing.assert_array_equal(xs, pool[forward])

    want, want_value, want_gains, steps = refactorized_bait(s, pool, k, evals, multiplier)
    if assert_same_picks(got.indices, want, steps, -1.0):
        assert got.objective_value == want_value
        p_factor = s.posterior.precision.factor()
        assert_close(got.gains, want_gains, 2.0 * _trace_by_factor(eval_term, p_factor))


def test_carried_state_does_not_drift_at_benchmark_shape():
    # the select-batch shape: D=16, C=10 (k=160), a fitted 80-row model,
    # a 200-row pool, k=10, so BAIT takes 20 forward and 10 backward steps
    data = gen_synthetic(0, 480, 16, 10, 2.0)
    train = data.subset(range(80))
    model = map_fit(train, Head.categorical(10), 1.0)
    s = Scorer(model, build_posterior(model, train, 1.0))
    pool, evals = data.features[80:280], data.features[280:]
    eval_term = eval_fisher(s, evals, "mean")
    prec = s.posterior.precision.values
    for objective in ("eig", "epig"):
        eval_xs = None if objective == "eig" else evals
        with carried_states() as log:
            got = greedy_logdet(s, pool, 10, objective, eval_xs)
        bases = [prec] if objective == "eig" else [prec, prec + eval_term]
        assert_carried_match_fresh(s, log, bases)
        want, want_value, want_gains, _ = refactorized_greedy(s, pool, 10, objective, eval_xs)
        assert list(got.indices) == want and got.objective_value == want_value
        assert_close(got.gains, want_gains, 1e-12 + np.max(np.abs(want_gains)))
    with carried_states() as log:
        got = bait_forward_backward(s, pool, 10, evals)
    assert len(next(iter(log.values()))) == 29
    assert_carried_match_fresh(s, log, [prec], eval_term)
    want, want_value, want_gains, _ = refactorized_bait(s, pool, 10, evals)
    assert list(got.indices) == want and got.objective_value == want_value
    assert_close(got.gains, want_gains, np.max(np.abs(want_gains)))


# ---------------------------------------------------------------------------
# oracles: the per-row loops behind the batched score columns


def oracle_sample_label(head, z, rng):
    """The label rule before inverse-CDF draws: rng.normal and rng.choice."""
    if head.kind == "gaussian":
        return float(rng.normal(loc=float(z[0]), scale=1.0))
    pi = head.predictive(z)
    return int(rng.choice(head.num_outputs, p=pi / pi.sum()))


def oracle_score_jacobian(model, x, y):
    z = model.weights.T @ x
    if model.head.kind == "gaussian":
        return (z[0] - y) * x
    resid = model.head.predictive(z).copy()
    resid[y] -= 1.0
    return np.outer(resid, x).reshape(-1)


def oracle_data_matrix(model, xs, label_mode, seed=None, repeats=1, given=None):
    """build_data_matrix's row loop: one label and one gradient per row."""
    head = model.head
    rng = np.random.default_rng(seed) if label_mode == SAMPLED else None
    rows = []
    for i, x in enumerate(xs):
        z = model.weights.T @ x
        for _ in range(repeats):
            if label_mode == HARD:
                y = float(z[0]) if head.kind == "gaussian" else int(np.argmax(z))
            elif label_mode == SAMPLED:
                y = oracle_sample_label(head, z, rng)
            else:
                y = given[i]
            rows.append(oracle_score_jacobian(model, x, y))
    return np.asarray(rows)


def oracle_eig_logdet_sim(s, pool, seed):
    """The eig_logdet_sim column loop: a one-row sampled matrix per row."""
    return np.array([
        eig_via_similarity(
            JacobianDataMatrix(oracle_data_matrix(s.model, x[None, :], SAMPLED, seed + i),
                               SAMPLED),
            s.posterior.precision,
        )
        for i, x in enumerate(pool)
    ])


def oracle_grand(s, x, y, weights):
    """Mean squared gradient norm, one model rebuilt per weight draw."""
    return np.mean([
        float(np.sum(oracle_score_jacobian(
            GlmModel.from_flat(s.model.head, s.model.dim, w), x, y) ** 2))
        for w in weights
    ])


def random_labels(rng, head, n):
    if head.kind == "gaussian":
        return 3.0 * rng.standard_normal(n)
    return rng.integers(0, head.num_outputs, n)


@settings(max_examples=40, deadline=None)
@given(**problems)
def test_batched_labels_match_sample_label(seed, categorical, few_rows, structure, logit_scale):
    s, pool, _ = make_problem(seed, categorical, few_rows, structure, logit_scale)
    head = s.model.head
    z = pool @ s.model.weights
    rng = np.random.default_rng(seed)
    batched = head.labels_from_draws(z, head.label_draws(rng, len(pool)))
    rng = np.random.default_rng(seed)
    singles = [head.sample_label(row, rng) for row in z]
    rng = np.random.default_rng(seed)
    old = [oracle_sample_label(head, row, rng) for row in z]
    np.testing.assert_array_equal(batched, singles)
    np.testing.assert_array_equal(batched, old)


@settings(max_examples=40, deadline=None)
@given(**problems)
def test_data_matrix_matches_row_loop(seed, categorical, few_rows, structure, logit_scale):
    s, pool, _ = make_problem(seed, categorical, few_rows, structure, logit_scale)
    model = s.model
    labels = random_labels(np.random.default_rng(seed), model.head, len(pool))
    cases = (
        (HARD, {}),
        (SAMPLED, {"seed": seed, "repeats": 3}),
        (GIVEN, {}),
    )
    for mode, kw in cases:
        got = build_data_matrix(model, Dataset(pool, labels), mode, **kw).rows
        want = oracle_data_matrix(model, pool, mode, given=labels, **kw)
        assert got.shape == want.shape
        assert_close(got, want, np.max(np.abs(want)))


@settings(max_examples=40, deadline=None)
@given(**problems)
def test_eig_logdet_sim_matches_row_loop(seed, categorical, few_rows, structure, logit_scale):
    # each row's 1/2 logdet(1 + g P^-1 g^T) rounds relative to the 1 it adds
    s, pool, _ = make_problem(seed, categorical, few_rows, structure, logit_scale)
    seeds = seed + 401 + np.arange(len(pool))
    got = eig_via_similarity_pool(s.model, pool, s.posterior.precision, seeds)
    assert_close(got, oracle_eig_logdet_sim(s, pool, seed + 401), 1.0)


@settings(max_examples=40, deadline=None)
@given(**problems)
def test_egl_and_grand_match_row_loops(seed, categorical, few_rows, structure, logit_scale):
    # scale: ||x||^2 times the size of the terms tr L and ||r||^2 cancel
    s, pool, _ = make_problem(seed, categorical, few_rows, structure, logit_scale)
    model = s.model
    sq_norms = np.sum(pool**2, axis=1)
    want = [float(x @ x) * float(np.trace(model.head.curvature(model.weights.T @ x)))
            for x in pool]
    assert_close(egl_pool_scores(s, pool), want, sq_norms)

    rng = np.random.default_rng(seed)
    weights = model.flat_weights() + rng.standard_normal((7, model.num_weights))
    labels = random_labels(rng, model.head, len(pool))
    with mock.patch.object(scores_module, "GRAND_CHUNK", 2):  # chunk boundaries
        got = grand_pool_scores(s, pool, labels, weights)
    want = [oracle_grand(s, x, y, weights) for x, y in zip(pool, labels)]
    logits = np.einsum("nd,wcd->nwc", pool, weights.reshape(7, -1, model.dim))
    sizes = 1.0 + labels**2 + np.mean(np.sum(logits**2, axis=2), axis=1)
    assert_close(got, want, sq_norms * sizes)


@pytest.mark.parametrize("logit_scale", [0.3, 3.0, 60.0])
def test_mc_pass_matches_per_point_estimators(logit_scale):
    # 11 pool rows in chunks of 4; at logit scale 60 some probabilities
    # are exactly 0. Values round relative to the entropies they subtract.
    rng = np.random.default_rng(int(logit_scale))
    c, d = 4, 3
    head = Head.categorical(c)
    samples = PosteriorSamples(logit_scale * rng.standard_normal((50, c * d)), seed=0)
    pool = 5.0 * rng.standard_normal((11, d))
    evals = 5.0 * rng.standard_normal((3, d))
    if logit_scale == 60.0:
        assert np.any(predictive_probs(samples, head, pool) == 0.0)
    with mock.patch.object(prediction, "MC_CHUNK", 4):
        bald, epig = mc_pool_scores(samples, head, pool, evals)
        only_bald, none = mc_pool_scores(samples, head, pool)
    assert np.all(np.isfinite(bald)) and np.all(np.isfinite(epig))
    assert_close(bald, [bald_mc(samples, head, x) for x in pool], np.log(c))
    assert_close(epig, [epig_mc(samples, head, x, evals) for x in pool], 2 * np.log(c))
    assert none is None
    np.testing.assert_array_equal(only_bald, bald)


@pytest.mark.parametrize("c", [2, 3, 10])
@pytest.mark.parametrize("logit_scale", [0.0, 60.0])
def test_mc_pass_joint_from_free_entries_matches_full_table(c, logit_scale):
    # the joint's last row, last column and corner are marginals minus the
    # product's (C-1)^2 entries: 10 pool rows in chunks of 4 (a short last
    # chunk), one eval row, and eval rows that are pool rows. At logit
    # scale 0 every probability is 1/C; at 60 some are exactly 0 and 1.
    rng = np.random.default_rng(c)
    d = 3
    head = Head.categorical(c)
    samples = PosteriorSamples(logit_scale * rng.standard_normal((40, c * d)), seed=0)
    pool = 5.0 * rng.standard_normal((10, d))
    probs = predictive_probs(samples, head, pool)
    if logit_scale == 60.0:
        assert np.any(probs == 0.0) and np.any(probs == 1.0)
    else:
        assert np.all(probs == 1.0 / c)
    with mock.patch.object(prediction, "MC_CHUNK", 4):
        only_bald, _ = mc_pool_scores(samples, head, pool)
    for evals in (5.0 * rng.standard_normal((1, d)), pool[[0, 3, 9]], pool):
        with mock.patch.object(prediction, "MC_CHUNK", 4):
            bald, epig = mc_pool_scores(samples, head, pool, evals)
        assert np.all(np.isfinite(epig))
        want = [epig_mc(samples, head, x, evals) for x in pool]
        assert_close(epig, want, 2 * np.log(c))
        np.testing.assert_array_equal(only_bald, bald)
