import pathlib
import subprocess
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.stats import spearmanr

import infoselect.cli as cli
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
# the pass on two threads

WORKER = "infoselect-mc"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def serial_mc_pass(samples, head, pool, evals):
    """mc_pool_scores' chunk loop, MC_CHUNK rows at a time, in order, on one thread."""
    n, s, c = pool.shape[0], samples.n_samples, head.num_outputs
    bald, epig = np.empty(n), None
    if evals is not None:
        m = evals.shape[0]
        probs_eval = prediction._probs_by_draw(samples, head, evals)
        marg_eval = probs_eval.mean(axis=0)
        h_eval = prediction._entropy(marg_eval, axis=0)
        eval_free = probs_eval[:, : c - 1].reshape(s, -1)
        epig = np.empty(n)
    for start in range(0, n, prediction.MC_CHUNK):
        stop = min(start + prediction.MC_CHUNK, n)
        probs = prediction._probs_by_draw(samples, head, pool[start:stop])
        marg_acq = probs.mean(axis=0)
        h_acq = prediction._entropy(marg_acq, axis=0)
        bald[start:stop] = h_acq - prediction._entropy(probs, axis=1).mean(axis=0)
        if epig is not None:
            free = (probs[:, : c - 1].reshape(s, -1).T @ eval_free).reshape(c - 1, -1, c - 1, m)
            free /= s
            last_eval = marg_acq[: c - 1, :, None] - free.sum(axis=2)
            last_acq = marg_eval[: c - 1] - free.sum(axis=0)
            corner = marg_eval[c - 1] - last_eval.sum(axis=0)
            entropy = prediction._entropy
            h_joint = entropy(free, axis=(0, 2)) + entropy(last_eval, axis=0)
            h_joint += entropy(last_acq, axis=1) + entropy(corner[None], axis=0)
            epig[start:stop] = (h_eval[None, :] + h_acq[:, None] - h_joint).mean(axis=1)
    return np.maximum(0.0, bald), epig


def thread_names_of_probs(monkeypatch, raise_in_worker=None, warn_in_worker=False):
    """Wrap _probs_by_draw: log each call's thread, and optionally fail or
    warn in the worker's chunks."""
    names, real = [], prediction._probs_by_draw

    def probs_by_draw(samples, head, xs):
        name = threading.current_thread().name
        names.append(name)
        if name == WORKER and raise_in_worker is not None:
            raise raise_in_worker
        if name == WORKER and warn_in_worker:
            warnings.warn("worker chunk overflow", RuntimeWarning)
        return real(samples, head, xs)

    monkeypatch.setattr(prediction, "_probs_by_draw", probs_by_draw)
    return names


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 1000])
@pytest.mark.parametrize("with_eval", [False, True])
@pytest.mark.parametrize("cores", [1, 2])
def test_mc_pass_is_the_serial_chunk_loop_bit_for_bit(monkeypatch, n, with_eval, cores):
    # every chunk keeps its arithmetic whichever thread runs it; a short
    # switch interval interleaves the two threads' writes as much as it can
    rng = np.random.default_rng(n)
    c, d = 4, 5
    head = Head.categorical(c)
    samples = PosteriorSamples(3.0 * rng.standard_normal((60, c * d)), seed=0)
    pool = rng.standard_normal((n, d))
    evals = rng.standard_normal((7, d)) if with_eval else None
    want_bald, want_epig = serial_mc_pass(samples, head, pool, evals)
    monkeypatch.setattr(prediction, "_usable_cores", lambda: cores)
    names = thread_names_of_probs(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        bald, epig = mc_pool_scores(samples, head, pool, evals)
    finally:
        sys.setswitchinterval(interval)
    assert bald.tobytes() == want_bald.tobytes()
    if with_eval:
        assert epig.tobytes() == want_epig.tobytes()
    else:
        assert epig is None
    two_chunks = n > prediction.MC_CHUNK
    assert (WORKER in names) == (cores == 2 and two_chunks)


def test_mc_pass_runs_on_the_caller_when_no_thread_starts(monkeypatch):
    rng = np.random.default_rng(3)
    head = Head.categorical(3)
    samples = PosteriorSamples(rng.standard_normal((40, 9)), seed=0)
    pool, evals = rng.standard_normal((100, 3)), rng.standard_normal((5, 3))
    monkeypatch.setattr(prediction, "_usable_cores", lambda: 2)
    names = thread_names_of_probs(monkeypatch)

    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    bald, epig = mc_pool_scores(samples, head, pool, evals)
    want_bald, want_epig = serial_mc_pass(samples, head, pool, evals)
    assert bald.tobytes() == want_bald.tobytes() and epig.tobytes() == want_epig.tobytes()
    assert set(names) == {"MainThread"}


def test_worker_chunks_follow_the_callers_errstate(monkeypatch):
    # only the worker's chunk overflows: its logits of +-1e400 become +-inf,
    # and the softmax subtracts inf from inf. It raises or keeps quiet as
    # the caller's errstate says, which numpy keeps per thread.
    rng = np.random.default_rng(4)
    head = Head.categorical(3)
    samples = PosteriorSamples(1e200 * rng.standard_normal((20, 9)), seed=0)
    pool = rng.standard_normal((3 * prediction.MC_CHUNK, 3))
    pool[prediction.MC_CHUNK : 2 * prediction.MC_CHUNK] *= 1e200
    monkeypatch.setattr(prediction, "_usable_cores", lambda: 2)
    names = thread_names_of_probs(monkeypatch)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        mc_pool_scores(samples, head, pool)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        bald, _ = mc_pool_scores(samples, head, pool)
    chunk = slice(prediction.MC_CHUNK, 2 * prediction.MC_CHUNK)
    assert np.isnan(bald[chunk]).any() and not np.isnan(np.delete(bald, chunk)).any()
    assert WORKER in names


def test_blas_threads_reads_the_linked_openblas():
    # the pass leaves cores a BLAS product takes to it
    for threads in (1, 2):
        code = "from infoselect import prediction; print(prediction._blas_threads())"
        env = {"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": str(threads)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == [str(threads)]


@pytest.mark.parametrize("blas, cores", [(1, 2), (2, 1), (None, 1)])
def test_usable_cores_leave_blas_its_threads(monkeypatch, blas, cores):
    monkeypatch.setattr(prediction.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(prediction, "_blas_threads", lambda: blas)
    assert prediction._usable_cores() == cores


SMALL_SCORE = ["score", "--n", "300", "--dim", "3", "--classes", "3", "--pool-size", "100",
               "--eval-size", "10", "--mc-samples", "50", "--methods", "bald_pred,epig_pred"]


def test_worker_memory_error_is_one_error_line(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(prediction, "_usable_cores", lambda: 2)
    names = thread_names_of_probs(monkeypatch, MemoryError("Unable to allocate 8.0 EiB"))
    threads = threading.active_count()
    assert cli.main(SMALL_SCORE + ["--out", str(tmp_path)]) == 1
    assert WORKER in names
    assert threading.active_count() == threads
    assert capsys.readouterr().err.splitlines() == [
        "infoselect score: error: Unable to allocate 8.0 EiB"
    ]
    assert not (tmp_path / "scores.csv").exists()


def test_worker_warnings_are_held_back_and_replayed(monkeypatch, capsys, tmp_path):
    # warnings.catch_warnings records process-wide, worker threads included;
    # cli.main replays what it held back into the recorder around it
    monkeypatch.setattr(prediction, "_usable_cores", lambda: 2)
    names = thread_names_of_probs(monkeypatch, warn_in_worker=True)
    with warnings.catch_warnings(record=True) as replayed:
        warnings.simplefilter("always")
        assert cli.main(SMALL_SCORE + ["--out", str(tmp_path)]) == 0
    assert names.count(WORKER) > 0
    assert [(w.category, str(w.message)) for w in replayed] == (
        [(RuntimeWarning, "worker chunk overflow")] * names.count(WORKER))
    assert capsys.readouterr().err == ""

    # a failure's one error line stands for them: the caller fails its first
    # chunk once the worker has warned
    real, calls, worker_warned = prediction._probs_by_draw, [], threading.Event()

    def probs_by_draw(samples, head, xs):
        calls.append(threading.current_thread().name)
        if calls[-1] == WORKER:
            warnings.warn("worker chunk overflow", RuntimeWarning)
            worker_warned.set()
        elif calls.count("MainThread") == 2:  # after the eval rows' call
            assert worker_warned.wait(timeout=30)
            raise MemoryError("Unable to allocate 8.0 EiB")
        return real(samples, head, xs)

    monkeypatch.setattr(prediction, "_probs_by_draw", probs_by_draw)
    with warnings.catch_warnings(record=True) as replayed:
        warnings.simplefilter("always")
        assert cli.main(SMALL_SCORE + ["--out", str(tmp_path / "fail")]) == 1
    assert WORKER in calls and replayed == []
    assert capsys.readouterr().err.splitlines() == [
        "infoselect score: error: Unable to allocate 8.0 EiB"
    ]


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
