"""Prediction-space Monte Carlo estimators and rank correlation.

These estimators work purely from posterior weight draws and the predictive
distributions they induce, never from curvature matrices, which makes them
the reference the weight-space approximations are correlated against.
Label configurations are always enumerated exactly (up to a guard), never
sampled. Entropies are in nats.

Pool scoring is one chunked pass (`mc_pool_scores`), so no whole-pool
probability tensor is ever held: a chunk's logits under all S draws are one
matrix product, its (S, C, chunk) probabilities give its BALD values, and
one more product the (C-1)^2 free entries of each of its EPIG joints. The
chunks are independent, so the caller and, where a second core is usable,
one worker thread each take every other chunk.
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    DegenerateConstantInput,
    EmptyEvalSet,
    LengthMismatch,
    TooFewSamples,
    TooManyConfigurations,
    UnsupportedHead,
)
from .glm import CATEGORICAL, Head, _softmax
from .posterior import GaussianPosterior, sample_weights

JOINT_CONFIG_BUDGET = 10**5

# Pool rows per chunk of the MC pass. Up to two chunks are in flight, one
# per thread, and their probabilities and (chunk * (C-1), eval * (C-1))
# joint blocks stay a few MB at the CLI defaults.
MC_CHUNK = 32

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class PosteriorSamples:
    """Weight draws from a posterior, one flattened vector per row."""

    weights: np.ndarray
    seed: int
    posterior: GaussianPosterior | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-d, got shape {w.shape}")
        object.__setattr__(self, "weights", w)

    @property
    def n_samples(self) -> int:
        return self.weights.shape[0]


def draw_posterior_samples(
    post: GaussianPosterior, n_samples: int, seed: int
) -> PosteriorSamples:
    return PosteriorSamples(sample_weights(post, n_samples, seed), seed, post)


def _require_categorical(head: Head):
    if head.kind != CATEGORICAL:
        raise UnsupportedHead("prediction-space entropies need a categorical head")


def predictive_probs(samples: PosteriorSamples, head: Head, xs) -> np.ndarray:
    """Per-sample class probabilities, shape (n_points, n_samples, C).

    xs is an (n_points, D) array; weight rows are unflattened class-major.
    """
    _require_categorical(head)
    return _probs_by_draw(samples, head, xs).transpose(2, 0, 1)


def _probs_by_draw(samples: PosteriorSamples, head: Head, xs) -> np.ndarray:
    """Class probabilities laid out (n_samples, C, n_points).

    The logits are one BLAS product: row s C + c of the reshaped draws is
    the weight vector of class c under draw s. Sums over classes then run
    along a middle axis, which numpy vectorizes over the points. The
    softmax overwrites the fresh logits, so the block is allocated once.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    s, c, d = samples.n_samples, head.num_outputs, xs.shape[1]
    logits = (samples.weights.reshape(s * c, d) @ xs.T).reshape(s, c, -1)
    return _softmax(logits, axis=1, out=logits)


def _entropy(p: np.ndarray, axis=-1) -> np.ndarray:
    """-sum p log p over axis, with 0 log 0 = 0.

    log(max(p, tiny)) is finite, so p = 0 adds 0. This runs as plain numpy
    loops, two to three times faster than scipy's xlogy on the MC pass's
    blocks, and the terms share one buffer, so it takes no more memory.
    """
    terms = np.maximum(p, _TINY)
    np.log(terms, out=terms)
    terms *= p
    return -terms.sum(axis=axis)


def bald_mc(samples: PosteriorSamples, model_head: Head, x) -> float:
    """Disagreement between the mixture predictive and its members.

    H[mean_s pi_s] - mean_s H[pi_s], clamped to be nonnegative. Maximize.
    """
    if samples.n_samples < 2:
        raise TooFewSamples("entropy estimates need at least two samples")
    probs = predictive_probs(samples, model_head, np.atleast_2d(x))[0]
    mixture = probs.mean(axis=0)
    value = float(_entropy(mixture) - _entropy(probs, axis=-1).mean())
    return max(0.0, value)


def joint_eig_exact(samples: PosteriorSamples, model_head: Head, batch_xs) -> float:
    """Joint-label disagreement over a whole batch, enumerated exactly.

    The joint predictive over C^B label configurations is the sample mean
    of the per-sample product distributions; the value is the entropy of
    that mixture minus the mean per-sample joint entropy.
    """
    if samples.n_samples < 2:
        raise TooFewSamples("entropy estimates need at least two samples")
    xs = np.atleast_2d(np.asarray(batch_xs, dtype=float))
    b = xs.shape[0]
    c = model_head.num_outputs
    if c**b > JOINT_CONFIG_BUDGET:
        raise TooManyConfigurations(
            f"C^B = {c}^{b} exceeds the {JOINT_CONFIG_BUDGET} configuration budget"
        )
    probs = predictive_probs(samples, model_head, xs)
    mixture = np.zeros(c**b)
    sample_entropy = 0.0
    for s in range(samples.n_samples):
        table = np.ones(1)
        for i in range(b):
            table = np.kron(table, probs[i, s])
        mixture += table
        sample_entropy += float(_entropy(table))
    mixture /= samples.n_samples
    return float(_entropy(mixture)) - sample_entropy / samples.n_samples


def epig_mc(samples: PosteriorSamples, model_head: Head, x_acq, eval_xs) -> float:
    """Mean pairwise label dependence between candidate and eval points.

    For each eval point, the joint over (y_eval, y_acq) is the sample mean
    of outer products of predictive vectors; the mutual information of that
    C x C table is averaged over the eval set. Maximize.
    """
    if samples.n_samples < 2:
        raise TooFewSamples("entropy estimates need at least two samples")
    eval_arr = np.atleast_2d(np.asarray(eval_xs, dtype=float))
    if eval_arr.size == 0:
        raise EmptyEvalSet("epig needs at least one eval point")
    probs_acq = predictive_probs(samples, model_head, np.atleast_2d(x_acq))[0]
    probs_eval = predictive_probs(samples, model_head, eval_arr)
    total = 0.0
    for e in range(eval_arr.shape[0]):
        joint = probs_eval[e].T @ probs_acq / samples.n_samples
        marg_eval = joint.sum(axis=1)
        marg_acq = joint.sum(axis=0)
        total += float(
            _entropy(marg_eval) + _entropy(marg_acq) - _entropy(joint.reshape(-1))
        )
    return total / eval_arr.shape[0]


def mc_pool_scores(
    samples: PosteriorSamples, model_head: Head, pool_xs, eval_xs=None
) -> tuple[np.ndarray, np.ndarray | None]:
    """bald_mc and epig_mc of every pool row in one chunked pass.

    Returns (bald, epig); epig is None when eval_xs is None. The eval
    predictives are computed once, each chunk's probabilities once. Each
    (e, a) joint J[ce, ca] = mean_s pi_e[s, ce] pi_a[s, ca] sums to the
    marginals along its rows and columns, so one product of strided views
    forms its entries with ce, ca < C - 1 and the marginals give the rest.
    Nothing is clamped: a rebuilt 0 may round to ~-C eps, which _entropy
    counts as ~700 C eps, so epig stays within ~1e-12 of the full table's.
    Chunks of MC_CHUNK rows run on up to two threads (`_run_chunks`); each
    writes only its own rows, so the values are the same bytes on any
    number of cores.
    """
    _require_categorical(model_head)
    if samples.n_samples < 2:
        raise TooFewSamples("entropy estimates need at least two samples")
    pool = np.atleast_2d(np.asarray(pool_xs, dtype=float))
    n, s, c = pool.shape[0], samples.n_samples, model_head.num_outputs
    bald = np.empty(n)
    epig = None
    if eval_xs is not None:
        eval_arr = np.atleast_2d(np.asarray(eval_xs, dtype=float))
        if eval_arr.size == 0:
            raise EmptyEvalSet("epig needs at least one eval point")
        m = eval_arr.shape[0]
        probs_eval = _probs_by_draw(samples, model_head, eval_arr)
        marg_eval = probs_eval.mean(axis=0)
        h_eval = _entropy(marg_eval, axis=0)
        eval_free = probs_eval[:, : c - 1].reshape(s, -1)
        epig = np.empty(n)

    def chunks(starts):
        # One loop over a thread's chunks, not a call per chunk: a chunk's
        # arrays live until the next chunk's replace them, so the allocator
        # reuses their pages. A call per chunk frees them all at once, glibc
        # hands them back to the OS, and a first pass page-faulted ~10x as
        # often (~0.15 s more at the CLI defaults).
        for start in starts:
            stop = min(start + MC_CHUNK, n)
            probs = _probs_by_draw(samples, model_head, pool[start:stop])
            marg_acq = probs.mean(axis=0)
            h_acq = _entropy(marg_acq, axis=0)
            bald[start:stop] = h_acq - _entropy(probs, axis=1).mean(axis=0)
            if epig is not None:
                # free[ca, a, ce, e] = J[ce, ca] of (e, a), for ca, ce < C - 1
                free = (probs[:, : c - 1].reshape(s, -1).T @ eval_free).reshape(c - 1, -1, c - 1, m)
                free /= s
                last_eval = marg_acq[: c - 1, :, None] - free.sum(axis=2)
                last_acq = marg_eval[: c - 1] - free.sum(axis=0)
                corner = marg_eval[c - 1] - last_eval.sum(axis=0)
                h_joint = _entropy(free, axis=(0, 2)) + _entropy(last_eval, axis=0)
                h_joint += _entropy(last_acq, axis=1) + _entropy(corner[None], axis=0)
                epig[start:stop] = (h_eval[None, :] + h_acq[:, None] - h_joint).mean(axis=1)

    _run_chunks(chunks, range(0, n, MC_CHUNK))
    return np.maximum(0.0, bald), epig


def _usable_cores() -> int:
    """Cores of this process's affinity mask that a BLAS product leaves free.

    numpy's OpenBLAS splits each product over its own threads, by default
    one per core, and a BLAS it cannot ask is taken to do the same. A worker
    thread beside those only contends with them: at the CLI defaults on a
    2-vCPU host the pass ran ~27% slower than on the caller alone.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask off Linux
        cores = os.cpu_count() or 1
    return cores // (_blas_threads() or cores)


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS numpy links, or None if it cannot be asked."""
    try:  # the symbols resolve through linalg's link to the library
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for name in (
        "scipy_openblas_get_num_threads64_",  # numpy >= 2 wheels
        "openblas_get_num_threads64_",  # numpy 1.x wheels
        "openblas_get_num_threads",
    ):
        get = getattr(lib, name, None)
        if get is not None:
            return get()
    return None


def _run_chunks(chunks, starts: range):
    """chunks(share) over every start, on the caller and at most one worker.

    With two usable cores a worker thread takes every other start and the
    caller the rest; otherwise the caller takes them all. Each chunk runs
    whole on one thread, so what the chunks write does not depend on the
    split. Both run under the caller's numpy errstate, which numpy keeps
    per thread. The first exception either thread raises stops both before
    their next chunk, and is re-raised here once the worker has ended.
    """
    errors = []
    errstate = np.geterr()

    def run(share):
        try:
            with np.errstate(**errstate):
                chunks(start for start in share if not errors)
        except BaseException as e:  # re-raised below, in the caller
            errors.append(e)

    worker = None
    if len(starts) > 1 and _usable_cores() > 1:
        worker = threading.Thread(
            target=run, args=(starts[1::2],), name="infoselect-mc", daemon=True
        )
        try:
            worker.start()
        except RuntimeError:  # no thread to be had: the caller runs every chunk
            worker = None
    run(starts if worker is None else starts[::2])
    if worker is not None:
        worker.join()
    if errors:
        raise errors[0]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; tied values share the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0])
    sorted_values = values[order]
    i = 0
    n = values.shape[0]
    while i < n:
        j = i
        while j + 1 < n and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(a, b) -> float:
    """Rank correlation: Pearson correlation of average ranks."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatch(f"shapes {a.shape} and {b.shape}")
    if a.shape[0] < 3:
        raise LengthMismatch("need at least three pairs")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise DegenerateConstantInput("rank correlation of a constant is undefined")
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra @ rb) / np.sqrt((ra @ ra) * (rb @ rb)))
