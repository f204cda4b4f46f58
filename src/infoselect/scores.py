"""Weight-space score functions for candidate batches.

Every score reduces to log determinants or traces of curvature matrices
against the posterior precision P. Log-det and trace variants are returned
together as a ScorePair; the log-det never exceeds the trace for the
expected-information scores.

Orientation: the expected/joint information scores (eig, ig) and the two
gradient-norm baselines are maximization objectives. The transductive
proxies (epig, jepig, pig, jpig) measure how much the evaluation predictions
still depend on the weights after acquiring the candidates, so LOWER is
better; callers rank on the negated values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, EmptyEvalSet, EmptySampleSet
from .glm import Dataset, GlmModel, fisher_batch, fisher_information, score_jacobian
from .linalg import _cholesky_jittered, chol_logdet
from .posterior import LOG_TWO_PI_E, GaussianPosterior


@dataclass(frozen=True)
class ScorePair:
    """Log-det and trace variants of one score, both in nats."""

    logdet: float
    trace: float


class Scorer:
    """Binds a fitted model to its posterior and caches the factorization.

    The precision Cholesky factor is computed once at construction; scoring
    calls reuse it. Instances are immutable, so concurrent scoring of
    disjoint candidate sets needs no coordination.
    """

    def __init__(self, model: GlmModel, posterior: GaussianPosterior):
        if model.num_weights != posterior.num_weights:
            raise DimensionMismatch(
                f"model has {model.num_weights} weights, "
                f"posterior {posterior.num_weights}"
            )
        self.model = model
        self.posterior = posterior
        self._prec = posterior.precision.values
        self._prec_factor, _ = _cholesky_jittered(self._prec)

    @property
    def num_weights(self) -> int:
        return self.model.num_weights


def logdet_ratio(term: np.ndarray, base: np.ndarray, base_factor: np.ndarray) -> float:
    """1/2 [logdet(term + base) - logdet(base)], the log-det form of every score.

    base_factor is the lower Cholesky factor of base, which callers already
    hold; only term + base is factorized here.
    """
    base_logdet = float(2.0 * np.sum(np.log(np.diagonal(base_factor))))
    return 0.5 * (chol_logdet(term + base) - base_logdet)


def trace_ratio(term: np.ndarray, base_factor: np.ndarray) -> float:
    """1/2 tr(base^-1 term), the trace form of every score."""
    return 0.5 * float(np.trace(scipy.linalg.cho_solve((base_factor, True), term)))


def _labeled_features(model: GlmModel, cands) -> np.ndarray:
    """Feature rows of a labeled Dataset or (x, y) pairs, labels validated."""
    if isinstance(cands, Dataset):
        xs, ys = cands.features, cands.require_labels()
    else:
        pairs = list(cands)
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    model.head.validate_labels(ys)
    return np.asarray(xs, dtype=float)


def _eig_pair(s: Scorer, cand_term: np.ndarray) -> ScorePair:
    return ScorePair(
        logdet_ratio(cand_term, s._prec, s._prec_factor),
        trace_ratio(cand_term, s._prec_factor),
    )


def eig_score(s: Scorer, cand_xs) -> ScorePair:
    """Expected information gain of labeling the candidate batch (maximize).

    logdet = 1/2 [logdet(F + P) - logdet(P)], trace = 1/2 tr(P^-1 F), where
    F is the summed candidate Fisher information. The trace is additive over
    candidates; the log-det accounts for their redundancy.
    """
    xs = np.asarray(cand_xs, dtype=float)
    if xs.size == 0:
        return ScorePair(0.0, 0.0)
    return _eig_pair(s, fisher_batch(s.model, xs).values)


def ig_score(s: Scorer, cands) -> ScorePair:
    """Information gain of the given labeled batch (maximize).

    The observed information equals the Fisher for this model family, so
    this is eig_score on the candidates' features once their labels check.
    """
    return eig_score(s, _labeled_features(s.model, cands))


def conditional_entropy_proxy(s: Scorer, cand_xs) -> float:
    """Negated posterior entropy after absorbing the candidate batch.

    Equals 1/2 logdet(F + P) - (k/2) log(2 pi e): eig_score.logdet shifted
    by a batch-independent constant, so argmax rankings agree. Higher means
    a tighter posterior once the batch is labeled.
    """
    f = fisher_batch(s.model, np.asarray(cand_xs, dtype=float)).values
    return 0.5 * chol_logdet(f + s._prec) - 0.5 * s.num_weights * LOG_TWO_PI_E


def eval_fisher(s: Scorer, eval_xs, reduce: str) -> np.ndarray:
    """Eval-set Fisher of the transductive scores: "mean" or "sum" over rows."""
    xs = np.asarray([] if eval_xs is None else eval_xs, dtype=float)
    if xs.size == 0:
        raise EmptyEvalSet("transductive score needs at least one eval point")
    total = fisher_batch(s.model, xs).values
    if reduce == "mean":
        return total / xs.shape[0]
    return total


def _transductive_pair(s: Scorer, cand_term: np.ndarray, eval_term: np.ndarray) -> ScorePair:
    """Proxy MI between weights and eval predictions given the batch.

    q = cand_term + P is the posterior precision after the candidates;
    logdet = 1/2 [logdet(eval_term + q) - logdet(q)],
    trace  = 1/2 tr(q^-1 eval_term). Both shrink as the batch explains the
    evaluation directions, hence minimization.
    """
    q = cand_term + s._prec
    q_factor, _ = _cholesky_jittered(q)
    return ScorePair(
        logdet_ratio(eval_term, q, q_factor), trace_ratio(eval_term, q_factor)
    )


def epig_score(s: Scorer, cand_xs, eval_xs) -> ScorePair:
    """Expected transductive proxy, eval Fisher averaged (minimize)."""
    eval_term = eval_fisher(s, eval_xs, "mean")
    cand_term = fisher_batch(s.model, np.asarray(cand_xs, dtype=float)).values
    return _transductive_pair(s, cand_term, eval_term)


def jepig_score(s: Scorer, cand_xs, eval_xs) -> ScorePair:
    """Joint transductive proxy, eval Fisher summed (minimize).

    The trace variant is exactly M times the epig trace for M eval points;
    the log-det variants genuinely differ for M >= 2.
    """
    eval_term = eval_fisher(s, eval_xs, "sum")
    cand_term = fisher_batch(s.model, np.asarray(cand_xs, dtype=float)).values
    return _transductive_pair(s, cand_term, eval_term)


def pig_score(s: Scorer, cands, eval_pairs) -> ScorePair:
    """Labeled counterpart of epig_score (minimize).

    Observed information equals the Fisher for this model family, so this
    is epig_score on the features once every label checks.
    """
    eval_xs = _labeled_features(s.model, eval_pairs)
    return epig_score(s, _labeled_features(s.model, cands), eval_xs)


def jpig_score(s: Scorer, cands, eval_pairs) -> ScorePair:
    """Labeled counterpart of jepig_score (minimize)."""
    eval_xs = _labeled_features(s.model, eval_pairs)
    return jepig_score(s, _labeled_features(s.model, cands), eval_xs)


def eig_pool_scores(s: Scorer, pool_xs) -> list[ScorePair]:
    """eig_score of each pool candidate alone, sharing the cached factor."""
    return [
        _eig_pair(s, fisher_information(s.model, x).values)
        for x in np.atleast_2d(np.asarray(pool_xs, dtype=float))
    ]


def _transductive_pool(s: Scorer, pool_xs, eval_term) -> list[ScorePair]:
    return [
        _transductive_pair(s, fisher_information(s.model, x).values, eval_term)
        for x in np.atleast_2d(np.asarray(pool_xs, dtype=float))
    ]


def epig_pool_scores(s: Scorer, pool_xs, eval_xs) -> list[ScorePair]:
    """epig_score of each pool candidate; the eval Fisher is built once."""
    return _transductive_pool(s, pool_xs, eval_fisher(s, eval_xs, "mean"))


def jepig_pool_scores(s: Scorer, pool_xs, eval_xs) -> list[ScorePair]:
    """jepig_score of each pool candidate; the eval Fisher is built once."""
    return _transductive_pool(s, pool_xs, eval_fisher(s, eval_xs, "sum"))


def egl_score(s: Scorer, x) -> float:
    """Expected squared gradient norm under the predictive distribution.

    The label-averaged squared score is the trace of the Fisher at x,
    ||x||^2 tr d2A(z), exact for both heads (never sampled). Maximize.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (s.model.dim,):
        raise DimensionMismatch(f"feature shape {x.shape}, expected ({s.model.dim},)")
    lam = s.model.head.curvature(s.model.weights.T @ x)
    return float(x @ x) * float(np.trace(lam))


def grand_score(s: Scorer, x, y, weight_samples) -> float:
    """Mean squared gradient norm of a labeled point over weight draws.

    weight_samples holds flattened weight vectors, one per row. Maximize.
    """
    samples = np.atleast_2d(np.asarray(weight_samples, dtype=float))
    if samples.size == 0:
        raise EmptySampleSet("need at least one weight sample")
    head = s.model.head
    total = 0.0
    for flat in samples:
        m = GlmModel.from_flat(head, s.model.dim, flat)
        j = score_jacobian(m, x, y)
        total += float(j @ j)
    return total / samples.shape[0]
