"""Weight-space score functions for candidate batches.

Every score reduces to log determinants or traces of curvature matrices
against the posterior precision P. Log-det and trace variants are returned
together: as a ScorePair for one batch, as a (logdet, trace) pair of arrays
by the *_pool_scores functions. The log-det never exceeds the trace for the
expected-information scores.

A single candidate's Fisher F_n = U_n L_n U_n^T (U_n = I_C (x) x_n, L_n the
head curvature) has rank <= C, so per-candidate scores never form a k x k
matrix. With S_n(A^-1) = U_n^T A^-1 U_n (`candidate_projection`), Sylvester's
identity gives logdet(A + s F_n) - logdet(A) = logdet(I + s L_n S_n(A^-1))
and Woodbury gives tr((A + s F_n)^-1 E) - tr(A^-1 E)
= -s tr((I + s L_n S_n(A^-1))^-1 L_n S_n(A^-1 E A^-1)), for s = +1 (add)
or -1 (remove). Neither needs a square root of L_n.

`RankCState` is the one per-candidate engine: it holds these stacks for a
state A and gives every candidate's change. The pool columns read it at
A = P (and E + P), which is step 0 of greedy and BAIT selection; those
carry the same state through rank-C updates. Every set value, empty batch
included, comes from the k x k formulas `logdet_ratio` and `trace_ratio`.

Orientation: the expected/joint information scores (eig, ig) and the two
gradient-norm baselines are maximization objectives. The transductive
proxies (epig, jepig, pig, jpig) measure how much the evaluation predictions
still depend on the weights after acquiring the candidates, so LOWER is
better; callers rank on the negated values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyEvalSet, EmptySampleSet, NotPositiveDefinite
from .glm import Dataset, GlmModel, candidate_projection, fisher_batch
from .linalg import PsdMatrix, chol_logdet
from .posterior import GaussianPosterior, entropy_approx

# Pool rows per chunk of grand_pool_scores' (chunk, draws, C) logits.
GRAND_CHUNK = 64


@dataclass(frozen=True)
class ScorePair:
    """Log-det and trace variants of one score, both in nats."""

    logdet: float
    trace: float


class Scorer:
    """Binds a fitted model to its posterior.

    Construction factorizes nothing: the precision's factors are formed on
    first use and stay cached on the posterior's PsdMatrix. Instances are
    immutable, so concurrent scoring of disjoint candidate sets needs no
    coordination.
    """

    def __init__(self, model: GlmModel, posterior: GaussianPosterior):
        if model.num_weights != posterior.num_weights:
            raise DimensionMismatch(
                f"model has {model.num_weights} weights, "
                f"posterior {posterior.num_weights}"
            )
        self.model = model
        self.posterior = posterior

    @property
    def num_weights(self) -> int:
        return self.model.num_weights

    def precision_with(self, xs) -> PsdMatrix:
        """P + F(xs), the precision once the rows xs are labeled.

        With no rows it is the posterior's own P, factor and inverse cached.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            return self.posterior.precision
        return self.posterior.precision + fisher_batch(self.model, xs)

    def curvatures(self, xs) -> np.ndarray:
        """Head curvature L_n at each row of xs, an (n, C, C) stack."""
        return self.model.head.curvature(np.asarray(xs, dtype=float) @ self.model.weights)


def logdet_ratio(total: PsdMatrix, base: PsdMatrix) -> float:
    """1/2 [logdet(total) - logdet(base)], the log-det form of every score.

    total is base plus the score's term; both log-dets read the matrices'
    cached factors, so a base shared across calls is factorized once.
    """
    return 0.5 * (chol_logdet(total) - chol_logdet(base))


def trace_ratio(term: np.ndarray, base_inv: np.ndarray) -> float:
    """1/2 tr(base^-1 term), the trace form of every score.

    base_inv is base^-1, which callers already hold; the trace of the
    product is a sum over k^2 entries, so nothing is solved here.
    """
    return 0.5 * float(np.einsum("ij,ji->", base_inv, term))


def _rank_c_update(curv: np.ndarray, proj: np.ndarray, sign: float):
    """I + sign L_n S_n for every candidate, with its log-determinant.

    The determinant equals det(A + sign F_n) / det(A), so it is positive
    whenever A + sign F_n is positive definite; a non-positive or non-finite
    one shows that it is not, and raises instead of being used.
    """
    update = np.eye(curv.shape[-1]) + sign * (curv @ proj)
    det_sign, logdet = np.linalg.slogdet(update)
    bad = ~((det_sign > 0) & np.isfinite(logdet))
    if bad.any():
        n = int(np.argmax(bad))
        raise NotPositiveDefinite(
            f"rank-{curv.shape[-1]} update of candidate {n} is not positive "
            f"definite: det(I {'+' if sign > 0 else '-'} L S) has sign {det_sign[n]:+.0f}, "
            f"log {logdet[n]:.3e}"
        )
    return update, logdet


class RankCState:
    """A^-1 and the stacks S_n = U_n^T A^-1 U_n of fixed rows, kept through rank-C updates.

    `update(b, sign)` adds (sign +1) or removes (sign -1) row b's Fisher
    F_b = U_b L_b U_b^T. With V = A^-1 U_b and the push-through form of
    Woodbury, M = sign L_b (I + sign S_b L_b)^-1, so
    (A + sign F_b)^-1 = A^-1 - V M V^T and S_n' = S_n - X_n M X_n^T with
    X_n = U_n^T V: one (n, D) x (D, C^2) product, and neither a square root
    nor an inverse of L_b. Given the fixed k x k term E, the state also
    carries T_n = U_n^T A^-1 E A^-1 U_n, which moves by W = A^-1 E V and
    V^T E V. Starting A^-1 is the only k x k inverse the state needs;
    `logdet_changes` and `trace_changes` read every row's change at the
    current A from these stacks.
    """

    def __init__(self, model: GlmModel, xs, curv, inverse, term=None):
        self.model = model
        self.xs = xs
        self.curv = curv
        self.inverse = np.array(inverse, dtype=float)
        self.proj = candidate_projection(model, xs, self.inverse)
        self.term = term
        self.sandwich = None
        if term is not None:
            self.sandwich = candidate_projection(
                model, xs, self.inverse @ term @ self.inverse
            )

    def _cross(self, v: np.ndarray) -> np.ndarray:
        """U_n^T v for every row, an (n, C, C) stack, from one product."""
        c, d = self.model.num_outputs, self.model.dim
        # v[c1 D + i, c2] moves to (i, c1 C + c2)
        by_feature = v.reshape(c, d, c).transpose(1, 0, 2).reshape(d, c * c)
        return (self.xs @ by_feature).reshape(-1, c, c)

    def logdet_changes(self, rows=slice(None), sign: float = 1.0) -> np.ndarray:
        """logdet_ratio(A + sign F_n, A) = 1/2 logdet(I + sign L_n S_n) for each of rows."""
        return 0.5 * _rank_c_update(self.curv[rows], self.proj[rows], sign)[1]

    def trace_changes(self, rows=slice(None), sign: float = 1.0) -> np.ndarray:
        """1/2 [tr((A + sign F_n)^-1 E) - tr(A^-1 E)] for each of rows, by Woodbury."""
        curv = self.curv[rows]
        update, _ = _rank_c_update(curv, self.proj[rows], sign)
        solved = np.linalg.solve(update, curv @ self.sandwich[rows])
        return -0.5 * sign * np.trace(solved, axis1=-2, axis2=-1)

    def trace_ratios(self) -> np.ndarray:
        """trace_ratio(F_n, A^-1) = 1/2 tr(L_n S_n) for every row."""
        return 0.5 * np.trace(self.curv @ self.proj, axis1=-2, axis2=-1)

    def keep(self, rows):
        """Carry only the given rows from here on; row i is old row rows[i]."""
        self.xs, self.curv, self.proj = self.xs[rows], self.curv[rows], self.proj[rows]
        self.sandwich = None if self.sandwich is None else self.sandwich[rows]

    def update(self, b: int, sign: float):
        """Add (sign +1) or remove (sign -1) row b's Fisher term from A."""
        c, d = self.model.num_outputs, self.model.dim
        curv_b = self.curv[b]
        v = self.inverse.reshape(-1, c, d) @ self.xs[b]
        # sign (I + sign L_b S_b)^-1 L_b is M by push-through; it is
        # symmetric in exact arithmetic, so rounding is not let build up
        m = sign * np.linalg.solve(np.eye(c) + sign * curv_b @ self.proj[b], curv_b)
        m = 0.5 * (m + m.T)
        x = self._cross(v)
        xm = x @ m
        if self.term is not None:
            ev = self.term @ v
            cross = xm @ self._cross(self.inverse @ ev).transpose(0, 2, 1)
            self.sandwich += (
                xm @ (v.T @ ev) @ xm.transpose(0, 2, 1)
                - cross
                - cross.transpose(0, 2, 1)
            )
        self.proj -= xm @ x.transpose(0, 2, 1)
        self.inverse -= v @ m @ v.T


def logdet_gains(q: RankCState, r: RankCState | None = None, rows=slice(None)) -> np.ndarray:
    """Change of a log-det objective when each of rows alone joins the batch.

    q carries the precision P + F_batch. eig (r None):
    logdet_ratio(q + F_n, q) = 1/2 logdet(I + L_n S_n(q^-1)). epig/jepig, with
    r carrying E + q: logdet_ratio(E + q + F_n, q + F_n) - logdet_ratio(E + q, q)
    = 1/2 [logdet(I + L_n S_n(r^-1)) - logdet(I + L_n S_n(q^-1))].
    """
    change = q.logdet_changes(rows)
    if r is None:
        return change
    return r.logdet_changes(rows) - change


def _labeled_features(model: GlmModel, cands) -> np.ndarray:
    """Feature rows of a labeled Dataset or (x, y) pairs, labels validated."""
    if isinstance(cands, Dataset):
        xs, ys = cands.features, cands.require_labels()
    else:
        pairs = list(cands)
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    model.head.validate_labels(ys)
    return np.asarray(xs, dtype=float)


def eig_score(s: Scorer, cand_xs) -> ScorePair:
    """Expected information gain of labeling the candidate batch (maximize).

    logdet = 1/2 [logdet(F + P) - logdet(P)], trace = 1/2 tr(P^-1 F), where
    F is the summed candidate Fisher information. The trace is additive over
    candidates; the log-det accounts for their redundancy.
    """
    xs = np.asarray(cand_xs, dtype=float)
    if xs.size == 0:
        return ScorePair(0.0, 0.0)
    p = s.posterior.precision
    f = fisher_batch(s.model, xs)
    return ScorePair(logdet_ratio(p + f, p), trace_ratio(f, p.inverse()))


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
    return eig_score(s, cand_xs).logdet - entropy_approx(s.posterior)


def eval_fisher(s: Scorer, eval_xs, reduce: str) -> np.ndarray:
    """Eval-set Fisher of the transductive scores: "mean" or "sum" over rows."""
    xs = np.asarray([] if eval_xs is None else eval_xs, dtype=float)
    if xs.size == 0:
        raise EmptyEvalSet("transductive score needs at least one eval point")
    total = fisher_batch(s.model, xs)
    if reduce == "mean":
        return total / xs.shape[0]
    return total


def transductive_score(s: Scorer, cand_xs, eval_term: np.ndarray) -> ScorePair:
    """Proxy MI between weights and eval predictions given the batch.

    q = F + P is the posterior precision after the candidates;
    logdet = 1/2 [logdet(eval_term + q) - logdet(q)],
    trace  = 1/2 tr(q^-1 eval_term). Both shrink as the batch explains the
    evaluation directions, hence minimization.
    """
    q = s.precision_with(cand_xs)
    return ScorePair(logdet_ratio(q + eval_term, q), trace_ratio(eval_term, q.inverse()))


def epig_score(s: Scorer, cand_xs, eval_xs) -> ScorePair:
    """Expected transductive proxy, eval Fisher averaged (minimize)."""
    return transductive_score(s, cand_xs, eval_fisher(s, eval_xs, "mean"))


def jepig_score(s: Scorer, cand_xs, eval_xs) -> ScorePair:
    """Joint transductive proxy, eval Fisher summed (minimize).

    The trace variant is exactly M times the epig trace for M eval points;
    the log-det variants genuinely differ for M >= 2.
    """
    return transductive_score(s, cand_xs, eval_fisher(s, eval_xs, "sum"))


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


def eig_pool_scores(s: Scorer, pool_xs) -> tuple[np.ndarray, np.ndarray]:
    """eig_score of each pool candidate alone, as (logdet, trace) arrays.

    The empty batch scores 0, so each column is the candidate's change at
    step 0 of greedy selection: logdet_gains and trace_ratios of P.
    """
    xs = np.atleast_2d(np.asarray(pool_xs, dtype=float))
    q = RankCState(s.model, xs, s.curvatures(xs), s.posterior.precision.inverse())
    return logdet_gains(q), q.trace_ratios()


def _transductive_pool(s: Scorer, pool_xs, eval_term) -> tuple[np.ndarray, np.ndarray]:
    """transductive_score of each pool candidate alone, as (logdet, trace) arrays.

    The empty batch's pair plus each candidate's change from the states
    greedy selection (q carrying P, r carrying E + P) and BAIT (q) start
    from: logdet_gains for the log-det, trace_changes for the trace. E + P
    is factorized once, for both r and the empty batch's log-det.
    """
    xs = np.atleast_2d(np.asarray(pool_xs, dtype=float))
    p = s.posterior.precision
    e_plus_p = p + eval_term
    curv = s.curvatures(xs)
    q = RankCState(s.model, xs, curv, p.inverse(), eval_term)
    r = RankCState(s.model, xs, curv, e_plus_p.inverse())
    return (
        logdet_ratio(e_plus_p, p) + logdet_gains(q, r),
        trace_ratio(eval_term, p.inverse()) + q.trace_changes(),
    )


def epig_pool_scores(s: Scorer, pool_xs, eval_xs) -> tuple[np.ndarray, np.ndarray]:
    """epig_score of each pool candidate; the eval Fisher is built once."""
    return _transductive_pool(s, pool_xs, eval_fisher(s, eval_xs, "mean"))


def jepig_pool_scores(s: Scorer, pool_xs, eval_xs) -> tuple[np.ndarray, np.ndarray]:
    """jepig_score of each pool candidate; the eval Fisher is built once."""
    return _transductive_pool(s, pool_xs, eval_fisher(s, eval_xs, "sum"))


def _pool_rows(s: Scorer, pool_xs) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(pool_xs, dtype=float))
    if xs.ndim != 2 or xs.shape[1] != s.model.dim:
        raise DimensionMismatch(f"feature rows {xs.shape}, expected (n, {s.model.dim})")
    return xs


def egl_score(s: Scorer, x) -> float:
    """Expected squared gradient norm under the predictive distribution.

    The label-averaged squared score is the trace of the Fisher at x,
    ||x||^2 tr d2A(z), exact for both heads (never sampled). Maximize.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (s.model.dim,):
        raise DimensionMismatch(f"feature shape {x.shape}, expected ({s.model.dim},)")
    return float(egl_pool_scores(s, x[None, :])[0])


def egl_pool_scores(s: Scorer, pool_xs) -> np.ndarray:
    """egl_score of every pool row: ||x_n||^2 tr L_n."""
    xs = _pool_rows(s, pool_xs)
    traces = np.trace(s.curvatures(xs), axis1=-2, axis2=-1)
    return np.einsum("nd,nd->n", xs, xs) * traces


def grand_score(s: Scorer, x, y, weight_samples) -> float:
    """Mean squared gradient norm of a labeled point over weight draws.

    weight_samples holds flattened weight vectors, one per row. Maximize.
    """
    xs = np.asarray(x, dtype=float)[None, :]
    return float(grand_pool_scores(s, xs, [y], weight_samples)[0])


def grand_pool_scores(s: Scorer, pool_xs, labels, weight_samples) -> np.ndarray:
    """grand_score of every pool row at its label.

    Under draw w the squared score is ||x||^2 ||r_w||^2, r_w the logit
    residual (pi_w(x) - e_y, or z_w - y on the Gaussian head). Rows are
    taken GRAND_CHUNK at a time, so the (chunk, draws, C) logits stay small.
    """
    samples = np.atleast_2d(np.asarray(weight_samples, dtype=float))
    if samples.size == 0:
        raise EmptySampleSet("need at least one weight sample")
    if samples.shape[1] != s.num_weights:
        raise DimensionMismatch(
            f"weight samples of length {samples.shape[1]}, expected {s.num_weights}"
        )
    xs = _pool_rows(s, pool_xs)
    head = s.model.head
    ys = head.validate_labels(labels)
    if ys.shape[0] != xs.shape[0]:
        raise DimensionMismatch(f"{ys.shape[0]} labels for {xs.shape[0]} rows")
    n_draws, c = samples.shape[0], head.num_outputs
    # Row w C + c holds the class-c weights of draw w.
    weights = samples.reshape(n_draws * c, s.model.dim)
    out = np.empty(xs.shape[0])
    for start in range(0, xs.shape[0], GRAND_CHUNK):
        stop = start + GRAND_CHUNK
        rows = xs[start:stop]
        z = (rows @ weights.T).reshape(rows.shape[0], n_draws, c)
        resid = head.residual(z, ys[start:stop, None])
        sq_norms = np.einsum("nd,nd->n", rows, rows)
        out[start:stop] = sq_norms * (resid**2).sum(axis=(1, 2)) / n_draws
    return out
