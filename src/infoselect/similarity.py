"""Similarity-matrix route to the information scores.

Instead of accumulating k x k curvature, stack per-sample loss gradients
into an n x k data matrix G and work with n x n Gram matrices, plain
symmetric arrays: G G^T under the Euclidean inner product (`gram`) or
G P^-1 G^T under the precision-weighted one (`gram_weighted`). The matrix
determinant lemma makes the n x n and k x k routes agree, which is cheap
when the pool is smaller than the weight count.

Rows require a label per point. Sampled labels make G^T G an unbiased
one-sample estimate of the summed Fisher information; hard (argmax) pseudo
labels bias it, collapsing to exactly zero for the Gaussian head.

Data matrices are built in one batched pass in every label mode (labels,
then `glm.score_jacobians`). Sampled labels are inverse-CDF transforms of
one uniform (standard normal on the Gaussian head) per row, drawn in row
order from the seeded generator. A one-row score per pool point,
1/2 log(1 + g^T P^-1 g), is a column norm after one triangular solve
against P's cached Cholesky factor (`eig_via_similarity_pool`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularGram
from .glm import GAUSSIAN, Dataset, GlmModel, score_jacobians
from .linalg import PsdMatrix, as_psd, chol_logdet, solve_lower, solve_psd
from .scores import logdet_ratio

HARD = "hard"
SAMPLED = "sampled"
GIVEN = "given"

# Relative eigenvalue floor below which a Gram matrix counts as singular.
_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class JacobianDataMatrix:
    """Per-sample loss gradients, one length-k row per data point.

    label_mode records how the labels behind the rows were chosen (hard
    argmax, sampled from the predictive, or given), since that determines
    whether Gram-based Fisher estimates are biased.
    """

    rows: np.ndarray
    label_mode: str
    seed: int | None = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise DimensionMismatch(f"rows must be 2-d, got shape {rows.shape}")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def num_weights(self) -> int:
        return self.rows.shape[1]

    @property
    def biased(self) -> bool:
        """True when Gram estimates from these rows are not unbiased."""
        return self.label_mode != SAMPLED


def build_data_matrix(
    model: GlmModel,
    data: Dataset,
    label_mode: str,
    seed: int | None = None,
    repeats: int = 1,
) -> JacobianDataMatrix:
    """Stack loss gradients for every row of `data` under a label rule.

    hard: argmax of the logits (the mode of the predictive), lowest class
        on ties; the Gaussian head's mean.
    sampled: one label drawn from the predictive per row (deterministic in
        seed). `repeats` > 1 emits that many independently sampled rows per
        data point, grouped consecutively; it exists for bias studies and
        is only meaningful in sampled mode.
    given: the dataset's own labels; raises MissingLabels without them.
    """
    if data.n == 0:
        raise ValueError("need at least one data point")
    if label_mode not in (HARD, SAMPLED, GIVEN):
        raise ValueError(f"unknown label mode {label_mode!r}")
    if repeats != 1 and label_mode != SAMPLED:
        raise ValueError("repeats only applies to sampled labels")
    head = model.head
    z = data.features @ model.weights
    if label_mode == HARD:
        labels = z[:, 0] if head.kind == GAUSSIAN else np.argmax(z, axis=1)
    elif label_mode == SAMPLED:
        z = np.repeat(z, repeats, axis=0)
        draws = head.label_draws(np.random.default_rng(seed), z.shape[0])
        labels = head.labels_from_draws(z, draws)
    else:
        labels = head.validate_labels(data.require_labels())
    xs = np.repeat(data.features, repeats, axis=0)
    return JacobianDataMatrix(score_jacobians(model, xs, labels), label_mode, seed)


def eig_via_similarity_pool(model: GlmModel, pool_xs, precision, seeds) -> np.ndarray:
    """eig_via_similarity of each pool row's one-row sampled data matrix.

    Row n's label is the one build_data_matrix(..., SAMPLED, seed=seeds[n])
    draws for that row alone. With P = L L^T (the cached factor), the score
    is 1/2 log(1 + g_n^T P^-1 g_n) = 1/2 log1p(||L^-1 g_n||^2), so the whole
    pool takes one triangular solve.
    """
    xs = np.asarray(pool_xs, dtype=float)
    head = model.head
    draws = [head.label_draws(np.random.default_rng(int(seed))) for seed in seeds]
    labels = head.labels_from_draws(xs @ model.weights, np.asarray(draws))
    g = score_jacobians(model, xs, labels)
    v = solve_lower(precision, g.T)
    return 0.5 * np.log1p(np.einsum("kn,kn->n", v, v))


def _check_k(a: JacobianDataMatrix, b: JacobianDataMatrix):
    if a.num_weights != b.num_weights:
        raise DimensionMismatch(
            f"data matrices over {a.num_weights} and {b.num_weights} weights"
        )


def gram(g: JacobianDataMatrix) -> np.ndarray:
    """Euclidean similarity G G^T, an (n, n) array."""
    return g.rows @ g.rows.T


def gram_weighted(g: JacobianDataMatrix, precision) -> np.ndarray:
    """Precision-weighted similarity G P^-1 G^T, symmetrized as (S + S^T) / 2 to be exact."""
    s = cross(g, g, precision)
    return (s + s.T) / 2.0


def cross(
    g1: JacobianDataMatrix, g2: JacobianDataMatrix, precision=None
) -> np.ndarray:
    """Rectangular cross block G1 P^-1 G2^T (Euclidean when P is None)."""
    _check_k(g1, g2)
    if precision is None:
        return g1.rows @ g2.rows.T
    p = as_psd(precision)
    if p.dim != g1.num_weights:
        raise DimensionMismatch(
            f"precision dim {p.dim} against data matrix over {g1.num_weights} weights"
        )
    return g1.rows @ solve_psd(p, g2.rows.T)


def one_sample_fisher(g: JacobianDataMatrix) -> PsdMatrix:
    """G^T G: the gradient-outer-product estimate of the summed Fisher.

    Unbiased when the labels were sampled from the predictive; check
    `g.biased` before trusting it under other label modes.
    """
    return PsdMatrix(g.rows.T @ g.rows)


def _require_nonsingular(m: np.ndarray, what: str):
    eigs = np.linalg.eigvalsh((m + m.T) / 2.0)
    if eigs[0] <= _SINGULAR_RTOL * max(1.0, float(eigs[-1])):
        raise SingularGram(f"{what} is rank deficient (min eigenvalue {eigs[0]:.3e})")


def eig_via_similarity(g_acq: JacobianDataMatrix, precision) -> float:
    """Expected information gain from one-sample rows (maximize).

    1/2 logdet(G P^-1 G^T + Id_n), evaluated in the n x n similarity space
    or the k x k weight space, whichever is smaller; the two agree by the
    matrix determinant lemma.
    """
    n, k = g_acq.rows.shape
    if n <= k:
        return 0.5 * chol_logdet(gram_weighted(g_acq, precision) + np.eye(n))
    p = as_psd(precision)
    return logdet_ratio(p + g_acq.rows.T @ g_acq.rows, p)


def eig_uninformative(g_acq: JacobianDataMatrix, lam: float) -> float:
    """Finite-prior form of the similarity score: P = lam * Id.

    1/2 logdet(G G^T + lam Id) - (n/2) log lam. Stays finite for any
    lam > 0 regardless of Gram rank.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive for the finite form")
    n = g_acq.n
    s = gram(g_acq) + lam * np.eye(n)
    return 0.5 * chol_logdet(s) - 0.5 * n * float(np.log(lam))


def eig_uninformative_limit(g_acq: JacobianDataMatrix) -> float:
    """lam -> 0 limit proxy 1/2 logdet(G G^T).

    Only defined for full-rank Grams; rank deficiency (for example a
    duplicated row) raises SingularGram instead of being jittered over.
    """
    s = gram(g_acq)
    _require_nonsingular(s, "acquisition Gram")
    return 0.5 * chol_logdet(s)


def epig_via_similarity(
    g_acq: JacobianDataMatrix, g_eval: JacobianDataMatrix, precision
) -> float:
    """Transductive proxy assembled from three similarity log-dets.

    1/2 logdet(S_P[eval] + Id) - 1/2 logdet(S_P[acq, eval] + Id)
    + 1/2 logdet(S_P[acq] + Id); the joint block of the stacked rows holds
    the other two as its diagonal blocks. Equals the mutual information
    between the two row blocks under the Gaussian weight prior, so it is
    nonnegative and zero when the acquisition rows carry nothing about them.
    """
    _check_k(g_acq, g_eval)
    stacked = JacobianDataMatrix(np.vstack([g_acq.rows, g_eval.rows]), g_acq.label_mode)
    joint = cross(stacked, stacked, precision) + np.eye(stacked.n)
    a = g_acq.n
    return 0.5 * (chol_logdet(joint[a:, a:]) - chol_logdet(joint) + chol_logdet(joint[:a, :a]))


def logdet_mi(s_acq, s_eval, s_cross) -> float:
    """Similarity-space mutual information between two blocks (maximize).

    logdet(S_acq) - logdet(S_acq - S_cross S_eval^-1 S_cross^T). Requires
    both diagonal blocks nonsingular; a singular Schur complement means the
    acquisition rows are linearly explained by the eval rows, where the
    objective diverges, so it raises instead of jittering silently.
    """
    sa = np.asarray(s_acq, dtype=float)
    se = np.asarray(s_eval, dtype=float)
    c = np.asarray(s_cross, dtype=float)
    if c.shape != (sa.shape[0], se.shape[0]):
        raise DimensionMismatch(
            f"cross block {c.shape} against diagonal blocks "
            f"{sa.shape[0]} and {se.shape[0]}"
        )
    _require_nonsingular(sa, "acquisition block")
    _require_nonsingular(se, "evaluation block")
    schur = sa - c @ solve_psd(se, c.T)
    _require_nonsingular(schur, "Schur complement")
    return chol_logdet(sa) - chol_logdet(schur)


def logdet_cmi(
    g_acq: JacobianDataMatrix,
    g_eval: JacobianDataMatrix,
    g_cond: JacobianDataMatrix | None = None,
) -> float:
    """Mutual information with the eval block given a conditioning set.

    Computed as the difference of two logdet_mi terms: the conditioning
    rows stacked into the acquisition block, minus the conditioning rows
    alone. An empty conditioning set reduces to logdet_mi. Euclidean
    similarity throughout (the uninformative-limit convention).
    """
    _check_k(g_acq, g_eval)

    def mi_against_eval(rows: np.ndarray) -> float:
        sa = rows @ rows.T
        se = g_eval.rows @ g_eval.rows.T
        c = rows @ g_eval.rows.T
        return logdet_mi(sa, se, c)

    if g_cond is None or g_cond.n == 0:
        return mi_against_eval(g_acq.rows)
    _check_k(g_acq, g_cond)
    stacked = np.vstack([g_acq.rows, g_cond.rows])
    return mi_against_eval(stacked) - mi_against_eval(g_cond.rows)
