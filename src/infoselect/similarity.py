"""Similarity-matrix route to the information scores.

Instead of accumulating k x k curvature, stack per-sample loss gradients
into an n x k data matrix G and work with n x n Gram matrices: G G^T under
the Euclidean inner product or G P^-1 G^T under the precision-weighted one.
The matrix determinant lemma makes the n x n and k x k routes agree, which
is cheap when the pool is smaller than the weight count.

Rows require a label per point. Sampled labels make G^T G an unbiased
one-sample estimate of the summed Fisher information; hard (argmax) pseudo
labels bias it, collapsing to exactly zero for the Gaussian head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, MissingLabels, SingularGram
from .glm import Dataset, GlmModel, score_jacobian
from .linalg import PsdMatrix, as_psd, chol_logdet, solve_psd
from .scores import logdet_ratio

HARD = "hard"
SAMPLED = "sampled"
GIVEN = "given"

EUCLIDEAN = "euclidean"
PRECISION_WEIGHTED = "precision-weighted"

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


@dataclass(frozen=True)
class SimilarityMatrix:
    """Gram matrix of data-matrix rows under a stated inner product."""

    entries: np.ndarray
    metric: str
    symmetric: bool = field(default=True)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if self.symmetric:
            entries = as_psd(entries).values
        object.__setattr__(self, "entries", entries)

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.entries.astype(dtype)
        return self.entries

    @property
    def shape(self):
        return self.entries.shape


def build_data_matrix(
    model: GlmModel,
    data: Dataset,
    label_mode: str,
    seed: int | None = None,
    repeats: int = 1,
) -> JacobianDataMatrix:
    """Stack loss gradients for every row of `data` under a label rule.

    hard: argmax of the predictive distribution, lowest class on ties.
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
    if label_mode == GIVEN:
        given = data.require_labels()
    rng = np.random.default_rng(seed) if label_mode == SAMPLED else None

    head = model.head
    rows = []
    for i, x in enumerate(data.features):
        z = model.weights.T @ x
        for _ in range(repeats):
            if label_mode == HARD:
                if head.kind == "gaussian":
                    y = float(z[0])
                else:
                    y = int(np.argmax(head.predictive(z)))
            elif label_mode == SAMPLED:
                y = head.sample_label(z, rng)
            else:
                y = given[i]
            rows.append(score_jacobian(model, x, y))
    return JacobianDataMatrix(np.asarray(rows), label_mode, seed)


def _check_k(a: JacobianDataMatrix, b: JacobianDataMatrix):
    if a.num_weights != b.num_weights:
        raise DimensionMismatch(
            f"data matrices over {a.num_weights} and {b.num_weights} weights"
        )


def gram(g: JacobianDataMatrix) -> SimilarityMatrix:
    """Euclidean similarity G G^T."""
    return SimilarityMatrix(g.rows @ g.rows.T, EUCLIDEAN)


def gram_weighted(g: JacobianDataMatrix, precision) -> SimilarityMatrix:
    """Precision-weighted similarity G P^-1 G^T."""
    p = as_psd(precision)
    if p.dim != g.num_weights:
        raise DimensionMismatch(
            f"precision dim {p.dim} against data matrix over {g.num_weights} weights"
        )
    return SimilarityMatrix(g.rows @ solve_psd(p, g.rows.T), PRECISION_WEIGHTED)


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
        s = gram_weighted(g_acq, precision).entries
        return 0.5 * chol_logdet(s + np.eye(n))
    p = as_psd(precision)
    return logdet_ratio(g_acq.rows.T @ g_acq.rows, p.values, p.factor())


def eig_uninformative(g_acq: JacobianDataMatrix, lam: float) -> float:
    """Finite-prior form of the similarity score: P = lam * Id.

    1/2 logdet(G G^T + lam Id) - (n/2) log lam. Stays finite for any
    lam > 0 regardless of Gram rank.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive for the finite form")
    n = g_acq.n
    s = gram(g_acq).entries + lam * np.eye(n)
    return 0.5 * chol_logdet(s) - 0.5 * n * float(np.log(lam))


def eig_uninformative_limit(g_acq: JacobianDataMatrix) -> float:
    """lam -> 0 limit proxy 1/2 logdet(G G^T).

    Only defined for full-rank Grams; rank deficiency (for example a
    duplicated row) raises SingularGram instead of being jittered over.
    """
    s = gram(g_acq).entries
    _require_nonsingular(s, "acquisition Gram")
    return 0.5 * chol_logdet(s)


def _weighted_block(rows: np.ndarray, precision) -> np.ndarray:
    return rows @ solve_psd(as_psd(precision), rows.T)


def epig_via_similarity(
    g_acq: JacobianDataMatrix, g_eval: JacobianDataMatrix, precision
) -> float:
    """Transductive proxy assembled from three similarity log-dets.

    1/2 logdet(S_P[eval] + Id) - 1/2 logdet(S_P[acq, eval] + Id)
    + 1/2 logdet(S_P[acq] + Id), with the joint block built from the
    stacked rows. Equals the mutual information between the two row
    blocks under the Gaussian weight prior, so it is nonnegative and
    zero when the acquisition rows carry nothing about the eval rows.
    """
    _check_k(g_acq, g_eval)
    p = as_psd(precision)
    stacked = np.vstack([g_acq.rows, g_eval.rows])
    t_eval = chol_logdet(_weighted_block(g_eval.rows, p) + np.eye(g_eval.n))
    t_joint = chol_logdet(_weighted_block(stacked, p) + np.eye(stacked.shape[0]))
    t_acq = chol_logdet(_weighted_block(g_acq.rows, p) + np.eye(g_acq.n))
    return 0.5 * (t_eval - t_joint + t_acq)


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
