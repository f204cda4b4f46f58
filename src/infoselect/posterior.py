"""Gaussian weight posteriors built from local curvature.

The posterior over flattened weights is N(w*, H^-1) where w* is the fitted
mode and H is the accumulated observed information of the training data plus
the prior precision lam * I. Only the precision is ever stored; covariances
appear through products with its cached inverse Cholesky factor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .glm import Dataset, GlmModel, _map_curvature, _map_gradient
from .linalg import PsdMatrix, chol_logdet

# Entropy of a k-dimensional standard normal is k/2 * log(2 pi e); this is
# the per-dimension constant.
LOG_TWO_PI_E = float(np.log(2.0 * np.pi) + 1.0)

# Gradient norm above which the supplied weights are flagged as not
# actually being the posterior mode.
MODE_GRAD_WARN = 1e-3


@dataclass(frozen=True)
class GaussianPosterior:
    """Normal distribution over flattened model weights.

    mode: length-k mean vector (the fitted weights).
    precision: k x k inverse covariance.
    prior_precision: the lam that seeded the precision diagonal.
    """

    mode: np.ndarray
    precision: PsdMatrix
    prior_precision: float

    def __post_init__(self):
        mode = np.asarray(self.mode, dtype=float)
        if mode.ndim != 1 or mode.shape[0] != self.precision.dim:
            raise DimensionMismatch(
                f"mode shape {mode.shape} against precision dim {self.precision.dim}"
            )
        object.__setattr__(self, "mode", mode)

    @property
    def num_weights(self) -> int:
        return self.precision.dim


def build_posterior(
    model: GlmModel, train: Dataset, prior_precision: float
) -> GaussianPosterior:
    """Accumulate training curvature around the fitted weights.

    precision = sum_i observed_information(x_i, y_i) + lam * I, the same
    matrix the MAP fit's Newton step uses. An empty training set leaves the
    prior alone. Emits a warning when the supplied weights are not a
    stationary point of the MAP objective, since the quadratic expansion is
    only meaningful at the mode.
    """
    if prior_precision < 0.0:
        raise ValueError("prior precision must be nonnegative")
    if train.n > 0:
        labels = train.require_labels()
        if train.dim != model.dim:
            raise DimensionMismatch(
                f"training dim {train.dim} against model dim {model.dim}"
            )
        model.head.validate_labels(labels)
        grad_norm = float(np.max(np.abs(_map_gradient(model, train, prior_precision))))
        if grad_norm > MODE_GRAD_WARN:
            warnings.warn(
                f"weights are not the MAP optimum (gradient norm {grad_norm:.3e}); "
                "the curvature expansion may be unreliable",
                stacklevel=2,
            )
    return GaussianPosterior(
        mode=model.flat_weights(),
        precision=PsdMatrix(_map_curvature(model, train, prior_precision)),
        prior_precision=float(prior_precision),
    )


def entropy_approx(post: GaussianPosterior) -> float:
    """Differential entropy of the posterior in nats.

    Equals -1/2 logdet(precision) + k/2 * log(2 pi e); more concentrated
    posteriors (larger precision) have lower entropy.
    """
    k = post.num_weights
    return -0.5 * chol_logdet(post.precision) + 0.5 * k * LOG_TWO_PI_E


def sample_weights(post: GaussianPosterior, n_samples: int, seed: int) -> np.ndarray:
    """Draw n_samples flattened weight vectors, one per row.

    With precision = L L^T, each draw is mode + L^-T z for z standard
    normal, which has covariance (L L^T)^-1 exactly. Deterministic in seed.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    factor_inv = post.precision.factor_inv()
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((post.num_weights, n_samples))
    return post.mode[None, :] + z.T @ factor_inv
