"""Generalized linear models with exponential-family output heads.

A model maps features x in R^D to natural parameters z = W^T x in R^C and
scores a label through the head's negative log likelihood. The two heads are
a unit-variance Gaussian (C = 1) and a softmax categorical (C >= 2).

Weight vectors are flattened class-major: flat index c * D + i addresses the
weight of feature i for output c. Under this layout curvature matrices take
the Kronecker form d2A(z) (x) x x^T, where d2A is the C x C Hessian of the
head's log normalizer at the current logits. Because that curvature does not
depend on the observed label, the observed information equals the Fisher
information at the same weights for any label choice.

Logits become probabilities by one rule, `_softmax` (max-shift, exp,
normalize; no clamp); hard labels are the argmax of the logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DidNotConverge,
    DimensionMismatch,
    LabelOutOfRange,
    MissingLabels,
    NonFiniteInput,
)
from .linalg import PsdMatrix, solve_psd

GAUSSIAN = "gaussian"
CATEGORICAL = "categorical"

# 0.5 * log(2 pi), the constant part of the Gaussian nll.
HALF_LOG_TWO_PI = 0.5 * float(np.log(2.0 * np.pi))


def _logsumexp(z: np.ndarray) -> np.ndarray:
    """log(sum(exp(z))) over the last axis, kept as a length-1 axis.

    Shifted by the max m so no term overflows: m + log1p(r + t - 1), with t
    the count of terms equal to m and r the sum of exp(z - m) over the rest,
    so a sum dominated by one term keeps its small remainder. A non-finite
    max is shifted by 0 instead, which yields the inf or NaN of the plain
    formula.
    """
    top = np.max(z, axis=-1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    at_top = z == top
    rest = np.sum(np.exp(z - top), axis=-1, keepdims=True, where=~at_top)
    return top + np.log1p(rest + (np.sum(at_top, axis=-1, keepdims=True) - 1))


def _softmax(z: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """exp(z - max z) normalized over axis, written to out (out=z overwrites z)."""
    probs = np.subtract(z, np.max(z, axis=axis, keepdims=True), out=out)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=axis, keepdims=True)
    return probs


@dataclass(frozen=True)
class Dataset:
    """Feature rows with optional labels.

    features: (n, D) float array.
    labels: length-n vector or None. Integer valued for categorical heads,
        real valued for the Gaussian head; validation against a head happens
        at the point of use.
    """

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2:
            raise DimensionMismatch(f"features must be 2-d, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise NonFiniteInput("features must be finite")
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
                raise DimensionMismatch(
                    f"{labels.shape} labels for {feats.shape[0]} rows"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    def require_labels(self) -> np.ndarray:
        if self.labels is None:
            raise MissingLabels("dataset has no labels")
        return self.labels

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        labels = self.labels[idx] if self.labels is not None else None
        return Dataset(self.features[idx], labels)


@dataclass(frozen=True)
class Head:
    """Exponential-family output head: distribution kind plus output count."""

    kind: str
    num_outputs: int

    def __post_init__(self):
        if self.kind == GAUSSIAN:
            if self.num_outputs != 1:
                raise ValueError("gaussian head has exactly one output")
        elif self.kind == CATEGORICAL:
            if self.num_outputs < 2:
                raise ValueError("categorical head needs at least two classes")
        else:
            raise ValueError(f"unknown head kind {self.kind!r}")

    @classmethod
    def gaussian(cls) -> "Head":
        return cls(GAUSSIAN, 1)

    @classmethod
    def categorical(cls, num_classes: int) -> "Head":
        return cls(CATEGORICAL, num_classes)

    def predictive(self, logits: np.ndarray) -> np.ndarray:
        """Predictive distribution parameters at the given logits.

        Categorical: the softmax over the last axis. Gaussian: the mean (the
        logit itself).
        """
        z = np.asarray(logits, dtype=float)
        return z if self.kind == GAUSSIAN else _softmax(z)

    def curvature(self, logits: np.ndarray) -> np.ndarray:
        """C x C Hessian of the log normalizer at the given logits.

        Gaussian: [[1]]. Categorical: diag(pi) - pi pi^T. Leading axes of
        logits are batch axes: logits of shape (..., C) give (..., C, C).
        """
        z = np.asarray(logits, dtype=float)
        if self.kind == GAUSSIAN:
            return np.ones(z.shape[:-1] + (1, 1))
        pi = self.predictive(z)[..., :, None]
        eye = np.eye(self.num_outputs)
        # pi_c (1 - pi_c) as the sum of pi_c pi_j over j != c: exact when pi_c
        # rounds to 1, so rows sum to 0 and Lambda is PSD at any logit scale
        off = (eye - 1.0) * pi * np.swapaxes(pi, -1, -2)
        return off - eye * off.sum(axis=-1, keepdims=True)

    def validate_labels(self, labels) -> np.ndarray:
        """Check labels against the head; returns them as a vector.

        Gaussian labels must be finite and come back as floats; categorical
        labels must be integers in [0, C) and come back as int64. Raises
        LabelOutOfRange naming the first label that fails.
        """
        y = np.asarray(labels, dtype=float).reshape(-1)
        if self.kind == GAUSSIAN:
            ok = np.isfinite(y)
        else:
            ok = (y == np.floor(y)) & (y >= 0) & (y < self.num_outputs)
        if not ok.all():
            bad = np.asarray(labels).reshape(-1)[np.argmin(ok)]
            if self.kind == GAUSSIAN:
                raise LabelOutOfRange(f"gaussian label must be finite, got {bad}")
            raise LabelOutOfRange(
                f"label {bad} outside [0, {self.num_outputs}) for categorical head"
            )
        return y if self.kind == GAUSSIAN else y.astype(np.int64)

    def validate_label(self, y):
        """validate_labels for one label, returned as a Python scalar."""
        return self.validate_labels([y])[0].item()

    def residual(self, logits: np.ndarray, labels) -> np.ndarray:
        """Gradient of the nll in the logits: pi(z) - e_y, or z - y (Gaussian).

        pi is the softmax predictive. Leading axes of logits (..., C) are
        batch axes matched by labels (...); labels must already be valid.
        """
        y = np.asarray(labels)[..., None]
        target = y if self.kind == GAUSSIAN else np.arange(self.num_outputs) == y
        return self.predictive(logits) - target

    def label_draws(self, rng: np.random.Generator, size=None):
        """The variates labels_from_draws turns into labels.

        Standard normals for the Gaussian head, uniforms on [0, 1) for the
        categorical head; one per label, consumed in order.
        """
        return rng.standard_normal(size) if self.kind == GAUSSIAN else rng.random(size)

    def labels_from_draws(self, logits: np.ndarray, draws) -> np.ndarray:
        """Labels from the predictive at logits (..., C), one per draw (...).

        Gaussian: z + draw. Categorical: inverse CDF as rng.choice takes it,
        the count of entries of cumsum(pi) / cumsum(pi)[-1] at or below the draw.
        """
        z = np.asarray(logits, dtype=float)
        u = np.asarray(draws, dtype=float)
        if self.kind == GAUSSIAN:
            return z[..., 0] + u
        cdf = np.cumsum(self.predictive(z), axis=-1)
        cdf /= cdf[..., -1:]
        return (cdf <= u[..., None]).sum(axis=-1)

    def sample_label(self, logits: np.ndarray, rng: np.random.Generator):
        """Draw one label from the predictive distribution at the logits."""
        return self.labels_from_draws(logits, self.label_draws(rng)).item()


@dataclass(frozen=True)
class GlmModel:
    """Linear map into an exponential-family head.

    weights has shape (D, C); column c holds the weights of output c.
    """

    head: Head
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[1] != self.head.num_outputs:
            raise DimensionMismatch(
                f"weights shape {w.shape} does not match head with "
                f"{self.head.num_outputs} outputs"
            )
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.head.num_outputs

    @property
    def num_weights(self) -> int:
        return self.weights.size

    def flat_weights(self) -> np.ndarray:
        """Class-major flattening: entry c * D + i is weights[i, c]."""
        return self.weights.T.reshape(-1).copy()

    @classmethod
    def from_flat(cls, head: Head, dim: int, flat: np.ndarray) -> "GlmModel":
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (dim * head.num_outputs,):
            raise DimensionMismatch(
                f"flat weight vector of shape {flat.shape} for "
                f"dim {dim} and {head.num_outputs} outputs"
            )
        return cls(head, flat.reshape(head.num_outputs, dim).T)


def _check_features(model: GlmModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise DimensionMismatch(f"feature shape {x.shape}, expected ({model.dim},)")
    return x


def logits(model: GlmModel, x) -> np.ndarray:
    """Natural parameters z = W^T x, a length-C vector."""
    x = _check_features(model, x)
    return model.weights.T @ x


def predictive(model: GlmModel, x) -> np.ndarray:
    return model.head.predictive(logits(model, x))


def nll(model: GlmModel, x, y) -> float:
    """Negative log likelihood of label y at input x.

    Categorical uses the log-sum-exp form for stability; Gaussian is
    0.5 * (y - z)^2 + 0.5 * log(2 pi) with unit variance.
    """
    z = logits(model, x)
    y = model.head.validate_label(y)
    if model.head.kind == GAUSSIAN:
        return float(0.5 * (y - z[0]) ** 2 + HALF_LOG_TWO_PI)
    return float(_logsumexp(z)[0] - z[y])


def score_jacobian(model: GlmModel, x, y) -> np.ndarray:
    """Gradient of the nll in the flattened weights, a length-k vector.

    Categorical block c is (pi_c - 1{c == y}) * x; Gaussian is (z - y) * x.
    """
    x = _check_features(model, x)
    y = model.head.validate_label(y)
    return score_jacobians(model, x[None, :], np.asarray([y]))[0]


def score_jacobians(model: GlmModel, xs, ys) -> np.ndarray:
    """score_jacobian of every row of xs at its label, an (n, k) array.

    Labels must already be valid for the head.
    """
    xs = np.asarray(xs, dtype=float)
    resid = model.head.residual(xs @ model.weights, ys)
    return (resid[:, :, None] * xs[:, None, :]).reshape(xs.shape[0], -1)


def observed_information(model: GlmModel, x, y=None) -> PsdMatrix:
    """Hessian of the nll in the flattened weights: d2A(z) (x) x x^T.

    The curvature does not depend on the label, so this is the Fisher
    information at x; the label, when given, is only validated.
    """
    if y is not None:
        model.head.validate_label(y)
    return fisher_information(model, x)


def fisher_information(model: GlmModel, x) -> PsdMatrix:
    """Fisher information d2A(z) (x) x x^T of the single input x."""
    return PsdMatrix(fisher_batch(model, _check_features(model, x)[None, :]))


def fisher_batch(model: GlmModel, xs) -> np.ndarray:
    """Sum of per-sample Fisher information over the rows of xs, a plain (k, k) array.

    This is the one place that forms sum_n d2A(z_n) (x) x_n x_n^T; every
    curvature in the package is built here.
    """
    xs = np.asarray(xs, dtype=float)
    k = model.num_weights
    if xs.size == 0:
        return np.zeros((k, k))
    if xs.ndim != 2 or xs.shape[1] != model.dim:
        raise DimensionMismatch(f"batch shape {xs.shape}, expected (n, {model.dim})")
    n, c, d = xs.shape[0], model.num_outputs, model.dim
    lams = model.head.curvature(xs @ model.weights).reshape(n, c * c)
    outers = (xs[:, :, None] * xs[:, None, :]).reshape(n, d * d)
    # One BLAS product sums over rows; entry (c1 c2, i j) moves to (c1 D + i, c2 D + j).
    return (lams.T @ outers).reshape(c, c, d, d).transpose(0, 2, 1, 3).reshape(k, k)


def candidate_projection(model: GlmModel, xs, a) -> np.ndarray:
    """U_n^T A U_n for every row x_n of xs, an (n, C, C) stack.

    U_n = I_C (x) x_n is the k x C factor of the row's Fisher,
    F_n = U_n d2A(z_n) U_n^T, so a per-row log-det or trace against the
    k x k matrix A reduces to C x C algebra on this stack.
    """
    xs = np.asarray(xs, dtype=float)
    n, c, d = xs.shape[0], model.num_outputs, model.dim
    a = np.asarray(a, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != d or a.shape != (c * d, c * d):
        raise DimensionMismatch(
            f"rows {xs.shape} and matrix {a.shape} for D={d}, C={c}"
        )
    blocks = a.reshape(c, d, c * d)
    out = np.empty((n, c, c))
    # One output class at a time keeps the temporary at n x C x D.
    for c1 in range(c):
        # rows[n, c2 D + j] = sum_i x_ni A[c1 D + i, c2 D + j]
        rows = (xs @ blocks[c1]).reshape(n, c, d)
        out[:, c1, :] = (rows @ xs[:, :, None])[..., 0]
    return out


@dataclass(frozen=True)
class FitInfo:
    """Terminal diagnostics of a MAP fit."""

    grad_norm: float
    iterations: int


def _map_objective(model, data, lam):
    """sum_n nll(x_n, y_n) + (lam / 2) ||w||^2; the labels are pre-validated."""
    z = data.features @ model.weights
    y = data.labels
    if model.head.kind == GAUSSIAN:
        nlls = 0.5 * (y - z[:, 0]) ** 2 + HALF_LOG_TWO_PI
    else:
        picked = z[np.arange(data.n), y.astype(np.int64)]
        nlls = _logsumexp(z)[:, 0] - picked
    w = model.flat_weights()
    return float(np.sum(nlls)) + 0.5 * lam * float(w @ w)


def _map_gradient(model, data, lam):
    """lam w + sum_n score_jacobian(x_n, y_n); the labels are pre-validated."""
    resid = model.head.residual(data.features @ model.weights, data.labels)
    return lam * model.flat_weights() + (resid.T @ data.features).reshape(-1)


def _map_curvature(model, data, lam):
    return fisher_batch(model, data.features) + lam * np.eye(model.num_weights)


def map_fit(
    data: Dataset,
    head: Head,
    prior_precision: float,
    max_iters: int = 100,
    tol: float = 1e-6,
    full_output: bool = False,
):
    """Ridge-regularized maximum a posteriori fit by damped Newton steps.

    Minimizes sum_i nll(x_i, y_i) + (lam / 2) ||w||^2 from a zero start.
    Steps solve (H + mu I) d = -g with mu escalated until the objective
    decreases; the exact curvature keeps plain Newton steps effective on
    this convex objective. Converged means ||g||_inf <= tol.

    With full_output=True returns (model, FitInfo); otherwise the model.
    Raises DidNotConverge (carrying the last iterate) past max_iters.
    """
    if data.n < 1:
        raise ValueError("need at least one observation")
    if prior_precision <= 0.0:
        raise ValueError("prior precision must be positive")
    head.validate_labels(data.require_labels())

    lam = float(prior_precision)
    model = GlmModel(head, np.zeros((data.dim, head.num_outputs)))
    value = _map_objective(model, data, lam)
    mu = 0.0
    for iterations in range(max_iters + 1):
        grad = _map_gradient(model, data, lam)
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= tol:
            info = FitInfo(grad_norm=grad_norm, iterations=iterations)
            return (model, info) if full_output else model
        if iterations == max_iters:
            raise DidNotConverge(
                f"gradient norm {grad_norm:.3e} above {tol:.1e} after {max_iters} iterations",
                weights=model.weights,
                grad_norm=grad_norm,
                iterations=iterations,
            )
        hess = _map_curvature(model, data, lam)
        scale = np.trace(hess) / hess.shape[0]
        for _ in range(60):
            step = solve_psd(hess + mu * np.eye(hess.shape[0]), -grad)
            trial = GlmModel.from_flat(head, data.dim, model.flat_weights() + step)
            trial_value = _map_objective(trial, data, lam)
            if trial_value <= value:
                model, value = trial, trial_value
                mu = 0.0 if mu < 1e-8 * scale else mu / 10.0
                break
            mu = 1e-6 * scale if mu == 0.0 else mu * 10.0
        else:
            raise DidNotConverge(
                "damping escalation failed to reduce the objective",
                weights=model.weights,
                grad_norm=grad_norm,
                iterations=iterations,
            )
