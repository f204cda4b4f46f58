"""Batch construction strategies over a candidate pool.

All methods return a SelectionResult with the chosen pool indices in pick
order, the final objective value in the objective's native sign convention
(transductive proxies are minimized, everything else maximized), and the
per-step gain trace. Ties always resolve to the lowest index so runs are
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BatchTooLarge, TooManySubsets
from .glm import fisher_information
from .linalg import _cholesky_jittered
from .scores import Scorer, eval_fisher, logdet_ratio, trace_ratio
from .similarity import JacobianDataMatrix

MAXIMIZE = "maximize"
MINIMIZE = "minimize"

EXHAUSTIVE_SUBSET_BUDGET = 10**6


@dataclass(frozen=True)
class SelectionResult:
    indices: tuple
    objective_value: float
    method: str
    gains: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise ValueError("selected indices must be distinct")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "gains", tuple(float(g) for g in self.gains))


def top_k(scores, k: int) -> SelectionResult:
    """k highest scores, ties by lower index; scores oriented by caller."""
    values = np.asarray(scores, dtype=float)
    if k > values.shape[0]:
        raise BatchTooLarge(f"k={k} from a pool of {values.shape[0]}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    order = np.argsort(-values, kind="stable")[:k]
    picked = [int(i) for i in order]
    return SelectionResult(
        indices=tuple(picked),
        objective_value=float(values[order].sum()) if picked else 0.0,
        method="top_k",
        gains=tuple(float(values[i]) for i in picked),
    )


class _BatchObjective:
    """Evaluates a named batch objective as a function of the summed Fisher.

    Candidate Fisher matrices are materialized once; set values are then
    one or two k x k factorizations each.
    """

    def __init__(self, scorer: Scorer, pool_xs, objective: str, eval_xs=None):
        self.scorer = scorer
        pool = np.asarray(pool_xs, dtype=float)
        self.pool_size = pool.shape[0]
        self.fishers = [
            fisher_information(scorer.model, x).values for x in pool
        ]
        self.objective = objective
        if objective == "eig":
            self.orientation = MAXIMIZE
            self.eval_term = None
        elif objective in ("epig", "jepig"):
            self.orientation = MINIMIZE
            reduce = "mean" if objective == "epig" else "sum"
            self.eval_term = eval_fisher(scorer, eval_xs, reduce)
        else:
            raise ValueError(f"unknown objective {objective!r}")

    def zero_matrix(self) -> np.ndarray:
        k = self.scorer.num_weights
        return np.zeros((k, k))

    def value(self, f_batch: np.ndarray) -> float:
        s = self.scorer
        if self.objective == "eig":
            return logdet_ratio(f_batch, s._prec, s._prec_factor)
        q = f_batch + s._prec
        q_factor, _ = _cholesky_jittered(q)
        return logdet_ratio(self.eval_term, q, q_factor)

    def better(self, candidate: float, incumbent: float) -> bool:
        if self.orientation == MAXIMIZE:
            return candidate > incumbent
        return candidate < incumbent


def greedy_logdet(
    s: Scorer, pool_xs, k: int, objective: str = "eig", eval_xs=None
) -> SelectionResult:
    """Greedy batch growth on a log-det objective.

    Each step adds the candidate whose inclusion most improves the set
    value (largest increase for eig, largest decrease for the transductive
    proxies), ties to the lowest index. The gain trace records the value
    change per step; for eig these are nonincreasing by submodularity.
    """
    obj = _BatchObjective(s, pool_xs, objective, eval_xs)
    if k > obj.pool_size:
        raise BatchTooLarge(f"k={k} from a pool of {obj.pool_size}")
    chosen: list[int] = []
    gains: list[float] = []
    f_cur = obj.zero_matrix()
    value_cur = obj.value(f_cur)
    remaining = list(range(obj.pool_size))
    for _ in range(k):
        best_i = None
        best_value = None
        for i in remaining:
            v = obj.value(f_cur + obj.fishers[i])
            if best_i is None or obj.better(v, best_value):
                best_i, best_value = i, v
        chosen.append(best_i)
        remaining.remove(best_i)
        gains.append(best_value - value_cur)
        f_cur = f_cur + obj.fishers[best_i]
        value_cur = best_value
    return SelectionResult(
        indices=tuple(chosen),
        objective_value=value_cur,
        method=f"greedy_{objective}_logdet",
        gains=tuple(gains),
    )


def _trace_objective(scorer: Scorer, eval_term: np.ndarray, f_batch: np.ndarray) -> float:
    # BAIT ranks on tr((F_batch + P)^-1 F_eval) itself, twice the score's half.
    q_factor, _ = _cholesky_jittered(f_batch + scorer._prec)
    return 2.0 * trace_ratio(eval_term, q_factor)


def bait_forward_backward(
    s: Scorer, pool_xs, k: int, eval_xs, forward_multiplier: int = 2
) -> SelectionResult:
    """Forward-backward selection on the transductive trace objective.

    Minimizes tr(F_eval (F_batch + P)^-1) with F_eval the averaged eval
    Fisher: forward-greedily grows a set of forward_multiplier * k, then
    backward-greedily drops the members whose removal increases the
    objective least, down to k. Ties to the lowest index in both passes.
    """
    pool = np.asarray(pool_xs, dtype=float)
    width = forward_multiplier * k
    if width > pool.shape[0]:
        raise BatchTooLarge(
            f"forward width {width} from a pool of {pool.shape[0]}"
        )
    eval_term = eval_fisher(s, eval_xs, "mean")
    kdim = s.num_weights

    fishers = [fisher_information(s.model, x).values for x in pool]
    chosen: list[int] = []
    gains: list[float] = []
    f_cur = np.zeros((kdim, kdim))
    value_cur = _trace_objective(s, eval_term, f_cur)
    remaining = list(range(pool.shape[0]))
    for _ in range(width):
        best_i, best_value = None, None
        for i in remaining:
            v = _trace_objective(s, eval_term, f_cur + fishers[i])
            if best_i is None or v < best_value:
                best_i, best_value = i, v
        chosen.append(best_i)
        remaining.remove(best_i)
        gains.append(best_value - value_cur)
        f_cur = f_cur + fishers[best_i]
        value_cur = best_value
    for _ in range(width - k):
        best_i, best_value = None, None
        for i in chosen:
            v = _trace_objective(s, eval_term, f_cur - fishers[i])
            if best_i is None or v < best_value:
                best_i, best_value = i, v
        chosen.remove(best_i)
        gains.append(best_value - value_cur)
        f_cur = f_cur - fishers[best_i]
        value_cur = best_value
    return SelectionResult(
        indices=tuple(chosen),
        objective_value=value_cur,
        method="bait",
        gains=tuple(gains),
    )


def badge_kmeanspp(g: JacobianDataMatrix, k: int, seed: int) -> SelectionResult:
    """k-means++ seeding on gradient rows under squared Euclidean distance.

    First center uniform; each later center is drawn with probability
    proportional to the squared distance to its nearest chosen center.
    When every remaining distance is zero (identical rows), the draw falls
    back to uniform over the remaining indices. Deterministic given seed.
    The gain trace records each pick's distance at selection time and the
    objective is the final sum of squared distances to the chosen centers.
    """
    rows = g.rows
    n = rows.shape[0]
    if k > n:
        raise BatchTooLarge(f"k={k} from {n} rows")
    rng = np.random.default_rng(seed)
    chosen: list[int] = []
    gains: list[float] = []
    if k == 0:
        return SelectionResult((), 0.0, "badge", ())
    first = int(rng.integers(n))
    chosen.append(first)
    gains.append(0.0)
    d2 = np.sum((rows - rows[first]) ** 2, axis=1)
    while len(chosen) < k:
        total = float(d2.sum())
        if total <= 0.0:
            taken = set(chosen)
            remaining = np.array([i for i in range(n) if i not in taken], dtype=int)
            pick = int(rng.choice(remaining))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        gains.append(float(d2[pick]))
        chosen.append(pick)
        d2 = np.minimum(d2, np.sum((rows - rows[pick]) ** 2, axis=1))
    return SelectionResult(
        indices=tuple(chosen),
        objective_value=float(d2.sum()),
        method="badge",
        gains=tuple(gains),
    )


def exhaustive_best(
    s: Scorer, pool_xs, k: int, objective: str = "eig", eval_xs=None
) -> SelectionResult:
    """True optimum by enumerating every size-k subset.

    Guarded by a subset budget; ties resolve to the lexicographically
    smallest index tuple (enumeration order).
    """
    obj = _BatchObjective(s, pool_xs, objective, eval_xs)
    n = obj.pool_size
    if k > n:
        raise BatchTooLarge(f"k={k} from a pool of {n}")
    if math.comb(n, k) > EXHAUSTIVE_SUBSET_BUDGET:
        raise TooManySubsets(
            f"C({n},{k}) = {math.comb(n, k)} exceeds {EXHAUSTIVE_SUBSET_BUDGET}"
        )
    best_set, best_value = None, None
    for subset in combinations(range(n), k):
        f = obj.zero_matrix()
        for i in subset:
            f = f + obj.fishers[i]
        v = obj.value(f)
        if best_set is None or obj.better(v, best_value):
            best_set, best_value = subset, v
    return SelectionResult(
        indices=best_set,
        objective_value=best_value,
        method=f"exhaustive_{objective}",
        gains=(),
    )
