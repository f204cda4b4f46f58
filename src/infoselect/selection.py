"""Batch construction strategies over a candidate pool.

All methods return a SelectionResult with the chosen pool indices in pick
order, the final objective value in the objective's native sign convention
(transductive proxies are minimized, everything else maximized), and the
per-step gain trace. Ties resolve to the lowest index (BAIT's backward
pass: to the earliest pick) so runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BatchTooLarge, TooManySubsets
from .scores import RankCState, Scorer, eval_fisher, logdet_gains, logdet_ratio, trace_ratio
from .similarity import JacobianDataMatrix

MAXIMIZE = "maximize"
MINIMIZE = "minimize"

EXHAUSTIVE_SUBSET_BUDGET = 10**6

# BAIT's forward pass grows this many times the batch before pruning to it;
# the simulate precheck reads it too.
BAIT_FORWARD_MULTIPLIER = 2


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


def _eval_term(s: Scorer, objective: str, eval_xs):
    """Eval Fisher of a log-det objective; None for eig, which has none."""
    if objective == "eig":
        return None
    if objective in ("epig", "jepig"):
        return eval_fisher(s, eval_xs, "mean" if objective == "epig" else "sum")
    raise ValueError(f"unknown objective {objective!r}")


def _set_value(s: Scorer, xs, eval_term) -> float:
    """Log-det objective of the candidate set xs: the log-det of its batch score.

    eig_score for eig (eval_term None), transductive_score for epig/jepig;
    only the log-det half is formed, so q = P + F(xs) is never inverted.
    """
    q = s.precision_with(xs)
    if eval_term is None:
        return logdet_ratio(q, s.posterior.precision)
    return logdet_ratio(q + eval_term, q)


def greedy_logdet(
    s: Scorer, pool_xs, k: int, objective: str = "eig", eval_xs=None
) -> SelectionResult:
    """Greedy batch growth on a log-det objective.

    Each step adds the candidate whose inclusion most improves the set
    value (largest increase for eig, largest decrease for the transductive
    proxies), ties to the lowest index. The gain trace records the value
    change per step; for eig these are nonincreasing by submodularity.

    Every remaining candidate is scored as a C x C problem through the
    stacks U_n^T q^-1 U_n of the running precision q = P + F_batch (and
    U_n^T (E + q)^-1 U_n for the transductive proxies), which a
    `scores.RankCState` carries across steps: each pick is one rank-C
    update, and only E + P is factorized, once. Each step's changes are
    `scores.logdet_gains`, the same call that gives the pool column, so
    the first step ranks on eig_logdet/epig_logdet/jepig_logdet. The
    objective is the k x k value of the chosen set.
    """
    pool = np.asarray(pool_xs, dtype=float)
    eval_term = _eval_term(s, objective, eval_xs)
    n = pool.shape[0]
    if k > n:
        raise BatchTooLarge(f"k={k} from a pool of {n}")
    curv = s.curvatures(pool)
    p = s.posterior.precision
    q = RankCState(s.model, pool, curv, p.inverse())
    r = None if eval_term is None else RankCState(s.model, pool, curv, (p + eval_term).inverse())
    chosen: list[int] = []
    gains: list[float] = []
    remaining = list(range(n))
    for _ in range(k):
        change = logdet_gains(q, r, remaining)
        best = int(np.argmax(change) if r is None else np.argmin(change))
        gains.append(float(change[best]))
        chosen.append(remaining.pop(best))
        for state in (q, r):
            if state is not None and len(chosen) < k:  # else the update goes unread
                state.update(chosen[-1], 1.0)
    return SelectionResult(
        indices=tuple(chosen),
        objective_value=_set_value(s, pool[chosen], eval_term),
        method=f"greedy_{objective}_logdet",
        gains=tuple(gains),
    )


def bait_forward_backward(
    s: Scorer, pool_xs, k: int, eval_xs, forward_multiplier: int = BAIT_FORWARD_MULTIPLIER
) -> SelectionResult:
    """Forward-backward selection on the transductive trace objective.

    Minimizes tr(F_eval (F_batch + P)^-1) with F_eval the averaged eval
    Fisher: forward-greedily grows a set of forward_multiplier * k, then
    backward-greedily drops the members whose removal increases the
    objective least, down to k. Ties to the lowest index when adding and
    to the earliest pick when dropping.

    A `scores.RankCState` carries q^-1 for q = P + F_batch and the stacks
    U_n^T q^-1 U_n and U_n^T q^-1 F_eval q^-1 U_n (backward: of the forward
    picks only), one rank-C update per pick (+1) or drop (-1). Each value
    tr((q + s F_n)^-1 F_eval) is then tr(q^-1 F_eval) plus its
    `RankCState.trace_changes`, so the first step ranks on twice the
    epig_trace pool column. The objective is the k x k value of the
    chosen set, twice its epig_score trace; only q is factorized for it.
    """
    pool = np.asarray(pool_xs, dtype=float)
    width = forward_multiplier * k
    if width > pool.shape[0]:
        raise BatchTooLarge(
            f"forward width {width} from a pool of {pool.shape[0]}"
        )
    eval_term = eval_fisher(s, eval_xs, "mean")
    curv = s.curvatures(pool)
    state = RankCState(s.model, pool, curv, s.posterior.precision.inverse(), eval_term)
    chosen: list[int] = []
    gains: list[float] = []
    rows = list(range(pool.shape[0]))  # the candidates' state rows
    for step in range(2 * width - k):
        adding = step < width
        if step == width:  # only forward picks can be dropped; row i is chosen[i]
            state.keep(chosen)
            rows = list(range(width))
        sign = 1.0 if adding else -1.0
        # BAIT ranks on tr(q^-1 F_eval) itself, twice the score's half.
        value = 2.0 * trace_ratio(eval_term, state.inverse)
        values = value + 2.0 * state.trace_changes(rows, sign)
        best = int(np.argmin(values))
        gains.append(float(values[best] - value))
        picked = rows.pop(best)
        if adding:
            chosen.append(picked)
        else:
            chosen.pop(best)
        if step + 1 < 2 * width - k:  # else the update goes unread
            state.update(picked, sign)
    return SelectionResult(
        indices=tuple(chosen),
        objective_value=2.0 * trace_ratio(eval_term, s.precision_with(pool[chosen]).inverse()),
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
        raise BatchTooLarge(f"k={k} from a pool of {n}")
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


def random_batch(n: int, k: int, seed: int) -> SelectionResult:
    """k distinct positions drawn uniformly from [0, n), the baseline."""
    if k > n:
        raise BatchTooLarge(f"k={k} from a pool of {n}")
    picked = np.random.default_rng(seed).choice(n, size=k, replace=False)
    return SelectionResult(tuple(picked), 0.0, "random", (0.0,) * k)


def exhaustive_best(
    s: Scorer, pool_xs, k: int, objective: str = "eig", eval_xs=None
) -> SelectionResult:
    """True optimum by enumerating every size-k subset.

    Guarded by a subset budget; ties resolve to the lexicographically
    smallest index tuple (enumeration order).
    """
    pool = np.asarray(pool_xs, dtype=float)
    eval_term = _eval_term(s, objective, eval_xs)
    n = pool.shape[0]
    if k > n:
        raise BatchTooLarge(f"k={k} from a pool of {n}")
    if math.comb(n, k) > EXHAUSTIVE_SUBSET_BUDGET:
        raise TooManySubsets(
            f"C({n},{k}) = {math.comb(n, k)} exceeds {EXHAUSTIVE_SUBSET_BUDGET}"
        )
    sign = 1.0 if eval_term is None else -1.0
    best_set, best_value = None, None
    for subset in combinations(range(n), k):
        v = _set_value(s, pool[list(subset)], eval_term)
        if best_set is None or sign * v > sign * best_value:
            best_set, best_value = subset, v
    return SelectionResult(
        indices=best_set,
        objective_value=best_value,
        method=f"exhaustive_{objective}",
        gains=(),
    )
