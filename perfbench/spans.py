"""In-memory spans, self-time arithmetic and the per-layer metric table.

A span is [name, start, end, parent, run, counts]: `parent` is the index
of the enclosing span in the same list (-1 at the root), `run` groups the
spans of one CLI call, and `counts` holds exact work counts recorded at
the call boundary. A span's self time is its duration minus the durations
of its direct children; children never overlap because the program is
single-threaded at the Python level.
"""

from __future__ import annotations

import functools
import re
import time

LAYERS = ("cli", "harness", "dataio", "glm", "posterior", "scores",
          "similarity", "prediction", "selection", "linalg")

ROOT = "cli.main"

_PICKERS = ("selection.greedy_logdet", "selection.bait_forward_backward",
            "selection.badge_kmeanspp", "selection.top_k")
_POOL_FAMILIES = ("scores.eig_pool_scores", "scores.epig_pool_scores",
                  "scores.jepig_pool_scores")

# metric name -> (unit, span names, stat). stat "s" sums self seconds,
# "calls" counts spans, any other stat sums that key of the spans' counts.
_SPAN_METRICS = {
    "cli.main.s": ("s", (ROOT,), "s"),
    "harness.compute_scores.s": ("s", ("harness.compute_scores",), "s"),
    "harness.select_batch.s": ("s", ("harness.select_batch",), "s"),
    "harness.write.s": ("s", ("harness.write",), "s"),
    "harness.write.bytes": ("B", ("harness.write",), "bytes"),
    "dataio.load_csv.s": ("s", ("dataio.load_csv",), "s"),
    "glm.map_fit.s": ("s", ("glm.map_fit",), "s"),
    "glm.map_fit.calls": ("count", ("glm.map_fit",), "calls"),
    "glm.map_fit.rows": ("count", ("glm.map_fit",), "rows"),
    "glm.map_fit.iters": ("count", ("glm.map_fit",), "iters"),
    "glm.map_fit.solves": ("count", ("linalg.solve_psd",), "calls"),
    "posterior.build_posterior.s": ("s", ("posterior.build_posterior",), "s"),
    "posterior.build_posterior.calls": ("count", ("posterior.build_posterior",), "calls"),
    "posterior.sample_weights.s": ("s", ("posterior.sample_weights",), "s"),
    "scores.Scorer.s": ("s", ("scores.Scorer",), "s"),
    "scores.eig_pool_scores.s": ("s", ("scores.eig_pool_scores",), "s"),
    "scores.epig_pool_scores.s": ("s", ("scores.epig_pool_scores",), "s"),
    "scores.jepig_pool_scores.s": ("s", ("scores.jepig_pool_scores",), "s"),
    "scores.candidates": ("count", _POOL_FAMILIES, "candidates"),
    "similarity.build_data_matrix.s": ("s", ("similarity.build_data_matrix",), "s"),
    "similarity.build_data_matrix.calls": ("count", ("similarity.build_data_matrix",), "calls"),
    "similarity.eig_via_similarity.s": ("s", ("similarity.eig_via_similarity",), "s"),
    "similarity.eig_via_similarity.calls": ("count", ("similarity.eig_via_similarity",), "calls"),
    "prediction.bald_mc_pool.s": ("s", ("prediction.bald_mc_pool",), "s"),
    "prediction.epig_mc_pool.s": ("s", ("prediction.epig_mc_pool",), "s"),
    "selection.greedy_logdet.s": ("s", ("selection.greedy_logdet",), "s"),
    "selection.bait_forward_backward.s": ("s", ("selection.bait_forward_backward",), "s"),
    "selection.badge_kmeanspp.s": ("s", ("selection.badge_kmeanspp",), "s"),
    "selection.picks": ("count", _PICKERS, "picks"),
    "linalg.cholesky.s": ("s", ("linalg.cholesky",), "s"),
    "linalg.cholesky.calls": ("count", ("linalg.cholesky",), "calls"),
    "linalg.cholesky.gflop": ("GFLOP", ("linalg.cholesky",), "gflop"),
    "linalg.cholesky.retries": ("count", ("linalg.cholesky",), "retries"),
    "linalg.solve_psd.s": ("s", ("linalg.solve_psd",), "s"),
}

# Every per-layer metric with its unit, in report order. `<layer>.all.s`
# is the self time of every wrapped call in that layer.
PER_LAYER = (
    {name: spec[0] for name, spec in _SPAN_METRICS.items()}
    | {f"{layer}.all.s": "s" for layer in LAYERS}
    | {"trace.wall_s": "s", "trace.overhead_s": "s", "trace.uncovered_frac": "frac"}
)

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class Tracer:
    """Collects spans around wrapped calls; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, counts: dict | None = None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = counts
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span; count(args, kwargs, result, failed) -> counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            result, failed = None, True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self.close(idx, count(args, kwargs, result, failed) if count else None)

        return traced

    def take(self) -> list[list]:
        """Hand over the finished spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> list[float]:
    """Self seconds of each span: duration minus its direct children's."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def uncovered_frac(spans) -> float:
    """Share of root-span time that no other span covers."""
    selfs = self_times(spans)
    root = [i for i, s in enumerate(spans) if s[0] == ROOT]
    total = sum(spans[i][2] - spans[i][1] for i in root)
    return sum(selfs[i] for i in root) / total if total > 0 else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """The span-derived entries of PER_LAYER for one pass."""
    by_name: dict[str, dict] = {}
    for span, self_s in zip(spans, self_times(spans)):
        stats = by_name.setdefault(span[0], {"s": 0.0, "calls": 0})
        stats["s"] += self_s
        stats["calls"] += 1
        for key, value in (span[5] or {}).items():
            stats[key] = stats.get(key, 0) + value
    out = {metric: sum(by_name.get(name, {}).get(stat, 0) for name in names)
           for metric, (_, names, stat) in _SPAN_METRICS.items()}
    for layer in LAYERS:
        out[f"{layer}.all.s"] = sum(stats["s"] for name, stats in by_name.items()
                                    if name.split(".", 1)[0] == layer)
    out["trace.uncovered_frac"] = uncovered_frac(spans)
    return out
