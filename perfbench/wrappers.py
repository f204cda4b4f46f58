"""Span wrappers around infoselect's layer boundaries, from outside the program.

`install` replaces, in the running process only, the public names that
`infoselect.harness` imported from the other modules, harness's own
dispatch and write calls, `glm`'s `solve_psd`, `prediction`'s
`sample_weights`, and `scipy.linalg.cholesky`, the library call beneath
`linalg`. Only the traced child process calls it; no file changes.
"""

from __future__ import annotations

import inspect
import pathlib

import scipy.linalg

from infoselect import glm, harness, prediction

# Called once per CSV cell; its time stays in the enclosing harness.write span.
_UNWRAPPED = {"format_float"}


def _picks(args, kwargs, result, failed):
    return None if failed else {"picks": len(result.indices)}


def _candidates(args, kwargs, result, failed):
    return {"candidates": len(args[1])}


def _map_fit(args, kwargs, result, failed):
    counts = {"rows": args[0].n}
    if not failed and isinstance(result, tuple):
        counts["iters"] = result[1].iterations
    return counts


def _cholesky(args, kwargs, result, failed):
    n = args[0].shape[0]
    return {"gflop": n**3 / 3e9, "retries": int(failed)}


def _written(args, kwargs, result, failed):
    return {"bytes": len(args[1].encode("utf-8"))}


_COUNTS = {
    "greedy_logdet": _picks,
    "bait_forward_backward": _picks,
    "badge_kmeanspp": _picks,
    "top_k": _picks,
    "eig_pool_scores": _candidates,
    "epig_pool_scores": _candidates,
    "jepig_pool_scores": _candidates,
    "map_fit": _map_fit,
}


def install(tracer) -> list[str]:
    """Wrap every layer boundary with `tracer`; returns the span names."""
    names = []

    def patch(owner, attr, name, count=None):
        # A name the program no longer has is skipped; its metrics read 0.
        if hasattr(owner, attr):
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
            names.append(name)

    for attr, value in list(vars(harness).items()):
        module = getattr(value, "__module__", "")
        if (inspect.isfunction(value) and attr not in _UNWRAPPED
                and module.startswith("infoselect.") and module != harness.__name__):
            patch(harness, attr, f"{module.rsplit('.', 1)[1]}.{attr}", _COUNTS.get(attr))
    patch(harness, "Scorer", "scores.Scorer")
    patch(harness, "compute_scores", "harness.compute_scores")
    patch(harness, "select_batch", "harness.select_batch")
    patch(harness.ScoreTable, "to_csv", "harness.write")
    patch(harness.ScoreTable, "to_json", "harness.write")
    patch(pathlib.Path, "write_text", "harness.write", _written)
    patch(prediction, "sample_weights", "posterior.sample_weights")
    patch(glm, "solve_psd", "linalg.solve_psd")
    patch(scipy.linalg, "cholesky", "linalg.cholesky", _cholesky)
    return names
