"""Output checks for every operation the benchmark runs.

Each artifact is first checked against invariants that hold for any seed
(finite scores, distinct in-range indices, labeled counts). Where
`reference/seed<N>/<workload>/<op>/` holds the artifacts recorded for that
seed, the artifact must also match them:

- score columns: |a - r| <= 1e-8 |r| + 1e-10 max|r_column|, indices exact;
- select.json: picked indices exact, objective and gains to the same
  tolerance. Under the near-tie rule a different pick is accepted when the
  objective and every gain still match, and a note says so;
- simulate.csv: method, round and labeled count exact, accuracy to 1e-12,
  objective to the score tolerance.
"""

from __future__ import annotations

import csv
import json
import math
import pathlib

from workloads import N_ROWS, Op

RTOL = 1e-8
SCALE_ATOL = 1e-10
ACCURACY_ATOL = 1e-12

# The CLI's default score methods at the commit the references come from.
SCORE_METHODS = ("bald_pred", "epig_pred", "eig_logdet", "eig_trace", "epig_logdet",
                 "epig_trace", "jepig_logdet", "jepig_trace", "eig_logdet_sim")
NONNEGATIVE = ("eig_logdet", "eig_trace")

REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"


def reference_dir(seed: int, workload: str) -> pathlib.Path | None:
    path = REFERENCE_DIR / f"seed{seed}" / workload
    return path if path.is_dir() else None


def _close(a: float, r: float, scale: float) -> bool:
    return abs(a - r) <= RTOL * abs(r) + SCALE_ATOL * scale


def _read_scores(path) -> tuple[list[str], list[int], list[list[float]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    indices = [int(r[0]) for r in rows[1:]]
    columns = [[float(r[j]) for r in rows[1:]] for j in range(1, len(header))]
    return header[1:], indices, columns


def _read_simulate(path) -> list[tuple]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["method", "round", "labeled_count", "accuracy", "objective"]:
        raise ValueError(f"unexpected simulate.csv header {rows[0]}")
    return [(m, int(r), int(c), float(a), float(o)) for m, r, c, a, o in rows[1:]]


def _check_score(op: Op, out, ref, problems, notes):
    names, indices, columns = _read_scores(out / "scores.csv")
    pool = op.flag("pool-size")
    if tuple(names) != SCORE_METHODS:
        problems.append(f"score columns {names}")
        return
    if len(indices) != pool or len(set(indices)) != pool:
        problems.append(f"{len(indices)} rows, {len(set(indices))} distinct, pool {pool}")
    if any(not 0 <= i < N_ROWS for i in indices):
        problems.append("score index out of range")
    for name, col in zip(names, columns):
        if not all(math.isfinite(v) for v in col):
            problems.append(f"{name}: non-finite score")
        if name in NONNEGATIVE and min(col) < 0.0:
            problems.append(f"{name}: negative score {min(col)}")
    doc = json.loads((out / "scores.json").read_text(encoding="utf-8"))
    if doc["indices"] != indices or list(doc["columns"]) != names:
        problems.append("scores.json rows or columns differ from scores.csv")
    elif any(doc["columns"][n] != c for n, c in zip(names, columns)):
        problems.append("scores.json values differ from scores.csv")
    if ref is None:
        return
    ref_names, ref_indices, ref_columns = _read_scores(ref / "scores.csv")
    if ref_names != names or ref_indices != indices:
        problems.append("score rows or columns differ from the reference")
        return
    for name, col, ref_col in zip(names, columns, ref_columns):
        scale = max(abs(v) for v in ref_col)
        bad = [i for i, (a, r) in enumerate(zip(col, ref_col)) if not _close(a, r, scale)]
        if bad:
            i = bad[0]
            problems.append(f"{name}: {len(bad)} rows off the reference, "
                            f"first row {i}: {col[i]!r} vs {ref_col[i]!r}")


def _check_select(op: Op, out, ref, problems, notes):
    doc = json.loads((out / "select.json").read_text(encoding="utf-8"))
    k, pool = op.flag("batch-size"), op.flag("pool-size")
    picks, positions = doc["indices"], doc["pool_positions"]
    if doc["method"] != op.op_id or doc["k"] != k:
        problems.append(f"method {doc['method']!r}, k {doc['k']}")
    if not len(picks) == len(set(picks)) == len(positions) == len(set(positions)) == k:
        problems.append(f"{len(picks)} picks for k={k}, or repeated picks")
    if any(not 0 <= i < N_ROWS for i in picks) or any(not 0 <= p < pool for p in positions):
        problems.append("picked index out of range")
    values = [doc["objective"], *doc["gains"]]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite objective or gain")
    if ref is None:
        return
    want = json.loads((ref / "select.json").read_text(encoding="utf-8"))
    scale = max(abs(v) for v in [want["objective"], *want["gains"]])
    values_ok = len(doc["gains"]) == len(want["gains"]) and all(
        _close(a, r, scale) for a, r in zip(values, [want["objective"], *want["gains"]]))
    same_picks = picks == want["indices"] and positions == want["pool_positions"]
    if not values_ok:
        problems.append(f"objective or gains off the reference: {doc['objective']!r} "
                        f"vs {want['objective']!r}, picks {picks} vs {want['indices']}")
    elif not same_picks:
        notes.append(f"picks {picks} differ from the reference {want['indices']} "
                     "at equal objective and gains (near tie)")


def _check_simulate(op: Op, out, ref, problems, notes):
    rows = _read_simulate(out / "simulate.csv")
    train, batch, rounds = op.flag("train-size"), op.flag("batch-size"), op.flag("rounds")
    method = op.flag("method")
    expected = [(m, r, train + r * batch) for m in (method, "random")
                for r in range(rounds + 1)]
    if [row[:3] for row in rows] != expected:
        problems.append(f"simulate rows {[row[:3] for row in rows]}")
    for m, r, _, acc, obj in rows:
        if not 0.0 <= acc <= 1.0 or not math.isfinite(obj):
            problems.append(f"{m} round {r}: accuracy {acc}, objective {obj}")
        if m == "random" and obj != 0.0:
            problems.append(f"random round {r}: objective {obj}")
    if ref is None:
        return
    want = _read_simulate(ref / "simulate.csv")
    scale = max(abs(row[4]) for row in want)
    if [row[:3] for row in rows] != [row[:3] for row in want]:
        problems.append("simulate rows differ from the reference")
        return
    for got, exp in zip(rows, want):
        if abs(got[3] - exp[3]) > ACCURACY_ATOL or not _close(got[4], exp[4], scale):
            problems.append(f"{got[0]} round {got[1]}: {got[3:]} vs reference {exp[3:]}")


_CHECKS = {"score": _check_score, "select": _check_select, "simulate": _check_simulate}


def check_op(op: Op, out_dir, ref_dir) -> tuple[list[str], list[str]]:
    """(problems, notes) for one operation's artifacts; no problems means correct.

    `ref_dir` is the workload's reference directory, or None for a seed
    without one, in which case only the invariants are checked.
    """
    problems: list[str] = []
    notes: list[str] = []
    out = pathlib.Path(out_dir)
    ref = pathlib.Path(ref_dir) / op.op_id if ref_dir is not None else None
    try:
        _CHECKS[op.kind](op, out, ref, problems, notes)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        problems.append(f"unreadable artifact: {type(e).__name__}: {e}")
    return problems, notes
