"""Dataset file format and synthetic data generation.

CSV layout: header row with feature columns f0..f{D-1} in order, optionally
followed by a final label column y. Floats are written with 17 significant
digits so a load/save cycle is byte identical and value exact.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Callable, Iterable

import numpy as np

from .errors import LabelOutOfRange, MalformedHeader, NonNumericCell
from .glm import Dataset


def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip a double exactly."""
    return format(float(x), ".17g")


def load_csv(path) -> Dataset:
    """Read a dataset; see the module docstring for the expected layout.

    Labels come back as int64 when every y value is integral, float64
    otherwise (real-valued targets for the Gaussian head). Range checks
    against a particular head happen at the point of use.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), [])
        text = fh.read()
    if not header:
        raise MalformedHeader("missing header row")
    has_labels = header[-1] == "y"
    feature_cols = header[:-1] if has_labels else header
    if not feature_cols:
        raise MalformedHeader("no feature columns")
    expected = [f"f{i}" for i in range(len(feature_cols))]
    if feature_cols != expected:
        raise MalformedHeader(
            f"feature columns must be {','.join(expected)}, got {','.join(feature_cols)}"
        )
    d = len(feature_cols)
    width = len(header)

    # csv.reader splits a body without quotes or carriage returns at its
    # newlines and commas alone.
    lines = text.removesuffix("\n").split("\n") if '"' not in text and "\r" not in text else []
    values = parse_rows(lines, lambda: csv.reader(io.StringIO(text, newline="")), d, width)
    features = np.ascontiguousarray(values[:, :d])
    labels = values[:, d].copy() if has_labels else None
    if labels is not None and np.all(labels == np.floor(labels)):  # True when empty
        labels = labels.astype(np.int64)
    return Dataset(features, labels)


def parse_rows(
    lines: list[str], rows: Callable[[], Iterable[list[str]]], d: int, width: int
) -> np.ndarray:
    """Every cell of the body as a float, shape (rows, width).

    `lines` are the body's lines of comma-separated cells, parsed in one pass
    when every cell is a finite float. Otherwise `rows()`, the same cells as
    lists, are read one by one: a ragged row raises MalformedHeader, a
    non-numeric or non-finite cell in the first d columns NonNumericCell,
    and a non-finite one after them (the label) LabelOutOfRange, each
    naming the first bad row or cell.
    """
    # np.loadtxt skips blank lines: a later one shows as a row too few, and
    # a first one is refused here, since a blank body would make it warn.
    if lines and lines[0]:
        try:
            values = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape == (len(lines), width) and np.isfinite(values).all():
                return values
    return _parse_cells(list(rows()), d, width)


def _parse_cells(body: list[list[str]], d: int, width: int) -> np.ndarray:
    """Cell-by-cell parse that raises for the first bad row or cell in reading order."""
    values = np.zeros((len(body), width))
    for r, row in enumerate(body):
        if len(row) != width:
            raise MalformedHeader(
                f"row {r} has {len(row)} cells, expected {width}"
            )
        for c, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCell(
                    f"cell ({r},{c}) is not numeric: {cell!r}", row=r, col=c
                ) from None
            if not np.isfinite(value):
                if c < d:
                    raise NonNumericCell(
                        f"cell ({r},{c}) is not finite: {cell!r}", row=r, col=c
                    )
                raise LabelOutOfRange(f"label in row {r} is not finite: {cell!r}")
            values[r, c] = value
    return values


def save_csv(path, data: Dataset):
    """Write a dataset in the load_csv layout, floats at 17 digits."""
    header = [f"f{i}" for i in range(data.dim)]
    if data.is_labeled:
        header.append("y")
    integral_labels = data.is_labeled and np.issubdtype(data.labels.dtype, np.integer)
    lines = [",".join(header)]
    for i in range(data.n):
        cells = [format_float(v) for v in data.features[i]]
        if data.is_labeled:
            y = data.labels[i]
            cells.append(str(int(y)) if integral_labels else format_float(y))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def gen_synthetic(seed: int, n: int, d: int, c: int, class_sep: float) -> Dataset:
    """Gaussian class clusters with unit covariance.

    Class means are drawn uniformly in direction on a sphere of radius
    class_sep; labels cycle 0..C-1 so counts are balanced within one.
    Deterministic in seed.
    """
    if c < 2:
        raise ValueError("need at least two classes")
    if d < 1:
        raise ValueError("need at least one feature dimension")
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((c, d))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    means = class_sep * directions / norms
    labels = (np.arange(n) % c).astype(np.int64)
    features = means[labels] + rng.standard_normal((n, d))
    return Dataset(features, labels)
