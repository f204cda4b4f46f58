"""Workload definitions and the seeded dataset every workload reads.

A workload is a fixed list of CLI calls. Each call is one operation: the
benchmark times the list as one pass and checks every call's artifacts.
The dataset is written by the benchmark itself, not by the program's own
generator, so a change to the program cannot change its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Dataset shape: the CLI defaults (n=2000, D=16, C=10, class_sep=2.0).
N_ROWS = 2000
DIM = 16
CLASSES = 10
CLASS_SEP = 2.0


@dataclass(frozen=True)
class Op:
    """One CLI call. `kind` names the artifact check; `args` omit I/O and seed."""

    op_id: str
    kind: str
    args: tuple[str, ...]

    def argv(self, data_path: str, seed: int) -> list[str]:
        """The call's arguments; the child process appends `--out`."""
        return [*self.args, "--data", data_path, "--seed", str(seed)]

    def flag(self, name: str):
        """Value of `--name` in args (an int for sizes), else the CLI default."""
        if f"--{name}" not in self.args:
            return CLI_DEFAULTS[name]
        value = self.args[self.args.index(f"--{name}") + 1]
        return int(value) if name in CLI_DEFAULTS else value


# CLI defaults the checks need when a workload leaves them unset.
CLI_DEFAULTS = {"train-size": 80, "pool-size": 1000, "batch-size": 10, "rounds": 5}

_SELECT = ("--pool-size", "200", "--batch-size", "10")

WORKLOADS: dict[str, tuple[Op, ...]] = {
    # The CLI defaults: D=16, C=10 (k=160), pool 1000, eval 200, 1000 MC
    # draws, the 9 default methods. Weight-space score families, MC
    # prediction and the similarity loop; no selection, an 80-row fit.
    "score-default": (Op("score", "score", ("score",)),),
    # Three batch selectors on a 200-row pool: k x k Cholesky per candidate
    # per step. No score family or MC code runs.
    "select-batch": tuple(
        Op(method, "select", ("select", "--method", method, *_SELECT))
        for method in ("greedy_eig_logdet", "greedy_epig_logdet", "bait")
    ),
    # Label-and-refit loop: 8 MAP fits of 200-260 rows and a posterior and
    # Scorer rebuilt every round, so work moved into set-up is paid 6 times.
    "simulate-refit": (
        Op("simulate", "simulate", (
            "simulate", "--method", "badge", "--train-size", "200",
            "--pool-size", "300", "--batch-size", "20", "--rounds", "3",
        )),
    ),
}


def write_dataset(path, seed: int):
    """Gaussian class clusters, unit covariance, labels cycling 0..C-1.

    Written in the `load_csv` layout with floats at 17 significant digits;
    the same seed gives the same bytes.
    """
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((CLASSES, DIM))
    means = CLASS_SEP * directions / np.linalg.norm(directions, axis=1, keepdims=True)
    labels = np.arange(N_ROWS) % CLASSES
    features = means[labels] + rng.standard_normal((N_ROWS, DIM))
    lines = [",".join([f"f{i}" for i in range(DIM)] + ["y"])]
    for x, y in zip(features, labels):
        lines.append(",".join([format(float(v), ".17g") for v in x] + [str(int(y))]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
