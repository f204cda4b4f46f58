"""Record the reference artifacts that check.py compares against.

    python3 perfbench/record.py --seed 0

Runs one untraced pass of every workload at the seed and copies each
call's compared artifact into perfbench/reference/seed<N>/<workload>/<op>/.
References pin the program's outputs; re-recording them is a change to
the benchmark, made on its own and never together with a program change.
"""

from __future__ import annotations

import argparse
import shutil

from check import REFERENCE_DIR
from run import WORK, Run
from workloads import WORKLOADS, write_dataset

ARTIFACT = {"score": "scores.csv", "select": "select.json", "simulate": "simulate.csv"}


def record(seed: int):
    for workload, ops in WORKLOADS.items():
        work = WORK / f"record-{workload}-seed{seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            bench = Run(workload, seed, work)
            write_dataset(bench.data, seed)
            doc = bench.passes("record", 0, traced=False)
            for j, op in enumerate(ops):
                if doc["passes"][0]["codes"][j] != 0:
                    raise SystemExit(f"{workload} {op.op_id} failed; nothing recorded")
                dest = REFERENCE_DIR / f"seed{seed}" / workload / op.op_id
                dest.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(doc["out"] / "p0" / f"op{j}" / ARTIFACT[op.kind],
                                dest / ARTIFACT[op.kind])
        finally:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    record(parser.parse_args().seed)
