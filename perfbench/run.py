"""Run one benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload score-default --seed 0 --seconds 30 --trace 0

Set-up (untimed) writes the workload's dataset CSV from the seed. With
--trace 0, one child process runs whole passes over the workload's CLI
calls within --seconds and reports wall_s and cpu_s (medians over passes)
and peak_rss_mb; nine more children only import infoselect and give
setup_s (median). wall_s and cpu_s are scaled to a reference host speed
by a calibration unit timed during the passes (see calibrate.py); their
raw values are printed above the result. With
--trace 1, an untraced child and a traced child each run for half of
--seconds and the traced one gives the per-layer metrics. Every call's
artifacts are checked (see check.py). The last line of stdout is the
result JSON; the lines above it give the environment and the metrics
with their units. Exit code 1 means the benchmark itself failed and
printed no result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

from calibrate import at_reference_speed
from check import check_op, reference_dir
from spans import PER_LAYER
from workloads import WORKLOADS, write_dataset

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench-work"

RUN_LIMIT_S = 170.0
# One set-up child varies by about +-25% from the next, so the median
# needs more of them than a pass does.
SETUP_SAMPLES = 9
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Run:
    """Child processes of one benchmark run, sharing one deadline."""

    def __init__(self, workload: str, seed: int, work: pathlib.Path):
        self.ops = WORKLOADS[workload]
        self.refs = reference_dir(seed, workload)
        self.seed = seed
        self.work = work
        self.data = work / "data.csv"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        # One BLAS thread per copy: with the default two on two cores, wall
        # time was slower and spread wider, and any second runnable process
        # made a pass up to 15x slower (see README.md).
        self.env = dict(os.environ, PYTHONPATH=str(SOURCE), OPENBLAS_NUM_THREADS="1")

    def spawn(self, *args) -> tuple[dict, float]:
        """(child's JSON, monotonic time just before it started)."""
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=self.env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {args} ran past the {RUN_LIMIT_S:.0f} s run limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        sys.stderr.write(err)
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"child {args} exited with code {proc.returncode}")
        doc = json.loads(out.strip().splitlines()[-1])
        if not pathlib.Path(doc["infoselect_file"]).resolve().is_relative_to(SOURCE):
            raise BenchError(f"child imported infoselect from {doc['infoselect_file']}")
        return doc, started

    def setup_seconds(self) -> list[float]:
        """Interpreter start plus `import infoselect.cli`, after one warm-up."""
        self.spawn("--import-only")
        samples = []
        for _ in range(SETUP_SAMPLES):
            doc, started = self.spawn("--import-only")
            samples.append(doc["imported_at"] - started)
        return samples

    def passes(self, name: str, seconds: float, traced: bool, sampled: bool = False) -> dict:
        spec = {
            "commands": [op.argv(str(self.data), self.seed) for op in self.ops],
            "seconds": seconds,
            "out": str(self.work / name),
            "traced": traced,
            "sampled": sampled,
            "spans_path": str(self.work.parent / f"spans-{self.work.name}.jsonl"),
        }
        spec_path = self.work / f"{name}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        doc, _ = self.spawn(str(spec_path))
        doc["out"] = self.work / name
        return doc

    def check(self, doc: dict) -> tuple[int, int]:
        """(attempted, failed) over every call of every pass in `doc`."""
        attempted = failed = 0
        for p, record in enumerate(doc["passes"]):
            for j, (op, code) in enumerate(zip(self.ops, record["codes"])):
                attempted += 1
                problems, notes = check_op(op, doc["out"] / f"p{p}" / f"op{j}", self.refs)
                if code != 0:
                    problems.insert(0, f"exit code {code}")
                for line in notes:
                    print(f"note: pass {p} {op.op_id}: {line}", file=sys.stderr)
                if problems:
                    failed += 1
                    for line in problems[:5]:
                        print(f"FAIL pass {p} {op.op_id}: {line}", file=sys.stderr)
        return attempted, failed


def _median(values) -> float:
    return float(statistics.median(values))


def _scaled(record: dict, clock: str) -> float:
    """A sampled pass's wall or CPU seconds, without the unit's own time,
    at reference speed."""
    sampler = record["sampler"]
    if sampler["count"] == 0:
        raise BenchError("a pass ended before the calibration unit ran once")
    return at_reference_speed(record[clock] - sampler[clock],
                              sampler[clock] / sampler["count"])


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    if not (SOURCE / "infoselect" / "cli.py").is_file():
        raise BenchError(f"no program source at {SOURCE}")
    work = WORK / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Run(workload, seed, work)
        write_dataset(bench.data, seed)
        if trace:
            plain = bench.passes("plain", seconds / 2, traced=False)
            traced = bench.passes("traced", seconds / 2, traced=True)
            docs = [plain, traced]
            layers = [record["layers"] for record in traced["passes"]]
            traced_wall = _median(r["wall_s"] for r in traced["passes"])
            values = {name: _median(row[name] for row in layers)
                      for name in layers[0]}
            values["trace.wall_s"] = traced_wall
            values["trace.overhead_s"] = traced_wall - _median(
                r["wall_s"] for r in plain["passes"])
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in PER_LAYER.items()}
        else:
            setup = bench.setup_seconds()
            plain = bench.passes("plain", seconds, traced=False, sampled=True)
            docs = [plain]
            values = {
                "wall_s": _median(_scaled(r, "wall_s") for r in plain["passes"]),
                "cpu_s": _median(_scaled(r, "cpu_s") for r in plain["passes"]),
                "peak_rss_mb": plain["peak_rss_mb"],
                "setup_s": _median(setup),
            }
            raw = {
                "wall_s": _median(r["wall_s"] - r["sampler"]["wall_s"] for r in plain["passes"]),
                "cpu_s": _median(r["cpu_s"] - r["sampler"]["cpu_s"] for r in plain["passes"]),
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
        if plain["wrapped"]:
            raise BenchError("span wrappers were installed in an untraced child")
        if bench.refs is None:
            print(f"no reference for seed {seed}: invariant checks only", file=sys.stderr)
        attempted = failed = 0
        for doc in docs:
            a, f = bench.check(doc)
            attempted, failed = attempted + a, failed + f
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = dict(plain["environment"], workload=workload, seed=seed,
               passes=[len(doc["passes"]) for doc in docs])
    print(json.dumps({"environment": env}))
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, doc in zip(("plain", "traced"), docs):
        walls = " ".join(f"{r['wall_s']:.3f}" for r in doc["passes"])
        print(f"{name} child: pass wall_s {walls}")
    if not trace:
        walls = " ".join(f"{_scaled(r, 'wall_s'):.3f}" for r in plain["passes"])
        print(f"plain child: pass wall_s at reference speed {walls}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not trace:
        for name, value in raw.items():
            print(f"raw {name} {value:.6g} s (measured, before scaling to reference speed)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
