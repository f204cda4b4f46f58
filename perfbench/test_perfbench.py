"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys

import pytest

from calibrate import REFERENCE_UNIT_S
from check import REFERENCE_DIR, _read_scores, check_op
from run import END_TO_END_UNITS, Run, _scaled
from spans import NAME_RE, PER_LAYER, layer_metrics, self_times, uncovered_frac
from workloads import WORKLOADS, Op, write_dataset

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _span(name, start, end, parent, counts=None):
    return [name, start, end, parent, 0, counts]


def test_self_times_and_uncovered_fraction_of_a_nested_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("glm.map_fit", 1.0, 4.0, 0),
        _span("linalg.cholesky", 2.0, 3.0, 1),
        _span("selection.greedy_logdet", 5.0, 9.0, 0),
        _span("linalg.cholesky", 6.0, 7.0, 3),
        _span("linalg.cholesky", 7.0, 8.5, 3, {"retries": 1}),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert uncovered_frac(spans) == pytest.approx(0.3)
    metrics = layer_metrics(spans)
    assert metrics["cli.main.s"] == pytest.approx(3.0)
    assert metrics["linalg.cholesky.s"] == pytest.approx(3.5)
    assert metrics["linalg.cholesky.calls"] == 3
    assert metrics["linalg.cholesky.retries"] == 1
    assert metrics["selection.all.s"] == pytest.approx(1.5)
    assert metrics["trace.uncovered_frac"] == pytest.approx(0.3)


def test_a_sampled_pass_is_scaled_without_the_units_own_time():
    # Units ran at half the reference speed for wall time, at full speed for CPU.
    slow = 2 * REFERENCE_UNIT_S
    record = {"wall_s": 10.0, "cpu_s": 9.0,
              "sampler": {"count": 50, "wall_s": 50 * slow, "cpu_s": 50 * REFERENCE_UNIT_S}}
    assert _scaled(record, "wall_s") == pytest.approx((10.0 - 50 * slow) / 2)
    assert _scaled(record, "cpu_s") == pytest.approx(9.0 - 50 * REFERENCE_UNIT_S)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    doc = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert per_layer == PER_LAYER
    assert end_to_end == END_TO_END_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for name in [*per_layer, *end_to_end]:
        assert NAME_RE.fullmatch(name), name


def _corrupt_score(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[7].split(",")
    cells[3] = repr(float(cells[3]) * (1 + 1e-6))
    lines[7] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _corrupt_select(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["objective"] *= 1 + 1e-6
    path.write_text(json.dumps(doc), encoding="utf-8")


def _corrupt_simulate(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[3] = repr(float(cells[3]) + 1 / 1300)
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_CORRUPT = {"score": ("scores.csv", _corrupt_score),
            "select": ("select.json", _corrupt_select),
            "simulate": ("simulate.csv", _corrupt_simulate)}


@pytest.mark.parametrize("workload,op", [(w, op) for w, ops in WORKLOADS.items()
                                         for op in ops], ids=lambda v: getattr(v, "op_id", v))
def test_a_corrupted_reference_value_is_caught(tmp_path, workload, op):
    recorded = REFERENCE_DIR / "seed0" / workload
    artifact, corrupt = _CORRUPT[op.kind]
    out = tmp_path / "out"
    out.mkdir()
    shutil.copyfile(recorded / op.op_id / artifact, out / artifact)
    if op.kind == "score":  # the invariants compare scores.json with scores.csv
        names, indices, columns = _read_scores(out / artifact)
        doc = {"indices": indices, "columns": dict(zip(names, columns))}
        out.joinpath("scores.json").write_text(json.dumps(doc), encoding="utf-8")
    assert check_op(op, out, recorded) == ([], [])

    refs = tmp_path / "ref"
    shutil.copytree(recorded, refs)
    corrupt(refs / op.op_id / artifact)
    problems, _ = check_op(op, out, refs)
    assert problems, "the corrupted reference value went unnoticed"


SMALL_OPS = (
    Op("score", "score", ("score", "--pool-size", "40", "--eval-size", "20",
                          "--mc-samples", "50")),
    Op("bait", "select", ("select", "--method", "bait", "--pool-size", "40",
                          "--batch-size", "3")),
    Op("simulate", "simulate", ("simulate", "--method", "badge", "--train-size", "50",
                                "--pool-size", "40", "--batch-size", "5", "--rounds", "2")),
)


def _artifacts(root: pathlib.Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_traced_pass_writes_the_same_bytes_and_wraps_only_its_own_process(tmp_path):
    work = tmp_path / "small-seed3"
    work.mkdir()
    bench = Run("score-default", 3, work)
    bench.ops = SMALL_OPS
    write_dataset(bench.data, 3)
    plain = bench.passes("plain", 0, traced=False, sampled=True)
    traced = bench.passes("traced", 0, traced=True)

    assert plain["wrapped"] == []
    assert plain["passes"][0]["sampler"]["count"] >= 1
    assert "sampler" not in traced["passes"][0]
    assert {"linalg.cholesky", "glm.map_fit", "harness.write"} <= set(traced["wrapped"])
    assert "wrappers" not in sys.modules

    plain_files, traced_files = _artifacts(plain["out"]), _artifacts(traced["out"])
    assert len(plain_files) == 4
    assert plain_files == traced_files
    assert bench.check(plain) == (3, 0)

    (layers,) = [record["layers"] for record in traced["passes"]]
    assert set(layers) | {"trace.wall_s", "trace.overhead_s"} == set(PER_LAYER)
    assert layers["trace.uncovered_frac"] < 0.1
    assert layers["glm.map_fit.calls"] == 1 + 1 + 2 * 3
    assert layers["selection.picks"] == 3 + 2 * 5
    assert layers["harness.write.bytes"] == sum(len(b) for b in plain_files.values())
