import csv
import importlib.util
import json
import pathlib
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import infoselect.cli as cli
from infoselect import dataio
from infoselect.dataio import format_float, gen_synthetic, load_csv, save_csv
from infoselect.errors import (
    BatchTooLarge,
    ConfigError,
    InfoselectError,
    LabelOutOfRange,
    LengthMismatch,
    MalformedHeader,
    MissingLabels,
    NonNumericCell,
    NotPositiveDefinite,
    PoolExhausted,
)
from infoselect.glm import Dataset, Head, map_fit
from infoselect.harness import (
    DEFAULT_METHODS,
    MINIMIZE,
    SCORE_ORIENTATIONS,
    ExperimentConfig,
    ScoreTable,
    _accuracy,
    _fit,
    cmd_correlate,
    cmd_score,
    cmd_select,
    cmd_simulate,
    cmd_train,
    default_methods,
    load_config,
    load_dataset,
    load_model,
    make_splits,
)
from infoselect.prediction import spearman


def small_config(out, **kw):
    base = dict(
        seed=3,
        n=260,
        dim=4,
        classes=3,
        class_sep=2.0,
        lam=1.0,
        train_size=30,
        pool_size=60,
        eval_size=20,
        methods=("bald_pred", "eig_logdet", "eig_trace", "epig_logdet"),
        mc_samples=200,
        method="greedy_eig_logdet",
        batch_size=5,
        rounds=2,
        out=str(out),
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# dataset files


def test_load_csv_single_labeled_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f0,f1,y\n0.5,-1.0,1\n")
    data = load_csv(p)
    assert data.n == 1 and data.dim == 2
    np.testing.assert_array_equal(data.features, [[0.5, -1.0]])
    assert data.labels.dtype == np.int64
    assert data.labels[0] == 1


def test_load_csv_header_only(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f0\n")
    data = load_csv(p)
    assert data.n == 0 and data.dim == 1 and not data.is_labeled

    p.write_text("f0,y\n")
    labeled = load_csv(p)
    assert labeled.n == 0 and labeled.is_labeled


def test_load_csv_float_labels_stay_float(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f0,y\n1.0,0.5\n2.0,1.5\n")
    data = load_csv(p)
    assert data.labels.dtype == np.float64
    np.testing.assert_array_equal(data.labels, [0.5, 1.5])


def test_load_csv_malformed_inputs(tmp_path):
    p = tmp_path / "d.csv"
    for text in ("", "a,b\n1,2\n", "f1,f0,y\n1,2,0\n", "y\n1\n"):
        p.write_text(text)
        with pytest.raises(MalformedHeader):
            load_csv(p)
    p.write_text("f0,f1,y\n1.0,2.0\n")
    with pytest.raises(MalformedHeader):
        load_csv(p)


def test_load_csv_non_numeric_cell_is_located(tmp_path):
    p = tmp_path / "d.csv"
    for bad in ("oops", "nan", "-inf"):
        p.write_text(f"f0,f1,y\n1.0,2.0,0\n1.0,{bad},1\n")
        with pytest.raises(NonNumericCell) as e:
            load_csv(p)
        assert e.value.row == 1 and e.value.col == 1


def test_load_csv_reports_the_first_bad_row_or_cell(tmp_path):
    # the one-call parse fails on any bad cell; the cell loop then names
    # the first one in reading order
    p = tmp_path / "d.csv"
    p.write_text("f0,f1,y\n1.0,2.0,0\n1.0,oops,1\n1.0\n")
    with pytest.raises(NonNumericCell) as e:
        load_csv(p)
    assert (e.value.row, e.value.col) == (1, 1)
    p.write_text("f0,f1,y\n1.0\n1.0,oops,1\n")
    with pytest.raises(MalformedHeader, match="row 0 has 1 cells"):
        load_csv(p)
    p.write_text("f0,f1,y\n1.0,2.0,nan\n1.0,inf,1\n")
    with pytest.raises(LabelOutOfRange, match="row 0"):
        load_csv(p)


def test_load_csv_rejects_non_finite_labels(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f0,y\n1.0,inf\n")
    with pytest.raises(LabelOutOfRange):
        load_csv(p)


def test_csv_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    data = Dataset(
        rng.standard_normal((100, 3)) * 10.0 ** rng.integers(-8, 8, size=(100, 1)),
        rng.integers(0, 5, size=100),
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(a, data)
    loaded = load_csv(a)
    np.testing.assert_array_equal(loaded.features, data.features)
    np.testing.assert_array_equal(loaded.labels, data.labels)
    save_csv(b, loaded)
    assert a.read_bytes() == b.read_bytes()


def _load_csv_cell_by_cell(path) -> Dataset:
    """load_csv as it read every file before its one-pass parse: csv.reader,
    then float() on each cell; the oracle the one-pass parse must match."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0]:
        raise MalformedHeader("missing header row")
    header = rows[0]
    has_labels = header[-1] == "y"
    feature_cols = header[:-1] if has_labels else header
    if not feature_cols:
        raise MalformedHeader("no feature columns")
    expected = [f"f{i}" for i in range(len(feature_cols))]
    if feature_cols != expected:
        raise MalformedHeader(
            f"feature columns must be {','.join(expected)}, got {','.join(feature_cols)}"
        )
    d, width = len(feature_cols), len(header)
    values = np.zeros((len(rows) - 1, width))
    for r, row in enumerate(rows[1:]):
        if len(row) != width:
            raise MalformedHeader(f"row {r} has {len(row)} cells, expected {width}")
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
    labels = values[:, d].copy() if has_labels else None
    if labels is not None and np.all(labels == np.floor(labels)):
        labels = labels.astype(np.int64)
    return Dataset(np.ascontiguousarray(values[:, :d]), labels)


def _outcome(load, path):
    """What a load gives: every value's bits and dtype or the error's identity,
    and the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            data = load(path)
        except InfoselectError as e:
            result = type(e), str(e), getattr(e, "row", None), getattr(e, "col", None)
        else:
            arrays = (data.features,) if data.labels is None else (data.features, data.labels)
            result = tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)
    return result, [str(w.message) for w in caught]


_CELL_TEXTS = ("nan", "inf", "-inf", "1_0", "0x10", "+1", ".5", "-0", "1.", " 2 ", "", "x")


def _mutate(text: str, kind: str, r: int, c: int, cell: str) -> str:
    """One change to a saved dataset's text; r and c pick the body row and cell."""
    lines = text.split("\n")  # header, the body rows, then "" after the last newline
    row = 1 + r % max(len(lines) - 2, 1)
    cells = lines[row].split(",")
    c %= len(cells)
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "cr after header":
        return text.replace("\n", "\r", 1)
    if kind == "no final newline":
        return text.rstrip("\n")
    if kind == "quoted header":
        lines[0] = ",".join(f'"{name}"' for name in lines[0].split(","))
    elif kind == "blank line":  # before any body row, or after the last one
        lines.insert(1 + r % (len(lines) - 1), "")
    elif kind == "ragged row":
        del cells[c]
    elif kind == "quoted cell":
        cells[c] = f'"{cells[c]}"'
    elif kind == "padded cells":
        cells = [f" {cell}\t" for cell in cells]
    elif kind == "cell text":
        cells[c] = cell
    if kind in ("ragged row", "quoted cell", "padded cells", "cell text"):
        lines[row] = ",".join(cells)
    return "\n".join(lines)


_MAGNITUDES = st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from(
    [1e-320, -1e-320, 5e-324, -0.0, 1e300, -1e300, 1.0 / 3.0]
)
_MUTATIONS = ("none", "crlf", "cr after header", "quoted header", "no final newline",
              "blank line", "ragged row", "quoted cell", "padded cells", "cell text")


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(0, 5),
    d=st.integers(1, 4),
    labels=st.sampled_from(["none", "int", "float"]),
    values=st.lists(_MAGNITUDES, min_size=25, max_size=25),
    kind=st.sampled_from(_MUTATIONS),
    r=st.integers(0, 10),
    c=st.integers(0, 10),
    cell=st.sampled_from(_CELL_TEXTS),
)
@example(n=0, d=2, labels="int", values=[0.0] * 25, kind="blank line", r=0, c=0, cell="")
@example(n=3, d=2, labels="int", values=[0.5] * 25, kind="blank line", r=1, c=0, cell="")
@example(n=3, d=2, labels="int", values=[0.5] * 25, kind="blank line", r=3, c=0, cell="")
def test_load_csv_matches_the_cell_by_cell_reader(tmp_path, n, d, labels, values, kind, r, c, cell):
    # values with their sign bits, the label dtype, every error's type,
    # message and cell, and the warnings come out as the csv.reader and
    # float() path gives them
    features = np.array(values[: n * d]).reshape(n, d)
    y = {"none": None, "int": np.arange(n) - 1, "float": np.array(values[-n:] if n else [])}
    path = tmp_path / "d.csv"
    save_csv(path, Dataset(features, y[labels]))
    text = _mutate(path.read_text(encoding="utf-8"), kind, r, c, cell)
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_csv, path) == _outcome(_load_csv_cell_by_cell, path)


def test_plain_files_load_in_one_pass(tmp_path, monkeypatch):
    # a file in the save_csv layout, and the benchmark's dataset, never reach
    # the cell-by-cell parse; a change that sends every file down it fails here
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    saved, bench = tmp_path / "saved.csv", tmp_path / "bench.csv"
    save_csv(saved, gen_synthetic(0, 50, 3, 4, 2.0))
    workloads.write_dataset(bench, 0)

    def refuse(*args):
        raise AssertionError("the cell-by-cell parse ran")

    monkeypatch.setattr(dataio, "_parse_cells", refuse)
    for path in (saved, bench):
        data = load_csv(path)
        assert data.labels.dtype == np.int64 and data.n in (50, workloads.N_ROWS)


def test_header_only_file_loads_without_a_warning(tmp_path, capsys):
    # np.loadtxt warns on an empty input, and the CLI replays warnings to stderr
    path = tmp_path / "d.csv"
    path.write_text("f0,f1,y\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = load_csv(path)
        assert data.features.shape == (0, 2) and data.labels.shape == (0,)
        assert cli.main(["train", "--data", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "infoselect train: error: splits need 1280 rows, dataset has 0"
    ]


def test_gen_synthetic_balance_and_determinism():
    one_each = gen_synthetic(7, 4, 3, 4, 2.0)
    assert sorted(one_each.labels) == [0, 1, 2, 3]
    counts = np.bincount(gen_synthetic(7, 10, 3, 3, 2.0).labels)
    assert counts.max() - counts.min() <= 1
    a = gen_synthetic(5, 50, 3, 3, 2.0)
    b = gen_synthetic(5, 50, 3, 3, 2.0)
    np.testing.assert_array_equal(a.features, b.features)
    assert not np.array_equal(a.features, gen_synthetic(6, 50, 3, 3, 2.0).features)


def test_gen_synthetic_zero_separation_gives_chance_accuracy():
    data = gen_synthetic(0, 600, 4, 3, 0.0)
    model = map_fit(data, Head.categorical(3), 1.0)
    acc = _accuracy(model, data, np.arange(data.n))
    assert abs(acc - 1.0 / 3.0) < 0.1


def test_gen_synthetic_input_checks():
    with pytest.raises(ValueError):
        gen_synthetic(0, 10, 3, 1, 1.0)
    with pytest.raises(ValueError):
        gen_synthetic(0, 10, 0, 3, 1.0)
    with pytest.raises(ValueError):
        gen_synthetic(0, -1, 3, 3, 1.0)


# ---------------------------------------------------------------------------
# configuration


def test_config_dict_round_trip_and_lambda_key():
    cfg = ExperimentConfig.from_dict(
        {"lambda": 0.5, "methods": "eig_logdet,eig_trace", "seed": 9}
    )
    assert cfg.lam == 0.5
    assert cfg.methods == ("eig_logdet", "eig_trace")
    doc = cfg.to_dict()
    assert doc["lambda"] == 0.5
    assert doc["methods"] == ["eig_logdet", "eig_trace"]
    assert ExperimentConfig.from_dict(doc) == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"lamda": 1.0})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict([1, 2])


@pytest.mark.parametrize(
    "overrides",
    [
        {"train_size": 0},
        {"mc_samples": 1},
        {"classes": 1},
        {"lam": -1.0},
        {"eval_source": "test"},
        {"methods": ("eig_logdet", "eig_logdet")},
        {"methods": ("eig_logdet", "mystery")},
        {"methods": ()},
        {"method": "mystery"},
        {"head": "poisson"},
        {"lam": 0.0},
        {"head": "gaussian"},
        {"head": "gaussian", "methods": ("eig_logdet",), "method": "top_k_epig_pred"},
    ],
)
def test_config_validation_failures(tmp_path, overrides):
    with pytest.raises(ConfigError):
        small_config(tmp_path, **overrides).validate()


def test_load_config_file_with_overrides(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps({"seed": 7, "lambda": 2.0, "train_size": 5}))
    cfg = load_config(str(p), {"train_size": 12, "out": None})
    assert cfg.seed == 7 and cfg.lam == 2.0 and cfg.train_size == 12
    assert cfg.out == "."

    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(p))


# ---------------------------------------------------------------------------
# splits


def test_splits_disjoint_mode_partitions_everything(tmp_path):
    cfg = small_config(tmp_path)
    s = make_splits(cfg, cfg.n)
    parts = [s.train, s.pool, s.eval, s.test]
    assert [len(p) for p in parts[:3]] == [30, 60, 20]
    merged = np.concatenate(parts)
    assert sorted(merged) == list(range(cfg.n))
    again = make_splits(cfg, cfg.n)
    np.testing.assert_array_equal(s.train, again.train)
    np.testing.assert_array_equal(s.pool, again.pool)


def test_splits_pool_mode_reuses_pool_rows(tmp_path):
    cfg = small_config(tmp_path, eval_source="pool")
    s = make_splits(cfg, cfg.n)
    np.testing.assert_array_equal(s.eval, s.pool[:20])
    assert len(np.concatenate([s.train, s.pool, s.test])) == cfg.n


def test_splits_size_guards(tmp_path):
    with pytest.raises(ConfigError):
        make_splits(small_config(tmp_path, n=100), 100)
    with pytest.raises(ConfigError):
        make_splits(small_config(tmp_path, eval_source="pool", eval_size=61), 260)


# ---------------------------------------------------------------------------
# score tables


def test_score_table_round_trips(tmp_path):
    rng = np.random.default_rng(1)
    table = ScoreTable(
        indices=(5, 3, 9),
        columns={
            "eig_logdet": rng.standard_normal(3),
            "epig_logdet": rng.standard_normal(3),
        },
        orientations={n: SCORE_ORIENTATIONS[n] for n in ("eig_logdet", "epig_logdet")},
    )
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    table.to_csv(c1)
    back = ScoreTable.from_csv(c1)
    assert back.indices == (5, 3, 9)
    np.testing.assert_array_equal(back.columns["eig_logdet"], table.columns["eig_logdet"])
    assert back.orientations["epig_logdet"] == MINIMIZE
    back.to_csv(c2)
    assert c1.read_bytes() == c2.read_bytes()

    j = tmp_path / "t.json"
    table.to_json(j)
    jback = ScoreTable.from_json(j)
    assert jback.indices == table.indices
    np.testing.assert_array_equal(
        jback.columns["epig_logdet"], table.columns["epig_logdet"]
    )
    assert jback.orientations == table.orientations


def test_score_table_checks_and_orientation():
    with pytest.raises(LengthMismatch):
        ScoreTable((1, 2), {"eig_logdet": np.zeros(3)}, {"eig_logdet": "maximize"})
    with pytest.raises(ConfigError):
        ScoreTable((1,), {"eig_logdet": np.zeros(1)}, {})
    t = ScoreTable(
        (1, 2), {"epig_logdet": np.array([1.0, -2.0])}, {"epig_logdet": MINIMIZE}
    )
    np.testing.assert_array_equal(t.oriented("epig_logdet"), [-1.0, 2.0])


def test_score_table_rejects_unknown_column(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("index,epig_logdet_typo\n0,1.5\n")
    with pytest.raises(ConfigError):
        ScoreTable.from_csv(p)
    p.write_text("rank,mystery\n0,1.5\n")
    with pytest.raises(ConfigError):
        ScoreTable.from_csv(p)


@pytest.mark.parametrize("columns, orientations, message", [
    ({"mystery": [1, 2]}, {"mystery": "sideways"}, "unknown columns"),
    ({"bald_pred": [1, 2]}, {"bald_pred": "minimize"}, "orientations"),
    ({"bald_pred": [1, 2]}, {"bald_pred": "sideways"}, "orientations"),
    ({"bald_pred": [1, 2]}, {"bald_pred": "maximize", "egl": "maximize"}, "orientations"),
])
def test_score_table_json_checks_names_and_orientations(tmp_path, columns, orientations,
                                                        message):
    # the same registry check as from_csv's header
    p = tmp_path / "s.json"
    p.write_text(json.dumps(
        {"indices": [1, 2], "columns": columns, "orientations": orientations}))
    with pytest.raises(ConfigError, match=rf"score table .*s\.json: {message}"):
        ScoreTable.from_json(p)


@pytest.mark.parametrize(
    "name, text", [("s.csv", ""), ("s.json", "{}"), ("s.json", "[]")]
)
def test_score_table_rejects_file_without_a_table(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    read = ScoreTable.from_csv if name.endswith(".csv") else ScoreTable.from_json
    with pytest.raises(ConfigError, match=rf"score table .*{name}"):
        read(p)


def test_score_table_rejects_bad_cells(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("index,eig_logdet\n0,1.5\n1,2.5,7\n")
    with pytest.raises(MalformedHeader, match=r"s\.csv: row 1 has 3 cells, expected 2"):
        ScoreTable.from_csv(p)
    p.write_text("index,eig_logdet\n0,1.5\n1,abc\n")
    with pytest.raises(NonNumericCell, match=r"cell \(1,1\) is not numeric: 'abc'") as e:
        ScoreTable.from_csv(p)
    assert (e.value.row, e.value.col) == (1, 1)


# ---------------------------------------------------------------------------
# commands


def test_cmd_train_model_format_and_round_trip(tmp_path):
    cfg = small_config(tmp_path)
    path = cmd_train(cfg)
    doc = json.loads(path.read_text())
    assert doc["head"] == {"kind": "categorical", "C": 3}
    assert doc["D"] == 4
    assert doc["lambda"] == 1.0
    assert len(doc["weights"]) == 12
    assert set(doc["fit"]) == {"grad_norm", "iters"}

    model, lam = load_model(path)
    assert lam == 1.0
    # row-major D x C serialization round-trips the weights bit exact
    data = load_dataset(cfg)
    splits = make_splits(cfg, data.n)
    refit, _ = _fit(cfg, data.subset(splits.train))
    np.testing.assert_array_equal(model.weights, refit.weights)


def test_model_reuse_requires_matching_shape_and_lambda(tmp_path):
    cfg = small_config(tmp_path)
    path = cmd_train(cfg)
    with pytest.raises(ConfigError):
        cmd_score(cfg.replace(model=str(path), lam=2.0))
    with pytest.raises(ConfigError):
        cmd_score(cfg.replace(model=str(path), dim=5))


def test_train_then_score_matches_in_process_path(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    csv_a, _ = cmd_score(small_config(a))
    model_path = cmd_train(small_config(b))
    csv_b, _ = cmd_score(small_config(b, model=str(model_path)))
    assert csv_a.read_bytes() == csv_b.read_bytes()


def test_cmd_score_empty_pool_writes_header_only(tmp_path):
    cfg = small_config(tmp_path, pool_size=0, methods=("eig_logdet",))
    csv_path, json_path = cmd_score(cfg)
    assert csv_path.read_text() == "index,eig_logdet\n"
    doc = json.loads(json_path.read_text())
    assert doc["indices"] == [] and doc["columns"]["eig_logdet"] == []


def test_cmd_select_k_zero_and_row_id_mapping(tmp_path):
    cfg = small_config(tmp_path, batch_size=0)
    doc = json.loads(cmd_select(cfg).read_text())
    assert doc["indices"] == [] and doc["objective"] == 0.0 and doc["gains"] == []

    cfg = small_config(tmp_path, batch_size=4, method="top_k_eig_trace")
    doc = json.loads(cmd_select(cfg).read_text())
    splits = make_splits(cfg, cfg.n)
    assert len(doc["indices"]) == 4
    assert doc["indices"] == [int(splits.pool[p]) for p in doc["pool_positions"]]
    assert len(set(doc["pool_positions"])) == 4


def test_correlation_matrix_properties_and_recompute(tmp_path):
    cfg = small_config(tmp_path)
    csv_path, json_path = cmd_correlate(cfg)
    doc = json.loads(json_path.read_text())
    names = doc["methods"]
    mat = np.array(doc["matrix"])
    assert names == list(cfg.methods)
    np.testing.assert_array_equal(np.diag(mat), np.ones(len(names)))
    np.testing.assert_array_equal(mat, mat.T)
    assert np.all(np.abs(mat) <= 1.0)

    header = csv_path.read_text().splitlines()[0]
    assert header == "method," + ",".join(names)

    # recompute one entry from the emitted per-candidate scores
    table = ScoreTable.from_csv(tmp_path / "scores.csv")
    i, j = names.index("bald_pred"), names.index("epig_logdet")
    rho = spearman(table.oriented("bald_pred"), table.oriented("epig_logdet"))
    assert rho == mat[i, j]


def test_simulate_round_zero_rows(tmp_path):
    cfg = small_config(tmp_path, rounds=0)
    lines = cmd_simulate(cfg).read_text().splitlines()
    assert lines[0] == "method,round,labeled_count,accuracy,objective"
    assert len(lines) == 3  # chosen method plus the random baseline

    data = load_dataset(cfg)
    splits = make_splits(cfg, data.n)
    model, _ = _fit(cfg, data.subset(splits.train))
    want = _accuracy(model, data, splits.test)
    for line in lines[1:]:
        method, rnd, count, acc, obj = line.split(",")
        assert method in ("greedy_eig_logdet", "random")
        assert rnd == "0" and count == "30" and float(obj) == 0.0
        assert float(acc) == want


def test_simulate_full_pool_single_round_matches_full_fit(tmp_path):
    cfg = small_config(tmp_path, method="random", batch_size=60, rounds=1)
    lines = cmd_simulate(cfg).read_text().splitlines()
    assert len(lines) == 3  # header, round 0, round 1
    _, rnd, count, acc, _ = lines[-1].split(",")
    assert rnd == "1" and count == "90"

    data = load_dataset(cfg)
    splits = make_splits(cfg, data.n)
    everything = np.concatenate([splits.train, splits.pool])
    model, _ = _fit(cfg, data.subset(everything))
    assert float(acc) == pytest.approx(
        _accuracy(model, data, splits.test), abs=1e-12
    )


def test_simulate_learning_curve_layout(tmp_path):
    cfg = small_config(tmp_path)
    lines = cmd_simulate(cfg).read_text().splitlines()
    assert len(lines) == 1 + 2 * 3  # two methods, rounds 0..2
    by_method = {}
    for line in lines[1:]:
        method, rnd, count, acc, _ = line.split(",")
        by_method.setdefault(method, []).append((int(rnd), int(count)))
        assert 0.0 <= float(acc) <= 1.0
    assert set(by_method) == {"greedy_eig_logdet", "random"}
    for rows in by_method.values():
        assert rows == [(0, 30), (1, 35), (2, 40)]


def test_simulate_guards(tmp_path):
    with pytest.raises(ConfigError):
        cmd_simulate(small_config(tmp_path, head="gaussian", classes=2))
    with pytest.raises(PoolExhausted):
        cmd_simulate(
            small_config(tmp_path, n=100, pool_size=10, batch_size=6, rounds=2)
        )
    with pytest.raises(ConfigError):
        # nothing left over for the held-out accuracy split
        cmd_simulate(small_config(tmp_path, n=110))

    unlabeled = tmp_path / "unlabeled.csv"
    save_csv(unlabeled, Dataset(np.random.default_rng(0).standard_normal((150, 4))))
    with pytest.raises(MissingLabels):
        cmd_simulate(small_config(tmp_path, data=str(unlabeled)))
    # grand reads the pool's labels, which simulate has not revealed yet
    with pytest.raises(ConfigError, match="top_k_grand"):
        cmd_simulate(small_config(tmp_path, method="top_k_grand"))
    # select may rank labeled data on them
    cmd_select(small_config(tmp_path, method="top_k_grand"))


@pytest.mark.parametrize(
    "method, pool_size, error, message",
    [
        ("greedy_epig_logdet", 25, PoolExhausted, "round 3 needs 10 rows, pool has 5"),
        ("bait", 35, BatchTooLarge, "select bait: forward width 20 from a pool of 15"),
        ("bait", 5, PoolExhausted, "round 1 needs 10 rows, pool has 5"),
    ],
)
def test_simulate_checks_the_pool_before_any_fit(tmp_path, method, pool_size, error, message):
    cfg = small_config(tmp_path, method=method, pool_size=pool_size, batch_size=10, rounds=3)
    with mock.patch("infoselect.harness._fit") as fit:
        with pytest.raises(error) as e:
            cmd_simulate(cfg)
    assert str(e.value) == message
    fit.assert_not_called()


def test_simulate_runs_when_the_last_round_just_fits(tmp_path):
    # rounds x batch_size equals the pool; bait's last round has 2 batch_size left
    for method, pool_size in (("greedy_eig_logdet", 15), ("bait", 20)):
        cfg = small_config(tmp_path, method=method, pool_size=pool_size, batch_size=5, rounds=3)
        assert cmd_simulate(cfg).read_text().splitlines()[-1].startswith("random,3,45,")


def test_commands_are_deterministic(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = small_config(out, rounds=1, mc_samples=100)
        cmd_train(cfg)
        cmd_score(cfg)
        cmd_select(cfg)
        cmd_correlate(cfg)
        cmd_simulate(cfg)
        outputs.append(
            {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.is_file()
            }
        )
    assert set(outputs[0]) == {
        "model.json",
        "scores.csv",
        "scores.json",
        "select.json",
        "correlation.csv",
        "correlation.json",
        "simulate.csv",
    }
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# command line


def test_cli_train_end_to_end(tmp_path, capsys):
    rc = cli.main(
        [
            "train",
            "--out",
            str(tmp_path),
            "--n",
            "120",
            "--dim",
            "3",
            "--classes",
            "3",
            "--train-size",
            "25",
            "--pool-size",
            "40",
            "--eval-size",
            "10",
        ]
    )
    assert rc == 0
    assert (tmp_path / "model.json").exists()
    assert str(tmp_path / "model.json") in capsys.readouterr().out


def test_cli_badge_on_an_empty_pool_picks_nothing(tmp_path, capsys):
    # k=0 from an empty pool is an empty batch, as for every other selector
    empty_pool = ["--n", "120", "--dim", "3", "--pool-size", "0", "--eval-size", "10",
                  "--method", "badge", "--batch-size", "0", "--out", str(tmp_path)]
    assert cli.main(["select", *empty_pool]) == 0
    doc = json.loads((tmp_path / "select.json").read_text())
    assert doc["method"] == "badge" and doc["indices"] == [] and doc["gains"] == []
    assert cli.main(["simulate", "--rounds", "1", *empty_pool]) == 0
    rows = (tmp_path / "simulate.csv").read_text().splitlines()
    assert [row.split(",")[:3] for row in rows[1:3]] == [["badge", "0", "80"], ["badge", "1", "80"]]
    capsys.readouterr()


def test_cli_flags_reach_the_config(tmp_path, monkeypatch, capsys):
    seen = {}

    def capture(config):
        seen["config"] = config
        return tmp_path / "artifact"

    monkeypatch.setitem(cli._COMMANDS, "score", capture)
    rc = cli.main(
        [
            "score",
            "--lambda",
            "2.5",
            "--methods",
            "eig_logdet,eig_trace",
            "--eval-source",
            "pool",
            "--class-sep",
            "0.5",
            "--mc-samples",
            "64",
        ]
    )
    assert rc == 0
    cfg = seen["config"]
    assert cfg.lam == 2.5
    assert cfg.methods == ("eig_logdet", "eig_trace")
    assert cfg.eval_source == "pool"
    assert cfg.class_sep == 0.5
    assert cfg.mc_samples == 64


def test_cli_usage_errors_exit_one(capsys):
    for argv in ([], ["bogus"], ["train", "--bogus"], ["train", "--seed", "x"]):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 1


def _parse_output(parse, argv, capsys):
    """Exit code, stdout and stderr of one argparse run."""
    with pytest.raises(SystemExit) as e:
        parse(argv)
    out = capsys.readouterr()
    return e.value.code, out.out, out.err


def test_cli_help_and_usage_errors_match_the_all_flags_parser(capsys):
    # main builds only the named command's flags; what argparse prints and
    # the exit code stay those of the parser with every command's flags
    def parse_all(argv):
        cli.build_parser().parse_args(argv)

    for argv in (
        ["--help"],
        *([name, "--help"] for name in cli._COMMANDS),
        ["--seed", "0", "score"],
        ["bogus"],
        ["score", "--bogus"],
        ["train", "--seed", "x"],
    ):
        expected = _parse_output(parse_all, argv, capsys)
        assert _parse_output(cli.main, argv, capsys) == expected
        assert expected[0] == (0 if "--help" in argv else 1)
    assert "--mc-samples" in _parse_output(cli.main, ["score", "--help"], capsys)[1]


def test_cli_config_and_io_errors_exit_one(tmp_path, capsys):
    assert cli.main(["train", "--train-size", "0", "--out", str(tmp_path)]) == 1
    assert cli.main(["train", "--config", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err
    assert "error" in err

    non_finite = tmp_path / "non_finite.csv"
    non_finite.write_text("f0,f1,y\n1.0,2.0,0\n1.0,nan,1\n")
    bad_files = {
        "classes.json": '{"classes": "x"}',
        "methods.json": '{"methods": 5}',
        "seed.json": '{"seed": 1.5}',
        "truncated_model.json": '{"head": {"kind": "categorical"',
        "model_c.json": '{"head": {"kind": "categorical", "C": "x"}, "D": 16, '
        '"weights": [], "lambda": 1.0}',
        "lambda_inf.json": '{"lambda": Infinity}',
    }
    for name, text in bad_files.items():
        (tmp_path / name).write_text(text)
    small = ["--n", "120", "--dim", "3", "--pool-size", "20", "--eval-size", "10"]
    for argv in (
        ["train", "--lambda", "0"],
        ["score", "--head", "gaussian", "--methods", "eig_logdet,bald_pred"],
        ["train", "--data", str(non_finite)],
        ["train", "--config", str(tmp_path / "classes.json")],
        ["train", "--config", str(tmp_path / "methods.json")],
        ["train", "--config", str(tmp_path / "seed.json")],
        ["score", "--model", str(tmp_path / "truncated_model.json")],
        ["score", "--model", str(tmp_path / "model_c.json")],
        ["score", "--classes", "2", "--class-sep", "1e308", *small],
        ["select", "--seed", "-1", *small],
        ["select", "--method", "random", "--batch-size", "30", *small],
        # sizes that numpy refuses to allocate at once, never touching memory
        ["score", "--mc-samples", str(10**15), *small],
        ["train", "--n", str(10**15)],
    ):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "error" in err

    # badge, like every selector, cannot take k=1 from an empty pool
    empty_pool = ["--n", "120", "--dim", "3", "--pool-size", "0", "--eval-size", "10"]
    assert cli.main(["select", "--method", "badge", "--batch-size", "1", *empty_pool,
                     "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["infoselect select: error: select badge: k=1 from a pool of 0"]

    # a label outside the classes is named by its plain value
    for bad in ("2", "0.5"):
        rows = [f"{0.1 * i},{1.0 - 0.05 * i},{i % 2}" for i in range(8)]
        rows[3] = f"0.3,0.2,{bad}"
        labels = tmp_path / "labels.csv"
        labels.write_text("f0,f1,y\n" + "\n".join(rows) + "\n")
        argv = ["train", "--data", str(labels), "--classes", "2", "--train-size", "8",
                "--pool-size", "0", "--eval-size", "0", "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"infoselect train: error: fit: label {bad} outside [0, 2) for categorical head"
        ]

    # an infinite lambda or class_sep is an input error naming the field,
    # not a numerical failure further down
    for argv, field in (
        (["train", "--lambda", "inf", *small], "lambda"),
        (["train", "--config", str(tmp_path / "lambda_inf.json")], "lambda"),
        (["train", "--class-sep", "inf", *small], "class_sep"),
    ):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"infoselect train: error: {field} must be finite"]


def test_cli_gaussian_head_runs_with_default_methods(tmp_path, capsys):
    # the default method list drops the categorical-only columns on a
    # Gaussian head, so no command needs --methods
    small = ["--n", "200", "--dim", "3", "--pool-size", "30", "--eval-size", "10"]
    for command in ("train", "select", "score"):
        out = tmp_path / command
        assert cli.main([command, "--head", "gaussian", *small, "--out", str(out)]) == 0
    capsys.readouterr()
    header = (tmp_path / "score" / "scores.csv").read_text().splitlines()[0]
    assert tuple(header.split(",")[1:]) == default_methods("gaussian")
    assert not set(default_methods("gaussian")) & {"bald_pred", "epig_pred"}
    assert default_methods("categorical") == DEFAULT_METHODS


def test_cli_numerical_failures_exit_two(monkeypatch, capsys, tmp_path):
    # the features are finite, but the fit's curvature overflows
    argv = ["train", "--classes", "2", "--class-sep", "1e200", "--n", "120", "--dim", "3",
            "--pool-size", "20", "--eval-size", "10", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "numerical failure" in err

    def boom(config):
        raise NotPositiveDefinite("synthetic failure")

    monkeypatch.setitem(cli._COMMANDS, "train", boom)
    assert cli.main(["train"]) == 2
    assert "numerical failure" in capsys.readouterr().err
