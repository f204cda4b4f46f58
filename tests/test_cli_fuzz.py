"""The command line's error contract under malformed files and extreme flags.

Every run of `cli.main` must return 0, 1 (usage or input error) or 2
(numerical failure), write exactly one stderr line when it fails, and let
no exception escape. Inputs are config, model and dataset files that are
truncated, hold wrong types or shapes, or carry non-finite values, plus
numeric flags at extreme values. Sizes stay small (n <= 200, pool <= 30,
mc_samples <= 20) so that no run starts heavy work.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

import infoselect.cli as cli
from infoselect.dataio import gen_synthetic, save_csv
from infoselect.glm import Head, map_fit
from infoselect.harness import SELECT_METHODS

COMMANDS = ("train", "score", "select", "correlate", "simulate")
SIZES = {
    "n": 120, "dim": 3, "classes": 3, "train_size": 20, "pool_size": 20,
    "eval_size": 10, "mc_samples": 10, "batch_size": 2, "rounds": 1,
}
SIZE_FLAGS = [a for key, v in SIZES.items() for a in (f"--{key.replace('_', '-')}", str(v))]

# One valid file of each kind; the strategies below damage copies of them.
_DATA = gen_synthetic(5, SIZES["n"], SIZES["dim"], SIZES["classes"], 2.0)
_MODEL = map_fit(_DATA, Head.categorical(SIZES["classes"]), 1.0)
with tempfile.TemporaryDirectory() as _tmp:
    save_csv(pathlib.Path(_tmp) / "d.csv", _DATA)
    _CSV_LINES = (pathlib.Path(_tmp) / "d.csv").read_text().splitlines()

odd_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([1.5, -0.5, 1e308, float("nan"), float("inf")]),
    st.sampled_from(["", "x", "1", "eig_logdet", "categorical", "1e999"]),
    st.lists(st.integers(0, 3), max_size=2),
    st.just({"a": 1}),
)
extreme_floats = st.sampled_from(
    ["0", "-1", "1e-300", "1e300", "1e308", "1e200", "1e150", "inf", "-inf", "nan"]
)
extreme_seeds = st.sampled_from(["-1", "-1000", str(2**32), str(2**70)])


def _truncated(draw, text: str) -> str:
    """The text, or (one time in four) a prefix of it."""
    if draw(st.integers(0, 3)) == 0:
        return text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def config_files(draw) -> str:
    """A config holding the small sizes, with up to two fields set to odd values."""
    doc = dict(SIZES)
    keys = [*SIZES, "seed", "head", "lambda", "class_sep", "methods", "method",
            "eval_source", "data", "model"]
    for key in draw(st.lists(st.sampled_from(keys), max_size=2)):
        value = draw(odd_values)
        if key in SIZES and type(value) in (int, float):
            value = min(value, 3)  # a size may be of the wrong type or sign, never large
        doc[key] = value
    text = json.dumps(doc) if draw(st.booleans()) else json.dumps(list(doc))
    return _truncated(draw, text)


@st.composite
def model_files(draw) -> str:
    """The model of the small problem with one field damaged."""
    doc = {
        "head": {"kind": "categorical", "C": SIZES["classes"]},
        "D": SIZES["dim"],
        "weights": [float(v) for v in _MODEL.weights.reshape(-1)],
        "lambda": 1.0,
    }
    field = draw(st.sampled_from(["head", "C", "kind", "D", "weights", "lambda", None]))
    value = draw(odd_values | st.just([[1.0, 2.0], [3.0]]))
    if field in ("C", "kind"):
        doc["head"][field] = value
    elif field == "weights" and draw(st.booleans()):
        doc["weights"][0] = draw(st.sampled_from([float("nan"), float("inf"), 1e300]))
    elif field is not None:
        doc[field] = value
    return _truncated(draw, json.dumps(doc))


@st.composite
def csv_files(draw) -> str:
    """The small dataset with one cell replaced and maybe one cell dropped."""
    lines = list(_CSV_LINES)
    row = draw(st.integers(0, len(lines) - 1))
    cells = lines[row].split(",")
    col = draw(st.integers(0, len(cells) - 1))
    cells[col] = draw(st.sampled_from(["nan", "inf", "1e999", "1e300", "x", "", "7", "0.5"]))
    if draw(st.booleans()):
        cells = cells[:-1]
    lines[row] = ",".join(cells)
    return _truncated(draw, "\n".join(lines) + "\n")


@st.composite
def extreme_flags(draw) -> list[str]:
    argv = []
    for flag, values in (("--class-sep", extreme_floats), ("--lambda", extreme_floats),
                         ("--seed", extreme_seeds), ("--method", st.sampled_from(SELECT_METHODS))):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")  # "=" lets a value start with "-"
    return argv


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return rc, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(COMMANDS),
    flags=extreme_flags(),
    config=st.none() | config_files(),
    model=st.none() | model_files(),
    data=st.none() | csv_files(),
)
@example(command="train", flags=[], config='{"classes": "x"}', model=None, data=None)
@example(command="train", flags=[], config='{"methods": 5}', model=None, data=None)
@example(command="train", flags=[], config='{"seed": 1.5}', model=None, data=None)
@example(command="score", flags=[], config=None, model='{"head": {', data=None)
@example(command="score", flags=[], config=None, data=None,
         model='{"head": {"kind": "categorical", "C": "x"}, "D": 3, "weights": [], "lambda": 1}')
@example(command="score", flags=["--class-sep", "1e308"], config=None, model=None, data=None)
@example(command="score", flags=["--class-sep", "1e200"], config=None, model=None, data=None)
@example(command="select", flags=["--seed", "-1"], config=None, model=None, data=None)
def test_cli_error_contract(command, flags, config, model, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        # A config file carries the sizes itself; flags would override its fields.
        argv = [command, *(SIZE_FLAGS if config is None else []), *flags]
        for name, text, flag in (("c.json", config, "--config"), ("m.json", model, "--model"),
                                 ("d.csv", data, "--data")):
            if text is not None:
                (tmp / name).write_text(text)
                argv += [flag, str(tmp / name)]
        rc, err = run_cli([*argv, "--out", str(tmp / "out")])
    assert rc in (0, 1, 2)
    if rc != 0:
        assert len(err.splitlines()) == 1, err
