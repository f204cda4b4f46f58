"""The command line and the README's Python example in a fresh interpreter.

In-process tests cannot see two things: pytest records warnings instead of
printing them, so stray warning lines on stderr go unnoticed, and the test
session itself imports scipy, so a runtime import of it would go unnoticed
too. Each test here starts its own Python with `src/` on the path.
"""

import os
import pathlib
import re
import subprocess
import sys

from infoselect.harness import default_methods

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SMALL = ["--n", "120", "--dim", "3", "--pool-size", "20", "--eval-size", "10"]


def run_python(args, tmp_path):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


def test_numerical_failure_writes_one_stderr_line(tmp_path):
    # the fit's curvature overflows: numpy warns on the way, but only the
    # error line may reach stderr
    argv = ["train", "--classes", "2", "--class-sep", "1e200", *SMALL, "--out", "out"]
    proc = run_python(["-m", "infoselect", *argv], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "infoselect train: numerical failure: fit: matrix entries must be finite"
    ]


def test_saturated_score_writes_nothing_to_stderr(tmp_path):
    # at class separation 60 the predictives reach 0 and 1, where an EPIG
    # joint entry rebuilt from the marginals may round slightly below 0;
    # the entropies must take it without a warning
    argv = ["score", "--classes", "2", "--class-sep", "60", *SMALL, "--out", "out"]
    proc = run_python(["-m", "infoselect", *argv], tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert (tmp_path / "out" / "scores.csv").exists()


BLOCKED_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from infoselect.cli import main
small = sys.argv[1:]
for argv in (["train"], ["score", "--mc-samples", "10"],
             ["select", "--method", "bait", "--batch-size", "2"]):
    code = main([*argv, *small, "--out", argv[0]])
    if code:
        sys.exit(f"{argv[0]} exited {code}")
loaded = sorted(name for name in sys.modules if name.startswith("scipy."))
sys.exit(f"scipy modules loaded: {loaded}" if loaded else 0)
"""


def test_cli_runs_without_scipy(tmp_path):
    proc = run_python(["-c", BLOCKED_SCIPY, *SMALL], tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("model.json", "scores.csv", "select.json"):
        assert any(tmp_path.rglob(name)), name


def test_readme_python_blocks_run(tmp_path):
    # the Python API example documents names a refactor can change
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    out = ""
    for block in blocks:
        proc = run_python(["-c", block], tmp_path)
        assert proc.returncode == 0, proc.stderr
        out += proc.stdout
    assert str(default_methods("categorical")) in out
