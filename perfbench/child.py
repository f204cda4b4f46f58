"""The benchmark's child process: import infoselect, run passes, print JSON.

    python3 perfbench/child.py --import-only
    python3 perfbench/child.py SPEC.json

With --import-only it imports `infoselect.cli` and prints the monotonic
time at which the import finished. With a spec it runs passes over the
spec's CLI calls through `infoselect.cli.main(argv)`, one after another,
for as many whole passes as fit in `seconds` at the mean pass time so far
(at least one), and prints per-pass wall and CPU seconds,
return codes, peak RSS and the environment. When the spec says `sampled`,
the calibration unit runs on a timer during the passes and each pass
also reports the unit's count and total wall and CPU seconds (see
calibrate.py). When the spec says `traced`,
the span wrappers are installed first and per-pass layer metrics are
added; the spans themselves go to `spans_path` as JSON lines.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def _run_op(main, argv) -> int:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return int(main(argv))
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except Exception:
        traceback.print_exc()
        return -1


def _openblas_threads() -> dict:
    """Thread count of each OpenBLAS copy loaded into this process."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                out[os.path.basename(path)] = int(getattr(lib, symbol)())
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {k: v for k, v in os.environ.items()
                            if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run(spec: dict) -> dict:
    import infoselect
    import infoselect.cli

    imported = time.monotonic()
    main, tracer, wrapped = infoselect.cli.main, None, []
    if spec["sampled"]:
        from calibrate import Sampler
    if spec["traced"]:
        from spans import Tracer, layer_metrics
        from wrappers import install

        tracer = Tracer()
        wrapped = install(tracer)
        main = tracer.wrap("cli.main", main)

    passes = []
    started = time.monotonic()
    with open(spec["spans_path"], "w", encoding="utf-8") if tracer else \
            contextlib.nullcontext() as spans_file, \
            Sampler() if spec["sampled"] else contextlib.nullcontext() as sampler:
        while True:
            p = len(passes)
            if sampler:
                sampler.take()
            wall0, cpu0 = time.monotonic(), time.process_time()
            codes = []
            for j, argv in enumerate(spec["commands"]):
                if tracer:
                    tracer.run = p * len(spec["commands"]) + j
                out = os.path.join(spec["out"], f"p{p}", f"op{j}")
                codes.append(_run_op(main, [*argv, "--out", out]))
            record = {"wall_s": time.monotonic() - wall0,
                      "cpu_s": time.process_time() - cpu0, "codes": codes}
            if sampler:
                record["sampler"] = sampler.take()
            if tracer:
                spans = tracer.take()
                record["layers"] = layer_metrics(spans)
                spans_file.writelines(json.dumps(span) + "\n" for span in spans)
            passes.append(record)
            elapsed = time.monotonic() - started
            if elapsed + elapsed / len(passes) > spec["seconds"]:
                break
    return {
        "imported_at": imported,
        "infoselect_file": infoselect.__file__,
        "wrapped": sorted(set(wrapped)),
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }


def main(argv) -> int:
    if argv == ["--import-only"]:
        import infoselect
        import infoselect.cli  # noqa: F401

        print(json.dumps({"imported_at": time.monotonic(),
                          "infoselect_file": infoselect.__file__}))
        return 0
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    print(json.dumps(run(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
