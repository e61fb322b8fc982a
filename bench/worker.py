"""One benchmark iteration, in a fresh single-threaded interpreter.

    python3 bench/worker.py --spec SPEC.json --spawned-at MONOTONIC

The spec names the source tree, the config file, the untimed prep commands,
the timed commands, whether to trace, and where to write the result.  The
worker imports ``observalab.cli`` from that source tree, makes one small
LAPACK call, runs the prep commands, and reports the time since the parent
spawned it as its set-up time.  It then runs the timed commands through
``cli.main`` one after another.  The parent checks the outputs.

A fresh process per iteration matters: ``cli.main`` overwrites the
module-global ``config.TOLERANCES`` and ``bessel`` keeps a module-global zero
table, so iterations sharing a process would leak state into each other.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _blas_info(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(handle, symbol, None)
            if query is not None:
                threads = int(query())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def _run(cli, command: str, config: str) -> dict:
    start = time.perf_counter()
    try:
        code = cli.main([command, "--config", config])
        error = None
    except Exception:  # a crash is a failed command, not a lost iteration
        code, error = 1, traceback.format_exc()
    return {"command": command, "exit_code": code,
            "seconds": time.perf_counter() - start, "error": error}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))

    import numpy as np
    import observalab
    from observalab import cli

    if not Path(observalab.__file__).resolve().is_relative_to(src):
        print(f"observalab imported from {observalab.__file__}, not {src}", file=sys.stderr)
        return 3
    np.linalg.eigvalsh(np.diag([1.0, 2.0, 3.0, 4.0]))
    if spec.get("prime"):
        # only the prime process probes the environment, so the probe stays
        # out of every measured set-up
        Path(spec["result"]).write_text(json.dumps({"environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas": _blas_info(np),
        }}))
        return 0

    result = {"prep": [_run(cli, command, spec["config"]) for command in spec["prep"]]}
    result["setup_s"] = time.monotonic() - args.spawned_at

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(observalab)
    suite_start = time.perf_counter()
    result["commands"] = [_run(cli, command, spec["config"]) for command in spec["timed"]]
    result["suite_s"] = time.perf_counter() - suite_start
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(result["suite_s"])
        tracer.write(Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
