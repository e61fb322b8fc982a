"""Certification benchmark: time to certificate per command, layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  Every iteration is a fresh
single-threaded worker process (worker.py) on a config generated from the
seed, with its own output directory and cache file under .bench_runs/.
Iterations run one after another until the next one would overrun
--seconds (at least two, so artifacts of same-seed runs can be compared).

With --trace 0 the last line of output holds the end-to-end metrics; with
--trace 1 the first iteration runs untraced as the baseline and the rest
run traced, and the last line holds the per-layer metrics.  The lines
before it are a readable report with every metric named in METRICS.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import (COMMAND_METRICS, END_TO_END, EXACT_COUNTS, PER_LAYER,
                     REPORT_ONLY)
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
WORKER = BENCH_DIR / "worker.py"

MIN_ITERATIONS = 2
# extra processes that only set up (import, LAPACK call, prep commands), so
# setup_s is a median over many set-ups even when few iterations fit
SETUP_PROBES = 12
# every run must end within 180 s; stop starting iterations well before,
# leaving room for the last set-up probes
HARD_LIMIT_S = 145.0
WORKER_TIMEOUT_S = 170.0

SUMMARIES = {"riesz": "riesz_summary.json", "observe": "observe_summary.json",
             "visco": "visco_certificate.json", "control": "control_result.json"}
ARTIFACTS = {"spectrum": ("spectrum.csv",),
             "verify-identities": ("identities.csv",),
             "riesz": ("riesz.csv", "riesz_summary.json"),
             "observe": ("observe.csv", "observe_summary.json"),
             "visco": ("visco_certificate.json",),
             "control": ("control_result.json",)}

# one thread each for every BLAS the worker might load: with one worker at a
# time the benchmark never runs more threads than the machine has cores
SINGLE_THREAD = {name: "1" for name in
                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

NO_WAIT_NOTE = ("no wait-time metric: every layer runs in one thread of one "
                "process and --jobs does nothing, so no layer queues or waits")


# ----------------------------------------------------------------------
# running workers


def _spawn(spec: dict, workdir: Path, env: dict, timeout: float) -> dict:
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    result_path = Path(spec["result"])
    with open(workdir / "worker.log", "w") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), "--spec", str(spec_path),
                 "--spawned-at", repr(spawned)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=workdir,
                timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            return {"crashed": f"worker timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"crashed": f"worker exited {proc.returncode}; see {workdir / 'worker.log'}"}
    return json.loads(result_path.read_text())


def _worker_env(cache: Path) -> dict:
    env = {**os.environ, **SINGLE_THREAD, "OBSERVALAB_CACHE": str(cache)}
    env.pop("PYTHONPATH", None)
    return env


def run_iteration(workload: Workload, seed: int, workdir: Path, trace: bool = False,
                  timeout: float = WORKER_TIMEOUT_S, setup_only: bool = False) -> dict:
    workdir.mkdir(parents=True)
    config = workdir / "config.json"
    config.write_text(json.dumps(workload.make_config(seed, str(workdir / "out"))))
    spec = {"src": str(SRC), "config": str(config), "prep": list(workload.prep),
            "timed": [] if setup_only else list(workload.timed), "trace": trace,
            "result": str(workdir / "result.json"), "spans": str(workdir / "spans.json")}
    result = _spawn(spec, workdir, _worker_env(workdir / "cache.json"), timeout)
    result.update(dir=str(workdir), traced=trace, setup_only=setup_only,
                  planned=spec["prep"] + spec["timed"])
    return result


def prime(base: Path) -> dict:
    """One untimed process that loads the interpreter, numpy and LAPACK.

    The first LAPACK call after the library files leave the OS cache can
    take a second; this keeps that one-off out of every measured set-up.
    """
    workdir = base / "prime"
    workdir.mkdir(parents=True)
    spec = {"src": str(SRC), "prime": True, "result": str(workdir / "result.json")}
    return _spawn(spec, workdir, _worker_env(workdir / "cache.json"), WORKER_TIMEOUT_S)


# ----------------------------------------------------------------------
# output checks


def _artifact_texts(out: Path, command: str, strip) -> dict:
    texts = {}
    for name in ARTIFACTS[command]:
        path = out / name
        texts[name] = strip(path.read_text()) if path.exists() else None
    return texts


def _command_failures(record: dict, out: Path, tolerances: dict) -> list[str]:
    """Why one command counts as failed, from its exit code and its outputs."""
    command = record["command"]
    reasons = []
    if record["exit_code"] != 0:
        reasons.append(f"exit code {record['exit_code']}")
    if command in SUMMARIES:
        path = out / SUMMARIES[command]
        summary = json.loads(path.read_text()) if path.exists() else {}
        if summary.get("passed") is not True:
            reasons.append(f"{path.name}: passed is {summary.get('passed')!r}")
        if command == "control" and summary:
            limit = tolerances["steering_rel_error"]
            if not summary["steering_rel_error"] <= limit:
                reasons.append(f"steering_rel_error {summary['steering_rel_error']:.3e} "
                               f"above {limit:.1e}")
    if command == "verify-identities" and (out / "identities.csv").exists():
        with open(out / "identities.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        bad = [row["label"] for row in rows if row["pass"] != "true"]
        if bad:
            reasons.append(f"{len(bad)} identity rows not passed (first {bad[0]})")
    return reasons


def check_outputs(iterations: list[dict], workload: Workload) -> list[dict]:
    """One record per command attempted, with the reasons it failed.

    A command fails on a non-zero exit, a summary whose passed is not true,
    a steering error above its tolerance, or artifacts that differ (timestamp
    lines stripped) from the same command's artifacts in the first run.
    """
    # the parent reads outputs with the program's own tolerance table and
    # timestamp rule; it never runs a command itself
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from observalab.config import TOLERANCES
    from observalab.reports import strip_timestamp

    tolerances = {**TOLERANCES, **workload.config.get("tolerances", {})}
    records, reference = [], {}
    for it in iterations:
        run = Path(it["dir"]).name
        if "crashed" in it:
            records += [{"run": run, "command": c, "reasons": [it["crashed"]]}
                        for c in it["planned"]]
            continue
        out = Path(it["dir"]) / "out"
        for record in it["prep"] + it["commands"]:
            reasons = _command_failures(record, out, tolerances)
            texts = _artifact_texts(out, record["command"], strip_timestamp)
            first = reference.setdefault(record["command"], texts)
            changed = [name for name in texts if texts[name] != first[name]]
            if changed:
                reasons.append(f"artifacts differ from the first run's: {changed}")
            records.append({"run": run, "command": record["command"],
                            "reasons": reasons})
    return records


def certificate_margins(out: Path) -> dict:
    """riesz_margin_rel and visco_margin_ratio from the summaries present."""
    margins = {}
    riesz = out / "riesz_summary.json"
    if riesz.exists():
        rows = [r for r in json.loads(riesz.read_text())["rows"] if r["in_hypothesis"]]
        if rows:
            margins["riesz_margin_rel"] = min(
                (r["lambda_min"] - r["c_lower"]) / r["c_lower"] for r in rows)
    visco = out / "visco_certificate.json"
    if visco.exists():
        certs = [c for c in json.loads(visco.read_text())["certificates"] if "lambda_min" in c]
        if certs:
            margins["visco_margin_ratio"] = min(
                c["lambda_min"] / (c["margin_factor"] * c["lambda_max"]) for c in certs)
    return margins


# ----------------------------------------------------------------------
# exact counts


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "observalab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def count_mismatches(traced: list[dict], key: str, runs_dir: Path) -> list[str]:
    """Counts that differ between traced iterations, or from an earlier run
    of the same code on the same workload and seed (kept in counts.json)."""
    if not traced:
        return []
    counts = {name: traced[0]["layers"][name] for name in EXACT_COUNTS}
    problems = [f"{name} differs between iterations: {it['layers'][name]} vs {counts[name]}"
                for it in traced[1:] for name in EXACT_COUNTS
                if it["layers"][name] != counts[name]]
    store = runs_dir / "counts.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    digest = _source_digest()
    earlier = known.get(key)
    if earlier and earlier["src_digest"] == digest:
        problems += [f"{name} differs from an earlier run: {counts[name]} vs "
                     f"{earlier['counts'].get(name)}"
                     for name in EXACT_COUNTS if earlier["counts"].get(name) != counts[name]]
    known[key] = {"src_digest": digest, "counts": counts}
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return problems


# ----------------------------------------------------------------------
# the benchmark


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  runs_dir: Path = RUNS_DIR) -> dict:
    entered = time.monotonic()
    base = runs_dir / workload.name / f"seed{seed}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    primed = prime(base)

    def probes(first: int) -> list[dict]:
        return [run_iteration(workload, seed, base / f"setup{i}", setup_only=True,
                              timeout=WORKER_TIMEOUT_S - (time.monotonic() - entered))
                for i in range(first, first + SETUP_PROBES // 2)]

    # half the set-up probes run before the timed iterations and half after,
    # so setup_s samples the machine at both ends of the run
    probed = probes(0)
    timed: list[dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        done = len(timed)
        timed.append(run_iteration(workload, seed, base / f"iter{done}", trace and done > 0,
                                   timeout=WORKER_TIMEOUT_S - (began - entered)))
        now = time.monotonic()
        # stop when the next iteration, as long as this one, would overrun
        if (now - entered) + (now - began) > HARD_LIMIT_S:
            break
        if done + 1 >= MIN_ITERATIONS and (now - start) + (now - began) > seconds:
            break
    probed += probes(len(probed))
    iterations = probed + timed
    records = check_outputs(iterations, workload)
    failed = [r for r in records if r["reasons"]]
    ran = [it for it in iterations if "crashed" not in it]
    setups = [it["setup_s"] for it in ran if not it["traced"]]
    plain = [it for it in ran if not it["traced"] and not it["setup_only"]]
    traced_ok = [it for it in ran if it["traced"]]
    margins = certificate_margins(Path(timed[0]["dir"]) / "out")
    summary = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "iterations": len(timed), "setups": len(setups),
        "environment": primed.get("environment"),
        "attempted": len(records), "failed": len(failed), "failures": failed,
        "crashed": [it["crashed"] for it in iterations if "crashed" in it],
        "margins": margins,
        "end_to_end": _end_to_end(setups, plain, workload, margins,
                                  len(failed), len(records)),
    }
    if trace:
        summary["per_layer"] = _per_layer(traced_ok, plain)
        summary["count_problems"] = count_mismatches(
            traced_ok, f"{workload.name}/seed{seed}", runs_dir)
    summary["correct"] = (not failed and not summary["crashed"]
                          and not summary.get("count_problems")
                          and (not trace or bool(traced_ok)))
    return summary


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def _end_to_end(setups: list[float], plain: list[dict], workload: Workload,
                margins: dict, failed: int, attempted: int) -> dict:
    values = {
        "setup_s": _median(setups),
        "suite_s": _median(it["suite_s"] for it in plain),
        "peak_rss_mb": _median(it["peak_rss_mb"] for it in plain),
        "cert_margin": margins.get(workload.margin, math.nan),
        "failed_frac": failed / attempted,
        **margins,
    }
    for command in workload.timed:
        values[COMMAND_METRICS[command]] = _median(
            record["seconds"] for it in plain for record in it["commands"]
            if record["command"] == command)
    return values


def _per_layer(traced: list[dict], plain: list[dict]) -> dict:
    values = {name: _median(it["layers"][name] for it in traced)
              for name in PER_LAYER if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (values["trace.suite_s"]
                                  - _median(it["suite_s"] for it in plain))
    return values


# ----------------------------------------------------------------------
# output


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def result_line(summary: dict, per_layer: bool) -> dict:
    """The last output line: exactly the metrics BENCHMARK.json lists."""
    if per_layer:
        metrics = {name: _metric(summary["per_layer"][name], unit)
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {name: _metric(summary["end_to_end"][name], unit)
                   for name, (unit, _, _) in END_TO_END.items()}
    numbers = [m["value"] for m in metrics.values()]
    correct = summary["correct"] and all(math.isfinite(v) for v in numbers)
    return {"correct": correct, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def report(summary: dict, workload: Workload) -> list[str]:
    env = summary["environment"] or {}
    blas = env.get("blas", {})
    lines = [
        f"workload {workload.name}, seed {summary['seed']}: {workload.why}",
        f"closed loop, {summary['iterations']} iterations, one fresh process each; "
        f"prep {list(workload.prep)}, timed {list(workload.timed)}; "
        f"setup_s is the median of {summary['setups']} set-ups",
        f"environment: python {env.get('python')}, numpy {env.get('numpy')}, "
        f"nproc {env.get('nproc')}, BLAS {blas.get('name')} {blas.get('version')} "
        f"with {blas.get('threads')} thread(s)",
    ]
    e2e = summary["end_to_end"]
    for name, (unit, better, bound) in END_TO_END.items():
        lines.append(f"  {name:<20} {e2e[name]:>14.6g} {unit:<6} {better} is better, bound {bound}")
    for name, (unit, better) in REPORT_ONLY.items():
        if name in e2e:
            lines.append(f"  {name:<20} {e2e[name]:>14.6g} {unit:<6} {better} is better")
    if summary["trace"]:
        layers = summary["per_layer"]
        lines.append("per layer (traced iterations):")
        for name, (unit, better) in PER_LAYER.items():
            lines.append(f"  {name:<28} {layers[name]:>14.6g} {unit}")
        for problem in summary["count_problems"]:
            lines.append(f"COUNT MISMATCH: {problem}")
    lines.append(NO_WAIT_NOTE)
    lines.append(f"commands attempted {summary['attempted']}, failed {summary['failed']}")
    for record in summary["failures"]:
        lines.append(f"FAILED {record['run']} {record['command']}: "
                     f"{'; '.join(record['reasons'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "observalab" / "cli.py").is_file():
        print(f"no observalab source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative (the config schema requires it)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    summary = run_benchmark(workload, args.seed, args.seconds, bool(args.trace))
    (RUNS_DIR / workload.name / f"seed{args.seed}" / "summary.json").write_text(
        json.dumps(summary, indent=1, default=str))
    print("\n".join(report(summary, workload)))
    print(json.dumps(result_line(summary, per_layer=bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
