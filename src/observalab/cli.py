"""Command-line front end: one certification suite per subcommand.

Commands: spectrum | verify-identities | riesz | observe | visco | control.
Every command writes its machine-readable artifacts before deciding the
exit code, so a failing run still leaves a full summary on disk.

Exit codes: 0 all asserted checks passed, 2 a check failed, 64 bad
configuration, usage error or missing prerequisite, 70 numerical breakdown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .cache import ModeCache, cached_modes, resolve_cache_path
from .config import (CheckFailure, ConfigurationError, NumericalError,
                     RunConfig, load_config)
from .control import control_pipeline, problem_from_dict, random_problem
from .geometry import boundary_quadrature, domain_from_config, interior_quadrature
from .gram import assemble_exponential_gram, riesz_bounds_report
from .operators import (antisymmetry_suite, boundary_gram_check, multiplier_pairings,
                        quasi_orthogonality_draws, rellich_suite, report_columns)
from .reports import write_csv, write_json
from .visco import (MemoryKernel, exponential_kernel, memory_riesz_certificate,
                    polynomial_kernel, zero_kernel)
from .wave import observability_experiment

LOCK_NAME = ".observalab.lock"


# ----------------------------------------------------------------------
# shared setup


def _build_tables(config: RunConfig):
    domain = domain_from_config(config.domain)
    cache = ModeCache.load(resolve_cache_path(config.cache_path))
    table = cached_modes(domain, config.N, cache)
    if cache.changed:             # a hit leaves the file as it was
        cache.save()
    return domain, table


def _kernel_from_spec(spec: dict) -> MemoryKernel:
    family = spec.get("family")
    if family == "zero":
        return zero_kernel()
    if family == "exponential":
        return exponential_kernel(spec.get("M0", 0.2), spec.get("delta", 1.0))
    if family == "polynomial":
        return polynomial_kernel(spec.get("M0", 0.2), spec.get("p", 2.0))
    raise ConfigurationError(f"unknown kernel family: {family!r}")


def _in_hypothesis_horizons(config: RunConfig, domain) -> list[float]:
    return [T for T in config.horizons(2.0 * domain.R) if T > 2.0 * domain.R]


# ----------------------------------------------------------------------
# subcommands


def cmd_spectrum(config: RunConfig, out: Path, args) -> None:
    domain, table = _build_tables(config)
    columns = {
        "n": range(1, table.N + 1),
        "multi_index": ["|".join(map(str, mi)) for mi in table.multi_index.tolist()],
        "lambda": table.lambdas,
    }
    path = write_csv(out / "spectrum.csv", columns)
    print(f"spectrum: {table.N} modes on {domain.kind} -> {path}")


def cmd_verify_identities(config: RunConfig, out: Path, args) -> None:
    domain, table = _build_tables(config)
    lam_max = float(np.max(table.lambdas))
    brule = boundary_quadrature(domain, q=config.quadrature_q, lam_max=lam_max)
    irule = interior_quadrature(domain, q=config.quadrature_q, lam_max=lam_max)
    tol = config.tolerances
    pairings = multiplier_pairings(table, irule)
    psi = table.psi_matrix(brule)
    reports = [
        boundary_gram_check(table, brule, psi),
        rellich_suite(pairings, brule, psi, max_index=min(table.N, 20),
                      tol=tol["rellich_disk" if domain.kind == "disk" else "rellich"]),
        antisymmetry_suite(pairings, max_index=min(table.N, 15), tol=tol["antisymmetry"]),
        quasi_orthogonality_draws(pairings, config.draws, np.random.default_rng(config.seed),
                                  slack=tol["quasi_orthogonality"]),
    ]
    columns = report_columns(reports)
    path = write_csv(out / "identities.csv", columns)
    failed = columns["label"][~columns["pass"]]
    print(f"verify-identities: {len(columns['label'])} checks, {len(failed)} failed -> {path}")
    if len(failed):
        raise CheckFailure(
            f"{len(failed)} identity checks failed (first: {failed[0]}); see {path}"
        )


def cmd_riesz(config: RunConfig, out: Path, args) -> None:
    domain, table = _build_tables(config)
    margin_tol = config.tolerances["riesz_margin"]
    rows = [riesz_bounds_report(table, T, margin_tol=margin_tol)
            for T in config.horizons(2.0 * domain.R)]
    header = ["domain", "N", "T", "lambda_min", "lambda_max",
              "c_lower", "margin", "in_hypothesis", "pass"]
    csv_path = write_csv(out / "riesz.csv", {col: [row[col] for row in rows] for col in header})
    outside = [row["T"] for row in rows if not row["in_hypothesis"]]
    failed = [row["T"] for row in rows if row["pass"] is False]
    summary = {
        "domain": {"kind": domain.kind, "params": list(domain.params)},
        "N": table.N,
        "rows": rows,
        "outside_hypothesis": outside,
        "failed_horizons": failed,
        "passed": not failed,
    }
    json_path = write_json(out / "riesz_summary.json", summary)
    print(f"riesz: {len(rows)} horizons, {len(outside)} outside hypothesis, "
          f"{len(failed)} failed -> {json_path}")
    if failed:
        raise CheckFailure(
            f"lower Riesz bound violated at T={failed[0]:g}; see {csv_path}"
        )
    if outside and args.strict:
        raise CheckFailure(
            f"--strict: horizon T={outside[0]:g} is outside the hypothesis T > 2R"
        )


def cmd_observe(config: RunConfig, out: Path, args) -> None:
    domain, table = _build_tables(config)
    horizons = _in_hypothesis_horizons(config, domain)
    if not horizons:
        raise ConfigurationError(
            "observability needs at least one horizon above the escape time 2R"
        )
    rng = np.random.default_rng(config.seed)
    columns, summaries = {"T": [], "draw": [], "ratio": []}, []
    for T in horizons:
        exp = observability_experiment(table, T, config.draws, rng,
                                       margin_tol=config.tolerances["riesz_margin"])
        columns["T"] += [T] * len(exp["ratios"])
        columns["draw"] += range(len(exp["ratios"]))
        columns["ratio"] += exp["ratios"].tolist()
        summaries.append({k: exp[k] for k in
                          ("T", "draws", "c_lower", "lambda_min", "lambda_max",
                           "min_ratio", "median_ratio", "adversarial_ratio",
                           "flux_gram_rel_errors", "passed")})
    csv_path = write_csv(out / "observe.csv", columns)
    write_json(out / "observe_summary.json",
               {"domain": {"kind": domain.kind, "params": list(domain.params)},
                "N": table.N, "experiments": summaries,
                "passed": all(s["passed"] for s in summaries)})
    bad = [s for s in summaries if not s["passed"]]
    print(f"observe: {len(columns['draw'])} draws over {len(horizons)} horizons, "
          f"{len(bad)} failing -> {csv_path}")
    if bad:
        raise CheckFailure(
            f"observability ratio fell below the certified constant at "
            f"T={bad[0]['T']:g}; see {csv_path}"
        )


def cmd_visco(config: RunConfig, out: Path, args) -> None:
    domain, table = _build_tables(config)
    horizons = _in_hypothesis_horizons(config, domain)
    if not horizons:
        raise ConfigurationError(
            "the memory certificate needs a horizon above the escape time 2R"
        )
    T = max(horizons)
    certificates, errors = [], []
    wave_evals = None
    for spec in config.kernels:
        kernel = _kernel_from_spec(spec)
        try:
            # one pure-wave spectrum serves every kernel; if it fails, each
            # kernel records the failure as before
            if wave_evals is None:
                wave_evals = assemble_exponential_gram(table, T).eigenvalues()
            cert = memory_riesz_certificate(
                table, kernel, T,
                margin_factor=config.tolerances["memory_margin_factor"],
                wave_evals=wave_evals)
        except (ConfigurationError, NumericalError) as err:
            # keep what already certified; the summary records the breakage
            errors.append((kernel.describe(), err))
            cert = {"kernel": kernel.describe(), "error": str(err),
                    "passed": False}
        certificates.append(cert)
    payload = {
        "domain": {"kind": domain.kind, "params": list(domain.params)},
        "N": table.N,
        "T": T,
        "certificates": certificates,
        "passed": all(c["passed"] for c in certificates),
    }
    path = write_json(out / "visco_certificate.json", payload)
    bad = [c["kernel"] for c in certificates if not c["passed"]]
    print(f"visco: {len(certificates)} kernels at T={T:g}, "
          f"{len(bad)} failing -> {path}")
    if errors:
        name, err = errors[0]
        raise type(err)(f"kernel {name}: {err} (summary written to {path})")
    if bad:
        raise CheckFailure(f"memory certificate failed for kernel {bad[0]}")


def _require_riesz_artifact(out: Path, domain, N: int, T: float) -> None:
    """cmd_control refuses to run without a passing lower-bound certificate."""
    summary_path = out / "riesz_summary.json"
    if not summary_path.exists():
        raise ConfigurationError(
            f"control requires a riesz certificate in {out}; "
            f"run the 'riesz' command first"
        )
    try:
        summary = json.loads(summary_path.read_text())
        rows = summary["rows"]
        dom = summary["domain"]
        match_domain = (dom["kind"] == domain.kind
                        and np.allclose(dom["params"], domain.params,
                                        rtol=1e-12, atol=0.0))
        match_n = int(summary["N"]) == N
        passed = any(abs(float(row["T"]) - T) <= 1e-9 * max(1.0, T) and row["pass"] is True
                     for row in rows)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ConfigurationError(
            f"unreadable riesz summary {summary_path}: {err}") from err
    if not (match_domain and match_n):
        raise ConfigurationError(
            f"riesz certificate in {out} covers a different (domain, N); "
            f"re-run 'riesz' for this configuration"
        )
    if passed:
        return
    raise ConfigurationError(
        f"no passing riesz row for T={T:g} in {summary_path}; "
        f"run 'riesz' with this horizon first"
    )


def cmd_control(config: RunConfig, out: Path, args) -> None:
    domain, table = _build_tables(config)
    if args.problem is not None:
        try:
            raw = json.loads(Path(args.problem).read_text())
        except (OSError, ValueError) as err:
            raise ConfigurationError(
                f"cannot read problem file {args.problem}: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigurationError(f"problem file {args.problem} is not a JSON object")
        if "domain" in raw and not (isinstance(raw["domain"], dict)
                                    and raw["domain"].get("kind") == domain.kind):
            raise ConfigurationError(
                f"problem file targets domain {raw['domain']!r}, "
                f"config says {domain.kind!r}"
            )
        # == takes 6.0 for 6 and refuses a string, null or inf; a bool is no N
        if "N" in raw and (isinstance(raw["N"], bool) or raw["N"] != table.N):
            raise ConfigurationError(
                f"problem file truncation N={raw['N']!r} differs from config "
                f"N={table.N}"
            )
        problem = problem_from_dict(raw)
        if problem.N != table.N:
            raise ConfigurationError(
                f"problem vectors have length {problem.N}, expected {table.N}"
            )
    else:
        horizons = _in_hypothesis_horizons(config, domain)
        if not horizons:
            raise ConfigurationError(
                "control needs a horizon above the escape time 2R"
            )
        problem = random_problem(table.N, max(horizons),
                                 np.random.default_rng(config.seed))
    _require_riesz_artifact(out, domain, table.N, problem.T)
    result = control_pipeline(table, problem,
                              steering_tol=config.tolerances["steering_rel_error"])
    path = write_json(out / "control_result.json", result)
    print(f"control: steering error {result['steering_rel_error']:.3e}, "
          f"norm^2 {result['control_norm_sq']:.6g} -> {path}")
    if not result["passed"]:
        raise CheckFailure(
            f"control run failed (steering {result['steering_rel_error']:.3e}, "
            f"bound_ok={result['bound_ok']}); see {path}"
        )


# ----------------------------------------------------------------------
# argument parsing and dispatch


COMMANDS = {
    "spectrum": cmd_spectrum,
    "verify-identities": cmd_verify_identities,
    "riesz": cmd_riesz,
    "observe": cmd_observe,
    "visco": cmd_visco,
    "control": cmd_control,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 64 like any other configuration error, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="observalab",
        description="boundary observability certification suites",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--out", help="output directory (default from config)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--strict", action="store_true",
                        help="riesz only: outside-hypothesis results become failures")
    parser.add_argument("--problem", help="control only: JSON steering problem file")
    return parser


def _parse_args(argv):
    """One flat parser; a flag of another command is a usage error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.strict and args.command != "riesz":
        parser.error("--strict applies to riesz only")
    if args.problem is not None and args.command != "control":
        parser.error("--problem applies to control only")
    return args


def _resolve_config(args) -> RunConfig:
    """The flags override the config before its one validation."""
    overrides = {} if args.seed is None else {"seed": args.seed}
    if args.out:
        overrides["out_dir"] = args.out
    return load_config(args.config or None, **overrides)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        config = _resolve_config(args)
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lock_path = out / LOCK_NAME
        acquired = False
        try:
            try:
                fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                raise ConfigurationError(
                    f"output directory {out} is locked by another run "
                    f"({lock_path}); remove a stale lock to proceed"
                ) from None
            with os.fdopen(fd, "w") as fh:
                fh.write(str(os.getpid()))
            acquired = True
            COMMANDS[args.command](config, out, args)
        finally:
            if acquired:
                lock_path.unlink(missing_ok=True)
    except CheckFailure as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 2
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 64
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 70
    except OSError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 64
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
