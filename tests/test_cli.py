"""CLI layer: artifacts, exit codes, determinism, cache, lock, prerequisites."""

import json

import numpy as np
import pytest

from observalab import cli
from observalab.bessel import bessel_zero
from observalab.cache import SCHEMA_VERSION, ModeCache, cached_modes, resolve_cache_path
from observalab.geometry import disk, interval
from observalab.reports import strip_timestamp


def _write_config(tmp_path, **overrides):
    raw = {
        "domain": {"kind": "interval", "length": np.pi},
        "N": 6,
        "T_factors": [0.9, 2.0],
        "draws": 10,
        "seed": 7,
        "out_dir": str(tmp_path / "out"),
        "cache_path": str(tmp_path / "cache.json"),
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def _run(*argv):
    return cli.main(list(argv))


def test_spectrum_interval_lambdas(tmp_path):
    cfg = _write_config(tmp_path, N=3)
    assert _run("spectrum", "--config", str(cfg)) == 0
    lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert lines[1] == "n,multi_index,lambda"
    lams = [float(line.split(",")[2]) for line in lines[2:]]
    assert np.allclose(lams, [1.0, 2.0, 3.0], atol=1e-15)


def test_spectrum_warm_cache_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, N=4)
    assert _run("spectrum", "--config", str(cfg)) == 0
    first = strip_timestamp((tmp_path / "out" / "spectrum.csv").read_text())
    assert (tmp_path / "cache.json").exists()
    assert _run("spectrum", "--config", str(cfg)) == 0
    second = strip_timestamp((tmp_path / "out" / "spectrum.csv").read_text())
    assert first == second


def test_disk_spectrum_consistent_with_zero_table(tmp_path):
    cfg = _write_config(tmp_path, domain={"kind": "disk", "radius": 1.0}, N=5)
    assert _run("spectrum", "--config", str(cfg)) == 0
    lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    for line in lines[2:]:
        _, multi, lam = line.split(",")
        m, k = int(multi.split("|")[0]), int(multi.split("|")[1])
        assert abs(float(lam) - bessel_zero(m, k)) < 1e-10


def test_full_pipeline_interval_exit_zero(tmp_path):
    cfg = _write_config(tmp_path)
    for cmd in ("spectrum", "verify-identities", "riesz", "observe",
                "visco", "control"):
        assert _run(cmd, "--config", str(cfg)) == 0, cmd
    out = tmp_path / "out"
    for name in ("spectrum.csv", "identities.csv", "riesz.csv",
                 "riesz_summary.json", "observe.csv", "observe_summary.json",
                 "visco_certificate.json", "control_result.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "riesz_summary.json").read_text())
    assert summary["passed"] is True
    assert summary["outside_hypothesis"]          # the 0.9 * 2R horizon
    for row in summary["rows"]:
        assert 0.0 <= row["eigen_residual_rel"] <= row["eigen_residual_gate"]
    header = (out / "riesz.csv").read_text().splitlines()[1]
    assert "eigen_residual" not in header
    observe = json.loads((out / "observe_summary.json").read_text())
    for exp in observe["experiments"]:
        errors = exp["flux_gram_rel_errors"]
        assert len(errors) == 3 and max(errors) <= 1e-6


def test_reruns_are_deterministic_modulo_timestamp(tmp_path):
    cfg = _write_config(tmp_path)
    for cmd in ("riesz", "observe"):
        assert _run(cmd, "--config", str(cfg)) == 0
    out = tmp_path / "out"
    names = ("riesz.csv", "riesz_summary.json", "observe.csv",
             "observe_summary.json")
    first = {n: strip_timestamp((out / n).read_text()) for n in names}
    for cmd in ("riesz", "observe"):
        assert _run(cmd, "--config", str(cfg)) == 0
    for n in names:
        assert strip_timestamp((out / n).read_text()) == first[n], n


def test_seed_changes_the_draws(tmp_path):
    cfg = _write_config(tmp_path)
    assert _run("observe", "--config", str(cfg)) == 0
    base = strip_timestamp((tmp_path / "out" / "observe.csv").read_text())
    assert _run("observe", "--config", str(cfg), "--seed", "8") == 0
    reseeded = strip_timestamp((tmp_path / "out" / "observe.csv").read_text())
    assert base != reseeded


def test_strict_flags_outside_hypothesis(tmp_path):
    cfg = _write_config(tmp_path)
    assert _run("riesz", "--config", str(cfg)) == 0
    assert _run("riesz", "--config", str(cfg), "--strict") == 2


def test_malformed_config_exit_64(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"domain": {"kind": "interval", "length": 1.0},
                               "N": 4, "bogus": 1}))
    assert _run("spectrum", "--config", str(bad)) == 64
    bad.write_text(json.dumps({"domain": {"kind": "disk"}, "N": 4}))
    assert _run("spectrum", "--config", str(bad)) == 64
    bad.write_text("{not json")
    assert _run("spectrum", "--config", str(bad)) == 64


@pytest.mark.parametrize("removed", [
    {"lambda_range": [5.0, 80.0]},
    {"tolerances": {"eigen_residual": 1e-8}},
    {"tolerances": {"orthonormality": 1e-8}},
], ids=["lambda_range", "eigen_residual", "orthonormality"])
def test_removed_config_knobs_exit_64(tmp_path, removed):
    cfg = _write_config(tmp_path, N=3, **removed)
    assert _run("spectrum", "--config", str(cfg)) == 64


def test_control_requires_riesz_artifact(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert _run("control", "--config", str(cfg)) == 64
    assert "riesz" in capsys.readouterr().err
    assert _run("riesz", "--config", str(cfg)) == 0
    assert _run("control", "--config", str(cfg)) == 0


def test_control_problem_file_worked_example(tmp_path):
    cfg = _write_config(tmp_path, N=1, T_factors=[2.0])
    assert _run("riesz", "--config", str(cfg)) == 0
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps({
        "domain": {"kind": "interval"}, "N": 1, "T": 2 * np.pi,
        "initial": {"position": [0.0], "velocity": [0.0]},
        "target": {"position": [1.0], "velocity": [0.0]},
    }))
    assert _run("control", "--config", str(cfg), "--problem", str(prob)) == 0
    result = json.loads((tmp_path / "out" / "control_result.json").read_text())
    assert abs(result["control_norm_sq"] - 0.25) < 1e-10
    assert result["steering_rel_error"] < 1e-10
    assert result["control_coeffs"][0] == pytest.approx([0.0, -0.125], abs=1e-10)


def test_control_problem_mismatches_exit_64(tmp_path):
    cfg = _write_config(tmp_path, T_factors=[2.0])
    assert _run("riesz", "--config", str(cfg)) == 0
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps({
        "domain": {"kind": "disk"}, "T": 2 * np.pi,
        "initial": {"position": [0.0] * 6, "velocity": [0.0] * 6},
        "target": {"position": [1.0] * 6, "velocity": [0.0] * 6},
    }))
    assert _run("control", "--config", str(cfg), "--problem", str(prob)) == 64
    prob.write_text(json.dumps({
        "T": 99.0,
        "initial": {"position": [0.0] * 6, "velocity": [0.0] * 6},
        "target": {"position": [1.0] * 6, "velocity": [0.0] * 6},
    }))
    assert _run("control", "--config", str(cfg), "--problem", str(prob)) == 64


def test_lock_conflict_and_release(tmp_path):
    cfg = _write_config(tmp_path, N=3)
    out = tmp_path / "out"
    out.mkdir()
    lock = out / ".observalab.lock"
    lock.write_text("12345")
    assert _run("spectrum", "--config", str(cfg)) == 64
    lock.unlink()
    assert _run("spectrum", "--config", str(cfg)) == 0
    assert not lock.exists()          # released even on success


def test_cache_version_mismatch_rebuilds(tmp_path):
    cache_path = tmp_path / "cache.json"
    cache_path.write_text(json.dumps({"schema_version": SCHEMA_VERSION + 1,
                                      "tables": {"interval(1):N=3": {"bad": 1}},
                                      "bessel_zeros": None}))
    cfg = _write_config(tmp_path, N=3)
    assert _run("spectrum", "--config", str(cfg)) == 0
    rebuilt = json.loads(cache_path.read_text())
    assert rebuilt["schema_version"] == SCHEMA_VERSION
    assert all("interval" in key for key in rebuilt["tables"])


def test_cache_roundtrip_preserves_table(tmp_path):
    dom = interval(np.pi)
    cache = ModeCache(tmp_path / "c.json")
    table = cached_modes(dom, 5, cache)
    cache.save()
    reloaded = ModeCache.load(tmp_path / "c.json")
    hit = reloaded.get_table(dom, 5)
    assert hit is not None
    assert np.array_equal(hit.lambdas, table.lambdas)
    assert reloaded.get_table(dom, 6) is None
    assert reloaded.get_table(disk(1.0), 5) is None


def test_cache_env_var_overrides_path(tmp_path, monkeypatch):
    monkeypatch.setenv("OBSERVALAB_CACHE", str(tmp_path / "envcache.json"))
    assert resolve_cache_path("elsewhere.json") == tmp_path / "envcache.json"
    monkeypatch.delenv("OBSERVALAB_CACHE")
    assert resolve_cache_path("elsewhere.json").name == "elsewhere.json"


def test_visco_summary_written_even_when_a_kernel_cannot_fit(tmp_path):
    # rectangle at N=10 spans less than a 4x frequency range: the decay-rate
    # fit refuses, the command exits 64, but the summary still lands on disk
    # with the kernels that did certify.
    cfg = _write_config(tmp_path, N=10,
                        domain={"kind": "rectangle", "widths": [np.pi, np.pi]},
                        T_factors=[2.5])
    assert _run("visco", "--config", str(cfg)) == 64
    summary = json.loads((tmp_path / "out" / "visco_certificate.json").read_text())
    assert summary["passed"] is False
    by_kernel = {c["kernel"]: c for c in summary["certificates"]}
    assert by_kernel["0"]["passed"] is True          # memoryless certificate
    assert any("error" in c for c in summary["certificates"])


@pytest.mark.parametrize("argv", [
    ("riesz", "--bogus"),
    ("nosuch",),
    ("riesz", "--seed", "abc"),
    ("spectrum", "--jobs", "2"),
], ids=["unknown-flag", "unknown-command", "bad-seed", "removed-jobs"])
def test_usage_errors_exit_64(tmp_path, argv, capsys):
    cfg = _write_config(tmp_path, N=3)
    assert _run(*argv, "--config", str(cfg)) == 64
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        _run("riesz", "--help")
    assert exc.value.code == 0
    assert "--jobs" not in capsys.readouterr().out
