"""CLI layer: artifacts, exit codes, determinism, lock, prerequisites."""

import ast
import copy
import importlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from observalab import cli, geometry, modes, visco, wave
from observalab import operators as ops
from observalab.bessel import BesselZeroTable
from observalab.config import CONFIG_SCHEMA, TOLERANCES, config_from_dict, schema_violation
from observalab.modes import ModeTable
from observalab.reports import strip_timestamp


def _write_config(tmp_path, **overrides):
    raw = {
        "domain": {"kind": "interval", "length": np.pi},
        "N": 6,
        "T_factors": [0.9, 2.0],
        "draws": 10,
        "seed": 7,
        "out_dir": str(tmp_path / "out"),
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
    """A second run in the same process, on its warm in-process memos,
    writes the bytes of the first."""
    cfg = _write_config(tmp_path, N=4)
    assert _run("spectrum", "--config", str(cfg)) == 0
    first = strip_timestamp((tmp_path / "out" / "spectrum.csv").read_text())
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
        assert abs(float(lam) - BesselZeroTable(m, k).zero(m, k)) < 1e-10


def test_disk_spectrum_cached_and_fresh_byte_identical(tmp_path):
    """The disk's zeros are found once per N in a process: a first spectrum
    and one served from that memo write the same bytes."""
    modes._disk_zeros.cache_clear()
    cfg = _write_config(tmp_path, domain={"kind": "disk", "radius": 1.7}, N=40)
    assert _run("spectrum", "--config", str(cfg)) == 0      # fresh, fills the memo
    assert modes._disk_zeros.cache_info().currsize == 1
    spectrum = tmp_path / "out" / "spectrum.csv"
    fresh = strip_timestamp(spectrum.read_text())
    assert _run("spectrum", "--config", str(cfg)) == 0      # from the memo
    assert modes._disk_zeros.cache_info().hits == 1
    assert strip_timestamp(spectrum.read_text()) == fresh


def test_a_run_writes_only_inside_its_output_directory(tmp_path, monkeypatch):
    """No file lands in the working directory: it holds the config and the
    output directory, nothing else."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OBSERVALAB_CACHE", raising=False)
    cfg = _write_config(tmp_path, domain={"kind": "disk", "radius": 1.0}, N=8)
    assert _run("spectrum", "--config", str(cfg)) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "out"]


def test_disk_spectrum_at_n100_exits_0(tmp_path):
    cfg = _write_config(tmp_path, domain={"kind": "disk", "radius": 1.0}, N=100)
    assert _run("spectrum", "--config", str(cfg)) == 0
    lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert len(lines) == 100 + 2


def test_disk_suite_at_schema_max_exits_0(tmp_path):
    cfg = _write_config(tmp_path, domain={"kind": "disk", "radius": 1.0}, N=128, draws=2)
    for cmd in ("spectrum", "verify-identities", "riesz", "observe", "control"):
        assert _run(cmd, "--config", str(cfg)) == 0, cmd
    lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert len(lines) == 128 + 2


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


_ALL_COMMANDS_SCRIPT = """
import json, math, sys
from pathlib import Path
from observalab import cli
out = Path(sys.argv[1])
domains = [{"kind": "interval", "length": math.pi},
           {"kind": "rectangle", "widths": [math.pi, 2.0]},
           {"kind": "disk", "radius": 1.0}]
codes = []
for domain in domains:
    run = out / domain["kind"]
    run.mkdir()
    cfg = run / "config.json"
    cfg.write_text(json.dumps({"domain": domain, "N": 40, "draws": 10, "seed": 3,
                               "out_dir": str(run / "out")}))
    for cmd in ("spectrum", "verify-identities", "riesz", "observe", "visco", "control"):
        codes.append(cli.main([cmd, "--config", str(cfg)]))
print(json.dumps({"codes": codes, **{name: name in sys.modules for name in
                                       ("numpy.random", "numpy.ma", "numpy.polynomial")}}))
"""


def test_no_command_imports_numpy_random_ma_or_polynomial(tmp_path):
    """numpy.random costs every process 10-16 ms and 6 MB to import, and
    operators.Normals makes the seeded draws without it; numpy.ma costs
    ~11 ms and 1 MB, and np.median and np.unique pull it in;
    numpy.polynomial costs ~3 ms, and its leggauss was the only use.  A
    fresh interpreter that runs every command on every geometry loads none
    of them."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _ALL_COMMANDS_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 18, "numpy.random": False, "numpy.ma": False,
                      "numpy.polynomial": False}


@pytest.mark.parametrize("domain, N", [
    ({"kind": "interval", "length": np.pi}, 6),
    ({"kind": "rectangle", "widths": [np.pi, np.pi]}, 20),
    ({"kind": "disk", "radius": 1.0}, 18),
], ids=["interval", "rectangle", "disk"])
def test_gram_commands_never_sample_the_boundary(tmp_path, monkeypatch, domain, N):
    """riesz, observe, control and visco take every boundary factor from
    its closed form: with psi and the boundary rule unavailable they still
    certify (N is the smallest at which visco fits a nonzero kernel)."""
    def unavailable(*args, **kwargs):
        raise AssertionError("the boundary was sampled")

    monkeypatch.setattr(ModeTable, "psi_matrix", unavailable)
    monkeypatch.setattr(geometry, "boundary_quadrature", unavailable)
    monkeypatch.setattr(cli, "boundary_quadrature", unavailable)
    cfg = _write_config(tmp_path, N=N, domain=domain, T_factors=[2.0],
                        kernels=_VISCO_KERNELS[:2])
    for cmd in ("riesz", "observe", "control", "visco"):
        assert _run(cmd, "--config", str(cfg)) == 0, cmd


def test_identities_check_the_closed_form_boundary_factor(tmp_path, monkeypatch):
    """verify-identities reports max |psi W psi^T - B| as one row, and a
    closed form off by 1e-6 fails it with exit 2."""
    cfg = _write_config(tmp_path, domain={"kind": "rectangle", "widths": [np.pi, 2.0]})
    csv_path = tmp_path / "out" / "identities.csv"

    def boundary_row():
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        header = rows[0]
        found = [dict(zip(header, row)) for row in rows if row[0] == "boundary_gram_closed_form"]
        assert len(found) == 1
        return found[0]

    assert _run("verify-identities", "--config", str(cfg)) == 0
    row = boundary_row()
    assert float(row["abs_error"]) <= 1e-12
    assert float(row["tolerance"]) == ops.BOUNDARY_GRAM_GATE == 1e-8
    closed = ModeTable.pos.func
    monkeypatch.setattr(ModeTable, "pos", property(lambda table: closed(table) + 1e-6))
    assert _run("verify-identities", "--config", str(cfg)) == 2
    row = boundary_row()
    assert row["pass"] == "false"
    assert float(row["abs_error"]) == pytest.approx(1e-6, rel=1e-6)


def test_identity_draws_reuse_the_basis(tmp_path, monkeypatch):
    """verify-identities evaluates the disk's radial factors on the interior
    rule once and psi on the boundary rule once, however many
    quasi-orthogonality draws it certifies, in one block or several (the
    disk's boundary traces are closed form, so psi calls no grad phi and
    those are all the calls)."""
    calls = []
    for name in ("phi_matrix", "grad_phi_matrix", "psi_matrix", "radial_factors"):
        original = getattr(ModeTable, name)

        def counted(self, points, _original=original, _name=name):
            calls.append(_name)
            return _original(self, points)

        monkeypatch.setattr(ModeTable, name, counted)
    for draws in (1, 50, geometry.block_rows(4 * 4, "draws") + 1):   # N=4: 4N normals a row
        run_dir = tmp_path / f"draws{draws}"
        run_dir.mkdir()
        cfg = _write_config(run_dir, N=4, draws=draws,
                            domain={"kind": "disk", "radius": 1.0})
        calls.clear()
        assert _run("verify-identities", "--config", str(cfg)) == 0
        assert sorted(calls) == ["psi_matrix", "radial_factors"], draws


@pytest.mark.parametrize("domain", [{"kind": "rectangle", "widths": [np.pi, 2.0]},
                                    {"kind": "disk", "radius": 1.0}],
                         ids=lambda d: d["kind"])
def test_identities_build_no_basis_on_the_interior_grid(tmp_path, monkeypatch, domain):
    """verify-identities takes the interior pairings from the 1D factors of
    the interior rule: no phi or grad phi array spans its 2D grid."""
    rules, sizes = [], []
    build_rule = cli.interior_quadrature
    monkeypatch.setattr(cli, "interior_quadrature",
                        lambda *args, **kw: rules.append(build_rule(*args, **kw)) or rules[-1])
    for name in ("phi_matrix", "grad_phi_matrix"):
        original = getattr(ModeTable, name)

        def sized(self, points, _original=original):
            sizes.append(len(points))
            return _original(self, points)

        monkeypatch.setattr(ModeTable, name, sized)
    cfg = _write_config(tmp_path, N=20, domain=domain)
    assert _run("verify-identities", "--config", str(cfg)) == 0
    (factors,) = rules
    grid = np.prod([len(w) for _, w in factors])
    assert all(size < grid for size in sizes), (sizes, grid)


def test_observe_samples_the_flux_once_per_horizon(tmp_path, monkeypatch):
    """observe samples the flux norms in time once per horizon however many
    draws it certifies, in one block or several (and never evaluates psi:
    test_gram_commands_never_sample_the_boundary)."""
    calls = []
    original_sampled = wave._sampled_flux_errors

    def counted_sampled(*args):
        calls.append("_sampled_flux_errors")
        return original_sampled(*args)

    monkeypatch.setattr(wave, "_sampled_flux_errors", counted_sampled)
    for draws in (1, 50, geometry.block_rows(4 * 4, "draws") + 1):   # N=4: 4N normals a row
        run_dir = tmp_path / f"draws{draws}"
        run_dir.mkdir()
        cfg = _write_config(run_dir, N=4, draws=draws, T_factors=[1.5, 2.0])
        calls.clear()
        assert _run("observe", "--config", str(cfg)) == 0
        assert calls.count("_sampled_flux_errors") == 2, draws


def test_tolerance_overrides_reach_control_and_visco_and_end_with_the_run(tmp_path):
    """A steering_rel_error far below rounding fails control's steering check
    and a memory_margin_factor above any lambda_min / lambda_max fails the
    memory certificate (exit 2); a default run in the same process passes."""
    cfg = _write_config(tmp_path)
    assert _run("riesz", "--config", str(cfg)) == 0
    for cmd, override in (("control", {"steering_rel_error": 1e-300}),
                          ("visco", {"memory_margin_factor": 2.0})):
        _write_config(tmp_path, tolerances=override)
        assert _run(cmd, "--config", str(cfg)) == 2, cmd
        _write_config(tmp_path)
        assert _run(cmd, "--config", str(cfg)) == 0, cmd


def test_tolerances_are_read_only_policy_defaults():
    assert dict(TOLERANCES) == {
        "rellich": 1e-6, "rellich_disk": 1e-5, "antisymmetry": 1e-8,
        "quasi_orthogonality": 1e-8, "riesz_margin": 1e-6,
        "steering_rel_error": 1e-3, "memory_margin_factor": 1e-3}
    with pytest.raises(TypeError):
        TOLERANCES["rellich"] = 1.0
    config = config_from_dict({"domain": {"kind": "interval", "length": 1.0}, "N": 3,
                               "tolerances": {"rellich": 1e-3}})
    assert config.tolerances == {**TOLERANCES, "rellich": 1e-3}
    with pytest.raises(TypeError):
        config.tolerances["rellich"] = 1.0
    assert TOLERANCES["rellich"] == 1e-6


_SIZES = st.floats(1e-3, 1e3)
_HORIZONS = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4)
_DOMAINS = st.one_of(
    st.builds(lambda length: {"kind": "interval", "length": length}, _SIZES),
    st.builds(lambda a, b: {"kind": "rectangle", "widths": [a, b]}, _SIZES, _SIZES),
    st.builds(lambda radius: {"kind": "disk", "radius": radius}, _SIZES),
)


def _integers(low, high):
    """An integer field, as an int or an integral float such as 6.0: JSON
    Schema counts both as integers."""
    return st.integers(low, high).flatmap(lambda n: st.sampled_from([n, float(n)]))


_CONFIGS = st.fixed_dictionaries(
    {"domain": _DOMAINS, "N": _integers(1, 12)},
    optional={
        "T_factors": _HORIZONS,
        "T_values": _HORIZONS,
        "quadrature_q": _integers(4, 128),
        "draws": _integers(1, 50),
        "seed": _integers(0, 2**32),
        "tolerances": st.dictionaries(st.sampled_from(sorted(TOLERANCES)),
                                      st.floats(1e-12, 1e3), max_size=3),
    },
)


# every family, M0 in [0, 1e3], delta over six decades, and p below 0.1,
# between 0.1 and 100, and above 100
_KERNELS = st.lists(st.one_of(
    st.just({"family": "zero"}),
    st.builds(lambda m0, delta: {"family": "exponential", "M0": m0, "delta": delta},
              st.floats(0.0, 1e3), st.floats(1e-3, 1e3)),
    st.builds(lambda m0, p: {"family": "polynomial", "M0": m0, "p": p},
              st.floats(0.0, 1e3),
              st.one_of(st.floats(1e-4, 0.1), st.floats(0.1, 100.0), st.floats(100.0, 1e4))),
), min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(raw=_CONFIGS, kernels=_KERNELS,
       # observe and visco sample time: horizons of at most 10 escape times
       # keep their rules to a few thousand nodes at N <= 12
       factors=st.lists(st.floats(0.5, 10.0), min_size=1, max_size=2))
def test_schema_valid_configs_exit_with_a_documented_code(raw, kernels, factors):
    """spectrum, verify-identities, riesz, control (after riesz, in the same
    output directory), observe and visco on any schema-valid config exit
    0, 2, 64 or 70."""
    timed = {key: value for key, value in raw.items() if key != "T_values"}
    timed.update(kernels=kernels, T_factors=factors)
    for config in (raw, timed):
        assert not list(Draft202012Validator(CONFIG_SCHEMA).iter_errors(config))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out_dir": str(Path(tmp) / "out")}
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps({**raw, **paths}))
        for cmd in ("spectrum", "verify-identities", "riesz", "control"):
            assert _run(cmd, "--config", str(cfg)) in (0, 2, 64, 70), (cmd, raw)
        cfg.write_text(json.dumps({**timed, **paths}))
        for cmd in ("observe", "visco"):
            assert _run(cmd, "--config", str(cfg)) in (0, 2, 64, 70), (cmd, timed)


def test_long_horizon_exits_64_before_sampling_time(tmp_path, capsys):
    """At N = 128 on the interval a horizon of 1000 needs 325,952 time nodes,
    past geometry.MAX_RULE_NODES: observe and visco refuse it with the count."""
    cfg = _write_config(tmp_path, N=128, T_values=[1000.0], draws=2)
    for cmd in ("observe", "visco"):
        assert _run(cmd, "--config", str(cfg)) == 64, cmd
        assert "would need 325952 nodes" in capsys.readouterr().err, cmd


def test_elongated_rectangle_identities_run_on_the_interior_factors(tmp_path):
    """On the 1 x 1000 rectangle at N = 128 the 2D interior rule would hold
    259,072 nodes; verify-identities builds only its 1D factors (32 and
    8,096 nodes), so it runs, and every identity holds."""
    cfg = _write_config(tmp_path, N=128, domain={"kind": "rectangle", "widths": [1, 1000]})
    assert _run("verify-identities", "--config", str(cfg)) == 0


def test_config_schema_is_valid():
    Draft202012Validator.check_schema(CONFIG_SCHEMA)


# the keywords config.schema_violation interprets, and the annotations it skips
_INTERPRETED = {"type", "enum", "minimum", "maximum", "exclusiveMinimum", "minItems",
                "maxItems", "items", "properties", "additionalProperties", "required"}
_ANNOTATIONS = {"$schema", "description"}


def _subschemas(schema):
    pending = [schema]
    for node in pending:
        pending += list(node.get("properties", {}).values())
        if "items" in node:
            pending.append(node["items"])
    return pending


def test_config_schema_uses_only_interpreted_keywords():
    """A schema edit that needs more of JSON Schema than the in-repo
    interpreter knows fails here rather than being accepted silently."""
    for node in _subschemas(CONFIG_SCHEMA):
        assert set(node) <= _INTERPRETED | _ANNOTATIONS, set(node) - _INTERPRETED
        assert node.get("additionalProperties", False) is False, node
        assert node.get("type", "object") in {"object", "array", "string", "number",
                                              "integer"}, node
        assert isinstance(node.get("items", {}), dict), node
        # enums are compared with `in`, exact only while every member is a string
        assert all(isinstance(member, str) for member in node.get("enum", [])), node


_SCHEMA_KEYS = sorted({key for node in _subschemas(CONFIG_SCHEMA)
                       for key in node.get("properties", {})})
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 130), st.integers(-3, 130).map(float),
              st.sampled_from([2**32, 100000, 100001, 10**400, -10**400]), st.floats(),
              st.sampled_from(["interval", "rectangle", "disk", "zero", "exponential"]),
              st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.one_of(st.sampled_from(_SCHEMA_KEYS), st.text(max_size=3)),
                        inner, max_size=3)),
    max_leaves=6)


def _containers(value):
    """Every dict and list in a decoded JSON value, the value itself first."""
    pending = [value]
    for node in pending:
        pending += [v for v in (node.values() if isinstance(node, dict) else node)
                    if isinstance(v, (dict, list))]
    return pending


@settings(max_examples=400, deadline=None)
@given(raw=_CONFIGS, kernels=_KERNELS, data=st.data())
def test_in_repo_validator_agrees_with_jsonschema(raw, kernels, data):
    """On valid configs and on configs with one value replaced, added or
    removed at any level, schema_violation accepts exactly what
    Draft202012Validator accepts, and names a path jsonschema reports;
    except where it refuses an int too large for a float in a "number"
    field, which JSON Schema accepts."""
    validator = Draft202012Validator(CONFIG_SCHEMA)
    raw = {**raw, "kernels": kernels}
    assert schema_violation(raw) is None and validator.is_valid(raw)
    mutated = copy.deepcopy(raw)
    node = data.draw(st.sampled_from(_containers(mutated)))
    if isinstance(node, dict):
        key = data.draw(st.one_of(st.sampled_from(sorted(node) or _SCHEMA_KEYS),
                                  st.sampled_from(_SCHEMA_KEYS), st.text(max_size=3)))
    else:
        key = data.draw(st.integers(0, len(node)))
    if data.draw(st.booleans()) and key in (node if isinstance(node, dict) else range(len(node))):
        del node[key]
    elif isinstance(node, list) and key == len(node):
        node.append(data.draw(_JSON_VALUES))
    else:
        node[key] = data.draw(_JSON_VALUES)
    found = schema_violation(mutated)
    if found is not None and found[1].endswith("does not fit in a float"):
        # the one rule past JSON Schema: a number field's int must fit a float
        return
    assert (found is None) == validator.is_valid(mutated)
    if found is not None:
        assert found[0] in {tuple(e.absolute_path) for e in validator.iter_errors(mutated)}


def test_no_command_imports_jsonschema(tmp_path):
    """jsonschema is a test oracle only: a fresh interpreter that imports the
    CLI and runs a command never loads it."""
    cfg = _write_config(tmp_path, N=3)
    script = ("import sys\nfrom observalab import cli\n"
              "code = cli.main(['spectrum', '--config', sys.argv[1]])\n"
              "print(code, 'jsonschema' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script, str(cfg)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


def test_integral_floats_run_as_integers(tmp_path):
    """N, draws, seed and quadrature_q given as 6.0-style floats run, and
    write the bytes their int spellings write."""
    fields = {"N": 6, "draws": 5, "seed": 3, "quadrature_q": 16}
    artifacts = []
    for name, spelled in (("ints", fields), ("floats", {k: float(v) for k, v in fields.items()})):
        run_dir = tmp_path / name
        run_dir.mkdir()
        cfg = _write_config(run_dir, **spelled)
        for cmd in ("spectrum", "verify-identities", "riesz", "observe"):
            assert _run(cmd, "--config", str(cfg)) == 0, (name, cmd)
        artifacts.append({n: strip_timestamp((run_dir / "out" / n).read_text())
                          for n in ("spectrum.csv", "identities.csv", "riesz.csv",
                                    "observe.csv")})
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("template", [
    '{"domain": {"kind": "interval", "length": %s}, "N": 4}',
    '{"domain": {"kind": "interval", "length": 3.0}, "N": 4, "T_factors": [%s]}',
    '{"domain": {"kind": "interval", "length": 3.0}, "N": 4, "tolerances": {"rellich": %s}}',
], ids=["length", "T_factors", "tolerances"])
def test_non_finite_config_numbers_exit_64(tmp_path, capsys, token, template):
    """json.loads accepts NaN and Infinity, which RFC 8259 does not, and
    decodes 1e400 to infinity; every command refuses them, naming the token."""
    cfg = tmp_path / "config.json"
    cfg.write_text(template % token)
    for cmd in ("verify-identities", "riesz"):
        assert _run(cmd, "--config", str(cfg), "--out", str(tmp_path / "out")) == 64, cmd
        assert token in capsys.readouterr().err, cmd


_HUGE = "1" + "0" * 400
# nested past the interpreter's recursion limit: json.loads raises RecursionError
_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("template, path", [
    ('{"domain": {"kind": "interval", "length": %s}, "N": 4}', "domain/length"),
    ('{"domain": {"kind": "interval", "length": 3.0}, "N": 4, "T_factors": [%s]}',
     "T_factors/0"),
    ('{"domain": {"kind": "interval", "length": 3.0}, "N": 4, "kernels": '
     '[{"family": "exponential", "M0": 0.5, "delta": %s}]}', "kernels/0/delta"),
], ids=["length", "T_factors", "delta"])
def test_number_fields_refuse_integers_past_the_float_range(tmp_path, capsys, template, path):
    """JSON decodes 1 followed by 400 zeros as an int, which the schema's
    lower bounds accept and float() cannot convert: every command exits 64
    and names the field, where spectrum, riesz and visco crashed with an
    OverflowError."""
    cfg = tmp_path / "config.json"
    cfg.write_text(template % _HUGE)
    for cmd in ("spectrum", "riesz", "visco"):
        assert _run(cmd, "--config", str(cfg), "--out", str(tmp_path / "out")) == 64, cmd
        err = capsys.readouterr().err
        assert f"config schema violation at {path}: an integer of 401 digits" in err, cmd


def test_integer_fields_take_integers_past_the_float_range(tmp_path):
    """seed is an integer field and never a float: a 401-digit seed runs."""
    cfg = tmp_path / "config.json"
    cfg.write_text('{"domain": {"kind": "interval", "length": 3.0}, "N": 4, "seed": %s}' % _HUGE)
    for cmd in ("spectrum", "verify-identities"):
        assert _run(cmd, "--config", str(cfg), "--out", str(tmp_path / "out")) == 0, cmd


def test_seed_flag_is_validated_with_the_config(tmp_path, capsys):
    """--seed joins the config before its one schema check: a negative seed
    exits 64 like a negative seed in the file."""
    cfg = _write_config(tmp_path, N=3)
    for cmd in ("verify-identities", "observe"):
        assert _run(cmd, "--config", str(cfg), "--seed", "-5") == 64, cmd
        assert "config schema violation at seed" in capsys.readouterr().err, cmd
    assert not (tmp_path / "out").exists()


def test_visco_marches_all_modes_of_a_kernel_at_once(tmp_path, monkeypatch):
    """One batched closed form per nonzero kernel, with one term for the
    exponential kernel and many for the polynomial one; the zero kernel is
    the rotation (the reference march lives only in the tests)."""
    calls = []
    original_exponents = visco._mode_exponents

    def counted_exponents(lams, weights, rates):
        calls.append((len(lams), len(weights)))
        return original_exponents(lams, weights, rates)

    monkeypatch.setattr(visco, "_mode_exponents", counted_exponents)
    cfg = _write_config(tmp_path, kernels=[
        {"family": "zero"},
        {"family": "exponential", "M0": 0.5, "delta": 1.0},
        {"family": "polynomial", "M0": 0.2, "p": 2.0}])
    assert _run("visco", "--config", str(cfg)) == 0
    assert [count for count, _ in calls] == [6, 6]
    assert calls[0][1] == 1 and calls[1][1] > 1


_VISCO_KERNELS = [{"family": "zero"},
                  {"family": "exponential", "M0": 0.5, "delta": 1.0},
                  {"family": "polynomial", "M0": 0.2, "p": 2.0}]


def test_visco_needs_no_dense_eigendecomposition(tmp_path, monkeypatch):
    """The benchmark's interval-visco config (interval pi, N = 20, default
    horizons, the zero, exponential and polynomial kernels) certifies with
    np.linalg.eig, eigvals and cond raising: the memory modes come from
    their secular equation, and no dense path creeps back."""
    def dense(*args, **kwargs):
        raise AssertionError("visco called a dense eigendecomposition")

    for name in ("eig", "eigvals", "cond"):
        monkeypatch.setattr(np.linalg, name, dense)
    cfg = _write_config(tmp_path, N=20, T_factors=[1.05, 1.5, 2.5], kernels=_VISCO_KERNELS)
    assert _run("visco", "--config", str(cfg)) == 0


def test_visco_assembles_the_wave_gram_once_per_run(tmp_path, monkeypatch):
    """The pure-wave reference spectrum depends on the table and T alone:
    one assembly for three kernels, and the certificate holds the bytes a
    per-kernel assembly writes."""
    calls = []
    original = cli.assemble_exponential_gram

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    cfg = _write_config(tmp_path, N=8, T_factors=[2.5], kernels=_VISCO_KERNELS)
    out = tmp_path / "out" / "visco_certificate.json"
    assert _run("visco", "--config", str(cfg)) == 0
    once = strip_timestamp(out.read_text())
    monkeypatch.setattr(cli, "assemble_exponential_gram", counted)
    assert _run("visco", "--config", str(cfg)) == 0
    assert len(calls) == 1
    assert strip_timestamp(out.read_text()) == once
    certify = cli.memory_riesz_certificate

    def per_kernel(table, kernel, T, **keywords):
        keywords["wave_evals"] = cli.assemble_exponential_gram(table, T).eigenvalues()
        return certify(table, kernel, T, **keywords)

    monkeypatch.setattr(cli, "memory_riesz_certificate", per_kernel)
    assert _run("visco", "--config", str(cfg)) == 0
    assert len(calls) == 5
    assert strip_timestamp(out.read_text()) == once


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


def test_malformed_config_exit_64(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"domain": {"kind": "interval", "length": 1.0},
                               "N": 4, "bogus": 1}))
    assert _run("spectrum", "--config", str(bad)) == 64
    bad.write_text(json.dumps({"domain": {"kind": "disk"}, "N": 4}))
    assert _run("spectrum", "--config", str(bad)) == 64
    bad.write_text("{not json")
    assert _run("spectrum", "--config", str(bad)) == 64
    capsys.readouterr()
    bad.write_text(_DEEP)
    assert _run("spectrum", "--config", str(bad)) == 64
    assert f"unreadable config file {bad}" in capsys.readouterr().err
    # an empty kernel list would certify nothing and pass
    cfg = _write_config(tmp_path, kernels=[])
    assert _run("visco", "--config", str(cfg)) == 64
    assert "kernels" in capsys.readouterr().err


@pytest.mark.parametrize("removed", [
    {"lambda_range": [5.0, 80.0]},
    {"tolerances": {"eigen_residual": 1e-8}},
    {"tolerances": {"orthonormality": 1e-8}},
    {"tolerances": {"pcg_rel_residual": 1e-10}},
    {"tolerances": {"gram_hermitian": 1e-10}},
    {"tolerances": {"flux_gram_rel": 1e-6}},
    {"tolerances": {"visco_terminal": 1e-8}},
    {"cache_path": "c.json"},
], ids=["lambda_range", "eigen_residual", "orthonormality", "pcg_rel_residual",
        "gram_hermitian", "flux_gram_rel", "visco_terminal", "cache_path"])
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


# a steering problem at N = 6, with its T and its first position entry open
_PROBLEM = ('{"T": %s, "initial": {"position": [%s, 0, 0, 0, 0, 0], '
            '"velocity": [0, 0, 0, 0, 0, 0]}, "target": {"position": [1, 1, 1, 1, 1, 1], '
            '"velocity": [0, 0, 0, 0, 0, 0]}}')


@pytest.mark.parametrize("text", ['{"domain": 5}', '{"N": "abc"}', '"my domain"',
                                  '{"N": 1.5e400}', '{"N": null}', _DEEP,
                                  _PROBLEM % (_HUGE, "0"), _PROBLEM % ("7.0", _HUGE)],
                         ids=["domain_number", "n_string", "not_object", "n_inf", "n_null",
                              "deep", "t_401_digits", "position_401_digits"])
def test_malformed_control_problem_file_exits_64(tmp_path, capsys, text):
    """A problem file that cannot be parsed, is not an object, whose domain
    or N is not one, or whose numbers do not fit a float is refused as bad
    configuration that names the problem file."""
    cfg = _write_config(tmp_path)
    prob = tmp_path / "problem.json"
    prob.write_text(text)
    assert _run("control", "--config", str(cfg), "--problem", str(prob)) == 64
    assert "problem file" in capsys.readouterr().err


@pytest.mark.parametrize("rows", ['5', '[5]', '[{"pass": true}]', '[{"T": "abc", "pass": true}]',
                                  _DEEP],
                         ids=["number", "number_row", "row_without_t", "t_string", "deep"])
def test_malformed_riesz_summary_rows_exit_64(tmp_path, capsys, rows):
    """A summary of the config's domain and N whose rows cannot be read, or
    nest too deep to parse, is the same refusal as any unreadable summary."""
    cfg = _write_config(tmp_path, T_factors=[2.0])
    assert _run("riesz", "--config", str(cfg)) == 0
    path = tmp_path / "out" / "riesz_summary.json"
    summary = json.loads(path.read_text())
    path.write_text(json.dumps({**summary, "rows": None}).replace('"rows": null',
                                                                   f'"rows": {rows}'))
    assert _run("control", "--config", str(cfg)) == 64
    assert f"unreadable riesz summary {path}" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["out_dir_is_a_file", "artifact_is_a_directory"])
def test_filesystem_errors_exit_64(tmp_path, capsys, case):
    """An output directory or artifact path the run cannot write is bad
    configuration (exit 64), and the failed write leaves no temporary file
    behind."""
    cfg = _write_config(tmp_path)
    if case == "out_dir_is_a_file":
        (tmp_path / "out").write_text("")
    else:
        (tmp_path / "out" / "spectrum.csv").mkdir(parents=True)
    assert _run("spectrum", "--config", str(cfg)) == 64
    assert "configuration error" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/*.tmp"))


def test_riesz_outside_hypothesis_row_has_an_empty_pass_cell(tmp_path):
    """A horizon below the escape time is reported, not asserted: its pass
    cell is empty beside the in-hypothesis row's true."""
    cfg = _write_config(tmp_path, T_factors=[0.9, 1.5])
    assert _run("riesz", "--config", str(cfg)) == 0
    rows = (tmp_path / "out" / "riesz.csv").read_text().splitlines()[2:]
    assert rows[0].endswith(",false,")
    assert rows[1].endswith(",true,true")


def test_control_condition_estimate_at_a_huge_horizon(tmp_path):
    """At T = 1e160 the interval's Gram is 1e160 times an identity up to
    rounding: its condition estimate is 1, where a cut at eps * ||A||_F / n
    of an overflowed norm zeroed every entry and wrote 0."""
    cfg = _write_config(tmp_path, N=4, T_values=[1e160])
    assert _run("riesz", "--config", str(cfg)) == 0
    assert _run("control", "--config", str(cfg)) == 0
    result = json.loads((tmp_path / "out" / "control_result.json").read_text())
    assert abs(result["condition_estimate"] - 1.0) <= 1e-12


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


def test_visco_fits_a_strong_kernel(tmp_path):
    # exponential(10, 1000) on the interval at N=20, T=5R: a former fit that
    # summed its objective relative to the seed stalled here at a negative
    # objective and exited 70
    cfg = _write_config(tmp_path, N=20, T_factors=[2.5],
                        kernels=[{"family": "exponential", "M0": 10, "delta": 1000}])
    assert _run("visco", "--config", str(cfg)) == 0
    summary = json.loads((tmp_path / "out" / "visco_certificate.json").read_text())
    fit = summary["certificates"][0]["fit"]
    assert fit["objective"] >= 0.0
    assert sorted(fit) == ["iterations", "modes", "objective", "objective_at_seed", "seed"]


@pytest.mark.parametrize("argv", [
    ("riesz", "--bogus"),
    ("nosuch",),
    ("riesz", "--seed", "abc"),
    ("spectrum", "--jobs", "2"),
    ("observe", "--strict"),
    ("control", "--strict"),
    ("riesz", "--problem", "problem.json"),
], ids=["unknown-flag", "unknown-command", "bad-seed", "removed-jobs", "strict-off-riesz",
        "strict-on-control", "problem-off-control"])
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


@pytest.mark.parametrize("module", ["observalab", "observalab.control", "observalab.visco",
                                    "observalab.reports"])
def test_every_exported_name_resolves(module):
    """A deletion must take its name out of __all__ too."""
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _private_uses(source: str) -> list[str]:
    """Each import (from .x import _y) or read (x._y) of another package
    module's private name in one module's source."""
    tree = ast.parse(source)
    siblings, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    uses.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            uses.append(f"{node.value.id}.{node.attr}")
    return uses


def test_no_module_uses_another_modules_private_names():
    """A name one module shares with another is public: no module imports
    or reads another module's underscore name."""
    package = Path(cli.__file__).parent
    uses = {path.name: _private_uses(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in uses.items() if found} == {}
    probe = "from .eigen import _check, eigh\nfrom . import bessel\nbessel._guess\nbessel.__doc__\n"
    assert _private_uses(probe) == ["eigen._check", "bessel._guess"]


def _uses(source: str, owner: str, names: tuple[str, ...]) -> list[str]:
    """The innermost function around each read of owner.name, name in
    names, in one module's source, "<module>" outside every function."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Attribute) and node.attr in names
                and ast.unparse(node.value) == owner):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_config_read_json_is_the_one_json_reader():
    """Every file a run reads goes through config.read_json's strict
    reader: no other function decodes JSON, and cli.py imports no json."""
    package = Path(cli.__file__).parent
    readers = {path.name: _uses(path.read_text(), "json", ("load", "loads"))
               for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in readers.items() if found} == {
        "config.py": ["read_json"]}
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "json" not in imported
    probe = "import json\njson.loads('1')\ndef f():\n    def g():\n        json.load(x)\n"
    assert _uses(probe, "json", ("load", "loads")) == ["<module>", "g"]


def test_every_gram_eigensolve_calls_eigh_in_one_place():
    """np.linalg.eigh is called only in eigen.jacobi_eigh, the one
    eigensolver of every Gram, and np.linalg.eigvalsh only in
    geometry.gauss_legendre, on the Legendre Jacobi matrix (not a Gram)."""
    package = Path(cli.__file__).parent
    calls = {}
    for path in sorted(package.glob("*.py")):
        for name in ("eigh", "eigvalsh"):
            for where in _uses(path.read_text(), "np.linalg", (name,)):
                calls.setdefault(name, []).append(f"{path.stem}.{where}")
    assert calls == {"eigh": ["eigen.jacobi_eigh"], "eigvalsh": ["geometry.gauss_legendre"]}
    probe = "import numpy as np\nnp.linalg.eigh(a)\ndef f():\n    np.linalg.eigvalsh(b)\n"
    assert _uses(probe, "np.linalg", ("eigh", "eigvalsh")) == ["<module>", "f"]
