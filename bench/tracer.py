"""Spans around every public function of the observalab modules.

A layer is the module that defines a function, so layer names survive
renames.  Install wraps each public function, public method, property and
constructor of each module, then rebinds every module-namespace reference
to the original (``from .eigen import jacobi_eigh`` in visco, the
``COMMANDS`` table in cli) so calls through those names are traced too.

Spans live in memory as (name, layer, start, end, parent) and are written
out once, at the end of the run.  Self time is a span's duration minus the
time covered by its direct children; summed over every span it equals the
time of the outermost spans, so the layer self times add up to the traced
command time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from metrics import LAYERS

BASIS = tuple(f"modes.ModeTable.{name}" for name in
              ("eval_phi", "eval_grad_phi", "phi_matrix", "eval_psi", "psi_matrix"))


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[tuple] = []   # (name, layer, start, end, parent, outer)
        self.child_time: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._psi_keys: dict[tuple, tuple] = {}
        self._hooks = {
            "bessel.BesselZeroTable.__init__": self._zero_table,
            "eigen.jacobi_eigh": self._eigensolve,
            "eigen.pcg_solve": self._pcg,
            "modes.ModeTable.psi_matrix": self._psi_build,
            "visco.solve_visco_mode": self._mode_solve,
            "wave.observability_experiment": self._draws,
            "wave.boundary_flux": self._flux,
            "cache.ModeCache.get_table": self._cache_lookup,
            "cache.ModeCache.save": self._cache_save,
            "reports.write_csv": self._report_bytes,
            "reports.write_json": self._report_bytes,
        }

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        replaced: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{name}", layer)
        for module in [package, *modules]:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, name, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            obj[key] = replaced[id(value)]

    def _wrap_class(self, cls, prefix: str, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(member):
                setattr(cls, attr, self._wrap(member, name, layer))
            elif isinstance(member, (staticmethod, classmethod)):
                setattr(cls, attr, type(member)(self._wrap(member.__func__, name, layer)))
            elif isinstance(member, property) and member.fget is not None:
                setattr(cls, attr, property(self._wrap(member.fget, name, layer),
                                            member.fset, member.fdel, member.__doc__))

    def _wrap(self, fn, name: str, layer: str):
        spans, child_time, stack, active = self.spans, self.child_time, self._stack, self._active
        hook = self._hooks.get(name)
        if hook is None and layer == "operators":
            hook = self._identity_checks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            # the tuple is completed when the call returns; children read the
            # layer of their still-open parent from this placeholder
            spans.append((name, layer, 0.0, 0.0, parent, active[name] == 0))
            child_time.append(0.0)
            stack.append(index)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                spans[index] = (name, layer, start, end, parent, spans[index][5])
                if parent >= 0:
                    child_time[parent] += end - start
            if hook is not None:
                hook(args, kwargs, result, parent)
            return result

        return traced

    # -- counting hooks ------------------------------------------------------

    def _identity_checks(self, args, kwargs, result, parent) -> None:
        # count reports once, where a caller outside the layer receives them
        if parent < 0 or self.spans[parent][1] != "operators":
            self.counts["operators.checks"] += _identity_reports(result)

    def _zero_table(self, args, kwargs, result, parent) -> None:
        table = args[0]
        self.counts["bessel.zero_table_entries"] += (table.max_order + 1) * table.max_rank

    def _eigensolve(self, args, kwargs, result, parent) -> None:
        order = len(args[0] if args else kwargs["matrix"])
        self.counts["eigen.solves"] += 1
        self.counts["eigen.n3_sum"] += order ** 3

    def _pcg(self, args, kwargs, result, parent) -> None:
        self.counts["eigen.pcg_iterations"] += int(result[1]["iterations"])

    def _psi_build(self, args, kwargs, result, parent) -> None:
        table, rule = args[0], (args[1] if len(args) > 1 else kwargs["rule"])
        # hold the objects so their ids stay unique for the whole run
        self._psi_keys[(id(table), id(rule))] = (table, rule)

    def _mode_solve(self, args, kwargs, result, parent) -> None:
        if result.method == "march":
            self.counts["visco.march_steps"] += len(result.tgrid) - 1

    def _draws(self, args, kwargs, result, parent) -> None:
        self.counts["wave.draws"] += int(result["draws"])

    def _flux(self, args, kwargs, result, parent) -> None:
        self.counts["wave.flux_samples"] += int(result.samples.size)

    def _cache_lookup(self, args, kwargs, result, parent) -> None:
        self.counts["cache.lookups"] += 1
        self.counts["cache.hits"] += result is not None

    def _cache_save(self, args, kwargs, result, parent) -> None:
        self.counts["cache.file_bytes"] = Path(args[0].path).stat().st_size

    def _report_bytes(self, args, kwargs, result, parent) -> None:
        self.counts["reports.bytes"] += Path(result).stat().st_size

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for (name, _, start, end, _, _), child in zip(self.spans, self.child_time):
            out[name] += end - start - child
        return out

    def layer_metrics(self, suite_s: float) -> dict[str, float]:
        by_name = self.self_times()
        layer_of = {span[0]: span[1] for span in self.spans}
        calls = Counter(span[0] for span in self.spans)
        inclusive: dict[str, float] = defaultdict(float)
        for name, _, start, end, _, outer in self.spans:
            if outer:
                inclusive[name] += end - start

        def incl(*names):
            return sum(inclusive[n] for n in names)

        layer_self = defaultdict(float)
        for name, seconds in by_name.items():
            layer_self[layer_of[name]] += seconds
        m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        psi_calls = calls["modes.ModeTable.psi_matrix"]
        lookups = self.counts["cache.lookups"]
        m.update({
            "bessel.j_calls": calls["bessel.bessel_j"],
            "bessel.zero_table_s": incl("bessel.BesselZeroTable.__init__"),
            "bessel.zero_table_entries": self.counts["bessel.zero_table_entries"],
            "modes.enumerate_s": incl("modes.enumerate_modes"),
            "modes.basis_s": sum(by_name[n] for n in BASIS),
            "modes.basis_calls": sum(calls[n] for n in BASIS),
            "modes.psi_builds_per_rule": psi_calls / len(self._psi_keys) if psi_calls else 0.0,
            "geometry.quadrature_s": incl("geometry.interior_quadrature",
                                          "geometry.boundary_quadrature"),
            "geometry.contains_calls": calls["geometry.DomainSpec.contains"],
            "operators.checks": self.counts["operators.checks"],
            "eigen.solves": self.counts["eigen.solves"],
            "eigen.n3_sum": self.counts["eigen.n3_sum"],
            "eigen.pcg_s": incl("eigen.pcg_solve"),
            "eigen.pcg_iterations": self.counts["eigen.pcg_iterations"],
            # assemble_sampled_gram goes through sampled_gram_matrix
            "gram.assemblies": calls["gram.assemble_exponential_gram"]
                               + calls["gram.sampled_gram_matrix"],
            "gram.boundary_gram_builds": calls["gram.boundary_trace_gram"],
            "gram.spectra": calls["gram.GramMatrix.spectrum"],
            "visco.mode_solve_s": incl("visco.solve_visco_mode"),
            "visco.mode_solves": calls["visco.solve_visco_mode"],
            "visco.march_steps": self.counts["visco.march_steps"],
            "visco.fit_s": incl("visco.fit_gamma"),
            "wave.draws": self.counts["wave.draws"],
            "wave.flux_samples": self.counts["wave.flux_samples"],
            "control.solve_s": incl("control.solve_control"),
            "control.simulate_s": incl("control.forward_simulate_controlled"),
            "cache.load_s": incl("cache.ModeCache.load"),
            "cache.save_s": incl("cache.ModeCache.save"),
            "cache.hit_ratio": self.counts["cache.hits"] / lookups if lookups else 0.0,
            "cache.file_bytes": self.counts["cache.file_bytes"],
            "config.validate_s": incl("config.validate_config_dict"),
            "reports.write_s": incl("reports.write_csv", "reports.write_json"),
            "reports.bytes": self.counts["reports.bytes"],
            "trace.suite_s": suite_s,
            "trace.unattributed_s": suite_s - sum(layer_self.values()),
            "trace.spans": len(self.spans),
        })
        return m

    def write(self, path: Path) -> None:
        names, layers, rows = {}, {}, []
        for name, layer, start, end, parent, _ in self.spans:
            layers[name] = layer
            rows.append([names.setdefault(name, len(names)), start, end, parent])
        Path(path).write_text(json.dumps({
            "fields": ["name", "start", "end", "parent"],
            "names": list(names), "layers": layers, "spans": rows,
        }))


def _identity_reports(result) -> int:
    if isinstance(result, list):
        return sum(_identity_reports(item) for item in result)
    return int(type(result).__name__ == "IdentityReport")
