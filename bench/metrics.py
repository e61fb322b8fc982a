"""Names, units and directions of every metric the benchmark reports.

END_TO_END is what a user of the certifier sees; PER_LAYER comes from the
traced run.  Both are read from BENCHMARK.json at the repository root, the
one place they are listed.  METRICS.md explains each one.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# name -> (unit, better, bound).  The bound is the share of the parent's
# median by which the metric may get worse before a change is refused.
END_TO_END = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]}

# name -> (unit, better)
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}

# Layers whose self time is reported; together they cover every span, so
# their sum equals the time spent inside cli.main.
LAYERS = tuple(name.removesuffix(".self_s") for name in PER_LAYER if name.endswith(".self_s"))

# Per-command wall times and the two named margins: printed in the report of
# each workload that produces them, but not part of the result line, because
# every workload must report the same end-to-end set (see METRICS.md).
COMMAND_METRICS = {
    "spectrum": "spectrum_s",
    "verify-identities": "identities_s",
    "riesz": "riesz_s",
    "observe": "observe_s",
    "visco": "visco_s",
    "control": "control_s",
}
REPORT_ONLY = {
    **{name: ("s", "lower") for name in COMMAND_METRICS.values()},
    "failed_frac": ("ratio", "lower"),
    "riesz_margin_rel": ("ratio", "higher"),
    "visco_margin_ratio": ("ratio", "higher"),
}

# Counts that must repeat exactly between two runs of the same code on the
# same workload and seed.
EXACT_COUNTS = ("eigen.solves", "eigen.n3_sum", "eigen.pcg_iterations",
                "bessel.j_calls", "gram.boundary_gram_builds",
                "modes.psi_builds_per_rule", "visco.march_steps")
