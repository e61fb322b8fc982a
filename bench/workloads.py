"""The benchmark's workloads: generated configs and the commands they time.

Each workload is a closed loop: one process runs one command after another
in a fresh output directory with its own, initially empty, cache file.
The seed goes into the config's ``seed``; the program sees only the
generated config file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    timed: tuple[str, ...]
    # untimed commands run first in the same process; their time counts in
    # setup_s (the warm-cache fill)
    prep: tuple[str, ...] = ()
    # the summary field reported as cert_margin (see METRICS.md)
    margin: str = "riesz_margin_rel"

    def make_config(self, seed: int, out_dir: str) -> dict:
        return {**self.config, "seed": int(seed), "out_dir": out_dir}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="disk-identities",
            why="disk N=20, cold cache: Bessel zeros and J_m evaluation dominate; "
                "per-draw basis rebuilds in the identity suite",
            config={"domain": {"kind": "disk", "radius": 1.0}, "N": 20, "draws": 200},
            timed=("spectrum", "verify-identities", "riesz", "observe"),
        ),
        Workload(
            name="rect-gram",
            why="rectangle N=48 on a warm cache: eigensolves with vectors and PCG "
                "dominate; no Bessel work, so Bessel changes must not move it",
            config={"domain": {"kind": "rectangle", "widths": [math.pi, 2.0]},
                    "N": 48, "T_factors": [1.05, 2.5], "draws": 200},
            prep=("spectrum",),
            timed=("riesz", "observe", "control"),
        ),
        Workload(
            name="interval-visco",
            why="interval N=20, three memory kernels: Volterra mode solves and "
                "eigenvalue-only solves of sampled Grams",
            config={"domain": {"kind": "interval", "length": math.pi}, "N": 20,
                    "kernels": [{"family": "zero"},
                                {"family": "exponential", "M0": 0.5, "delta": 1.0},
                                {"family": "polynomial", "M0": 0.2, "p": 2.0}]},
            timed=("visco",),
            margin="visco_margin_ratio",
        ),
    )
}
