"""The benchmark's workloads: each is one round of `anisohit` operations.

An operation is one pipeline run with a fixed config.  Pipelines that draw
Monte Carlo replicates (``seeded``) take the workload seed through
``--seed``; every other input is fixed, so a round does the same work
whatever the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Level-14 Cantor dust in [0, 1]: dimension log 2 / log 3.
CANTOR_GAMMA = math.log(2.0) / math.log(3.0)


@dataclass(frozen=True)
class Op:
    """One `anisohit <pipeline> --config <file>` process."""

    name: str
    pipeline: str
    config: dict
    seeded: bool = False

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.config.items())


def _fmt(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


SMALL_BALL = [
    # acceptance criterion 9: H=0.9, D=4, 64x64 grid (4096 points), 1e4 replicates
    Op(
        "small-ball",
        "small-ball",
        {
            "hurst": 0.9,
            "components": 4,
            "n_times": 64,
            "n_sites": 64,
            "center": "0, 0, 0, 0",
            "eps": "0.25, 0.125, 0.0625, 0.03125",
            "n_samples": 10000,
            "slope_tol": 0.3,
        },
        seeded=True,
    ),
]

FIELD_QUADRATURE = [
    Op("metric-h0.7", "metric-equivalence", {"hurst": 0.7, "alpha": 0.0, "space_dim": 1, "n_pairs": 3000}),
    # alpha > 0 takes the Kummer 1F1 path of the spatial factor
    Op("metric-h0.8-a0.5-d2", "metric-equivalence", {"hurst": 0.8, "alpha": 0.5, "space_dim": 2, "n_pairs": 2000}),
    Op("rates-h0.6", "rates", {"hurst": 0.6}),
    # 4H - (d - alpha) = 2: the log-corrected critical case
    Op("rates-h0.75", "rates", {"hurst": 0.75}),
    # fails its own spatial-slope row (crossover inside the fit window);
    # kept so that a fix of the estimator moves the failed count
    Op("rates-h0.7", "rates", {"hurst": 0.7}),
    Op(
        "variance-scaling",
        "variance-scaling",
        {"hurst": 0.8, "alpha": 0.5, "space_dim": 2, "t_ref": 0.25, "factors": "0.5, 2, 4"},
    ),
]

PIPELINE_SWEEP = [
    # gauges of the critical model H=0.75, d=1, alpha=0, D=4: q1 = tau^0.5,
    # q2 = tau sqrt(log(2e/tau)); growth limit 1/(D nu1 nu2 - (d1 nu2 + d2 nu1)) = 2
    Op(
        "gauge-check",
        "gauge-check",
        {
            "q1_family": "power",
            "q1_nu": 0.5,
            "q2_family": "power-log",
            "q2_nu": 1.0,
            "q2_delta": 0.5,
            "q2_log_scale": repr(2.0 * math.e),
            "d1": 1,
            "d2": 1,
            "state_dim": 4,
            "diam_cap": 2.0,
            "grid_size": 400,
            "growth_limit": 2.0,
        },
    ),
    Op(
        "capacity",
        "capacity",
        {"target": "interval", "target_lo": 0.0, "target_hi": 1.0, "riesz_beta": 0.3, "n_cells": 1024},
    ),
    Op(
        "hausdorff",
        "hausdorff",
        {
            "target": "cantor",
            "target_level": 14,
            "target_dim": 1,
            "gauge_gamma": repr(CANTOR_GAMMA),
            "eps": _fmt(3.0**-k for k in range(3, 9)),
        },
    ),
    # the README example: a centred ball on the default 16x16 grid
    Op(
        "hit-mc-16x16",
        "hit-mc",
        {
            "hurst": 0.7,
            "components": 2,
            "target": "ball",
            "target_center": "0, 0",
            "target_radius": 0.4,
            "n_samples": 2000,
        },
        seeded=True,
    ),
    # one grid point at t0: the hit frequency has an exact noncentral chi^2 law
    Op(
        "hit-mc-1x1",
        "hit-mc",
        {
            "hurst": 0.7,
            "components": 2,
            "n_times": 1,
            "n_sites": 1,
            "target": "ball",
            "target_center": "0.3, 0",
            "target_radius": 0.2,
            "n_samples": 20000,
        },
        seeded=True,
    ),
    # acceptance criterion 10
    Op(
        "polarity",
        "polarity",
        {
            "hurst": 0.9,
            "components": 4,
            "center": "1.5, 1.5, 1.5, 1.5",
            "grids": "8x8,16x16,32x32",
            "n_samples": 2000,
            "expect_polar": 1,
        },
        seeded=True,
    ),
]

WORKLOADS = {
    "small-ball": SMALL_BALL,
    "field-quadrature": FIELD_QUADRATURE,
    "pipeline-sweep": PIPELINE_SWEEP,
}

# Package modules each workload's pipelines load; a fresh interpreter that
# imports them is the start-up cost every CLI run of the workload pays.
SETUP_MODULES = {
    "small-ball": ("anisohit.cli", "anisohit.heat", "anisohit.mc"),
    "field-quadrature": ("anisohit.cli", "anisohit.heat"),
    "pipeline-sweep": ("anisohit.cli", "anisohit.gauges", "anisohit.heat", "anisohit.potential", "anisohit.mc"),
}
