"""Output checks computed apart from the program.

Each checker reads the ``observed`` column of a pipeline's CSV and compares
it with a closed form or a property derived here from the operation's
config; the CSV's own ``reference`` and ``pass`` columns are never used.
The closed forms need only ``math`` and ``scipy.special``.

A checker returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special

# Binomial allowance for Monte Carlo frequencies, in standard deviations.
Z_MC = 4.0


@dataclass(frozen=True)
class Row:
    experiment: str
    observed: float


def parse_csv(text: str) -> list[Row]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "experiment,params,observed,reference,tolerance,pass":
        raise ValueError("not an anisohit report")
    rows = []
    for line in lines[1:]:
        experiment, _params, observed, _ref, _tol, _ok = line.split(",")
        rows.append(Row(experiment, float(observed)))
    return rows


# -- closed forms ---------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """The heat model's exponents, derived from (H, alpha, d) alone."""

    hurst: float
    alpha: float = 0.0
    space_dim: int = 1
    components: int = 1
    t0: float = 0.1

    @classmethod
    def from_config(cls, cfg: dict) -> "Model":
        return cls(
            hurst=float(cfg["hurst"]),
            alpha=float(cfg.get("alpha", 0.0)),
            space_dim=int(cfg.get("space_dim", 1)),
            components=int(cfg.get("components", 1)),
            t0=float(cfg.get("t0", 0.1)),
        )

    @property
    def b(self) -> float:
        return 0.5 * (self.space_dim - self.alpha)

    @property
    def time_exponent(self) -> float:
        return 2.0 * self.hurst - self.b

    @property
    def critical(self) -> bool:
        return abs(self.time_exponent - 1.0) <= 1e-12

    @property
    def nu1(self) -> float:
        return self.hurst - 0.5 * self.b

    @property
    def nu2(self) -> float:
        return min(1.0, self.time_exponent)

    @property
    def power_exponent(self) -> float:
        """D - 1/nu1 - d/nu2, the exponent of the Hausdorff gauge at 0."""
        return self.components - 1.0 / self.nu1 - self.space_dim / self.nu2

    @property
    def kappa(self) -> float:
        """Variance constant: variance(t) = kappa * t^(2H - b).

        kappa = 2H C 2F1(b, 1; 2H; -1) / (2H - b) with
        C = (4 pi)^(-d/2) Gamma(b) / Gamma(d/2).
        """
        h, b, d = self.hurst, self.b, self.space_dim
        c = (4.0 * math.pi) ** (-0.5 * d) * math.gamma(b) / math.gamma(0.5 * d)
        return 2.0 * h * c * float(special.hyp2f1(b, 1.0, 2.0 * h, -1.0)) / (2.0 * h - b)

    def variance(self, t: float) -> float:
        return self.kappa * t**self.time_exponent


def ncx2_cdf(x: float, dof: int, lam: float) -> float:
    """P(noncentral chi^2 with ``dof`` degrees and noncentrality ``lam`` <= x).

    Poisson mixture of central chi^2 laws, summed to 12 standard deviations
    of the Poisson weights past their mean.
    """
    if lam == 0.0:
        return float(special.gammainc(0.5 * dof, 0.5 * x))
    half = 0.5 * lam
    total = 0.0
    for j in range(int(half + 12.0 * math.sqrt(half + 1.0) + 40.0)):
        weight = math.exp(-half + j * math.log(half) - math.lgamma(j + 1.0))
        total += weight * float(special.gammainc(0.5 * dof + j, 0.5 * x))
    return total


def ball_hit_prob(model: Model, t: float, center, radius: float) -> float:
    """P(|u(t, x) - center| <= radius) for the D-component field at one point."""
    var = model.variance(t)
    lam = sum(c * c for c in center) / var
    return ncx2_cdf(radius * radius / var, model.components, lam)


def riesz_interval_capacity(s: float, length: float) -> float:
    """Riesz s-capacity of an interval, 0 < s < 1.

    The equilibrium s-energy of [-1, 1] is
    sqrt(pi) Gamma(1 + s/2) / (cos(pi s/2) Gamma((1 + s)/2)) and scales by
    (L/2)^(-s) for an interval of length L.
    """
    energy = math.sqrt(math.pi) * math.gamma(1.0 + 0.5 * s) / (
        math.cos(0.5 * math.pi * s) * math.gamma(0.5 * (1.0 + s))
    )
    return 1.0 / (energy * (0.5 * length) ** (-s))


def _floats(value) -> list[float]:
    return [float(v) for v in str(value).replace(";", ",").split(",") if v.strip()]


def _binomial_slack(p: float, n: int) -> float:
    return Z_MC * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _rows(rows: list[Row], experiment: str) -> list[Row]:
    return [r for r in rows if r.experiment == experiment]


def _one(rows: list[Row], experiment: str, problems: list[str]) -> Row | None:
    found = _rows(rows, experiment)
    if len(found) != 1:
        problems.append(f"expected one {experiment} row, got {len(found)}")
        return None
    return found[0]


# -- per-pipeline checkers -------------------------------------------------------


def check_variance_scaling(cfg: dict, rows: list[Row]) -> list[str]:
    model = Model.from_config(cfg)
    factors = _floats(cfg.get("factors", "0.5, 2, 4"))
    found = _rows(rows, "variance-ratio")
    if len(found) != len(factors):
        return [f"expected {len(factors)} variance-ratio rows, got {len(found)}"]
    problems = []
    for c, row in zip(factors, found):
        ref = c**model.time_exponent
        if not abs(row.observed / ref - 1.0) <= 1e-9:
            problems.append(f"variance ratio at c={c:g}: {row.observed!r} vs c^(2H-b) = {ref!r}")
    return problems


def check_metric_equivalence(cfg: dict, rows: list[Row]) -> list[str]:
    problems: list[str] = []
    row = _one(rows, "metric-band", problems)
    # max/min of the metric-to-envelope ratio: at least 1, at most the
    # acceptance band 50 over the model window
    if row is not None and not 1.0 <= row.observed <= 50.0:
        problems.append(f"metric band {row.observed!r} outside [1, 50]")
    return problems


def check_rates(cfg: dict, rows: list[Row]) -> list[str]:
    model = Model.from_config(cfg)
    problems: list[str] = []
    row = _one(rows, "temporal-slope", problems)
    if row is not None and not abs(row.observed - model.nu1) <= 0.02:
        problems.append(f"temporal slope {row.observed!r} vs H-(d-alpha)/4 = {model.nu1!r}")
    if model.critical:
        row = _one(rows, "critical-gauge-residual-ratio", problems)
        if row is not None and not row.observed >= 5.0:
            problems.append(f"critical residual ratio {row.observed!r} below 5")
    else:
        row = _one(rows, "spatial-slope", problems)
        if row is not None and not abs(row.observed - model.nu2) <= 0.03:
            problems.append(f"spatial slope {row.observed!r} vs min(1, 2H-b) = {model.nu2!r}")
    return problems


def check_capacity(cfg: dict, rows: list[Row]) -> list[str]:
    problems: list[str] = []
    row = _one(rows, "capacity", problems)
    if row is None:
        return problems
    s = float(cfg["riesz_beta"])
    ref = riesz_interval_capacity(s, float(cfg["target_hi"]) - float(cfg["target_lo"]))
    # the cell solve sits 0.1 % above the closed form at s=0.3, n_cells=1024
    if not abs(row.observed / ref - 1.0) <= 5e-3:
        problems.append(f"capacity {row.observed!r} vs Riesz closed form {ref!r}")
    return problems


def check_hausdorff(cfg: dict, rows: list[Row]) -> list[str]:
    gamma = float(cfg["gauge_gamma"])
    ref = 2.0**gamma
    found = _rows(rows, "premeasure")
    eps = _floats(cfg["eps"])
    if len(found) != len(eps):
        return [f"expected {len(eps)} premeasure rows, got {len(found)}"]
    return [
        f"premeasure {r.observed!r} not within a factor 2 of 2^gamma = {ref!r}"
        for r in found
        if not ref / 2.0 <= r.observed <= 2.0 * ref
    ]


def check_gauge_check(cfg: dict, rows: list[Row]) -> list[str]:
    problems: list[str] = []
    nu1, nu2 = float(cfg["q1_nu"]), float(cfg["q2_nu"])
    d1, d2, dim = int(cfg.get("d1", 1)), int(cfg.get("d2", 1)), int(cfg["state_dim"])
    exponent = dim - d1 / nu1 - d2 / nu2
    row = _one(rows, "gauge-polar", problems)
    if row is not None and row.observed != (1.0 if exponent > 0.0 else 0.0):
        problems.append(f"polar flag {row.observed!r} vs exponent {exponent!r}")
    if "growth_limit" in cfg:
        ref = 1.0 / (dim * nu1 * nu2 - (d1 * nu2 + d2 * nu1))
        row = _one(rows, "growth-limit", problems)
        if row is not None and not abs(row.observed / ref - 1.0) <= 0.02:
            problems.append(f"growth limit {row.observed!r} vs {ref!r}")
    return problems


def _grid_shape(cfg: dict) -> tuple[int, int]:
    return int(cfg.get("n_times", 16)), int(cfg.get("n_sites", 16))


def check_hit_mc(cfg: dict, rows: list[Row]) -> list[str]:
    model = Model.from_config(cfg)
    problems: list[str] = []
    raw = _one(rows, "hit-raw", problems)
    inflated = _one(rows, "hit-inflated", problems)
    if raw is None or inflated is None:
        return problems
    n = int(cfg["n_samples"])
    center = _floats(cfg["target_center"])
    radius = float(cfg["target_radius"])
    # the grid's first time is t0, where one point alone hits with this law
    p_point = ball_hit_prob(model, model.t0, center, radius)
    slack = _binomial_slack(p_point, n)
    if _grid_shape(cfg) == (1, 1):
        if not abs(raw.observed - p_point) <= slack:
            problems.append(
                f"1x1 hit frequency {raw.observed!r} outside {p_point:.6g} +- {slack:.3g} "
                "(exact noncentral chi^2)"
            )
    elif not raw.observed >= p_point - slack:
        problems.append(f"hit frequency {raw.observed!r} below the one-point bound {p_point:.6g}")
    if not raw.observed <= inflated.observed <= 1.0:
        problems.append(f"inflated frequency {inflated.observed!r} below raw {raw.observed!r}")
    return problems


def check_small_ball(cfg: dict, rows: list[Row]) -> list[str]:
    model = Model.from_config(cfg)
    problems: list[str] = []
    eps = _floats(cfg["eps"])
    freqs = _rows(rows, "small-ball-p")
    if len(freqs) != len(eps):
        return [f"expected {len(eps)} small-ball-p rows, got {len(freqs)}"]
    n = int(cfg["n_samples"])
    center = _floats(cfg["center"])
    for e, row in zip(eps, freqs):
        # any one grid point hitting is a hit; the smallest variance is at t0
        bound = ball_hit_prob(model, model.t0, center, e)
        if not bound - _binomial_slack(bound, n) <= row.observed <= 1.0:
            problems.append(f"frequency {row.observed!r} at eps={e:g} below the chi^2 bound {bound:.6g}")
    if any(a.observed < b.observed for a, b in zip(freqs, freqs[1:])):
        problems.append("frequencies grow as eps shrinks on shared replicates")
    row = _one(rows, "small-ball-slope", problems)
    if row is not None and not model.critical:
        ref = model.power_exponent
        if not abs(row.observed - ref) <= 0.3:
            problems.append(f"small-ball slope {row.observed!r} vs D - 1/nu1 - d/nu2 = {ref!r}")
    return problems


def check_polarity(cfg: dict, rows: list[Row]) -> list[str]:
    model = Model.from_config(cfg)
    problems: list[str] = []
    row = _one(rows, "polar-verdict", problems)
    want = 1.0 if model.power_exponent > 0.0 else 0.0
    if row is not None and row.observed != want:
        problems.append(f"polar verdict {row.observed!r} vs sign of exponent {model.power_exponent!r}")
    found = _rows(rows, "polar-p-inflated")
    if len(found) != len(str(cfg.get("grids", "8x8,16x16,32x32")).split(",")):
        problems.append(f"unexpected polar-p-inflated row count {len(found)}")
    if any(not 0.0 <= r.observed <= 1.0 for r in found):
        problems.append("inflated hit frequency outside [0, 1]")
    if model.power_exponent > 0.0:
        row = _one(rows, "polar-trend-decreasing", problems)
        decreasing = all(a.observed > b.observed for a, b in zip(found, found[1:]))
        if row is not None and row.observed != (1.0 if decreasing else 0.0):
            problems.append(f"trend flag {row.observed!r} disagrees with the inflated frequencies")
    return problems


CHECKERS = {
    "variance-scaling": check_variance_scaling,
    "metric-equivalence": check_metric_equivalence,
    "rates": check_rates,
    "capacity": check_capacity,
    "hausdorff": check_hausdorff,
    "gauge-check": check_gauge_check,
    "hit-mc": check_hit_mc,
    "small-ball": check_small_ball,
    "polarity": check_polarity,
}


def check_output(pipeline: str, cfg: dict, csv_text: str) -> list[str]:
    try:
        rows = parse_csv(csv_text)
    except ValueError as exc:
        return [f"unreadable report: {exc}"]
    return CHECKERS[pipeline](cfg, rows)


def check_variance_constant(model_cfg: dict, variance_direct) -> list[str]:
    """Compare the program's ``variance_direct(t)`` with kappa t^(2H - b)."""
    model = Model.from_config(model_cfg)
    problems = []
    for t in (0.1, 0.25, 1.0):
        got = variance_direct(t)
        ref = model.variance(t)
        if not abs(got / ref - 1.0) <= 1e-12:
            problems.append(f"variance_direct({t}) = {got!r} vs kappa t^(2H-b) = {ref!r} for {model_cfg}")
    return problems
