"""Command-line pipelines: configure a model, run a check, emit a CSV report.

Usage: anisohit <pipeline> --config <file> [--seed S] [--out DIR]

Config files are flat key=value lines with # comments.  Reports land in
<out>/<pipeline>.csv with the header

    experiment,params,observed,reference,tolerance,pass

written atomically (temp file then rename) so failed runs leave nothing
behind.  Exit status: 0 all rows pass, 1 some row fails, 2 configuration
problem, 3 numerical failure.

The environment variable ANISOHIT_THREADS caps BLAS/OpenMP threads; it is
applied before numpy loads, so it must be set when the process starts.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError, NumericalError

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_thread_cap() -> None:
    raw = os.environ.get("ANISOHIT_THREADS")
    if raw is None:
        return
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"ANISOHIT_THREADS must be a positive integer, got {raw!r}")
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


# -- report rows -----------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    params: str
    observed: float
    reference: float
    tolerance: float
    passed: bool


def _close_row(experiment: str, params: str, observed: float, reference: float, tol: float) -> ReportRow:
    ok = math.isfinite(observed) and abs(observed - reference) <= tol
    return ReportRow(experiment, params, observed, reference, tol, ok)


def _bound_row(experiment: str, params: str, observed: float, bound: float) -> ReportRow:
    """Boundedness verdict: passes when observed <= bound."""
    ok = math.isfinite(observed) and observed <= bound
    return ReportRow(experiment, params, observed, bound, 0.0, ok)


def _info_row(experiment: str, params: str, observed: float) -> ReportRow:
    """Reported value with no external reference; never fails by itself."""
    return ReportRow(experiment, params, observed, observed, 0.0, True)


def _flag_row(experiment: str, params: str, flag: bool, expected=None) -> ReportRow:
    """A yes/no verdict written as 1 or 0; passes when it equals ``expected``,
    or is only reported when ``expected`` is None."""
    observed = 1.0 if flag else 0.0
    if expected is None:
        return _info_row(experiment, params, observed)
    return ReportRow(experiment, params, observed, float(expected), 0.0, bool(flag) == bool(expected))


def emit_csv(rows: list[ReportRow], path: Path) -> None:
    if not rows:
        raise ValueError("no rows to write")
    lines = ["experiment,params,observed,reference,tolerance,pass"]
    for r in rows:
        lines.append(
            f"{r.experiment},{r.params},{r.observed:.12g},{r.reference:.12g},"
            f"{r.tolerance:.12g},{'true' if r.passed else 'false'}"
        )
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    os.replace(tmp, path)


# -- config ----------------------------------------------------------------------


class ConfigReader:
    """Typed access to flat key=value config with unknown-key detection."""

    def __init__(self, raw: dict):
        self._raw = raw
        self._seen = set()

    @classmethod
    def load(cls, path: str) -> "ConfigReader":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        raw = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {body!r}")
            key, value = body.split("=", 1)
            key = key.strip()
            if key in raw:
                raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value.strip()
        return cls(raw)

    def _get(self, key: str, default, convert, problem: str = ""):
        """The converted value of ``key``, or ``default`` when it is absent.

        ``problem`` completes the message for a value ``convert`` rejects;
        it may name the value as ``{val}``.
        """
        self._seen.add(key)
        if key not in self._raw:
            if default is _REQUIRED:
                raise ConfigurationError(f"missing required config key {key!r}")
            return default
        val = self._raw[key]
        try:
            return convert(val)
        except ValueError:
            raise ConfigurationError(f"config key {key!r} " + problem.format(val=repr(val))) from None

    def str(self, key: str, default=None) -> str | None:
        return self._get(key, default, str)

    def float(self, key: str, default=None) -> float | None:
        return self._get(key, default, float, "must be a number, got {val}")

    def int(self, key: str, default=None) -> int | None:
        return self._get(key, default, int, "must be an integer, got {val}")

    def floats(self, key: str, default=None) -> list | None:
        out = self._get(key, default, _float_list, "must be a comma list of numbers")
        if out == []:
            raise ConfigurationError(f"config key {key!r} is an empty list")
        return out

    def reject_unknown(self) -> None:
        unknown = set(self._raw) - self._seen
        if unknown:
            raise ConfigurationError(f"unknown config keys: {', '.join(sorted(unknown))}")


_REQUIRED = object()


def _positive(key: str, value: float | None) -> float | None:
    """``value`` of config key ``key``, which must be positive and finite
    when given."""
    if value is not None and not 0.0 < value < math.inf:
        raise ConfigurationError(f"config key {key!r} must be positive and finite, got {value!r}")
    return value


def _finite(key: str, value: float | None, least: float = -math.inf) -> float | None:
    """``value`` of config key ``key``, which must be finite and at least
    ``least`` when given: a tolerance or a reference at inf or NaN makes a
    row that cannot fail, or cannot pass."""
    if value is not None and not (math.isfinite(value) and value >= least):
        floor = "" if least == -math.inf else f" and at least {least:g}"
        raise ConfigurationError(f"config key {key!r} must be finite{floor}, got {value!r}")
    return value


def _flag(key: str, value: int | None) -> int | None:
    """``value`` of config key ``key``, which must be 0 or 1 when given: a
    flag row compares a yes/no verdict with it, so any other number would be
    written as the reference of a row that passes."""
    if value not in (None, 0, 1):
        raise ConfigurationError(f"config key {key!r} must be 0 or 1, got {value!r}")
    return value


def _float_list(text: str) -> list:
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _model_from(cfg: ConfigReader):
    from .heat import HeatModel

    return HeatModel(
        hurst=cfg.float("hurst", _REQUIRED),
        alpha=cfg.float("alpha", 0.0),
        space_dim=cfg.int("space_dim", 1),
        components=cfg.int("components", 1),
        t0=cfg.float("t0", 0.1),
        t1=cfg.float("t1", 1.0),
        box_radius=cfg.float("box_radius", 1.0),
    )


def _gauge_from(cfg: ConfigReader, prefix: str):
    from .gauges import GaugeSpec

    family = cfg.str(f"{prefix}_family", "power")
    nu = cfg.float(f"{prefix}_nu", _REQUIRED)
    if family == "power":
        return GaugeSpec.power(nu)
    if family == "power-log":
        return GaugeSpec.power_log(
            nu,
            cfg.float(f"{prefix}_delta", 0.5),
            cfg.float(f"{prefix}_log_scale", math.e),
            domain_hi=cfg.float(f"{prefix}_domain_hi", math.inf),
        )
    raise ConfigurationError(f"unknown gauge family {family!r} for {prefix}; use power or power-log")


def _target_from(cfg: ConfigReader):
    import numpy as np

    from .potential import Ball, Box, CantorDust, PointSet

    kind = cfg.str("target", _REQUIRED)
    if kind == "interval":
        return Box([cfg.float("target_lo", 0.0)], [cfg.float("target_hi", 1.0)])
    if kind == "box":
        return Box(cfg.floats("target_lo", _REQUIRED), cfg.floats("target_hi", _REQUIRED))
    if kind == "ball":
        return Ball(cfg.floats("target_center", _REQUIRED), cfg.float("target_radius", _REQUIRED))
    if kind == "points":
        text = cfg.str("target_points", _REQUIRED)
        try:
            pts = np.asarray([[float(tok) for tok in row.split()] for row in text.split(";") if row.strip()])
        except ValueError:
            raise ConfigurationError(
                f"target_points must be rows of equally many numbers separated by ';', got {text!r}"
            ) from None
        return PointSet(pts)
    if kind == "cantor":
        return CantorDust(level=cfg.int("target_level", 12), dim=cfg.int("target_dim", 1))
    raise ConfigurationError(f"unknown target kind {kind!r}")


# -- pipelines -------------------------------------------------------------------


def _run_gauge_check(cfg: ConfigReader, seed: int) -> list[ReportRow]:
    from .gauges import GaugeSystem, check_growth, check_monotonicity

    q1 = _gauge_from(cfg, "q1")
    q2 = _gauge_from(cfg, "q2")
    system = GaugeSystem(
        q1=q1,
        q2=q2,
        d1=cfg.int("d1", 1),
        d2=cfg.int("d2", 1),
        state_dim=cfg.int("state_dim", _REQUIRED),
        diam_cap=cfg.float("diam_cap", _REQUIRED),
    )
    grid_size = cfg.int("grid_size", 200)
    expect_increasing = _flag("expect_increasing", cfg.int("expect_increasing", 1))
    limit_ref = _finite("growth_limit", cfg.float("growth_limit", None))
    limit_tol = _finite("growth_limit_rel_tol", cfg.float("growth_limit_rel_tol", 0.02), 0.0)
    cfg.reject_unknown()

    mono = check_monotonicity(system)
    growth = check_growth(system, grid_size=grid_size)
    params = f"e={system.power_exponent:.6g}"
    rows = [
        _flag_row("gauge-monotone", params, mono.increasing_on_some_interval, expect_increasing),
        _flag_row("gauge-polar", params, mono.polar_points),
        _flag_row("growth-finite", params, growth.ok, True),
    ]
    if limit_ref is not None:
        rows.append(
            _close_row(
                "growth-limit",
                f"{params};grid={grid_size}",
                growth.limit_estimate,
                limit_ref,
                limit_tol * abs(limit_ref),
            )
        )
    return rows


def _run_variance_scaling(cfg: ConfigReader, seed: int) -> list[ReportRow]:
    model = _model_from(cfg)
    t_ref = _positive("t_ref", cfg.float("t_ref", 0.25))
    factors = [_positive("factors", c) for c in cfg.floats("factors", [0.5, 2.0, 4.0])]
    rel_tol = _finite("rel_tol", cfg.float("rel_tol", 1e-6), 0.0)
    cfg.reject_unknown()

    base = model.variance_direct(t_ref)
    rows = []
    for c in factors:
        ratio = model.variance_direct(c * t_ref) / base
        ref = c**model.time_exponent
        rows.append(
            _close_row(
                "variance-ratio",
                f"H={model.hurst:g};alpha={model.alpha:g};d={model.space_dim};c={c:g}",
                ratio,
                ref,
                rel_tol * ref,
            )
        )
    return rows


def _run_metric_equivalence(cfg: ConfigReader, seed: int) -> list[ReportRow]:
    import numpy as np

    from .heat import model_gauges, separations

    model = _model_from(cfg)
    n_pairs = cfg.int("n_pairs", 1000)
    if n_pairs < 2:  # one pair's band is 1 whatever the metric
        raise ConfigurationError(f"config key 'n_pairs' must be at least 2, got {n_pairs}")
    band_limit = _finite("band_limit", cfg.float("band_limit", 50.0), 1.0)  # the band is a max/min ratio
    cfg.reject_unknown()

    system = model_gauges(model)
    rng = np.random.default_rng(seed)
    d = model.space_dim
    ts = rng.uniform(model.t0, model.t1, (n_pairs, 2))
    xs = rng.uniform(-model.box_radius, model.box_radius, (n_pairs, 2, d))
    seps = separations(xs[:, 0], xs[:, 1])
    dist = model.metrics(ts[:, 0], ts[:, 1], seps)
    # against the gauge envelope q1(|t - s|)^2 + q2(|x - y|)^2
    g1 = system.q1.value(np.abs(ts[:, 0] - ts[:, 1]))
    g2 = system.q2.value(seps)
    ratios = dist * dist / (g1 * g1 + g2 * g2)
    band = float(ratios.max() / ratios.min())
    params = f"H={model.hurst:g};alpha={model.alpha:g};d={d};n={n_pairs}"
    return [_bound_row("metric-band", params, band, band_limit)]


def _run_rates(cfg: ConfigReader, seed: int) -> list[ReportRow]:
    from .gauges import GaugeSpec
    from .heat import model_gauges, spatial_gauge_residual, spatial_slope, temporal_slope

    model = _model_from(cfg)
    tol_t = _finite("temporal_tol", cfg.float("temporal_tol", 0.02), 0.0)
    tol_x = _finite("spatial_tol", cfg.float("spatial_tol", 0.03), 0.0)
    ratio_min = _positive("residual_ratio_min", cfg.float("residual_ratio_min", 5.0))  # a ratio of RMS residuals
    cfg.reject_unknown()

    params = f"H={model.hurst:g};alpha={model.alpha:g};d={model.space_dim}"
    rows = [
        _close_row(
            "temporal-slope", params, temporal_slope(model).slope, model.temporal_order, tol_t
        )
    ]
    if model.is_critical:
        system = model_gauges(model)
        res_log = spatial_gauge_residual(model, system.q2)
        res_pow = spatial_gauge_residual(model, GaugeSpec.power(model.spatial_order))
        ratio = res_pow / res_log
        rows.append(
            ReportRow(
                "critical-gauge-residual-ratio",
                params,
                ratio,
                ratio_min,
                0.0,
                math.isfinite(ratio) and ratio >= ratio_min,
            )
        )
    else:
        rows.append(
            _close_row(
                "spatial-slope", params, spatial_slope(model).slope, model.spatial_order, tol_x
            )
        )
    return rows


def _run_capacity(cfg: ConfigReader, seed: int) -> list[ReportRow]:
    from .potential import capacity, riesz_kernel

    target = _target_from(cfg)
    beta = cfg.float("riesz_beta", _REQUIRED)
    n_cells = cfg.int("n_cells", 256)
    tol = _positive("tol", cfg.float("tol", 1e-6))
    expect = _positive("expect_capacity", cfg.float("expect_capacity", None))  # a capacity is positive
    expect_rel = _finite("expect_rel_tol", cfg.float("expect_rel_tol", 0.01), 0.0)
    scale = _positive("homogeneity_scale", cfg.float("homogeneity_scale", None))
    cfg.reject_unknown()

    kernel = riesz_kernel(beta, target.dim)
    rep = capacity(kernel, target, n_cells=n_cells, tol=tol)
    params = f"target={cfg.str('target')};beta={beta:g};n_cells={n_cells}"
    rows = [
        _bound_row("fw-gap", params, rep.gap, tol * max(rep.energy, 1e-300)),
    ]
    if expect is not None:
        rows.append(_close_row("capacity", params, rep.capacity, expect, expect_rel * expect))
    else:
        rows.append(_info_row("capacity", params, rep.capacity))
    if scale is not None:
        scaled = _scaled_target(target, scale)
        rep2 = capacity(kernel, scaled, n_cells=max(2, int(round(n_cells * scale))), tol=tol)
        pred = scale**beta * rep.capacity
        rows.append(
            _close_row(
                "capacity-homogeneity", f"{params};r={scale:g}", rep2.capacity, pred, 0.01 * pred
            )
        )
    return rows


def _scaled_target(target, scale: float):
    from .potential import Ball, Box

    if isinstance(target, Box):
        return Box([scale * v for v in target.lo], [scale * v for v in target.hi])
    if isinstance(target, Ball):
        return Ball([scale * v for v in target.center], scale * target.radius)
    raise ConfigurationError("homogeneity_scale supports interval, box, and ball targets")


def _run_hausdorff(cfg: ConfigReader, seed: int) -> list[ReportRow]:
    from .potential import hausdorff_upper

    target = _target_from(cfg)
    gamma = _finite("gauge_gamma", cfg.float("gauge_gamma", _REQUIRED))
    eps = cfg.floats("eps", _REQUIRED)
    ref = _positive("expect_value", cfg.float("expect_value", None))  # so is a premeasure
    factor = _finite("expect_factor", cfg.float("expect_factor", 2.0), 1.0)  # below 1 no value passes
    cfg.reject_unknown()

    estimates = hausdorff_upper(lambda t: t**gamma, target, eps)
    rows = []
    for est in estimates:
        params = f"target={cfg.str('target')};gamma={gamma:g};eps={est.eps:g};count={est.count}"
        if ref is not None:
            ok = ref / factor <= est.value <= ref * factor
            rows.append(ReportRow("premeasure", params, est.value, ref, 0.0, ok))
        else:
            rows.append(_info_row("premeasure", params, est.value))
    return rows


def _grid_from(cfg: ConfigReader, model):
    from .mc import SampleGrid

    return SampleGrid.regular(model, cfg.int("n_times", 16), cfg.int("n_sites", 16))


def _run_hit_mc(cfg: ConfigReader, seed: int) -> list[ReportRow]:
    from .mc import estimate_hit_prob, mesh_inflation

    model = _model_from(cfg)
    grid = _grid_from(cfg, model)
    target = _target_from(cfg)
    n_samples = cfg.int("n_samples", 1000)
    cfg.reject_unknown()

    rho = mesh_inflation(model, grid)
    raw, inflated = estimate_hit_prob(model, grid, target, [0.0, rho], n_samples=n_samples, seed=seed)
    params = (
        f"H={model.hurst:g};D={model.components};grid={len(grid.times)}x"
        f"{grid.n_points // len(grid.times)};n={n_samples};seed={seed}"
    )
    return [
        _info_row("hit-raw", f"{params};ci={raw.ci_lo:.6g}:{raw.ci_hi:.6g}", raw.p_hat),
        _info_row(
            "hit-inflated",
            f"{params};rho={rho:.6g};ci={inflated.ci_lo:.6g}:{inflated.ci_hi:.6g}",
            inflated.p_hat,
        ),
        _bound_row("hit-bracket", params, raw.p_hat, inflated.p_hat),
    ]


def _run_small_ball(cfg: ConfigReader, seed: int) -> list[ReportRow]:
    from .heat import model_gauges
    from .mc import small_ball_slope

    model = _model_from(cfg)
    grid = _grid_from(cfg, model)
    center = cfg.floats("center", [0.0] * model.components)
    eps = cfg.floats("eps", [0.25, 0.125, 0.0625, 0.03125])
    n_samples = cfg.int("n_samples", 10_000)
    slope_tol = _finite("slope_tol", cfg.float("slope_tol", 0.3), 0.0)
    cfg.reject_unknown()

    system = model_gauges(model)
    report = small_ball_slope(model, grid, center, eps, n_samples=n_samples, seed=seed)
    reference = system.power_exponent if not model.is_critical else float("nan")
    params = (
        f"H={model.hurst:g};D={model.components};grid={len(grid.times)}x"
        f"{grid.n_points // len(grid.times)};n={n_samples};seed={seed}"
    )
    rows = [
        _info_row("small-ball-p", f"{params};eps={e:g}", p)
        for e, p in zip(eps, report.p_hat)
    ]
    if model.is_critical:
        rows.append(_info_row("small-ball-slope", params, report.slope))
    else:
        rows.append(_close_row("small-ball-slope", params, report.slope, reference, slope_tol))
    return rows


def _run_polarity(cfg: ConfigReader, seed: int) -> list[ReportRow]:
    from .gauges import check_monotonicity
    from .heat import model_gauges
    from .mc import SampleGrid, estimate_hit_prob, mesh_inflation
    from .potential import PointSet

    model = _model_from(cfg)
    center = cfg.floats("center", [1.5] * model.components)
    shapes_raw = cfg.str("grids", "8x8,16x16,32x32")
    n_samples = cfg.int("n_samples", 2000)
    expect_polar = _flag("expect_polar", cfg.int("expect_polar", None))
    cfg.reject_unknown()

    try:
        shapes = [tuple(int(v) for v in tok.split("x")) for tok in shapes_raw.split(",")]
        if any(len(s) != 2 for s in shapes):
            raise ValueError
    except ValueError:
        raise ConfigurationError(f"grids must look like 8x8,16x16, got {shapes_raw!r}") from None
    if len(shapes) < 2:  # one frequency is a trend that cannot fail
        raise ConfigurationError(f"polarity needs at least two grids for a trend, got {shapes_raw!r}")

    system = model_gauges(model)
    mono = check_monotonicity(system)
    params = f"H={model.hurst:g};D={model.components};n={n_samples};seed={seed}"
    rows = [_flag_row("polar-verdict", params, mono.polar_points, expect_polar)]
    target = PointSet([center])
    for nt, ns in shapes:
        grid = SampleGrid.regular(model, nt, ns)
        rho = mesh_inflation(model, grid)
        [est] = estimate_hit_prob(model, grid, target, [rho], n_samples=n_samples, seed=seed)
        rows.append(_info_row("polar-p-inflated", f"{params};grid={nt}x{ns};rho={rho:.6g}", est.p_hat))
    if mono.polar_points:
        ps = [r.observed for r in rows[1:]]
        decreasing = all(a > b for a, b in zip(ps, ps[1:]))
        rows.append(_flag_row("polar-trend-decreasing", params, decreasing, True))
    return rows


PIPELINES = {
    "gauge-check": (_run_gauge_check, "gauge monotonicity, polarity and growth-integral finiteness"),
    "variance-scaling": (_run_variance_scaling, "pointwise variance follows the exact power law in t"),
    "metric-equivalence": (_run_metric_equivalence, "canonical metric squared vs. gauge envelope, bounded ratio"),
    "rates": (_run_rates, "temporal and spatial increment exponents match the model orders"),
    "capacity": (_run_capacity, "energy-minimization capacity with Frank-Wolfe certificate"),
    "hausdorff": (_run_hausdorff, "dyadic-cover premeasure trajectory"),
    "hit-mc": (_run_hit_mc, "Monte Carlo hitting probability, raw and mesh-inflated"),
    "small-ball": (_run_small_ball, "log-log slope of small-ball hitting frequency"),
    "polarity": (_run_polarity, "point polarity verdict and inflated-estimate trend"),
}


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import argparse

    parser = argparse.ArgumentParser(
        prog="anisohit",
        description="Verification pipelines for the anisotropic hitting laboratory.",
    )
    parser.add_argument("pipeline", choices=PIPELINES)
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed, in [0, 2**64)")
    parser.add_argument("--out", default=".", help="directory for the CSV report")
    args = parser.parse_args(argv)

    try:
        cfg = ConfigReader.load(args.config)
        # read the config seed even when the flag overrides it, so a config
        # carrying one is not rejected as having an unknown key
        seed = cfg.int("seed", 0)
        if args.seed is not None:
            seed = args.seed
        if not 0 <= seed < 2**64:  # Philox keys are uint64
            raise ConfigurationError(f"the seed must lie in [0, 2**64), got {seed}")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        run, blurb = PIPELINES[args.pipeline]
        rows = run(cfg, seed)
        out_path = out_dir / f"{args.pipeline}.csv"
        emit_csv(rows, out_path)
    except (ConfigurationError, OSError, MemoryError) as exc:
        # MemoryError: numpy refuses the arrays a size in the config asks for
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    n_fail = sum(not r.passed for r in rows)
    status = "all passed" if n_fail == 0 else f"{n_fail} of {len(rows)} failed"
    print(f"{args.pipeline}: {blurb} -> {out_path} ({status})")
    return 0 if n_fail == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
