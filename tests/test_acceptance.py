"""Acceptance criteria, one test per criterion with its stated tolerance.

Each criterion prints a single verdict line (visible with -s or -rA); the
pytest PASSED/FAILED status is the authoritative pass/fail signal.  The
Monte Carlo criteria run through the command-line pipelines so that the
determinism criterion can compare the very artifacts users would produce:
each config runs as two ``python -m anisohit.cli`` processes at the same
time, one BLAS thread each.
"""

import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import anisohit
from anisohit.gauges import (
    GaugeSpec,
    GaugeSystem,
    check_growth,
    check_monotonicity,
    lambert_w_minus1_log,
)
from anisohit.heat import (
    HeatModel,
    model_gauges,
    spatial_gauge_residual,
    spatial_slope,
    temporal_slope,
)
from anisohit.mc import SampleGrid, estimate_hit_prob, mesh_inflation
from anisohit.potential import (
    Ball,
    Box,
    CantorDust,
    PointSet,
    _unit_pair_seps,
    capacity,
    hausdorff_upper,
    riesz_kernel,
)

CANTOR_DIM = math.log(2.0) / math.log(3.0)

SMALL_BALL_CFG = """\
hurst = 0.9
components = 4
n_times = 64
n_sites = 64
center = 0, 0, 0, 0
eps = 0.25, 0.125, 0.0625, 0.03125
n_samples = 10000
seed = 42
slope_tol = 0.3
"""

POLARITY_CFG = """\
hurst = 0.9
components = 4
center = 1.5, 1.5, 1.5, 1.5
grids = 8x8,16x16,32x32
n_samples = 2000
seed = 9
expect_polar = 1
"""


def _verdict(num: int, label: str, started: float) -> None:
    print(f"criterion {num} ({label}): PASS in {time.monotonic() - started:.1f}s")


def _parse_csv(data: bytes) -> list[tuple]:
    rows = []
    for line in data.decode().splitlines()[1:]:
        exp, params, obs, ref, tol, ok = line.split(",")
        rows.append((exp, params, float(obs), float(ref), float(tol), ok == "true"))
    return rows


def _timed_run(cmd: list, env: dict):
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=900)
    return proc, time.monotonic() - started


def _run_pipeline_twice(tmp_path_factory, pipeline: str, cfg_text: str):
    """Both CSVs of two concurrent CLI runs of one config, and the slower
    run's wall time in seconds."""
    root = tmp_path_factory.mktemp(pipeline)
    cfg = root / "run.cfg"
    cfg.write_text(cfg_text)
    src = str(Path(anisohit.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        ANISOHIT_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    outs = [root / sub for sub in ("a", "b")]
    cmd = [sys.executable, "-m", "anisohit.cli", pipeline, "--config", str(cfg), "--out"]
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = [f.result() for f in [pool.submit(_timed_run, cmd + [str(out)], env) for out in outs]]
    for proc, _ in runs:
        assert proc.returncode == 0, f"{pipeline} pipeline exited {proc.returncode}: {proc.stderr}"
    return [(out / f"{pipeline}.csv").read_bytes() for out in outs], max(t for _, t in runs)


@pytest.fixture(scope="module")
def small_ball_runs(tmp_path_factory):
    return _run_pipeline_twice(tmp_path_factory, "small-ball", SMALL_BALL_CFG)


@pytest.fixture(scope="module")
def polarity_runs(tmp_path_factory):
    return _run_pipeline_twice(tmp_path_factory, "polarity", POLARITY_CFG)


def test_criterion_01_variance_scaling():
    started = time.monotonic()
    for hurst in (0.6, 0.75, 0.9):
        m = HeatModel(hurst=hurst, space_dim=1, alpha=0.0)
        t_ref = 0.25
        base = m.variance_direct(t_ref)
        for c in (0.5, 2.0, 4.0):
            ratio = m.variance_direct(c * t_ref) / base
            want = c ** (2.0 * hurst - 0.5)
            assert ratio == pytest.approx(want, rel=1e-6), f"H={hurst}, c={c}"
    assert time.monotonic() - started < 5.0
    _verdict(1, "variance scaling, rel 1e-6", started)


def test_criterion_02_temporal_rate():
    started = time.monotonic()
    for hurst in (0.6, 0.75, 0.9):
        m = HeatModel(hurst=hurst, space_dim=1, alpha=0.0)
        fit = temporal_slope(m)  # lags 2^-4 .. 2^-14 at a fixed site
        want = hurst - 0.25
        assert abs(fit.slope - want) <= 0.02, f"H={hurst}: slope {fit.slope} vs {want}"
    assert time.monotonic() - started < 30.0
    _verdict(2, "temporal metric exponent, +-0.02", started)


def test_criterion_03_spatial_rate_and_critical_log():
    started = time.monotonic()
    for hurst in (0.6, 0.9):
        m = HeatModel(hurst=hurst, space_dim=1, alpha=0.0)
        fit = spatial_slope(m)  # separations 1e-4 .. 1e-1
        want = min(1.0, 2.0 * hurst - 0.5)
        assert abs(fit.slope - want) <= 0.03, f"H={hurst}: slope {fit.slope} vs {want}"
    critical = HeatModel(hurst=0.75, space_dim=1, alpha=0.0)
    system = model_gauges(critical)
    res_log = spatial_gauge_residual(critical, system.q2)
    res_pow = spatial_gauge_residual(critical, GaugeSpec.power(1.0))
    assert res_pow / res_log >= 5.0, f"discrimination ratio {res_pow / res_log}"
    assert time.monotonic() - started < 60.0
    _verdict(3, "spatial exponent +-0.03, critical log 5x", started)


def test_criterion_04_metric_envelope_band():
    started = time.monotonic()
    for hurst in (0.6, 0.75, 0.9):
        m = HeatModel(hurst=hurst, space_dim=1, alpha=0.0)
        system = model_gauges(m)
        rng = np.random.default_rng(0)
        ts = rng.uniform(m.t0, m.t1, (1000, 2))
        xs = rng.uniform(-m.box_radius, m.box_radius, (1000, 2))
        ratios = np.empty(1000)
        for i in range(1000):
            dist = m.metric(ts[i, 0], [xs[i, 0]], ts[i, 1], [xs[i, 1]])
            dt, dx = abs(ts[i, 0] - ts[i, 1]), abs(xs[i, 0] - xs[i, 1])
            delta = system.q1.value(dt) ** 2 + system.q2.value(dx) ** 2
            ratios[i] = dist * dist / delta
        band = float(ratios.max() / ratios.min())
        assert band <= 50.0, f"H={hurst}: band {band}"
    assert time.monotonic() - started < 120.0
    _verdict(4, "metric vs envelope band <= 50", started)


def test_criterion_05_lambert_branch():
    started = time.monotonic()
    x = -np.exp(np.linspace(math.log(1e-300), math.log(math.exp(-1.0) * (1.0 - 1e-12)), 1000))
    w = lambert_w_minus1_log(np.log(-x))
    assert np.all(np.abs(w * np.exp(w) - x) <= 1e-12 * np.abs(x))
    # two-sided elementary sandwich for the branch at -exp(-z-1)
    z = np.logspace(-3.0, 3.0, 1000)
    wz = lambert_w_minus1_log(-z - 1.0)
    lo = -1.0 - np.sqrt(2.0 * z) - z
    hi = -1.0 - np.sqrt(2.0 * z) - (2.0 / 3.0) * z
    assert np.all(wz > lo) and np.all(wz < hi)
    assert time.monotonic() - started < 1.0
    _verdict(5, "lambert residual 1e-12 and sandwich", started)


def test_criterion_06_growth_closed_forms_and_critical_limit():
    started = time.monotonic()
    # distinct powers: closed form via the exponent chi = d1/nu1 + d2/nu2
    system = GaugeSystem(
        q1=GaugeSpec.power(0.75), q2=GaugeSpec.power(0.5), d1=1, d2=2, state_dim=6, diam_cap=0.5
    )
    chi = 1.0 / 0.75 + 2.0 / 0.5
    expo = 6.0 - chi
    cap = system.diam_cap
    taus = np.logspace(math.log10(cap * 1e-6), math.log10(cap * 0.99), 100)[::-1]  # decreasing
    want = (taus**-expo - cap**-expo) / (expo * 0.75 * 0.5)
    assert np.exp(system.log_growth_integral(np.log(taus))) == pytest.approx(want, rel=1e-8)
    # critical balance state_dim == chi: the integral turns logarithmic.
    # A shared gauge takes the radial form, log(cap/tau)/nu; distinct
    # gauges take the gauge-space form, log(cap/tau)/(nu1*nu2).
    shared = GaugeSystem(
        q1=GaugeSpec.power(0.5), q2=GaugeSpec.power(0.5), d1=1, d2=1, state_dim=4, diam_cap=0.5
    )
    distinct = GaugeSystem(
        q1=GaugeSpec.power(0.5), q2=GaugeSpec.power(0.25), d1=1, d2=1, state_dim=6, diam_cap=0.5
    )
    want = np.log(cap / taus) / 0.5
    assert np.exp(shared.log_growth_integral(np.log(taus))) == pytest.approx(want, rel=1e-8)
    want = np.log(cap / taus) / 0.125
    assert np.exp(distinct.log_growth_integral(np.log(taus))) == pytest.approx(want, rel=1e-8)
    # log-corrected spatial gauge of the critical field model
    system = model_gauges(HeatModel(hurst=0.75, space_dim=1, alpha=0.0, components=4))
    nu1, nu2 = system.q1.nu, system.q2.nu
    ref = 1.0 / (system.state_dim * nu1 * nu2 - (system.d1 * nu2 + system.d2 * nu1))
    got = check_growth(system, grid_size=400).limit_estimate
    assert abs(got / ref - 1.0) <= 0.02, f"limit {got} vs {ref}"
    assert time.monotonic() - started < 10.0
    _verdict(6, "growth integral closed forms, critical limit 2%", started)


def test_criterion_07_capacity_properties():
    started = time.monotonic()
    cp = pytest.importorskip("cvxpy")

    # homogeneity within 1%
    kernel = riesz_kernel(0.5, 2)
    small = capacity(kernel, Ball(center=(0.0, 0.0), radius=0.5), n_cells=256, tol=1e-8)
    large = capacity(kernel, Ball(center=(0.0, 0.0), radius=1.0), n_cells=256, tol=1e-8)
    assert large.capacity / small.capacity == pytest.approx(2.0**0.5, rel=0.01)

    # nesting, exact up to the solver gap
    k1 = riesz_kernel(0.3, 1)
    inner = capacity(k1, Box(lo=(0.25,), hi=(0.75,)), n_cells=128, tol=1e-6)
    outer = capacity(k1, Box(lo=(0.0,), hi=(1.0,)), n_cells=128, tol=1e-6)
    slack = inner.gap / inner.energy**2 + outer.gap / outer.energy**2
    assert inner.capacity <= outer.capacity + slack

    # points: capacity 0 under singular kernels, 1 under the constant kernel
    pts = PointSet(points=np.array([[0.3], [0.7]]))
    assert capacity(riesz_kernel(0.5, 1), pts, n_cells=4, tol=1e-6).capacity == 0.0
    assert capacity(riesz_kernel(0.0, 1), pts, n_cells=4, tol=1e-6).capacity == pytest.approx(1.0, rel=1e-9)

    # small instances against an independent convex solver, within the gap
    for kernel, target in (
        (riesz_kernel(0.4, 1), Box(lo=(0.0,), hi=(1.0,))),
        (riesz_kernel(0.6, 2), Ball(center=(0.0, 0.0), radius=0.7)),
        (riesz_kernel(0.5, 2), Box(lo=(0.0, 0.0), hi=(1.0, 1.0))),
    ):
        report = capacity(kernel, target, n_cells=32, tol=1e-8)
        centers, width = target.cells(32)
        diffs = centers[:, None, :] - centers[None, :, :]
        dists = np.sqrt(np.sum(diffs * diffs, axis=2))
        K = np.asarray(kernel.radial_profile(dists), dtype=float)
        np.fill_diagonal(K, float(np.mean(kernel.radial_profile(width * _unit_pair_seps(target.dim)))))
        mu = cp.Variable(K.shape[0], nonneg=True)
        prob = cp.Problem(cp.Minimize(cp.quad_form(mu, cp.psd_wrap(K))), [cp.sum(mu) == 1])
        prob.solve()
        assert report.energy == pytest.approx(
            float(prob.value), abs=report.gap + 1e-7 * report.energy
        ), f"{kernel.name} on {type(target).__name__}"
    assert time.monotonic() - started < 60.0
    _verdict(7, "capacity homogeneity, nesting, points, solver oracle", started)


def test_criterion_08_hausdorff_estimator():
    started = time.monotonic()
    dust = CantorDust(level=14)
    ladder = [3.0**-k for k in range(3, 9)]
    ref = 2.0**CANTOR_DIM
    for est in hausdorff_upper(lambda d: d**CANTOR_DIM, dust, ladder):
        assert ref / 2.0 <= est.value <= ref * 2.0, f"eps={est.eps}: value {est.value}"
    pts = PointSet(points=np.array([[0.1], [0.5], [0.9]]))
    values = [e.value for e in hausdorff_upper(lambda d: d**0.5, pts, [2.0**-k for k in range(2, 17)])]
    assert values[-1] < 0.05 * values[0] and values[-1] < 0.05
    assert time.monotonic() - started < 10.0
    _verdict(8, "cantor premeasure factor 2, points to zero", started)


def test_criterion_09_small_ball_slope(small_ball_runs):
    outputs, elapsed = small_ball_runs
    started = time.monotonic()
    rows = _parse_csv(outputs[0])
    assert all(r[5] for r in rows), f"failing rows: {[r for r in rows if not r[5]]}"
    slope_rows = [r for r in rows if r[0] == "small-ball-slope"]
    assert len(slope_rows) == 1
    model = HeatModel(hurst=0.9, space_dim=1, alpha=0.0, components=4)
    ref = model_gauges(model).power_exponent  # about 1.4615
    assert abs(slope_rows[0][2] - ref) <= 0.3
    p_rows = [r[2] for r in rows if r[0] == "small-ball-p"]
    assert all(a >= b for a, b in zip(p_rows, p_rows[1:]))  # shared replicates
    # raw and inflated estimates bracket consistently on a shared sample
    grid = SampleGrid.regular(model, 8, 8)
    ball = Ball(center=(0.0,) * 4, radius=0.5)
    raw, inflated = estimate_hit_prob(model, grid, ball, [0.0, mesh_inflation(model, grid)], n_samples=500, seed=42)
    assert raw.p_hat <= inflated.p_hat
    assert elapsed + (time.monotonic() - started) < 900.0
    _verdict(9, f"small-ball slope {slope_rows[0][2]:.3f} within 0.3 of {ref:.4f}", started)


def test_criterion_10_polarity(polarity_runs):
    outputs, elapsed = polarity_runs
    started = time.monotonic()
    rows = _parse_csv(outputs[0])
    assert all(r[5] for r in rows), f"failing rows: {[r for r in rows if not r[5]]}"
    verdict = [r for r in rows if r[0] == "polar-verdict"]
    trend = [r for r in rows if r[0] == "polar-trend-decreasing"]
    assert verdict[0][2] == 1.0  # the hausdorff gauge vanishes at 0
    assert len(trend) == 1 and trend[0][2] == 1.0
    ps = [r[2] for r in rows if r[0] == "polar-p-inflated"]
    assert len(ps) == 3 and all(a > b for a, b in zip(ps, ps[1:]))
    # a power configuration with nonpositive exponent is reported non-polar
    flat = GaugeSystem(
        q1=GaugeSpec.power(0.35), q2=GaugeSpec.power(0.7), d1=1, d2=1, state_dim=2, diam_cap=1.0
    )
    assert flat.power_exponent <= 0.0
    assert not check_monotonicity(flat).polar_points
    assert elapsed + (time.monotonic() - started) < 600.0
    _verdict(10, f"polar trend {ps} decreasing, flat gauge non-polar", started)


def test_criterion_11_determinism(small_ball_runs, polarity_runs):
    started = time.monotonic()
    sb, _ = small_ball_runs
    pol, _ = polarity_runs
    assert sb[0] == sb[1], "small-ball CSV differs between identical runs"
    assert pol[0] == pol[1], "polarity CSV differs between identical runs"
    _verdict(11, "identical seeds byte-reproduce both CSVs", started)
