"""Every checker accepts a real output and rejects a perturbed copy of it.

Run with ``python3 -m pytest perfbench``.  The good outputs below are CSVs
the pipelines wrote for the benchmark's configs (seed 7 where seeded).
"""

import math

import pytest

from checks import (
    ball_hit_prob,
    check_output,
    check_variance_constant,
    Model,
    riesz_interval_capacity,
)
from workloads import WORKLOADS

HEADER = "experiment,params,observed,reference,tolerance,pass\n"

GOOD = {
    "small-ball": HEADER
    + "small-ball-p,H=0.9;D=4;grid=64x64;n=10000;seed=7;eps=0.25,0.994,0.994,0,true\n"
    "small-ball-p,H=0.9;D=4;grid=64x64;n=10000;seed=7;eps=0.125,0.7225,0.7225,0,true\n"
    "small-ball-p,H=0.9;D=4;grid=64x64;n=10000;seed=7;eps=0.0625,0.2699,0.2699,0,true\n"
    "small-ball-p,H=0.9;D=4;grid=64x64;n=10000;seed=7;eps=0.03125,0.0649,0.0649,0,true\n"
    "small-ball-slope,H=0.9;D=4;grid=64x64;n=10000;seed=7,1.32314390162,1.46153846154,0.3,true\n",
    "metric-h0.7": HEADER + "metric-band,H=0.7;alpha=0;d=1;n=3000,13.6169068602,50,0,true\n",
    "metric-h0.8-a0.5-d2": HEADER + "metric-band,H=0.8;alpha=0.5;d=2;n=2000,9.09768860998,50,0,true\n",
    "rates-h0.6": HEADER
    + "temporal-slope,H=0.6;alpha=0;d=1,0.349850409059,0.35,0.02,true\n"
    "spatial-slope,H=0.6;alpha=0;d=1,0.691420554168,0.7,0.03,true\n",
    "rates-h0.75": HEADER
    + "temporal-slope,H=0.75;alpha=0;d=1,0.5,0.5,0.02,true\n"
    "critical-gauge-residual-ratio,H=0.75;alpha=0;d=1,6.93174318734,5,0,true\n",
    "variance-scaling": HEADER
    + "variance-ratio,H=0.8;alpha=0.5;d=2;c=0.5,0.554784736034,0.554784736034,5.54784736034e-07,true\n"
    "variance-ratio,H=0.8;alpha=0.5;d=2;c=2,1.80250092522,1.80250092522,1.80250092522e-06,true\n"
    "variance-ratio,H=0.8;alpha=0.5;d=2;c=4,3.24900958542,3.24900958542,3.24900958542e-06,true\n",
    "gauge-check": HEADER
    + "gauge-monotone,e=1,1,1,0,true\n"
    "gauge-polar,e=1,1,1,0,true\n"
    "growth-finite,e=1,1,1,0,true\n"
    "growth-limit,e=1;grid=400,2.00716663579,2,0.04,true\n",
    "capacity": HEADER
    + "fw-gap,target=interval;beta=0.3;n_cells=1024,1.63455244717e-06,1.64839665301e-06,0,true\n"
    "capacity,target=interval;beta=0.3;n_cells=1024,0.606650103406,0.606650103406,0,true\n",
    "hausdorff": HEADER
    + "premeasure,target=cantor;gamma=0.63093;eps=0.037037;count=10,1.73894111558,1.73894111558,0,true\n"
    "premeasure,target=cantor;gamma=0.63093;eps=0.0123457;count=42,1.96674395288,1.96674395288,0,true\n"
    "premeasure,target=cantor;gamma=0.63093;eps=0.00411523;count=42,1.96674395288,1.96674395288,0,true\n"
    "premeasure,target=cantor;gamma=0.63093;eps=0.00137174;count=154,1.94192704888,1.94192704888,0,true\n"
    "premeasure,target=cantor;gamma=0.63093;eps=0.000457247;count=362,1.90354522228,1.90354522228,0,true\n"
    "premeasure,target=cantor;gamma=0.63093;eps=0.000152416;count=362,1.90354522228,1.90354522228,0,true\n",
    "hit-mc-16x16": HEADER
    + "hit-raw,H=0.7;D=2;grid=16x16;n=2000;seed=7;ci=0.998083:1,1,1,0,true\n"
    "hit-inflated,H=0.7;D=2;grid=16x16;n=2000;seed=7;rho=4.44628;ci=0.998083:1,1,1,0,true\n"
    "hit-bracket,H=0.7;D=2;grid=16x16;n=2000;seed=7,1,1,0,true\n",
    "hit-mc-1x1": HEADER
    + "hit-raw,H=0.7;D=2;grid=1x1;n=20000;seed=7;ci=0.155922:0.166108,0.16095,0.16095,0,true\n"
    "hit-inflated,H=0.7;D=2;grid=1x1;n=20000;seed=7;rho=0;ci=0.155922:0.166108,0.16095,0.16095,0,true\n"
    "hit-bracket,H=0.7;D=2;grid=1x1;n=20000;seed=7,0.16095,0.16095,0,true\n",
    "polarity": HEADER
    + "polar-verdict,H=0.9;D=4;n=2000;seed=7,1,1,0,true\n"
    "polar-p-inflated,H=0.9;D=4;n=2000;seed=7;grid=8x8;rho=4.75275,1,1,0,true\n"
    "polar-p-inflated,H=0.9;D=4;n=2000;seed=7;grid=16x16;rho=2.93678,0.913,0.913,0,true\n"
    "polar-p-inflated,H=0.9;D=4;n=2000;seed=7;grid=32x32;rho=1.83987,0.027,0.027,0,true\n"
    "polar-trend-decreasing,H=0.9;D=4;n=2000;seed=7,1,1,0,true\n",
}

OPS = {op.name: op for ops in WORKLOADS.values() for op in ops}


def _check(name, text):
    op = OPS[name]
    return check_output(op.pipeline, op.config, text)


def perturb(text, experiment, change, index=0):
    """Apply ``change`` to the observed value of one row, keeping the rest."""
    lines = text.splitlines(keepends=True)
    seen = 0
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] != experiment:
            continue
        if seen == index:
            fields[2] = repr(change(float(fields[2])))
            lines[i] = ",".join(fields)
            return "".join(lines)
        seen += 1
    raise KeyError(experiment)


def test_every_good_output_passes():
    assert set(GOOD) == set(OPS) - {"rates-h0.7"}
    for name, text in GOOD.items():
        assert _check(name, text) == [], name


def test_failing_rates_row_is_rejected_by_the_independent_check():
    text = HEADER + (
        "temporal-slope,H=0.7;alpha=0;d=1,0.449853081706,0.45,0.02,true\n"
        "spatial-slope,H=0.7;alpha=0;d=1,0.85817185596,0.9,0.03,false\n"
    )
    assert _check("rates-h0.7", text)


PERTURBATIONS = [
    ("variance-scaling", "variance-ratio", lambda v: v * 1.01, 1),
    ("variance-scaling", "variance-ratio", lambda v: v * (1 + 1e-7), 2),
    ("metric-h0.7", "metric-band", lambda v: 60.0, 0),
    ("metric-h0.8-a0.5-d2", "metric-band", lambda v: 0.5, 0),
    ("rates-h0.6", "temporal-slope", lambda v: v + 0.5, 0),
    ("rates-h0.6", "spatial-slope", lambda v: v + 0.5, 0),
    ("rates-h0.6", "spatial-slope", lambda v: v - 0.04, 0),
    ("rates-h0.75", "temporal-slope", lambda v: v - 0.5, 0),
    ("rates-h0.75", "critical-gauge-residual-ratio", lambda v: 4.9, 0),
    ("capacity", "capacity", lambda v: v * 1.02, 0),
    ("capacity", "capacity", lambda v: v * 0.99, 0),
    ("hausdorff", "premeasure", lambda v: v * 2.5, 3),
    ("hausdorff", "premeasure", lambda v: 0.7, 0),
    ("gauge-check", "growth-limit", lambda v: v * 1.03, 0),
    ("gauge-check", "gauge-polar", lambda v: 1.0 - v, 0),
    ("hit-mc-1x1", "hit-raw", lambda v: v + 0.02, 0),
    ("hit-mc-1x1", "hit-raw", lambda v: v - 0.02, 0),
    ("hit-mc-16x16", "hit-raw", lambda v: 0.0, 0),
    ("hit-mc-16x16", "hit-inflated", lambda v: 0.5, 0),
    ("small-ball", "small-ball-slope", lambda v: v + 0.5, 0),
    ("small-ball", "small-ball-slope", lambda v: v - 0.5, 0),
    ("small-ball", "small-ball-p", lambda v: 0.3, 0),
    ("small-ball", "small-ball-p", lambda v: 0.9, 2),
    ("polarity", "polar-verdict", lambda v: 1.0 - v, 0),
    ("polarity", "polar-p-inflated", lambda v: 1.5, 1),
    ("polarity", "polar-trend-decreasing", lambda v: 0.0, 0),
    ("polarity", "polar-p-inflated", lambda v: 0.02, 1),
]


@pytest.mark.parametrize("name,experiment,change,index", PERTURBATIONS)
def test_checker_rejects_perturbed_output(name, experiment, change, index):
    assert _check(name, perturb(GOOD[name], experiment, change, index))


@pytest.mark.parametrize("name", ["hausdorff", "small-ball", "variance-scaling", "polarity"])
def test_checker_rejects_a_missing_row(name):
    lines = GOOD[name].splitlines(keepends=True)
    assert _check(name, "".join(lines[:-1]))


def test_checker_rejects_a_report_without_header():
    assert _check("capacity", GOOD["capacity"].split("\n", 1)[1])


# variance_direct(t) of HeatModel(hurst=0.7), as the program computes it
PROGRAM_VARIANCE = {0.1: 0.042740584200532304, 0.25: 0.09749592450595249, 1.0: 0.3395005279909332}


def test_variance_constant_check():
    cfg = {"hurst": 0.7, "alpha": 0.0, "space_dim": 1}
    assert check_variance_constant(cfg, PROGRAM_VARIANCE.__getitem__) == []
    assert check_variance_constant(cfg, lambda t: 1.01 * PROGRAM_VARIANCE[t])
    assert check_variance_constant(dict(cfg, hurst=0.71), PROGRAM_VARIANCE.__getitem__)


def test_closed_forms_against_frozen_values():
    # scipy.stats.ncx2.cdf(0.04 / v, 2, 0.09 / v) with v the variance at t0
    model = Model(hurst=0.7, components=2)
    assert ball_hit_prob(model, 0.1, [0.3, 0.0], 0.2) == pytest.approx(0.16245815902408867, rel=1e-12)
    # central case: chi^2_4 cdf at 3 is 1 - exp(-3/2)(1 + 3/2)
    unit = Model(hurst=0.7, components=4)
    radius = math.sqrt(3.0 * unit.variance(1.0))
    assert ball_hit_prob(unit, 1.0, [0.0] * 4, radius) == pytest.approx(1.0 - 2.5 * math.exp(-1.5), rel=1e-12)
    # s -> 0: every probability measure has energy 1, so capacity 1
    assert riesz_interval_capacity(1e-12, 1.0) == pytest.approx(1.0, rel=1e-9)
    assert Model(hurst=0.9, components=4).power_exponent == pytest.approx(4.0 - 1.0 / 0.65 - 1.0)
