"""Gauge families, the Lambert branch, and the system-level diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anisohit.errors import ConfigurationError
from anisohit.gauges import (
    GaugeSpec,
    GaugeSystem,
    check_growth,
    check_monotonicity,
    lambert_w_minus1_log,
)

# Oracle values computed once with mpmath at 40 digits (log-space bisection
# for the inverse) and frozen here.
POWERLOG_INV = {
    # q(tau) = tau^0.65 * log(2/tau)^0.5 = y
    0.1: 0.007739868236011444732,
    1e-6: 5.0342528107588616943e-11,
    1e-30: 1.8796472882746740974e-48,
}


# -- Lambert branch ----------------------------------------------------------


def test_lambert_solves_its_defining_equation():
    x = -np.exp(np.linspace(math.log(1e-300), math.log(math.exp(-1.0) * 0.999), 60))
    w = lambert_w_minus1_log(np.log(-x))
    assert np.all(w <= -1.0)
    resid = np.abs(w * np.exp(w) - x) / np.abs(x)
    assert float(resid.max()) < 1e-13


def test_lambert_branch_point_and_domain():
    assert lambert_w_minus1_log(np.log(math.exp(-1.0))) == pytest.approx(-1.0, abs=1e-7)
    with pytest.raises(ConfigurationError):
        lambert_w_minus1_log(np.log(0.5))  # below -1/e
    for bad in (-math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            lambert_w_minus1_log(bad)
    assert isinstance(lambert_w_minus1_log(np.log(0.1)), float)


def test_lambert_log_form_agrees_with_direct_form():
    from scipy import special

    logs = np.linspace(-600.0, -2.0, 40)
    via_log = lambert_w_minus1_log(logs)
    direct = special.lambertw(-np.exp(logs), k=-1).real
    assert np.max(np.abs(via_log - direct)) < 1e-12


# W_{-1}(-exp(L)) just below the branch point L = -1, mpmath at 40 digits
LAMBERT_NEAR_BRANCH = {
    -1.0001: -1.0142088807098002279,
    -1.00000000005: -1.0000100000337470657,
    -1.00000001: -1.0001414280225527595,
    -1.000000000001: -1.0000014142770899067,
    -1.0000000000000002: -1.0000000210734244035,
}


def test_lambert_log_form_is_accurate_near_the_branch_point():
    # forming -exp(L) in linear space would leave 1 + e*x with few digits
    for ell, want in LAMBERT_NEAR_BRANCH.items():
        assert lambert_w_minus1_log(ell) == pytest.approx(want, abs=1e-15)
    assert lambert_w_minus1_log(-1.0) == -1.0


# W_{-1}(-exp(L)) from the branch-point series range to past exp underflow,
# mpmath at 40 digits
LAMBERT_TABLE = {
    -1.002: -1.0645858547990341211,
    -1.005: -1.1033607431118384507,
    -1.01: -1.1481651223793948047,
    -1.05: -1.3504032559772222989,
    -1.5: -2.3576766739458990584,
    -3.0: -4.505241495792883367,
    -30.0: -33.511900618078092872,
    -699.0: -705.55899038279775144,
    -701.0: -707.56182501087391084,
    -1e4: -10009.211261074107278,
}


def test_lambert_log_form_matches_a_frozen_table():
    for ell, want in LAMBERT_TABLE.items():
        assert lambert_w_minus1_log(ell) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_lambert_log_form_survives_deep_underflow():
    # -exp(L) underflows to zero long before L = -1e6; the log-space route
    # must still satisfy log|w| + w = L.
    for ell in (-800.0, -1e4, -1e6):
        w = lambert_w_minus1_log(ell)
        assert w < -700.0
        assert math.isclose(math.log(-w) + w, ell, rel_tol=1e-14)
    with pytest.raises(ConfigurationError):
        lambert_w_minus1_log(-0.5)


# -- gauge families ----------------------------------------------------------


def test_power_gauge_evaluates_and_inverts():
    q = GaugeSpec.power(0.7)
    assert q.value(0.0) == 0.0
    assert q.value(2.0) == pytest.approx(2.0 ** 0.7, rel=1e-15)
    assert math.exp(q._log_derivative(math.log(2.0))) == pytest.approx(0.7 * 2.0 ** -0.3, rel=1e-15)
    assert math.exp(q._log_inverse(math.log(q.value(0.37)))) == pytest.approx(0.37, rel=1e-14)


def test_power_log_gauge_matches_its_formula():
    q = GaugeSpec.power_log(0.65, 0.5, 2.0)
    tau = 0.005
    ref = tau ** 0.65 * math.log(2.0 / tau) ** 0.5
    assert q.value(tau) == pytest.approx(ref, rel=1e-15)
    # derivative by the product rule, as the growth integrand takes it
    ell = math.log(2.0 / tau)
    ref_d = tau ** -0.35 * ell ** -0.5 * (0.65 * ell - 0.5)
    assert math.exp(q._log_derivative(math.log(tau))) == pytest.approx(ref_d, rel=1e-14)


def test_power_log_default_domain_cap():
    q = GaugeSpec.power_log(0.65, 0.5, 2.0)
    assert q.domain_hi == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)
    # delta/nu > 1 pushes the cap further in
    q2 = GaugeSpec.power_log(0.3, 0.9, 5.0)
    assert q2.domain_hi == pytest.approx(5.0 * math.exp(-3.0), rel=1e-15)
    with pytest.raises(ConfigurationError):
        GaugeSpec.power_log(0.65, 0.5, 2.0, domain_hi=1.0)  # beyond the cap


def test_power_log_inverse_against_frozen_roots():
    q = GaugeSpec.power_log(0.65, 0.5, 2.0)
    for y, root in POWERLOG_INV.items():
        assert np.exp(q._log_inverse(np.log(y))) == pytest.approx(root, rel=1e-13)


def test_gauge_spec_validation():
    with pytest.raises(ConfigurationError):
        GaugeSpec("cubic", 1.0)
    with pytest.raises(ConfigurationError):
        GaugeSpec.power(-1.0)
    with pytest.raises(ConfigurationError):
        GaugeSpec("power", 1.0, delta=0.5)
    with pytest.raises(ConfigurationError):
        GaugeSpec.power_log(0.5, 0.0, 2.0)
    with pytest.raises(ConfigurationError):
        GaugeSpec.power_log(0.5, 0.5, -1.0)


def test_gauge_domain_enforcement():
    q = GaugeSpec.power_log(0.65, 0.5, 2.0)
    with pytest.raises(ConfigurationError):
        q.value(q.domain_hi * 1.01)
    with pytest.raises(ConfigurationError):
        q.value(-0.1)


@settings(max_examples=60, deadline=None)
@given(
    nu=st.floats(min_value=0.2, max_value=2.5),
    tau1=st.floats(min_value=1e-8, max_value=0.99),
    tau2=st.floats(min_value=1e-8, max_value=0.99),
)
def test_power_gauge_is_increasing_and_invertible(nu, tau1, tau2):
    q = GaugeSpec.power(nu)
    lo, hi = sorted((tau1, tau2))
    assert q.value(lo) <= q.value(hi)
    assert math.exp(q._log_inverse(math.log(q.value(tau1)))) == pytest.approx(tau1, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    nu=st.floats(min_value=0.3, max_value=1.5),
    delta=st.floats(min_value=0.1, max_value=1.2),
    scale=st.floats(min_value=0.5, max_value=10.0),
    frac=st.floats(min_value=1e-300, max_value=1.0),
)
# the branch point of the lower Lambert branch: one step below it and at it
@example(nu=1.0, delta=1.0, scale=1.0, frac=1.0 - 2.0**-53)
@example(nu=1.0, delta=1.0, scale=1.0, frac=1.0)
# delta > nu pulls domain_hi in to scale * exp(-delta/nu)
@example(nu=1.0, delta=1.0631079902991576, scale=1.0, frac=1.0)
def test_power_log_log_inverse_on_its_domain(nu, delta, scale, frac):
    # The forward residual, not tau itself: where q' vanishes at domain_hi
    # the rounded log y fixes tau only to about the square root of its
    # rounding, but q(tau) stays within it.  The residual alone would also
    # accept the upper branch, so the result must not pass domain_hi.
    q = GaugeSpec.power_log(nu, delta, scale)
    u = float(q._log_value(math.log(frac * q.domain_hi)))
    log_tau = float(q._log_inverse(u))
    assert abs(float(q._log_value(log_tau)) - u) <= 1e-14 * max(1.0, abs(u))
    assert log_tau <= math.log(q.domain_hi) + 1e-12


# -- gauge systems -----------------------------------------------------------


def _power_system(nu1, nu2, d1=1, d2=1, dim=2, cap=1.0) -> GaugeSystem:
    return GaugeSystem(
        q1=GaugeSpec.power(nu1), q2=GaugeSpec.power(nu2),
        d1=d1, d2=d2, state_dim=dim, diam_cap=cap,
    )


def test_power_exponent_arithmetic():
    sys = _power_system(0.5, 1.0, d1=1, d2=1, dim=4)
    assert sys.power_exponent == pytest.approx(4.0 - 2.0 - 1.0, rel=1e-15)


def test_hausdorff_gauge_is_a_pure_power_for_power_systems():
    sys = _power_system(0.5, 0.8, d1=1, d2=2, dim=6, cap=0.9)
    taus = np.array([1e-12, 1e-6, 0.01, 0.5])
    e = sys.power_exponent
    assert np.allclose(sys.hausdorff_gauge(taus), taus ** e, rtol=1e-12)
    with pytest.raises(ConfigurationError):
        sys.hausdorff_gauge(1.5)  # beyond diam_cap
    with pytest.raises(ConfigurationError):
        sys.hausdorff_gauge(0.0)


def _growth(sys, taus):
    """The growth integral v at decreasing gauge values."""
    return np.exp(sys.log_growth_integral(np.log(taus)))


def test_growth_integral_matches_the_two_power_closed_form():
    # For distinct power gauges the integrand reduces to
    # u^(chi - D - 1) / (nu1 nu2) with chi = d1/nu1 + d2/nu2.
    sys = _power_system(0.5, 0.8, d1=1, d2=2, dim=6, cap=0.9)
    chi = 1.0 / 0.5 + 2.0 / 0.8
    gap = 6.0 - chi
    taus = np.array([0.5, 0.1, 1e-3, 1e-6])
    ref = (taus ** -gap - 0.9 ** -gap) / (gap * 0.5 * 0.8)
    np.testing.assert_allclose(_growth(sys, taus), ref, rtol=1e-9, atol=0.0)
    assert list(_growth(sys, [2.0, 0.9])) == [0.0, 0.0]
    for bad in ([-math.inf], [math.nan], np.log([0.1, 0.5]), np.log([0.1, 0.1])):
        with pytest.raises(ConfigurationError):
            sys.log_growth_integral(bad)


def test_growth_integral_matches_the_shared_power_closed_form():
    # Shared gauge: radial form int r^(d - 1 - nu D) dr between the inverse
    # images of tau and the cap.
    nu, d1, d2, dim, cap = 0.6, 1, 2, 7, 0.8
    sys = _power_system(nu, nu, d1=d1, d2=d2, dim=dim, cap=cap)
    d = d1 + d2
    gap = nu * dim - d
    taus = np.array([0.3, 1e-3, 1e-8])
    r_lo, r_hi = taus ** (1 / nu), cap ** (1 / nu)
    ref = (r_lo ** -gap - r_hi ** -gap) / gap
    np.testing.assert_allclose(_growth(sys, taus), ref, rtol=1e-9, atol=0.0)


def test_growth_integral_log_branch_at_the_critical_exponent():
    # D = chi turns the gauge-space integrand into u^-1.
    sys = _power_system(0.5, 1.0, d1=1, d2=1, dim=3, cap=0.7)
    assert sys.power_exponent == pytest.approx(0.0, abs=1e-15)
    taus = np.array([0.01, 1e-5])
    ref = np.log(0.7 / taus) / (0.5 * 1.0)
    np.testing.assert_allclose(_growth(sys, taus), ref, rtol=1e-9, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(
    t1=st.floats(min_value=1e-10, max_value=0.49),
    t2=st.floats(min_value=1e-10, max_value=0.49),
)
def test_growth_integral_is_decreasing(t1, t2):
    sys = _power_system(0.55, 0.9, d1=1, d2=1, dim=5, cap=0.5)
    lo, hi = sorted((t1, t2))
    # two separate integrations, each from the cap down
    assert _growth(sys, [lo])[0] >= _growth(sys, [hi])[0] - 1e-12


def test_monotonicity_of_pure_power_systems():
    polar = check_monotonicity(_power_system(0.5, 1.0, dim=4))
    assert polar.polar_points and math.isinf(polar.increasing_hi)
    assert polar.method == "closed-form"
    flat = check_monotonicity(_power_system(0.5, 1.0, dim=3))
    assert not flat.polar_points and flat.increasing_hi == 0.0
    assert not flat.increasing_on_some_interval


def test_monotonicity_threshold_for_a_shared_log_gauge():
    # q(tau) = tau^0.8 log(4/tau)^0.7 on both axes, d = 2, dim = 5.  The
    # Hausdorff gauge increases until tau* = scale exp(-delta/(nu - d/dim)).
    q = GaugeSpec.power_log(0.8, 0.7, 4.0)
    sys = GaugeSystem(q1=q, q2=q, d1=1, d2=1, state_dim=5, diam_cap=q.range_hi)
    rep = check_monotonicity(sys)
    tau_star = 4.0 * math.exp(-0.7 / (0.8 - 2.0 / 5.0))
    assert rep.method == "closed-form"
    assert rep.increasing_hi == pytest.approx(q.value(tau_star), rel=1e-12)
    # brute force: the Hausdorff gauge really does turn around there
    u = np.log(rep.increasing_hi)
    below = sys._log_hausdorff(np.array([u - 0.2, u - 0.1]))
    above = sys._log_hausdorff(np.array([u + 0.05, u + 0.15]))
    assert below[1] > below[0]
    assert above[1] < above[0]


def test_monotonicity_mixed_and_bisection_agree_with_a_scan():
    mixed = GaugeSystem(
        q1=GaugeSpec.power(0.5),
        q2=GaugeSpec.power_log(1.0, 0.5, math.e * 2.0),
        d1=1, d2=1, state_dim=4, diam_cap=0.5,
    )
    rep = check_monotonicity(mixed)
    assert rep.method == "closed-form"
    assert 0.0 < rep.increasing_hi <= 0.5

    twolog = GaugeSystem(
        q1=GaugeSpec.power_log(0.5, 0.3, 2.0),
        q2=GaugeSpec.power_log(1.0, 0.5, 5.0),
        d1=1, d2=1, state_dim=4, diam_cap=0.4,
    )
    rep2 = check_monotonicity(twolog)
    assert rep2.method == "bisection"

    for system, report in ((mixed, rep), (twolog, rep2)):
        if not 0.0 < report.increasing_hi < system.diam_cap:
            continue
        u = math.log(report.increasing_hi)
        grid = np.linspace(u - 0.3, u + 0.3, 200)
        vals = system._log_hausdorff(grid)
        turn = grid[int(np.argmax(vals))]
        assert abs(turn - u) < 0.02


def test_growth_report_reaches_the_power_limit():
    # Shared power gauge: v(tau) g(tau) -> 1/(nu D - d) as tau -> 0.
    nu, dim, cap = 0.6, 7, 0.8
    sys = _power_system(nu, nu, d1=1, d2=2, dim=dim, cap=cap)
    rep = check_growth(sys, grid_size=120)
    assert rep.ok
    assert abs(rep.tail_slope) < 0.05
    limit = 1.0 / (nu * dim - 3.0)
    assert rep.limit_estimate == pytest.approx(limit, rel=1e-6)


def test_growth_report_rejects_a_non_polar_system():
    rep = check_growth(_power_system(0.5, 1.0, dim=3), grid_size=64)
    assert not rep.ok
    assert not rep.monotonicity.polar_points
    with pytest.raises(ConfigurationError):
        check_growth(_power_system(0.5, 1.0, dim=4), grid_size=4)


def test_system_validation():
    with pytest.raises(ConfigurationError):
        _power_system(0.5, 1.0, dim=0)
    with pytest.raises(ConfigurationError):
        _power_system(0.5, 1.0, cap=-1.0)
    q = GaugeSpec.power_log(0.65, 0.5, 2.0)
    with pytest.raises(ConfigurationError):
        # diam_cap above the log gauge's range
        GaugeSystem(q1=GaugeSpec.power(0.5), q2=q, d1=1, d2=1, state_dim=3,
                    diam_cap=q.range_hi * 2.0)
