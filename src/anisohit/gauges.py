"""Distortion gauges and the capacity/measure calculus built on them.

A gauge is a strictly increasing function q with q(0) = 0 that measures
distances after an anisotropic distortion.  Two parametric families cover
everything this package needs: pure powers ``tau**nu`` and log-corrected
powers ``tau**nu * log(scale/tau)**delta``.  A :class:`GaugeSystem` couples
a temporal and a spatial gauge with their dimension counts and exposes the
derived objects that drive hitting estimates: the Hausdorff gauge, the
growth integral, monotonicity and polarity verdicts.

Everything here is deliberately evaluated in log space where it matters.
The growth diagnostics walk the gauge argument down to ``2**-400`` of the
window size, far past where the linear-scale quantities underflow, while
their product stays of order one.  A gauge is inverted in log space only
(``GaugeSpec._log_inverse``, log y to log tau): the Hausdorff gauge, the
growth integrals and the monotonicity bisection all read that one inverse.
For the log-corrected family it goes through the lower Lambert branch,
solved the same way, with numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _quad
from .errors import ConfigurationError

POWER = "power"
POWER_LOG = "power-log"

_SLACK = 1e-12
_PANELS_PER_UNIT = 6.0  # Gauss panels per unit of log scale in growth integrals


def lambert_w_minus1_log(log_abs_x):
    """W_{-1}(-exp(log_abs_x)) for log_abs_x <= -1, safe against underflow.

    The lower real branch of the Lambert W function, with its argument x
    given through ``log|x|`` so that values of x far below the floating
    point range still invert, and so that near the branch point x = -1/e
    the quantity 1 + e*x = -expm1(1 + log|x|) keeps all its digits.  Newton
    steps solve ``log1p(-u) + u = m`` in u = 1 + w with m = 1 + log|x|, the
    relation ``log(-w) + w = log|x|`` written without cancellation.  The
    start value is the branch-point series in p = -sqrt(2 (1 + e*x)) for
    m > -2 and the asymptotic form -L - log L - log(L)/L with L = -log|x|
    beyond.  Accepts scalars or arrays.

    This is the only lower-branch solver; ``GaugeSpec._log_inverse`` calls
    it for every power-log gauge.  Near the branch point W_{-1} amplifies
    an error in m by about 1/sqrt(|m|), so a caller that forms log|x| from
    logs of order one passes on their absolute rounding of about 1e-16.
    """
    arr = np.atleast_1d(np.asarray(log_abs_x, dtype=float))
    if not np.all(np.isfinite(arr) & (arr <= -1.0 + 1e-9)):
        raise ConfigurationError("log-space Lambert argument must be finite and <= -1")
    m = np.minimum(arr + 1.0, 0.0)
    p = -np.sqrt(-2.0 * np.expm1(m))
    series = p * (1.0 + p * (-1.0 / 3 + p * (11.0 / 72 + p * (-43.0 / 540 + p * (769.0 / 17280 - p * 221.0 / 8505)))))
    log_l = np.log(-arr)
    u = np.where(m > -2.0, series, 1.0 + arr - log_l + log_l / arr)
    for _ in range(5):
        resid = np.log1p(-u) + u - m
        slope = -u / (1.0 - u)
        u = u - np.where(u < 0.0, resid / np.where(u < 0.0, slope, 1.0), 0.0)
    w = u - 1.0
    return float(w[0]) if np.asarray(log_abs_x).ndim == 0 else w


@dataclass(frozen=True)
class GaugeSpec:
    """One member of the supported gauge families.

    ``power`` gauges are ``tau**nu`` on (0, inf).  ``power-log`` gauges are
    ``tau**nu * log(log_scale/tau)**delta`` and are only used on an interval
    where the log argument stays above e and the gauge is increasing;
    ``domain_hi`` records the right end of that interval and defaults to
    the largest admissible value ``log_scale * exp(-max(1, delta/nu))``.
    """

    family: str
    nu: float
    delta: float = 0.0
    log_scale: float = 0.0
    domain_hi: float = math.inf

    def __post_init__(self) -> None:
        if self.family not in (POWER, POWER_LOG):
            raise ConfigurationError(f"unknown gauge family {self.family!r}")
        if not (np.isfinite(self.nu) and self.nu > 0.0):
            raise ConfigurationError("gauge exponent nu must be positive")
        if self.family == POWER:
            if self.delta != 0.0:
                raise ConfigurationError("power gauges take delta = 0")
            if not self.domain_hi > 0.0:
                raise ConfigurationError("domain_hi must be positive")
            return
        if not self.delta > 0.0:
            raise ConfigurationError("power-log gauges need delta > 0")
        if not (np.isfinite(self.log_scale) and self.log_scale > 0.0):
            raise ConfigurationError("power-log gauges need a positive log_scale")
        cap = self.log_scale * math.exp(-max(1.0, self.delta / self.nu))
        if math.isinf(self.domain_hi):
            object.__setattr__(self, "domain_hi", cap)
        elif not 0.0 < self.domain_hi <= cap * (1.0 + _SLACK):
            raise ConfigurationError(
                f"domain_hi must lie in (0, {cap:.6g}] for these power-log parameters"
            )

    @classmethod
    def power(cls, nu: float) -> "GaugeSpec":
        return cls(POWER, float(nu))

    @classmethod
    def power_log(
        cls, nu: float, delta: float, log_scale: float, domain_hi: float = math.inf
    ) -> "GaugeSpec":
        return cls(POWER_LOG, float(nu), float(delta), float(log_scale), float(domain_hi))

    @property
    def is_log(self) -> bool:
        return self.family == POWER_LOG

    @property
    def range_hi(self) -> float:
        """Largest gauge value, q(domain_hi)."""
        if math.isinf(self.domain_hi):
            return math.inf
        return float(self._value_array(np.asarray([self.domain_hi]))[0])

    # -- evaluation ---------------------------------------------------------

    def value(self, tau):
        """q(tau) for tau in [0, domain_hi]."""
        t, scalar = _as_array(tau)
        self._check_domain(t)
        out = self._value_array(t)
        return _unwrap(out, scalar)

    # -- log-space internals (no domain checks; inputs assumed valid) -------

    def _value_array(self, t: np.ndarray) -> np.ndarray:
        if self.family == POWER:
            return t**self.nu
        out = np.zeros_like(t)
        pos = t > 0.0
        ell = np.log(self.log_scale / t[pos])
        out[pos] = t[pos] ** self.nu * ell**self.delta
        return out

    def _log_value(self, log_tau):
        if self.family == POWER:
            return self.nu * log_tau
        ell = math.log(self.log_scale) - log_tau
        return self.nu * log_tau + self.delta * np.log(ell)

    def _log_derivative(self, log_tau):
        if self.family == POWER:
            return math.log(self.nu) + (self.nu - 1.0) * log_tau
        ell = math.log(self.log_scale) - log_tau
        slope = np.maximum(self.nu * ell - self.delta, 0.0)
        with np.errstate(divide="ignore"):
            return (self.nu - 1.0) * log_tau + (self.delta - 1.0) * np.log(ell) + np.log(slope)

    def _log_inverse(self, log_y):
        if self.family == POWER:
            return np.asarray(log_y, dtype=float) / self.nu
        ratio = self.nu / self.delta
        log_c = math.log(self.log_scale)
        log_abs = math.log(ratio) - ratio * log_c + np.asarray(log_y, dtype=float) / self.delta
        w = lambert_w_minus1_log(np.minimum(log_abs, -1.0))
        return log_c + w / ratio

    def _check_domain(self, t: np.ndarray) -> None:
        if not np.all(t >= 0.0):
            raise ConfigurationError("gauge argument must be nonnegative")
        if np.isfinite(self.domain_hi) and np.any(t > self.domain_hi * (1.0 + _SLACK)):
            raise ConfigurationError(
                f"gauge argument exceeds domain_hi = {self.domain_hi:.6g}"
            )


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr).astype(float), arr.ndim == 0


def _unwrap(arr: np.ndarray, scalar: bool):
    return float(arr[0]) if scalar else arr


@dataclass(frozen=True)
class GaugeSystem:
    """A temporal gauge and a spatial gauge with their dimension counts.

    ``d1`` copies of the first coordinate and ``d2`` of the second feed a
    field with ``state_dim`` independent components; ``diam_cap`` is the
    window diameter measured in gauge values, i.e. ``max(q1(diam_t),
    q2(diam_x))``, and caps every derived quantity.
    """

    q1: GaugeSpec
    q2: GaugeSpec
    d1: int
    d2: int
    state_dim: int
    diam_cap: float

    def __post_init__(self) -> None:
        if min(self.d1, self.d2) < 1 or self.state_dim < 1:
            raise ConfigurationError("dimension counts must be positive integers")
        if not (np.isfinite(self.diam_cap) and self.diam_cap > 0.0):
            raise ConfigurationError("diam_cap must be positive and finite")
        for q in (self.q1, self.q2):
            if self.diam_cap > q.range_hi * (1.0 + 1e-9):
                raise ConfigurationError(
                    "diam_cap exceeds a gauge range; shrink the window or "
                    "enlarge the gauge domain"
                )

    @property
    def is_single(self) -> bool:
        return self.q1 == self.q2

    @property
    def power_exponent(self) -> float:
        """Exponent of the pure-power part of the Hausdorff gauge near 0."""
        return self.state_dim - self.d1 / self.q1.nu - self.d2 / self.q2.nu

    # -- Hausdorff gauge ----------------------------------------------------

    def hausdorff_gauge(self, tau):
        """tau**state_dim / (q1^{-1}(tau)**d1 * q2^{-1}(tau)**d2)."""
        t, scalar = _as_array(tau)
        if np.any(t <= 0.0) or np.any(t > self.diam_cap * (1.0 + _SLACK)):
            raise ConfigurationError("gauge value must lie in (0, diam_cap]")
        out = np.exp(self._log_hausdorff(np.log(t)))
        return _unwrap(out, scalar)

    def _log_hausdorff(self, log_tau):
        u = np.asarray(log_tau, dtype=float)
        return (
            self.state_dim * u
            - self.d1 * self.q1._log_inverse(u)
            - self.d2 * self.q2._log_inverse(u)
        )

    # -- growth integral ----------------------------------------------------

    def log_growth_integral(self, log_taus) -> np.ndarray:
        """log v(tau) of the truncated potential-growth integral v at gauge
        values tau = exp(log_taus), given in decreasing order.

        For a shared gauge v is the radial form
        ``int_{q^{-1}(tau)}^{q^{-1}(cap)} q(r)^{-state_dim} r^{d-1} dr``;
        for distinct gauges it is the gauge-space form whose integrand
        involves both inverses and both derivatives.  Either way the
        integration runs in log scale, one segment between consecutive
        gauge values, and the segments accumulate from the cap down.  A tau
        at or above diam_cap has v = 0, so log v = -inf.
        """
        u = np.asarray(log_taus, dtype=float)
        if not (np.all(np.isfinite(u)) and np.all(np.diff(u) < 0.0)):
            raise ConfigurationError("growth integral needs finite, decreasing log gauge values")
        u_cap = math.log(self.diam_cap)
        edges = np.minimum(np.concatenate([[u_cap], u]), u_cap)
        if self.is_single:
            edges = np.asarray(self.q1._log_inverse(edges), dtype=float)
        segments = [self._log_growth_segment(lo, hi) for hi, lo in zip(edges[:-1], edges[1:])]
        return np.logaddexp.accumulate(segments)

    def _log_growth_integrand(self, u: np.ndarray) -> np.ndarray:
        """log of the growth integrand including the log-scale Jacobian."""
        if self.is_single:
            d = self.d1 + self.d2
            return -self.state_dim * self.q1._log_value(u) + d * u
        li1 = self.q1._log_inverse(u)
        li2 = self.q2._log_inverse(u)
        return (
            -(self.state_dim - 1.0) * u
            + (self.d1 - 1.0) * li1
            + (self.d2 - 1.0) * li2
            - self.q1._log_derivative(li1)
            - self.q2._log_derivative(li2)
            + u
        )

    def _log_growth_segment(self, u_lo: float, u_hi: float) -> float:
        """log of the growth integral over [exp(u_lo), exp(u_hi)]."""
        if not u_hi > u_lo:
            return -math.inf
        n_panels = max(2, int(math.ceil((u_hi - u_lo) * _PANELS_PER_UNIT)))
        edges = np.linspace(u_lo, u_hi, n_panels + 1)
        nodes, weights = _quad.panel_rule(edges, 16)
        return _quad.log_weighted_sum(self._log_growth_integrand(nodes), weights)


@dataclass(frozen=True)
class MonotonicityReport:
    """Where the Hausdorff gauge increases, and whether points are polar."""

    increasing_hi: float
    polar_points: bool
    method: str

    @property
    def increasing_on_some_interval(self) -> bool:
        return self.increasing_hi > 0.0


def check_monotonicity(system: GaugeSystem) -> MonotonicityReport:
    """Monotonicity interval of the Hausdorff gauge and point polarity.

    Closed-form thresholds exist when at most one gauge carries a log
    correction; two distinct log-corrected gauges fall back to a bisection
    on the (monotone) slope condition.  The interval is reported in gauge
    values: the Hausdorff gauge increases on ``(0, increasing_hi)``.
    """
    e = system.power_exponent
    polar = e > 0.0
    q1, q2 = system.q1, system.q2
    d1, d2, dim = system.d1, system.d2, system.state_dim

    if system.is_single and q1.is_log:
        d = d1 + d2
        if q1.nu * dim <= d:
            return MonotonicityReport(0.0, polar, "closed-form")
        thresh = q1.log_scale * math.exp(-q1.delta / (q1.nu - d / dim))
        tau_star = min(q1.domain_hi, thresh)
        hi = min(float(q1.value(tau_star)), system.diam_cap)
        return MonotonicityReport(hi, polar, "closed-form")

    if not q1.is_log and not q2.is_log:
        return MonotonicityReport(math.inf if e > 0.0 else 0.0, polar, "closed-form")

    if q1.is_log != q2.is_log:
        # Order so the log-corrected gauge is second.
        if q1.is_log:
            q1, q2, d1, d2 = q2, q1, d2, d1
        head = dim - d1 / q1.nu
        if head <= 0.0 or e <= 0.0:
            return MonotonicityReport(0.0, polar, "closed-form")
        eta = (q1.nu * q2.nu * dim - q2.nu * d1 - q1.nu * d2) / (q1.nu * dim - d1)
        tau_star = min(q2.domain_hi, q2.log_scale * math.exp(-q2.delta / eta))
        hi = min(float(q2.value(tau_star)), system.diam_cap)
        return MonotonicityReport(hi, polar, "closed-form")

    return MonotonicityReport(_monotone_hi_bisect(system), polar, "bisection")


def _slope_margin(system: GaugeSystem, u: float) -> float:
    """dim minus the slope terms; positive where the Hausdorff gauge increases."""
    total = float(system.state_dim)
    for q, d in ((system.q1, system.d1), (system.q2, system.d2)):
        if q.is_log:
            ell = math.log(q.log_scale) - float(q._log_inverse(u))
            denom = q.nu * ell - q.delta
            if denom <= 0.0:
                return -math.inf
            total -= d * ell / denom
        else:
            total -= d / q.nu
    return total


def _monotone_hi_bisect(system: GaugeSystem) -> float:
    u_hi = math.log(system.diam_cap)
    u_lo = u_hi - 400.0 * math.log(2.0)
    if _slope_margin(system, u_lo) <= 0.0:
        return 0.0
    if _slope_margin(system, u_hi) > 0.0:
        return system.diam_cap
    for _ in range(200):
        mid = 0.5 * (u_lo + u_hi)
        if _slope_margin(system, mid) > 0.0:
            u_lo = mid
        else:
            u_hi = mid
    return float(math.exp(0.5 * (u_lo + u_hi)))


@dataclass(frozen=True)
class GrowthReport:
    """Verdict on the growth product v(tau) * g(tau) along a dyadic grid: its
    value at the finest point and the log-log slope of its trailing quartile."""

    ok: bool
    limit_estimate: float
    tail_slope: float
    monotonicity: MonotonicityReport


def check_growth(system: GaugeSystem, grid_size: int) -> GrowthReport:
    """Test boundedness of the growth product on a dyadic gauge-value grid.

    The product of the growth integral v and the Hausdorff gauge g is
    evaluated at ``tau_k = diam_cap * 2**-k`` for k = 1..grid_size, working
    in log scale throughout.  The verdict is positive when the Hausdorff
    gauge increases on some interval, every product is finite and positive,
    and the trailing quartile of the trace is flat on a log-log scale
    (|slope| < 0.05), i.e. the product has stopped drifting.
    """
    if grid_size < 16:
        raise ConfigurationError("growth check needs grid_size >= 16")
    mono = check_monotonicity(system)
    u_taus = math.log(system.diam_cap) - math.log(2.0) * np.arange(1, grid_size + 1)
    seq_log = system.log_growth_integral(u_taus) + system._log_hausdorff(u_taus)
    finite = bool(np.all(np.isfinite(seq_log)))

    tail = slice(3 * grid_size // 4, grid_size)
    x = u_taus[tail]
    y = seq_log[tail]
    if finite:
        tail_slope = float(np.polyfit(x, y, 1)[0])
    else:
        tail_slope = math.nan
    ok = mono.increasing_on_some_interval and finite and abs(tail_slope) < 0.05

    limit_estimate = float(np.exp(seq_log[-1])) if finite else math.inf
    return GrowthReport(ok=ok, limit_estimate=limit_estimate, tail_slope=tail_slope, monotonicity=mono)
