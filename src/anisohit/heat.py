"""Second-order structure of the fractional-noise heat model.

The field is the mild solution of the heat equation on R^d driven by a
Gaussian noise that is fractional with index H in time and either white
(alpha = 0) or Riesz-correlated with spectral density |xi|^(-alpha) in
space.  Each of the ``components`` coordinates is an independent copy.

Writing the noise covariance in spectral form and integrating out the
spatial frequency leaves a single time integral: with b = (d - alpha)/2,

    cov((t, x), (s, y)) = H (2H-1)/2 * int_0^(t+s) W(p) S(t+s-p, |x-y|) dp,

where W collects the anti-diagonal mass of |tau - sigma|^(2H-2) in closed
form and S(r, rho) = (4 pi)^(-d/2) Gamma(b)/Gamma(d/2) r^(-b)
exp(-rho^2/4r) M(alpha/2, d/2, rho^2/4r) with Kummer's M.  For alpha = 0
the Kummer factor is 1 and S is the Gaussian heat profile; only alpha > 0
models evaluate M, and only they load ``scipy.special``.  The integrand
is smooth except for power kinks at p in {s, t, 2s, 2t} and integrable
endpoint singularities, so panelled Gauss rules on one partition (a panel
per octave, halved toward each kink) evaluate it to near machine
precision, vectorized over a whole batch of spatial separations at once.
The upper half of the range is integrated in the variable r = t + s - p
directly, because near that endpoint r is the physically meaningful
quantity and forming it by subtraction would waste every digit; the last
sliver [0, r_min], where the integrand is a bare power times a flat or
asymptotic spatial factor, is added in closed form.  Without that care the
truncation error scales like r_min^(2H - b), which for small 2H - b is not
small at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _quad
from .errors import ConfigurationError, NumericalError
from .gauges import GaugeSpec, GaugeSystem

_CRITICAL_TOL = 1e-12
_KUMMER_TERMS = 12  # of the large-x series in _kummer_asymptotic


@dataclass(frozen=True)
class HeatModel:
    """Model parameters and the observation window.

    The window is [t0, t1] x [-box_radius, box_radius]^space_dim and the
    field has ``components`` independent coordinates.  Well-posedness
    requires 0 < space_dim - alpha < 4 * hurst.
    """

    hurst: float
    alpha: float = 0.0
    space_dim: int = 1
    components: int = 1
    t0: float = 0.1
    t1: float = 1.0
    box_radius: float = 1.0

    def __post_init__(self) -> None:
        if not 0.5 < self.hurst < 1.0:
            raise ConfigurationError("hurst must lie in (1/2, 1)")
        if self.space_dim < 1 or self.components < 1:
            raise ConfigurationError("space_dim and components must be positive")
        if not 0.0 <= self.alpha < self.space_dim:
            raise ConfigurationError("alpha must lie in [0, space_dim)")
        gap = self.space_dim - self.alpha
        if not 0.0 < gap < 4.0 * self.hurst:
            raise ConfigurationError("need 0 < space_dim - alpha < 4 * hurst")
        if self.alpha > 0.0 and self.space_dim > 3:
            raise ConfigurationError("space_dim > 3 with alpha > 0 is not supported")
        if not 0.0 < self.t0 < self.t1:
            raise ConfigurationError("need 0 < t0 < t1")
        if not self.box_radius > 0.0:
            raise ConfigurationError("box_radius must be positive")

    # -- derived exponents ---------------------------------------------------

    @property
    def decay(self) -> float:
        """b = (space_dim - alpha)/2, the heat-profile decay exponent."""
        return 0.5 * (self.space_dim - self.alpha)

    @property
    def time_exponent(self) -> float:
        """Variance grows like t to this power."""
        return 2.0 * self.hurst - self.decay

    @property
    def temporal_order(self) -> float:
        """Metric exponent in |t - s|: hurst - (space_dim - alpha)/4."""
        return self.hurst - 0.25 * (self.space_dim - self.alpha)

    @property
    def spatial_order(self) -> float:
        """Metric exponent in |x - y| away from the critical line."""
        return min(1.0, self.time_exponent)

    @property
    def is_critical(self) -> bool:
        """Whether 4 hurst - (space_dim - alpha) = 2, the log-corrected case."""
        return abs(self.time_exponent - 1.0) <= _CRITICAL_TOL

    @property
    def noise_const(self) -> float:
        """H (2H - 1), the fractional covariance normalization."""
        return self.hurst * (2.0 * self.hurst - 1.0)

    @property
    def box_diameter(self) -> float:
        return 2.0 * math.sqrt(self.space_dim) * self.box_radius

    @cached_property
    def variance_const(self) -> float:
        """kappa with variance(t) = kappa * t**time_exponent."""
        return float(self._cov_batch(1.0, 1.0, np.zeros(1))[0])

    # -- spatial profile -----------------------------------------------------

    @property
    def _profile_const(self) -> float:
        return (
            (4.0 * math.pi) ** (-0.5 * self.space_dim)
            * math.gamma(self.decay)
            / math.gamma(0.5 * self.space_dim)
        )

    def _kummer(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """exp(-x) M(alpha/2, d/2, x) for x >= 0, uniformly accurate.

        ``out`` may be ``x`` itself; each masked piece is read from x
        before it is written back.
        """
        out = np.empty_like(x) if out is None else out
        if self.alpha == 0.0:
            return np.exp(np.negative(x, out=out), out=out)
        from scipy import special  # only alpha > 0 models need 1F1

        a, c = 0.5 * self.alpha, 0.5 * self.space_dim
        small = x <= 400.0
        if np.any(small):
            out[small] = np.exp(-x[small]) * special.hyp1f1(a, c, x[small])
        if np.any(~small):
            out[~small] = _kummer_asymptotic(x[~small], a, c)
        return out

    def _kummer_deficit(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """1 - exp(-x) M(alpha/2, d/2, x) without cancellation for small x.

        By Kummer's transformation exp(-x) M(a, c, x) = 1F1(c-a; c; -x), so
        the deficit is an alternating series starting at (c-a)/c * x; summing
        it directly keeps full relative accuracy where the direct difference
        would lose every digit.  ``out`` may be ``x`` itself, as for
        ``_kummer``.
        """
        out = np.empty_like(x) if out is None else out
        if self.alpha == 0.0:
            np.negative(x, out=out)
            return np.negative(np.expm1(out, out=out), out=out)
        a, c = 0.5 * self.alpha, 0.5 * self.space_dim
        big = x > 0.5
        if np.any(big):
            out[big] = 1.0 - self._kummer(x[big])
        small = ~big
        if np.any(small):
            xs = x[small]
            term = np.ones_like(xs)
            acc = np.zeros_like(xs)
            for k in range(1, 40):
                term = term * (c - a + k - 1.0) / ((c + k - 1.0) * k) * (-xs)
                acc += term
                if np.max(np.abs(term)) < 1e-18:
                    break
            out[small] = -acc
        return out

    # -- covariance ----------------------------------------------------------

    def variance(self, t):
        """Pointwise variance of one component at time t (0 for t <= 0)."""
        arr = np.asarray(t, dtype=float)
        out = np.where(arr > 0.0, self.variance_const * np.maximum(arr, 0.0) ** self.time_exponent, 0.0)
        return float(out) if arr.ndim == 0 else out

    def variance_direct(self, t: float) -> float:
        """Variance by a fresh quadrature at time t, no power-law shortcut.

        ``variance`` evaluates one quadrature at t=1 and scales; this method
        integrates at the requested time, so comparing the two exercises the
        scaling law instead of assuming it.
        """
        if t <= 0.0:
            return 0.0
        return float(self._cov_batch(t, t, np.zeros(1))[0])

    def covariance(self, t: float, x, s: float, y) -> float:
        """cov of one component between space-time points (t, x) and (s, y)."""
        rho = _separation(x, y, self.space_dim)
        if t <= 0.0 or s <= 0.0:
            return 0.0
        return float(self._cov_batch(t, s, np.asarray([rho]))[0])

    def metric(self, t: float, x, s: float, y) -> float:
        """Canonical metric sqrt(E[(u(t,x) - u(s,y))^2]) for one component.

        Equal-time pairs use a cancellation-free differenced integrand; the
        mixed case assembles variances and covariance separately and clamps
        a negative radicand within 1e-10 of the variance scale to zero.
        """
        rho = _separation(x, y, self.space_dim)
        if t == s:
            if rho == 0.0:
                return 0.0
            return math.sqrt(float(self._spatial_sq(t, np.asarray([rho]))[0]))
        va, vb = self.variance(t), self.variance(s)
        dd = va + vb - 2.0 * self.covariance(t, x, s, y)
        if dd < 0.0:
            if dd >= -1e-10 * max(va, vb):
                dd = 0.0
            else:
                raise NumericalError("metric radicand is negative beyond rounding levels")
        return math.sqrt(dd)

    def _w_factor_r(self, r: np.ndarray, t: float, s: float) -> np.ndarray:
        """Anti-diagonal weight W at p = (t+s) - r, cancellation-free in r.

        Below min(t, s) both clipping branches are active and
        W = (h(w + r) - h(w - r)) / (2H - 1) with w = |t - s| and
        h(v) = sign(v) |v|^(2H-1).  For r > w that difference is a sum of
        two positive terms; for r far below w it is evaluated by its odd
        Taylor expansion, exactly where forming the difference would cancel.
        Above min(t, s) the generic clip formula is safe because every
        quantity is one subtraction away from the inputs.
        """
        e = 2.0 * self.hurst - 1.0
        w = abs(t - s)
        out = np.empty_like(r)
        generic = r >= min(t, s)
        if np.any(generic):
            rg = r[generic]
            hi = np.minimum((t + s) - rg, rg + (t - s))
            lo = np.maximum(rg - (t + s), (t - s) - rg)
            out[generic] = _clip_mass(hi, lo, e) / e
        rest = ~generic
        if np.any(rest):
            rr = r[rest]
            sub = np.empty_like(rr)
            tiny = rr <= 1e-3 * w
            if np.any(tiny):
                q = rr[tiny] / w
                sub[tiny] = 2.0 * e * w ** (e - 1.0) * rr[tiny] * (
                    1.0 + (e - 1.0) * (e - 2.0) / 6.0 * q * q
                )
            big = ~tiny
            if np.any(big):
                rb = rr[big]
                sub[big] = (w + rb) ** e - np.sign(w - rb) * np.abs(w - rb) ** e
            out[rest] = sub / e
        return out

    def _reduced_rule(
        self, t: float, s: float, rho_floor: float, *, order: int, end_levels: int, kink_levels: int
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Nodes in r = (t+s) - p with weights carrying W, plus the r cutoff.

        The time integral is split at its midpoint.  The left half is
        integrated in p, where the endpoint cusp sits at an exactly
        representable 0.  The right half is integrated in r itself, so
        nodes approach the upper endpoint without the catastrophic loss of
        forming (t+s) - p in doubles; panels stop at r_min and the callers
        add the sliver [0, r_min] in closed form.  r_min is pushed low
        enough that on the sliver the spatial factor is constant (rho = 0),
        asymptotic (rho >= rho_floor), and the weight Taylor form is valid.
        When the weight's cusp at r = w, p = 2 min(t, s) lies near the
        midpoint (max(t, s) near 3 min(t, s)), the split moves onto the
        cusp so that both halves refine toward it.

        Both halves take the one ``_quad.panel_edges`` partition: a panel
        per octave, halved ``kink_levels`` times toward the weight's kinks
        at p in {m, 2m} and r in {w, m}, with m = min(t, s) and w = |t - s|.
        The octaves of the p half stop at m 2^-(end_levels + 1); the single
        panel below that floor carries the integrable p^(2H-1) cusp at 0.
        """
        total = t + s
        w = abs(t - s)
        m = min(t, s)
        cusp = abs(w - 0.5 * total) < 0.125 * total
        p_seam, r_seam = (2.0 * m, w) if cusp else (0.5 * total, 0.5 * total)
        r_min = total * 2.0 ** -16
        if w > 0.0:
            r_min = min(r_min, 1e-3 * w)
        if rho_floor > 0.0:
            r_min = min(r_min, rho_floor ** 2 / 2560.0)
        r_min = max(r_min, total * 1e-180)

        p_floor = m * 0.5 ** (end_levels + 1)
        p_edges = _quad.panel_edges(p_floor, (m, 2.0 * m), p_seam, tip=cusp, levels=kink_levels)
        p_nodes, p_wgt = _quad.panel_rule(np.concatenate([[0.0], p_edges]), order)
        e = 2.0 * self.hurst - 1.0
        hi = np.minimum(p_nodes, 2.0 * t - p_nodes)
        lo = np.maximum(-p_nodes, p_nodes - 2.0 * s)
        left = p_wgt * _clip_mass(hi, lo, e) / e

        r_edges = _quad.panel_edges(r_min, (w, m), r_seam, tip=cusp, levels=kink_levels)
        r_nodes, r_wgt = _quad.panel_rule(r_edges, order)
        right = r_wgt * self._w_factor_r(r_nodes, t, s)

        r_all = np.concatenate([total - p_nodes, r_nodes])
        return r_all, np.concatenate([left, right]), r_min

    def _tail_moment(self, t: float, s: float, r_min: float, k: float) -> float:
        """int_0^r_min W(r) r^k dr in closed form.

        Equal times give the exact power integral of W = 2 r^(2H-1)/(2H-1).
        Distinct times use the odd Taylor expansion of W around r = 0,
        whose first neglected term is O((r_min/w)^4) relative; the rule
        construction keeps r_min <= w/1000, so that error is below 1e-12
        of a quantity that is itself a small correction.
        """
        e = 2.0 * self.hurst - 1.0
        w = abs(t - s)
        if w > 8.0 * r_min:
            c2 = (e - 1.0) * (e - 2.0) / 6.0
            return 2.0 * w ** (e - 1.0) * (
                r_min ** (k + 2.0) / (k + 2.0)
                + c2 * r_min ** (k + 4.0) / (w * w * (k + 4.0))
            )
        return 2.0 * r_min ** (e + k + 1.0) / (e * (e + k + 1.0))

    def _tail(self, t: float, s: float, rhos: np.ndarray, r_min: float, deficit: bool) -> np.ndarray:
        """Closed-form contribution of the unresolved sliver r in [0, r_min].

        The cutoff guarantees x = rho^2/(4 r_min) >= 640 for every separation
        at or above the rule's floor, so those columns take either nothing
        (alpha = 0, the spatial factor is exp(-x)) or the first terms of the
        large-x asymptotic series (alpha > 0).  Columns with rho = 0 use the
        exact power integral, the factor being identically 1 there.  For the
        deficit factor 1 - exp(-x) M the rho = 0 columns vanish and the hot
        ones are that power integral minus the covariance sliver.
        """
        hot = rhos ** 2 >= 600.0 * 4.0 * r_min
        flat = self._profile_const * self._tail_moment(t, s, r_min, -self.decay)
        acc = np.zeros(np.count_nonzero(hot))
        if self.alpha > 0.0 and acc.size:
            a, c = 0.5 * self.alpha, 0.5 * self.space_dim
            inv = 4.0 / rhos[hot] ** 2
            beta = 1.0
            for k in range(4):
                if k:
                    beta *= (c - a + k - 1.0) * (k - a) / k
                acc += beta * inv ** (self.decay + k) * self._tail_moment(t, s, r_min, float(k))
            acc = math.gamma(c) / math.gamma(a) * acc
        cov_hot = self._profile_const * acc
        out = np.zeros(rhos.shape) if deficit else np.full(rhos.shape, flat)
        out[hot] = flat - cov_hot if deficit else cov_hot
        return out

    def _cov_batch(
        self,
        t: float,
        s: float,
        rhos: np.ndarray,
        *,
        order: int = 16,
        end_levels: int = 44,
        kink_levels: int = 36,
        deficit: bool = False,
        work: _Workspace | None = None,
    ) -> np.ndarray:
        """Covariance of one component at time pair (t, s), batched over rho.

        With ``deficit`` the spatial factor exp(-x) M is replaced by
        1 - exp(-x) M, which gives half the squared metric at equal times
        without the cancellation of variance minus covariance.  The
        (separations x nodes) spatial factor is formed in place in a buffer
        taken from ``work``, or in a fresh one when it is None.
        """
        rhos = np.asarray(rhos, dtype=float)
        pos = rhos[rhos > 0.0]
        rho_floor = float(np.min(pos)) if pos.size else 0.0
        r, wgt, r_min = self._reduced_rule(
            t, s, rho_floor, order=order, end_levels=end_levels, kink_levels=kink_levels
        )
        kernel_w = wgt * self._profile_const * r ** (-self.decay)
        shape = (rhos.size, r.size)
        x = np.empty(shape) if work is None else work.take(shape)
        np.multiply.outer(rhos ** 2, 1.0 / (4.0 * r), out=x)
        spatial = self._kummer_deficit if deficit else self._kummer
        vals = spatial(x, out=x) @ kernel_w
        vals += self._tail(t, s, rhos, r_min, deficit)
        return 0.5 * self.noise_const * vals

    def _spatial_sq(self, t: float, rhos: np.ndarray) -> np.ndarray:
        """Squared metric at equal times, batched over separations."""
        return 2.0 * self._cov_batch(t, t, rhos, deficit=True)


class _Workspace:
    """One float buffer, grown on demand and reshaped for each rule."""

    def __init__(self) -> None:
        self._buf = np.empty(0)

    def take(self, shape: tuple[int, int]) -> np.ndarray:
        size = shape[0] * shape[1]
        if self._buf.size < size:
            self._buf = np.empty(size)
        return self._buf[:size].reshape(shape)


def _separation(x, y, space_dim: int) -> float:
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if xv.shape != (space_dim,) or yv.shape != (space_dim,):
        raise ConfigurationError(f"spatial points must have {space_dim} coordinates")
    return float(np.linalg.norm(xv - yv))


def _clip_mass(hi: np.ndarray, lo: np.ndarray, e: float) -> np.ndarray:
    """sign(hi) |hi|^e - sign(lo) |lo|^e: e times the clipped weight W."""
    return np.sign(hi) * np.abs(hi) ** e - np.sign(lo) * np.abs(lo) ** e


def _kummer_asymptotic(x: np.ndarray, a: float, c: float) -> np.ndarray:
    """Large-x form of exp(-x) M(a, c, x) ~ Gamma(c)/Gamma(a) x^(a-c) series."""
    coef = math.gamma(c) / math.gamma(a)
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for k in range(_KUMMER_TERMS):
        term = term * (c - a + k) * (1.0 - a + k) / ((k + 1.0) * x)
        acc = acc + term
    return coef * x ** (a - c) * acc


# -- gauges --------------------------------------------------------------------


def model_gauges(model: HeatModel) -> GaugeSystem:
    """The temporal/spatial gauge pair matching the model's metric behavior."""
    q1 = GaugeSpec.power(model.temporal_order)
    if model.is_critical:
        scale = math.e * model.box_diameter
        q2 = GaugeSpec.power_log(1.0, 0.5, scale)
    else:
        q2 = GaugeSpec.power(model.spatial_order)
    cap = max(q1.value(model.t1 - model.t0), q2.value(min(model.box_diameter, q2.domain_hi)))
    return GaugeSystem(
        q1=q1,
        q2=q2,
        d1=1,
        d2=model.space_dim,
        state_dim=model.components,
        diam_cap=float(cap),
    )


# -- assembled covariance ------------------------------------------------------


# The matrix path's quadrature rule: coarser than the scalar default
# (16/44/36), which takes more than twice as long on a 64 x 64 grid.
_MATRIX_RULE = {"order": 12, "end_levels": 26, "kink_levels": 16}


def covariance_matrix(model: HeatModel, times: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Dense one-component covariance over the product grid times x sites.

    Rows are ordered time-major.  Each distinct time pair costs one
    quadrature rule evaluated against the distinct site separations, so a
    64 x 64 grid needs 2080 rules rather than 8.4 million kernel calls.
    All rules form their spatial factor in one reused buffer, so the loop
    allocates no megabyte-sized temporaries.
    """
    times = np.asarray(times, dtype=float)
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    nt, ns = len(times), len(sites)
    diffs = sites[:, None, :] - sites[None, :, :]
    seps = np.sqrt(np.sum(diffs * diffs, axis=2))
    uniq, inverse = np.unique(np.round(seps, 12), return_inverse=True)
    inverse = inverse.reshape(ns, ns)
    cov = np.empty((nt * ns, nt * ns))
    work = _Workspace()
    for i in range(nt):
        for j in range(i, nt):
            vals = model._cov_batch(times[i], times[j], uniq, work=work, **_MATRIX_RULE)
            block = vals[inverse]
            cov[i * ns : (i + 1) * ns, j * ns : (j + 1) * ns] = block
            if j > i:
                cov[j * ns : (j + 1) * ns, i * ns : (i + 1) * ns] = block.T
    return cov


# -- slope experiments ---------------------------------------------------------


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through log-log metric data."""

    slope: float
    rms_residual: float


def temporal_slope(model: HeatModel, *, t_ref: float = 0.5, lags=None) -> SlopeFit:
    """Log-log slope of the metric along the time axis at a fixed site."""
    if lags is None:
        lags = 2.0 ** -np.arange(4, 15)
    lags = np.asarray(lags, dtype=float)
    x0 = np.zeros(model.space_dim)
    vals = np.asarray([model.metric(t_ref, x0, t_ref + h, x0) for h in lags])
    return _fit_loglog(lags, vals)


def spatial_slope(model: HeatModel, *, t_ref: float = 0.5, seps=None) -> SlopeFit:
    """Log-log slope of the metric along a spatial axis at a fixed time."""
    seps = _default_seps() if seps is None else np.asarray(seps, dtype=float)
    vals = np.sqrt(model._spatial_sq(t_ref, seps))
    return _fit_loglog(seps, vals)


def spatial_gauge_residual(model: HeatModel, gauge: GaugeSpec, *, t_ref: float = 0.5, seps=None) -> float:
    """RMS residual of log metric against log gauge with unit slope.

    Small exactly when the gauge captures the metric's spatial modulus up to
    a constant; comparing the residual for the log-corrected gauge against
    the pure power quantifies which one the data supports.
    """
    seps = _default_seps() if seps is None else np.asarray(seps, dtype=float)
    vals = np.sqrt(model._spatial_sq(t_ref, seps))
    resid = np.log(vals) - np.log(gauge.value(seps))
    resid = resid - np.mean(resid)
    return float(np.sqrt(np.mean(resid**2)))


def _default_seps() -> np.ndarray:
    return np.logspace(-4.0, -1.0, 13)


def _fit_loglog(lags: np.ndarray, vals: np.ndarray) -> SlopeFit:
    lx, ly = np.log(lags), np.log(vals)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return SlopeFit(slope=float(slope), rms_residual=float(np.sqrt(np.mean(resid**2))))
