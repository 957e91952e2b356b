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
endpoint singularities, so one panelled Gauss rule (a panel per octave,
halved toward each kink to a depth set by H) evaluates it to near machine
precision for every caller, vectorized over a batch of separations.  The
rules of many time pairs (a covariance grid, a batch of metrics) are built
together in array passes, a chunk of pairs at a time; a single pair is a
batch of one and gets the same rule to the bit.
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
from functools import cached_property, wraps

import numpy as np

from . import _quad
from .errors import ConfigurationError, NumericalError
from .gauges import GaugeSpec, GaugeSystem

_CRITICAL_TOL = 1e-12
_KUMMER_TERMS = 12  # of the large-x series in _kummer_asymptotic
_GAMMA_TOL = 1e-7  # width at which spatial_slope's golden-section search stops
_GAUSS_ORDER = 12  # points per panel of the covariance rule
_PANELS_PER_LEVEL = 10  # about the most panels a rule has per level of its depth
_RULE_CHUNK_NODES = 2**14  # rule nodes built in one array pass
_T_REF = 0.5  # time at which the slope fits read the metric


def _window_overflow(method):
    """Raise an overflow in a ``HeatModel`` method, numpy's or a Python float
    power's, as one ``NumericalError`` that names the largest time of the
    method's leading time arguments and the model's window."""

    @wraps(method)
    def guarded(self, *args, **kwargs):
        try:
            with np.errstate(over="raise"):
                return method(self, *args, **kwargs)
        except (FloatingPointError, OverflowError):
            top = max(np.max(times, initial=0.0) for times in args[:2])
            raise NumericalError(
                f"the covariance overflows at times up to {top:g}; the model window is [{self.t0:g}, {self.t1:g}]"
            ) from None

    return guarded


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
        if not 0.0 < self.t0 < self.t1 < math.inf:
            raise ConfigurationError("need 0 < t0 < t1 with t1 finite")
        if not 0.0 < self.box_radius < math.inf:
            raise ConfigurationError("box_radius must be positive and finite")

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
    def _rule_levels(self) -> int:
        """Refinement depth of the covariance rule; see ``_rules``."""
        return math.ceil(34.0 / (2.0 * self.hurst))

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

    @_window_overflow
    def variance(self, t):
        """Pointwise variance of one component at time t (0 for t <= 0).

        Each power is a Python float power, so an array gives the bits that
        scalar calls give (numpy's vectorized power may differ by an ulp).
        """
        arr = np.asarray(t, dtype=float)
        kappa, e = self.variance_const, float(self.time_exponent)
        out = np.array([kappa * v**e if v > 0.0 else 0.0 for v in arr.ravel().tolist()]).reshape(arr.shape)
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

    def metric(self, t: float, x, s: float, y) -> float:
        """Canonical metric sqrt(E[(u(t,x) - u(s,y))^2]) for one component."""
        rho = _separation(x, y, self.space_dim)
        return float(self.metrics(np.array([t], dtype=float), np.array([s], dtype=float), np.array([rho]))[0])

    def metrics(self, t, s, rho) -> np.ndarray:
        """Canonical metric of one component at the pairs (t[i], x), (s[i], y).

        ``rho[i]`` is the separation |x - y| of pair i.  Equal-time pairs use
        a cancellation-free differenced integrand; the mixed ones assemble
        variances and covariance separately.  A negative radicand within
        1e-10 of the variance scale is rounding and is clamped to zero; the
        clamps of a call are counted and logged as one warning, and a more
        negative radicand raises ``NumericalError``.
        """
        t, s, rho = (np.asarray(v, dtype=float) for v in (t, s, rho))
        out = np.zeros(t.shape)
        same = t == s
        apart = same & (rho != 0.0)
        out[apart] = np.sqrt(2.0 * self._cov_pairs(t[apart], t[apart], rho[apart, None], deficit=True)[:, 0])
        mixed = ~same
        tm, sm, rm = t[mixed], s[mixed], rho[mixed]
        va, vb = self.variance(tm), self.variance(sm)
        cov = np.zeros(tm.shape)
        live = (tm > 0.0) & (sm > 0.0)
        cov[live] = self._cov_pairs(tm[live], sm[live], rm[live, None])[:, 0]
        dd = va + vb - 2.0 * cov
        neg = dd < 0.0
        if np.any(neg):
            scale = np.maximum(va, vb)[neg]
            if np.any(dd[neg] < -1e-10 * scale):
                raise NumericalError("metric radicand is negative beyond rounding levels")
            import logging  # only a clamping call logs; clean runs skip the import

            logging.getLogger("anisohit").warning(
                "metric: clamped %d negative radicand(s) to 0, the worst at %.1e times the variance",
                np.count_nonzero(neg),
                float(np.min(dd[neg] / scale)),
            )
            dd[neg] = 0.0
        out[mixed] = np.sqrt(dd)
        return out

    def _w_factor_r(
        self, r: np.ndarray, pair: np.ndarray, t: np.ndarray, s: np.ndarray, taylor: np.ndarray
    ) -> np.ndarray:
        """Anti-diagonal weight W at p = (t+s) - r, cancellation-free in r.

        Node r[j] belongs to the time pair (t, s)[pair[j]], whose Taylor
        coefficient 2(2H-1) w^(2H-2) is ``taylor[pair[j]]``.  Below
        min(t, s) both clipping branches are active and
        W = (h(w + r) - h(w - r)) / (2H - 1) with w = |t - s| and
        h(v) = sign(v) |v|^(2H-1).  For r > w that difference is a sum of
        two positive terms; for r far below w it is evaluated by its odd
        Taylor expansion, exactly where forming the difference would cancel.
        Above min(t, s) the generic clip formula is safe because every
        quantity is one subtraction away from the inputs.
        """
        e = 2.0 * self.hurst - 1.0
        out = np.empty_like(r)
        generic = r >= np.minimum(t, s)[pair]
        rg, pg = r[generic], pair[generic]
        hi = np.minimum((t + s)[pg] - rg, rg + (t - s)[pg])
        lo = np.maximum(rg - (t + s)[pg], (t - s)[pg] - rg)
        out[generic] = _clip_mass(hi, lo, e) / e
        del rg, pg, hi, lo  # node-sized temporaries bound the chunk's memory
        rest = ~generic
        rr, pr = r[rest], pair[rest]
        w = np.abs(t - s)[pr]
        sub = _clip_mass(w + rr, w - rr, e)
        tiny = rr <= 1e-3 * w
        q = rr[tiny] / w[tiny]
        sub[tiny] = taylor[pr[tiny]] * rr[tiny] * (1.0 + (e - 1.0) * (e - 2.0) / 6.0 * q * q)
        sub /= e
        out[rest] = sub
        return out

    def _rules(self, t: np.ndarray, s: np.ndarray, rho_floor: np.ndarray) -> tuple[tuple, tuple, np.ndarray]:
        """Rules of the time pairs (t[i], s[i]), built together in array passes.

        Returns the rule's two halves and each pair's r cutoff.  A half is
        (nodes in r = (t+s) - p, weights carrying W, node offsets): pair i
        owns ``nodes[off[i]:off[i+1]]``, and its rule is its p-half nodes
        followed by its r-half nodes.

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

        Both halves take one ``_quad.panel_edges`` partition: a panel per
        octave, halved L times toward the weight's kinks at p in {m, 2m}
        and r in {w, m}, with m = min(t, s) and w = |t - s|.  The p half's
        octaves stop at m 2^-(L + 1); the one panel below carries the
        integrable p^(2H-1) cusp at 0.  The kinks are cusps of exponent
        2H - 1, so each halving, and each octave the floor drops, cuts the
        error by about 2^(2H): L = ceil(34 / (2H)) gives every H the same
        accuracy, 34 being the least constant that holds the 40-digit
        covariances at H = 0.7 to 2e-15.

        Powers of a pair's own scalars (rho_floor^2 and w^(2H-2)) are taken
        one pair at a time, as Python floats, so that every pair's rule is
        the same to the bit whatever batch it is built in.
        """
        total = t + s
        w = np.abs(t - s)
        m = np.minimum(t, s)
        cusp = np.abs(w - 0.5 * total) < 0.125 * total
        p_seam = np.where(cusp, 2.0 * m, 0.5 * total)
        r_seam = np.where(cusp, w, 0.5 * total)
        r_min = total * 2.0**-16
        r_min = np.where(w > 0.0, np.minimum(r_min, 1e-3 * w), r_min)
        floor_sq = np.array([f**2 for f in rho_floor.tolist()])
        r_min = np.where(rho_floor > 0.0, np.minimum(r_min, floor_sq / 2560.0), r_min)
        r_min = np.maximum(r_min, total * 1e-180)

        levels = self._rule_levels
        e = 2.0 * self.hurst - 1.0
        n = t.size
        edges = _quad.panel_edges(
            np.concatenate([m * 0.5 ** (levels + 1), r_min]),
            np.concatenate([np.stack([m, 2.0 * m], axis=1), np.stack([w, m], axis=1)]),
            np.concatenate([p_seam, r_seam]),
            tip=np.concatenate([cusp, cusp]),
            levels=levels,
        )
        p_edges = np.concatenate([np.zeros((n, 1)), edges[:n]], axis=1)
        p_nodes, left = _quad.panel_rule(p_edges, _GAUSS_ORDER)
        p_count = _node_counts(p_edges)
        hi = np.minimum(p_nodes, np.repeat(2.0 * t, p_count) - p_nodes)
        lo = np.maximum(-p_nodes, p_nodes - np.repeat(2.0 * s, p_count))
        left *= _clip_mass(hi, lo, e)
        left /= e
        del hi, lo  # node-sized temporaries bound the chunk's memory
        r_of_p = np.subtract(np.repeat(total, p_count), p_nodes, out=p_nodes)  # the p half's nodes in r

        r_nodes, right = _quad.panel_rule(edges[n:], _GAUSS_ORDER)
        r_count = _node_counts(edges[n:])
        taylor = np.array([2.0 * e * v ** (e - 1.0) if v > 0.0 else 0.0 for v in w.tolist()])
        right *= self._w_factor_r(r_nodes, np.repeat(np.arange(n), r_count), t, s, taylor)
        return (r_of_p, left, _offsets(p_count)), (r_nodes, right, _offsets(r_count)), r_min

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

    @_window_overflow
    def _cov_pairs(self, t: np.ndarray, s: np.ndarray, rhos: np.ndarray, *, deficit: bool = False) -> np.ndarray:
        """Covariance of one component at time pairs (t[i], s[i]) against rows rhos[i].

        ``rhos`` holds one row of separations per pair (a broadcast view
        when the pairs share them).  Rules are built ``_RULE_CHUNK_NODES``
        nodes at a time; each pair then forms its (separations x nodes)
        spatial factor in place in one reused buffer and contracts it with
        its weights, so no array grows with the batch but the result.  With
        ``deficit`` the spatial factor exp(-x) M is replaced by
        1 - exp(-x) M, which gives half the squared metric at equal times
        without the cancellation of variance minus covariance.
        """
        spatial = self._kummer_deficit if deficit else self._kummer
        out = np.empty(rhos.shape)
        buf = np.empty(0)  # the spatial factor's buffer, grown on demand
        step = max(1, _RULE_CHUNK_NODES // (_GAUSS_ORDER * _PANELS_PER_LEVEL * self._rule_levels))
        for start in range(0, t.size, step):
            chunk = slice(start, start + step)
            rho_floor = np.min(np.where(rhos[chunk] > 0.0, rhos[chunk], np.inf), axis=1)
            rho_floor[rho_floor == np.inf] = 0.0
            *halves, r_min = self._rules(t[chunk], s[chunk], rho_floor)
            for r, kernel_w, _ in halves:
                kernel_w *= self._profile_const
                kernel_w *= r ** (-self.decay)
                r *= 4.0
                np.divide(1.0, r, out=r)  # r now holds 1/(4r)
            (inv_p, w_p, off_p), (inv_r, w_r, off_r) = halves
            times = zip(t[chunk].tolist(), s[chunk].tolist(), r_min.tolist())
            for i, (ti, si, r_cut) in enumerate(times):
                row = start + i
                p, q = slice(off_p[i], off_p[i + 1]), slice(off_r[i], off_r[i + 1])
                inv_4r = np.concatenate([inv_p[p], inv_r[q]])
                size = rhos.shape[1] * inv_4r.size
                if buf.size < size:
                    buf = np.empty(size)
                x = buf[:size].reshape(rhos.shape[1], -1)
                np.multiply.outer(rhos[row] ** 2, inv_4r, out=x)
                out[row] = spatial(x, out=x) @ np.concatenate([w_p[p], w_r[q]])
                out[row] += self._tail(ti, si, rhos[row], r_cut, deficit)
        return 0.5 * self.noise_const * out

    def _cov_batch(self, t: float, s: float, rhos: np.ndarray, *, deficit: bool = False) -> np.ndarray:
        """Covariance of one component at one time pair, batched over rho."""
        rhos = np.asarray(rhos, dtype=float)
        t, s = np.array([t], dtype=float), np.array([s], dtype=float)
        return self._cov_pairs(t, s, rhos[None, :], deficit=deficit)[0]

    def _spatial_sq(self, t: float, rhos: np.ndarray) -> np.ndarray:
        """Squared metric at equal times, batched over separations."""
        return 2.0 * self._cov_batch(t, t, rhos, deficit=True)


def separations(x, y) -> np.ndarray:
    """Euclidean lengths of the rows of x - y.

    Each is the square root of the row's BLAS dot product with itself,
    which is what ``np.linalg.norm`` takes for one vector, so a batch gives
    the very values of a loop over single points.
    """
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])


def _separation(x, y, space_dim: int) -> float:
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if xv.shape != (space_dim,) or yv.shape != (space_dim,):
        raise ConfigurationError(f"spatial points must have {space_dim} coordinates")
    return float(separations(xv[None, :], yv[None, :])[0])


def _node_counts(edges: np.ndarray) -> np.ndarray:
    """Nodes per row of a ``_quad.panel_rule`` over +inf-padded edge rows."""
    return _GAUSS_ORDER * (np.count_nonzero(np.isfinite(edges), axis=1) - 1)


def _offsets(counts: np.ndarray) -> list[int]:
    """Start of each row's nodes in a flat array, then the end of the last."""
    return [0, *np.cumsum(counts).tolist()]


def _clip_mass(hi: np.ndarray, lo: np.ndarray, e: float) -> np.ndarray:
    """sign(hi) |hi|^e - sign(lo) |lo|^e: e times the clipped weight W."""
    out = np.abs(hi) ** e
    out *= np.sign(hi)
    low = np.abs(lo) ** e
    low *= np.sign(lo)
    out -= low
    return out


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


def covariance_matrix(model: HeatModel, times: np.ndarray, parity) -> tuple[list[np.ndarray], object]:
    """One-component covariance over a grid's times x sites, by parity block.

    ``parity`` is ``(separations, tables)`` as ``SampleGrid.parity`` gives
    it: the grid's distinct site separations, and for each class one
    (sign, table) per reflection of the sites, the table indexing the
    separations between the class's sites and their reflected images.
    Block c is the covariance of class c, rows time-major over its sites;
    its entry for sites x and y is the signed mean over the reflections of
    the covariance at the separation of x and the reflected y.

    Only the lower triangle of a block is written, and two consecutive
    classes of equal size N share one C-ordered (N + 1) x N array: block c
    is its rows 1..N, a C-ordered view, and block c + 1 the transpose of
    its rows 0..N-1, a Fortran-ordered view whose lower triangle is the
    array's diagonal and upper triangle.  The two triangles are disjoint
    and together fill the array, so a pair takes half the memory of two
    N x N blocks.  A class without an equal-size neighbour has an N x N
    array to itself, zero above the diagonal.  Returns the blocks, in class order, and
    ``refill(c)``, which writes block c's triangle again from the same
    rule values without touching its partner's.

    Each distinct time pair costs one quadrature rule evaluated against the
    distinct site separations, so a 64 x 64 grid needs 2080 rules rather
    than 8.4 million kernel calls.  All pairs go through the batched rule
    builder at once; each rule value is the scalar kernel's to the bit, and
    all rules form their spatial factor in one reused buffer, so the
    assembly allocates no large temporaries besides the blocks and keeps
    only the rule values (about 1 MB on a 64 x 64 grid) for ``refill``.
    """
    times = np.asarray(times, dtype=float)
    separations, tables = parity
    nt = len(times)
    rows, cols = np.triu_indices(nt)
    vals = model._cov_pairs(times[rows], times[cols], np.broadcast_to(separations, (rows.size, separations.size)))
    sizes = [len(terms[0][1]) for terms in tables]
    out = _packed_blocks([nt * k for k in sizes])

    def refill(c: int) -> None:
        cov, k = out[c], sizes[c]
        (sign0, idx0), *rest = tables[c]
        lower = np.tril_indices(k)
        pairs = vals
        for i in range(nt if k else 0):
            # the blocks (i, j) for j >= i, which are the pairs' next nt - i rows
            head, pairs = pairs[: nt - i], pairs[nt - i :]
            blocks = sign0 * head[:, idx0]
            for sign, idx in rest:
                blocks += sign * head[:, idx]
            if rest:
                blocks *= 1.0 / (1 + len(rest))
            cov[i * k : (i + 1) * k, i * k : (i + 1) * k][lower] = blocks[0][lower]
            cov[(i + 1) * k :, i * k : (i + 1) * k] = blocks[1:].transpose(0, 2, 1).reshape(-1, k)

    for c in range(len(tables)):
        refill(c)
    return out, refill


def _packed_blocks(sizes: list[int]) -> list[np.ndarray]:
    """Square views for blocks of the given sizes, each consecutive pair of
    equal size sharing one (N + 1) x N array (see ``covariance_matrix``)."""
    out: list[np.ndarray] = []
    while len(out) < len(sizes):
        c = len(out)
        n = sizes[c]
        if c + 1 < len(sizes) and sizes[c + 1] == n:
            pair = np.empty((n + 1, n))
            out += [pair[1:], pair[:-1].T]
        else:
            out.append(np.zeros((n, n)))
    return out


# -- slope experiments ---------------------------------------------------------


@dataclass(frozen=True)
class SlopeFit:
    """A fitted exponent of the metric and the RMS residual of its fit."""

    slope: float
    rms_residual: float


def temporal_slope(model: HeatModel) -> SlopeFit:
    """Log-log slope of the metric at t = 0.5 and a fixed site, lags 2^-4 .. 2^-14."""
    lags = 2.0 ** -np.arange(4, 15)
    vals = model.metrics(np.full(lags.shape, _T_REF), _T_REF + lags, np.zeros(lags.shape))
    return _fit_loglog(lags, vals)


def spatial_slope(model: HeatModel) -> SlopeFit:
    """Spatial order of the metric at t = 0.5, from a three-term fit.

    At small separations the squared metric is c1 rho^(2 gamma) + c2 rho^2
    + c4 rho^4 + ..., gamma being the time exponent 2H - b.  Near the
    critical line gamma is close to 1 and the first two terms nearly cancel
    inside the fit window, so one log-log slope reads low (0.858 against
    0.9 at H = 0.7, d = 1).  The squared metric is therefore fitted by
    relative least squares against all three powers, with gamma found by a
    golden-section search on (0, 2.5), which holds the exponent of every
    well-posed model.  The metric's order is min(gamma, 1), since above 1
    the rho^2 term leads; ``rms_residual`` is the RMS relative residual of
    the squared metric at that gamma, over the separations of ``_seps``.
    """
    seps = _seps()
    sq = model._spatial_sq(_T_REF, seps)

    def residual(gamma: float) -> float:
        cols = np.stack([seps ** (2.0 * gamma), seps**2, seps**4], axis=1) / sq[:, None]
        cols /= np.linalg.norm(cols, axis=0)
        coef = np.linalg.lstsq(cols, np.ones_like(sq), rcond=None)[0]
        return float(np.sqrt(np.mean((cols @ coef - 1.0) ** 2)))

    gamma = _golden_section(residual, 0.0, 2.5)
    return SlopeFit(slope=min(gamma, 1.0), rms_residual=residual(gamma))


def spatial_gauge_residual(model: HeatModel, gauge: GaugeSpec) -> float:
    """RMS residual of log metric against log gauge with unit slope, at t = 0.5.

    Small exactly when the gauge captures the metric's spatial modulus up to
    a constant; comparing the residual for the log-corrected gauge against
    the pure power quantifies which one the data supports.
    """
    seps = _seps()
    vals = np.sqrt(model._spatial_sq(_T_REF, seps))
    resid = np.log(vals) - np.log(gauge.value(seps))
    resid = resid - np.mean(resid)
    return float(np.sqrt(np.mean(resid**2)))


def _seps() -> np.ndarray:
    """The separations of the spatial fits, 1e-4 .. 1e-1."""
    return np.logspace(-4.0, -1.0, 13)


def _fit_loglog(lags: np.ndarray, vals: np.ndarray) -> SlopeFit:
    lx, ly = np.log(lags), np.log(vals)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return SlopeFit(slope=float(slope), rms_residual=float(np.sqrt(np.mean(resid**2))))


def _golden_section(f, lo: float, hi: float) -> float:
    """Minimizer of a unimodal f on (lo, hi), to within ``_GAMMA_TOL``."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _GAMMA_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = f(d)
    return 0.5 * (a + b)
