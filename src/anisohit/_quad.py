"""Panel-based Gauss-Legendre quadrature.

Every integral in this package is one dimensional.  The covariance
integrals behave like powers of their variable between a few kinks, with
at worst an integrable power singularity at an end; ``panel_edges`` gives
them one partition, a panel per octave halved toward each kink, built for
a whole batch of intervals in a few array passes.  The growth integrals of
``gauges`` are smooth in log scale and take even panels.  Unlike
``scipy.integrate.quad``, composite Gauss rules keep the integrand calls
vectorized; the covariance code evaluates each rule against a whole batch
of spatial separations at once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_rule(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Map a Gauss rule onto every panel ``[edges[i], edges[i+1]]``.

    ``edges`` is one increasing row, or a 2-D array of rows each padded
    with +inf after its last edge, as ``panel_edges`` returns them.  Returns
    flat node and weight arrays, row after row, of ``order`` points per
    panel.  Panels never place nodes on their edges, so integrands may be
    singular at the partition points.
    """
    edges = np.asarray(edges, dtype=float)
    rows = np.atleast_2d(edges)
    if edges.ndim > 2 or rows.shape[1] < 2 or not np.all(np.isfinite(rows[:, 1])):
        raise ValueError("need at least two panel edges")
    lo, hi = rows[:, :-1], rows[:, 1:]
    panel = np.isfinite(hi)
    lo, hi = lo[panel], hi[panel]
    if np.any(~(hi > lo)):
        raise ValueError("panel edges must be strictly increasing")
    x, w = gauss_rule(order)
    half = 0.5 * (hi - lo)[:, None]
    nodes = lo[:, None] + half * (x[None, :] + 1.0)
    weights = half * w[None, :]
    return nodes.ravel(), weights.ravel()


def panel_edges(lo, kinks, hi, *, tip, levels: int) -> np.ndarray:
    """Panel edges on [lo[i], hi[i]] with 0 < lo < hi for power-law integrands.

    One row per interval: ``lo``, ``hi`` and ``tip`` have one entry per row
    and ``kinks`` one row of candidate kinks.  The distinct kinks strictly
    inside (lo, hi) split the range into segments.  Each segment gets one
    panel per factor of two, which follows a power of the variable over
    any number of decades, plus ``levels`` halvings toward every kink from
    both sides, and toward ``hi`` as well when ``tip`` says the integrand
    has a kink there.  A segment [a, b] halves toward b in steps of b - a,
    and toward its left kink a in steps of min(b - a, a), so a kink far
    below b gets its halvings at its own scale.  Within a row, edges closer
    than 16 ulps to the one below are merged into it.  The end edges are lo
    and hi up to the rounding of exp(log(.)).

    Returns an array with one row per interval: its edges in increasing
    order, padded with +inf to the longest row.
    """
    lo, kinks, hi = (np.asarray(v, dtype=float) for v in (lo, kinks, hi))
    tip = np.asarray(tip, dtype=bool)
    if not np.all((0.0 < lo) & (lo < hi)):
        raise ValueError("need 0 < lo < hi")
    inside = (lo[:, None] * (1.0 + 1e-9) < kinks) & (kinks < hi[:, None] * (1.0 - 1e-14))
    inner = np.sort(np.where(inside, kinks, np.inf), axis=1)
    inner[:, 1:][inner[:, 1:] == inner[:, :-1]] = np.inf  # a repeated kink counts once
    inner.sort(axis=1)
    n_inner = np.count_nonzero(np.isfinite(inner), axis=1)
    brks = np.concatenate([lo[:, None], inner, np.full((lo.size, 1), np.inf)], axis=1)
    brks[np.arange(lo.size), n_inner + 1] = hi

    # the segments [a, b] of every row, those past hi dead
    seg = np.arange(inner.shape[1] + 1)
    live = seg <= n_inner[:, None]
    a = np.where(live, brks[:, :-1], 1.0)[..., None]
    b = np.where(live, brks[:, 1:], 2.0)[..., None]
    # np.linspace(log a, log b, n + 1), spelled out for segments of differing n
    n = np.maximum(1, np.ceil(np.log2(b / a))).astype(int)
    log_a, log_b = np.log(a), np.log(b)
    k = np.arange(n.max() + 1.0)
    y = np.where(k == n, log_b, k * ((log_b - log_a) / n) + log_a)
    octaves = np.exp(np.where(live[..., None] & (k <= n), y, np.inf))
    halve = np.ldexp(1.0, -np.arange(1, levels + 1))
    span = b - a
    to_b = live & ((seg < n_inner[:, None]) | tip[:, None])
    toward_b = np.where(to_b[..., None], b - span * halve, np.inf)
    toward_a = np.where((live & (seg > 0))[..., None], a + np.minimum(span, a) * halve, np.inf)
    pts = np.concatenate([octaves, toward_b, toward_a], axis=2).reshape(lo.size, -1)
    pts.sort(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf between paddings
        merged = np.diff(pts, axis=1) <= 16.0 * np.finfo(float).eps * pts[:, 1:]
    pts[:, 1:][merged] = np.inf
    pts.sort(axis=1)
    return pts[:, : np.count_nonzero(np.isfinite(pts), axis=1).max()]


def log_weighted_sum(log_terms: np.ndarray, weights: np.ndarray) -> float:
    """log of sum(weights * exp(log_terms)) computed without overflow.

    Used by the growth diagnostics, whose integrands span thousands of
    orders of magnitude in linear scale.  Weights must be positive.
    """
    log_terms = np.asarray(log_terms, dtype=float)
    m = float(np.max(log_terms))
    if not np.isfinite(m):
        return m
    return m + float(np.log(np.dot(weights, np.exp(log_terms - m))))
