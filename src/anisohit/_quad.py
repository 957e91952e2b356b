"""Panel-based Gauss-Legendre quadrature.

Every integral in this package is one dimensional.  The covariance
integrals behave like powers of their variable between a few kinks, with
at worst an integrable power singularity at an end; ``panel_edges`` gives
them one partition, a panel per octave halved toward each kink.  The
growth integrals of ``gauges`` are smooth in log scale and take even
panels.  Unlike ``scipy.integrate.quad``, composite Gauss rules keep the
integrand calls vectorized; the covariance code evaluates one rule against
a whole batch of spatial separations at once.
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

    Returns flat node and weight arrays of length ``order * (len(edges)-1)``.
    Panels never place nodes on their edges, so integrands may be singular
    at the partition points.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two panel edges")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("panel edges must be strictly increasing")
    x, w = gauss_rule(order)
    lo = edges[:-1, None]
    half = 0.5 * np.diff(edges)[:, None]
    nodes = lo + half * (x[None, :] + 1.0)
    weights = half * w[None, :]
    return nodes.ravel(), weights.ravel()


def panel_edges(lo: float, kinks: tuple[float, ...], hi: float, *, tip: bool, levels: int) -> np.ndarray:
    """Panel edges on [lo, hi] with 0 < lo < hi for power-law integrands.

    The kinks strictly inside (lo, hi) split the range into segments.  Each
    segment gets one panel per factor of two, which follows a power of the
    variable over any number of decades, plus ``levels`` halvings toward
    every kink from both sides, and toward ``hi`` as well when ``tip`` says
    the integrand has a kink there.  Edges closer than a few ulps are
    merged.  The end edges are lo and hi up to the rounding of exp(log(.)).
    """
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    inner = sorted({v for v in kinks if lo * (1.0 + 1e-9) < v < hi * (1.0 - 1e-14)})
    brks = [lo] + inner + [hi]
    pts: set[float] = set()
    for i in range(len(brks) - 1):
        a, b = brks[i], brks[i + 1]
        n = max(1, int(np.ceil(np.log2(b / a))))
        pts.update(np.exp(np.linspace(np.log(a), np.log(b), n + 1)))
        span = b - a
        if i + 1 < len(brks) - 1 or tip:
            pts.update(b - span * 0.5 ** j for j in range(1, levels + 1))
        if i > 0:
            pts.update(a + span * 0.5 ** j for j in range(1, levels + 1))
    edges = np.array(sorted(pts))
    keep = np.diff(edges) > 16.0 * np.finfo(float).eps * edges[1:]
    return np.concatenate([edges[:1], edges[1:][keep]])


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
