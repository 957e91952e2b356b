"""Panel-based Gauss-Legendre quadrature.

Every integral in this package is one dimensional, smooth away from the
endpoints, and at worst carries an integrable power singularity at one or
both ends.  Composite Gauss rules on a geometrically refined partition
handle that shape well and, unlike ``scipy.integrate.quad``, keep the
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


def geometric_edges(
    a: float,
    b: float,
    *,
    refine_lo: bool = False,
    refine_hi: bool = False,
    levels: int = 30,
    interior: int = 4,
) -> np.ndarray:
    """Panel edges on [a, b], geometrically refined toward flagged endpoints.

    ``levels`` halvings push the innermost panel edge to ``2**-(levels + 1)``
    times the interval length from the endpoint, which tames integrable
    power singularities there.  The middle of the interval gets
    ``interior`` evenly spaced panels.
    """
    if not b > a:
        raise ValueError("need b > a")
    length = b - a
    lo_offsets = []
    if refine_lo:
        lo_offsets = [length * 0.5 ** (k + 1) for k in range(levels, 0, -1)]
    hi_offsets = []
    if refine_hi:
        hi_offsets = [length * (1.0 - 0.5 ** (k + 1)) for k in range(1, levels + 1)]
    mid_lo = lo_offsets[-1] if lo_offsets else 0.0
    mid_hi = hi_offsets[0] if hi_offsets else length
    mid = np.linspace(mid_lo, mid_hi, max(interior, 1) + 1)[1:-1].tolist()
    offsets = [0.0] + lo_offsets + mid + hi_offsets + [length]
    edges = a + np.asarray(offsets)
    edges[0], edges[-1] = a, b
    edges = np.unique(edges)
    # Drop panels that collapsed to a few ulps; they only create 0/0 noise.
    spacing = 8.0 * np.finfo(float).eps * max(abs(a), abs(b), length)
    keep = np.concatenate([[True], np.diff(edges) > spacing])
    keep[-1] = True
    edges = edges[keep]
    if edges[-2] >= b - spacing and len(edges) > 2:
        edges = np.delete(edges, -2)
    return edges


def log_edges(a: float, b: float) -> np.ndarray:
    """Geometrically spaced panel edges on [a, b] with 0 < a < b.

    Suited to integrands that behave like powers of the variable over many
    orders of magnitude.  One panel is used per factor of two.
    """
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    n = max(1, int(np.ceil(np.log2(b / a))))
    return np.exp(np.linspace(np.log(a), np.log(b), n + 1))


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
