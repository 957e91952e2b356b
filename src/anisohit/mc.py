"""Exact Gaussian sampling on space-time grids and hitting-probability MC.

A grid is regular over the model window: ``n_times`` equally spaced times
in [t0, t1] times one axis of ``n_sites`` equally spaced sites in
[-M, M], repeated in each spatial dimension, at most 4096 points in all.
The field restricted to such a grid is a Gaussian vector with the model's
covariance matrix; one Cholesky factor per grid, computed in place over the
assembled matrix (LAPACK ``dpotrf``), serves every replicate and component.
Randomness is counter-based (Philox) and keyed by
(seed, replicate, component), so estimates do not depend on chunking or
evaluation order, and any single replicate can be reproduced in isolation.
Per chunk of replicates, the normals are drawn straight into the layout of
one in-place triangular multiply by the factor (BLAS ``dtrmm``, half the
flops of a dense product), and the minimum distance to the target is taken
per replicate, with consecutive replicates stacked into one distance call of
at most 4096 field points.  Each chunk is released before the next is drawn,
so a run holds one (n x n) factor and one chunk of field values.

``dpotrf`` and ``dtrmm`` are scipy's own compiled routines, loaded from the
two f2py extension modules of ``scipy.linalg`` without importing that
package: the package import costs about 0.25 s of every run (it pulls in
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``), the two modules about
25 ms.  They are the objects that ``scipy.linalg.lapack`` and
``scipy.linalg.blas`` re-export, so factors and samples are the same bits.

Hitting is decided against a target set's distance function: a replicate
hits when some grid point's field vector comes within the inflation radius
of the set.  Raw (radius 0) and mesh-inflated frequencies bracket the
continuum hitting probability in the intended reading; the radius is always
the mesh radius, a sup-modulus heuristic of three model-gauge increments
times the usual sqrt(2 log n) factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    FactorizationError,
    InsufficientResolutionError,
)
from .heat import HeatModel, covariance_matrix, model_gauges
from .potential import PointSet, TargetSet

_MAX_GRID_POINTS = 4096
_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_CHUNK = 256
# field points stacked into one target.distance call, so that tiny grids
# do not pay one Python call per replicate
_DISTANCE_POINTS = 4096


# -- compiled routines -------------------------------------------------------------


def _linalg_extension(stem: str):
    """Path of ``scipy.linalg``'s compiled module ``stem``, or None if absent."""
    from importlib.machinery import EXTENSION_SUFFIXES
    from pathlib import Path

    import scipy

    folder = Path(scipy.__file__).parent / "linalg"
    return next((p for p in (folder / (stem + sfx) for sfx in EXTENSION_SUFFIXES) if p.is_file()), None)


@cache
def _lapack_blas():
    """LAPACK ``dpotrf`` and BLAS ``dtrmm``, without importing ``scipy.linalg``.

    Each f2py module is loaded from its file under the name the package
    gives it, so a later ``import scipy.linalg`` finds it in ``sys.modules``
    and re-exports the same objects.  scipy's file layout is private: when
    either file is missing, the routines come from the public modules.
    """
    import sys
    from importlib.machinery import ExtensionFileLoader
    from importlib.util import module_from_spec, spec_from_loader

    paths = {stem: _linalg_extension(stem) for stem in ("_flapack", "_fblas")}
    if None in paths.values():
        from scipy.linalg.blas import dtrmm
        from scipy.linalg.lapack import dpotrf

        return dpotrf, dtrmm
    mods = {}
    for stem, path in paths.items():
        name = f"scipy.linalg.{stem}"
        mod = sys.modules.get(name)
        if mod is None:
            loader = ExtensionFileLoader(name, str(path))
            mod = module_from_spec(spec_from_loader(name, loader))
            loader.exec_module(mod)
            sys.modules[name] = mod
        mods[stem] = mod
    return mods["_flapack"].dpotrf, mods["_fblas"].dtrmm


# -- grids and samples -----------------------------------------------------------


@dataclass(frozen=True)
class SampleGrid:
    """Regular product grid times x site_axis^space_dim over a model window,
    the index set of one Gaussian vector.  Build it with ``regular``."""

    times: tuple
    site_axis: tuple
    space_dim: int

    @classmethod
    def regular(cls, model: HeatModel, n_times: int, n_sites: int) -> "SampleGrid":
        """Uniform grid over the model window [t0, t1] x [-M, M]^d."""
        if n_times < 1 or n_sites < 1:
            raise ConfigurationError("grid sizes must be positive")
        n_points = n_times * n_sites**model.space_dim
        if n_points > _MAX_GRID_POINTS:
            raise ConfigurationError(
                f"grid has {n_points} points; factorization bound is {_MAX_GRID_POINTS}"
            )
        times = np.linspace(model.t0, model.t1, n_times)
        if n_sites == 1:
            axis = np.zeros(1)
        else:
            axis = np.linspace(-model.box_radius, model.box_radius, n_sites)
        return cls(tuple(float(t) for t in times), tuple(float(v) for v in axis), model.space_dim)

    @property
    def n_points(self) -> int:
        return len(self.times) * len(self.site_axis) ** self.space_dim

    @property
    def sites(self) -> np.ndarray:
        mesh = np.meshgrid(*[np.asarray(self.site_axis)] * self.space_dim, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def mesh_widths(self) -> tuple[float, float]:
        """Largest time spacing and largest spatial cell diagonal."""
        dt = max(np.diff(self.times)) if len(self.times) > 1 else 0.0
        dx = float(max(np.diff(self.site_axis))) if len(self.site_axis) > 1 else 0.0
        dx2 = 0.0
        for _ in range(self.space_dim):  # axis by axis: d * dx**2 rounds otherwise at d = 3
            dx2 += dx**2
        return float(dt), math.sqrt(dx2)


def factor_covariance(model: HeatModel, grid: SampleGrid) -> np.ndarray:
    """Cholesky factor of the grid covariance, with a tiny-jitter fallback.

    The covariance is factored in place: LAPACK ``dpotrf`` overwrites the
    lower triangle with the factor and reads nothing above it, so the
    assembled matrix is the only (n x n) array held.  When a clean
    factorization fails, the lower triangle is restored from the untouched
    upper one and a saved diagonal, the diagonal is lifted by 1e-10 of its
    largest entry, once more by 1e-9, and then the matrix is declared
    numerically singular.  A lift is logged as a warning.  The result is
    C-contiguous and lower triangular.  ``dpotrf`` is scipy's, loaded by
    ``_lapack_blas`` without the ``scipy.linalg`` package import.
    """
    dpotrf, _ = _lapack_blas()

    cov = covariance_matrix(model, np.asarray(grid.times), grid.sites)
    n = cov.shape[0]
    diag = np.diag(cov).copy()
    scale = float(np.max(diag))
    for rel in (0.0, 1e-10, 1e-9):
        if rel:
            for i in range(1, n):
                cov[i, :i] = cov[:i, i]
            np.fill_diagonal(cov, diag + rel * scale)
        # cov.T is the column-major view, whose upper triangle is cov's lower
        lt, info = dpotrf(cov.T, lower=0, overwrite_a=1, clean=0)
        if info == 0:
            break
    else:
        raise FactorizationError(
            "covariance factorization failed after jitter escalation; the grid is "
            "too close to degenerate"
        )
    if rel:
        import logging  # only a lifted factorization logs; clean runs skip the import

        logging.getLogger("anisohit").warning(
            "grid covariance is numerically singular; factored it with a diagonal "
            "jitter of %.0e times the largest variance", rel
        )
    factor = lt.T  # cov itself, since dpotrf worked in place
    for i in range(n - 1):
        factor[i, i + 1 :] = 0.0
    return factor


def sample_fields(factor: np.ndarray, components: int, seed: int, reps: Sequence[int]) -> np.ndarray:
    """Field vectors of the given replicates, shape (len(reps), n_points, components).

    Replicate r, component c is ``factor @ z`` with z the Philox stream
    keyed (seed, r, c), so any replicate is reproduced by drawing it alone.
    Only the lower triangle of ``factor`` is read.  The normals fill one row
    per (replicate, component) of a C-ordered buffer, whose transpose is the
    column-major operand that ``dtrmm`` overwrites; the result is a view of it.
    ``dtrmm`` is scipy's, loaded by ``_lapack_blas`` without the
    ``scipy.linalg`` package import.
    """
    _, dtrmm = _lapack_blas()

    n = factor.shape[0]
    zt = np.empty((len(reps) * components, n))
    # one bit generator per call, rekeyed in place: constructing a Philox
    # costs four times as much as resetting its state
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state
    for j, rep in enumerate(reps):
        for c in range(components):
            state["state"]["key"] = np.array([seed, (rep << 32) | c], dtype=np.uint64)
            bits.state = state
            gen.standard_normal(out=zt[j * components + c])
    zt = dtrmm(1.0, factor.T, zt.T, lower=0, trans_a=1, overwrite_b=1).T
    return zt.reshape(len(reps), components, n).transpose(0, 2, 1)


# -- hitting ----------------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    """Binomial frequency with a 95% Wilson interval."""

    p_hat: float
    ci_lo: float
    ci_hi: float


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    z = _Z95
    if not 0 <= hits <= n or n <= 0:
        raise ConfigurationError("need 0 <= hits <= n with n > 0")
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    # the bounds are exactly 0 and 1 at the edges; rounding in the
    # subtraction above would otherwise leave a stray 1e-18
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return lo, hi


def _estimate(hits: int, n: int) -> Estimate:
    lo, hi = wilson_interval(hits, n)
    return Estimate(p_hat=hits / n, ci_lo=lo, ci_hi=hi)


def mesh_inflation(model: HeatModel, grid: SampleGrid) -> float:
    """Sup-modulus bound 3 (q1(dt) + q2(dx)) sqrt(2 log n) for grid gaps."""
    system = model_gauges(model)
    dt, dx = grid.mesh_widths()
    n = grid.n_points
    if n < 2:
        return 0.0
    return 3.0 * (system.q1.value(dt) + system.q2.value(dx)) * math.sqrt(2.0 * math.log(n))


@dataclass(frozen=True)
class HitProbability:
    """Raw and mesh-inflated hitting frequencies over shared replicates."""

    raw: Estimate
    inflated: Estimate
    inflation: float


def _min_distances(
    model: HeatModel,
    factor: np.ndarray,
    target: TargetSet,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Per-replicate minimum distance from the sampled field to the target."""
    comps = model.components
    n = factor.shape[0]
    group = max(1, _DISTANCE_POINTS // n)
    out = np.empty(n_samples)
    for start in range(0, n_samples, _CHUNK):
        stop = min(start + _CHUNK, n_samples)
        fields = sample_fields(factor, comps, seed, range(start, stop))
        for lo in range(0, stop - start, group):
            part = fields[lo : lo + group]
            # one replicate reshapes to a view; several stack into a copy
            dist = target.distance(part.reshape(-1, comps))
            out[start + lo : start + lo + len(part)] = dist.reshape(len(part), n).min(axis=1)
        # let this chunk go before the next is drawn, so only one is held
        del fields, part
    return out


def estimate_hit_prob(
    model: HeatModel,
    grid: SampleGrid,
    target: TargetSet,
    n_samples: int,
    seed: int,
) -> HitProbability:
    """MC hitting probability of the target, raw and inflated by the mesh radius.

    Both frequencies count the same replicates; the inflation radius is
    ``mesh_inflation(model, grid)``.
    """
    if n_samples < 100:
        raise ConfigurationError("need n_samples >= 100 for a meaningful interval")
    if target.dim != model.components:
        raise ConfigurationError(
            f"target lives in dimension {target.dim}, field has {model.components} components"
        )
    rho = mesh_inflation(model, grid)
    factor = factor_covariance(model, grid)
    dmin = _min_distances(model, factor, target, n_samples, seed)
    raw_hits = int(np.sum(dmin <= 0.0))
    inf_hits = int(np.sum(dmin <= rho))
    return HitProbability(
        raw=_estimate(raw_hits, n_samples),
        inflated=_estimate(inf_hits, n_samples),
        inflation=rho,
    )


# -- small-ball scaling -------------------------------------------------------------


@dataclass(frozen=True)
class SmallBallReport:
    """OLS slope of log hit frequency against log ball radius."""

    slope: float
    eps: np.ndarray
    p_hat: np.ndarray


def small_ball_slope(
    model: HeatModel,
    grid: SampleGrid,
    center: Sequence[float],
    eps_ladder: Sequence[float],
    n_samples: int,
    seed: int,
) -> SmallBallReport:
    """Slope of log P(field comes within eps of a point) along an eps ladder.

    All radii share one replicate set, so the frequencies are monotone in
    eps by construction.  Every frequency must land strictly inside (0, 1);
    otherwise the ladder cannot identify a slope at this resolution.
    """
    if n_samples < 100:
        raise ConfigurationError("need n_samples >= 100 for a meaningful interval")
    eps = np.asarray([float(e) for e in eps_ladder])
    if len(eps) < 3 or not np.all(eps > 0) or not np.all(np.diff(eps) < 0):
        raise ConfigurationError("eps_ladder must be >= 3 strictly decreasing radii")
    z = np.asarray(center, dtype=float).reshape(1, -1)
    if z.shape[1] != model.components:
        raise ConfigurationError("center must have one coordinate per field component")
    factor = factor_covariance(model, grid)
    dmin = _min_distances(model, factor, PointSet(z), n_samples, seed)
    p_hat = np.array([np.mean(dmin <= e) for e in eps])
    if np.any(p_hat <= 0.0) or np.any(p_hat >= 1.0):
        raise InsufficientResolutionError(
            f"hit frequencies {p_hat.tolist()} leave (0,1); widen the radii, "
            "refine the grid, or raise n_samples"
        )
    slope = np.polyfit(np.log(eps), np.log(p_hat), 1)[0]
    return SmallBallReport(slope=float(slope), eps=eps, p_hat=p_hat)


def point_trend(
    model: HeatModel,
    center: Sequence[float],
    grid_shapes: Sequence[tuple[int, int]],
    n_samples: int,
    seed: int,
) -> list[HitProbability]:
    """Inflated point-hitting estimates across grid refinements.

    For polar points the mesh inflation shrinks faster than the extra grid
    points gain coverage, so the inflated estimate trends to zero.
    """
    z = np.asarray(center, dtype=float).reshape(1, -1)
    out = []
    for n_times, n_sites in grid_shapes:
        grid = SampleGrid.regular(model, n_times, n_sites)
        out.append(
            estimate_hit_prob(model, grid, PointSet(z), n_samples=n_samples, seed=seed)
        )
    return out
