"""Exact Gaussian sampling on space-time grids and hitting-probability MC.

A grid is regular over the model window: ``n_times`` equally spaced times
in [t0, t1] times one axis of ``n_sites`` equally spaced sites in
[-M, M], repeated in each spatial dimension, at most 4096 points in all.
The field restricted to such a grid is a Gaussian vector with the model's
covariance matrix.  That covariance depends on space only through |x - y|,
so it is unchanged when a spatial axis is reflected, and the site axis is
its own mirror image: the vector splits exactly into 2^d independent
reflection-parity classes of about n/2^d points each, and the grid
covariance into one block per class, read through index tables of
whole-step offsets over the class's sites (``SampleGrid.parity``).  Each
block has its own Cholesky factor, computed in place over the assembled
block (LAPACK ``dpotrf``), which serves every replicate and component; on a
64 x 64 grid two 2048-point blocks take half the multiply flops of one dense
factor, and a quarter of its factorization flops.  A block and its factor
live in one triangle: two classes of equal size share one (N + 1) x N array,
the first in its lower triangle and the second, transposed, in its upper one
(``covariance_matrix``), so the two factors of a 64 x 64 grid take 32 MB, a
quarter of one dense factor.
Randomness is counter-based (Philox) and keyed by
(seed, replicate, component), so estimates do not depend on chunking or
evaluation order, and any single replicate can be reproduced in isolation.
Per chunk of replicates, the first n normals of each stream are drawn
straight into the layouts of one in-place triangular multiply per class
(BLAS ``dtrmm``), a per-axis +/- butterfly (``SampleGrid.unfold``) turns the
class values into field values in place, and the minimum distance to the
target is taken per replicate over all n points, with consecutive
replicates stacked into one distance call of at most 4096 field points.
Each chunk is released before the next is drawn, so a run holds the packed
factors and one chunk of field values.

``dpotrf`` and ``dtrmm`` are scipy's own compiled routines, loaded from the
two f2py extension modules of ``scipy.linalg`` without importing that
package: the package import costs about 0.25 s of every run (it pulls in
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``), the two modules about
25 ms.  They are the objects that ``scipy.linalg.lapack`` and
``scipy.linalg.blas`` re-export, so factors and samples are the same bits.

Hitting is decided against a target set's distance function: one
reduction, ``estimate_hit_prob``, takes each replicate's minimum distance
from the field on one grid to the set, and gives the frequency with which
it is at most r for each radius r of a list, all over the same replicates,
so the frequencies are monotone in r by construction.  ``hit-mc`` asks for
radius 0 and the mesh radius, ``polarity`` for each grid's mesh radius and
``small_ball_slope`` for its ladder of radii around a point.  Until a
calibrated radius replaces it, the CLI chooses the mesh radius
(``mesh_inflation``), a sup-modulus heuristic of three model-gauge
increments times the usual sqrt(2 log n) factor, which is 2 to 26 times
the field's standard deviation on the grids measured so far: raw <= inflated
(the ``hit-bracket`` row) holds by construction and does not show that the
two bracket the continuum probability.
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
        # mirrored sites are exact negatives (np.linspace alone is off by an
        # ulp at n = 4, 8, ...), and the ends stay at -M and M exactly
        ends = np.linspace(-model.box_radius, model.box_radius, n_sites)
        axis = 0.5 * (ends - ends[::-1])
        return cls(tuple(float(t) for t in times), tuple(float(v) for v in axis), model.space_dim)

    @property
    def n_points(self) -> int:
        return len(self.times) * len(self.site_axis) ** self.space_dim

    def mesh_widths(self) -> tuple[float, float]:
        """Largest time spacing and largest spatial cell diagonal."""
        dt = max(np.diff(self.times)) if len(self.times) > 1 else 0.0
        dx = float(max(np.diff(self.site_axis))) if len(self.site_axis) > 1 else 0.0
        dx2 = 0.0
        for _ in range(self.space_dim):  # axis by axis: d * dx**2 rounds otherwise at d = 3
            dx2 += dx**2
        return float(dt), math.sqrt(dx2)

    # -- reflection parity ------------------------------------------------------------
    #
    # The covariance is unchanged when a spatial axis is reflected, and the
    # site axis is its own mirror image, so the field splits into 2^d
    # independent parity classes.  Class sigma has one flag per axis, 0 for
    # the even part (u(x) + u(-x))/2 and 1 for the odd part (u(x) - u(-x))/2,
    # and the classes are ordered with the first axis slowest.

    def _classes(self) -> list[tuple[int, ...]]:
        return list(np.ndindex(*(2,) * self.space_dim))

    def _half_axis(self, odd: int) -> np.ndarray:
        """Site-axis indices where a part lives, by increasing x: x >= 0 for
        the even part, x > 0 for the odd one (it vanishes at x = 0)."""
        n = len(self.site_axis)
        return np.arange(n // 2 + odd * (n % 2), n)

    def parity(self) -> tuple[np.ndarray, list[list[tuple[float, np.ndarray]]]]:
        """The grid's distinct site separations and each class's index tables.

        Along an axis, sites i and j lie i - j steps apart and i + j - (n - 1)
        steps from each other's mirror image, so |x - eta y|^2 is a whole
        number S of squared steps for every reflection eta (a flag per axis,
        1 where the axis is reflected, in class order).  Returns the
        separations step * sqrt(S) over the grid's distinct S, increasing;
        and for each class, in class order, one (sign, table) per eta.  The
        table indexes the separation |x - eta y| for the class's sites x
        (rows) and y (columns), a product of half axes with the first axis
        slowest; the sign is -1 when eta reflects an odd number of the
        class's odd axes.  Class sigma's covariance between sites x and y
        is the signed mean over eta of cov(x, eta y).
        """
        n = len(self.site_axis)
        present = np.zeros(self.space_dim * (n - 1) ** 2 + 1, dtype=bool)
        present[sum(np.ix_(*[np.arange(n) ** 2] * self.space_dim))] = True
        whole = np.flatnonzero(present)
        rank = np.zeros(len(present), dtype=np.min_scalar_type(len(whole)))  # S -> its index in whole; 2 bytes, not 8
        rank[whole] = np.arange(len(whole))
        step = (self.site_axis[-1] - self.site_axis[0]) / max(n - 1, 1)
        tables = []
        for sigma in self._classes():
            terms = []
            for eta in self._classes():
                squares = np.zeros((1, 1), dtype=int)
                for odd, flip in zip(sigma, eta):  # axis by axis, the first slowest
                    a = self._half_axis(odd)
                    steps = a[:, None] + a - (n - 1) if flip else a[:, None] - a
                    size = len(squares) * len(a)
                    squares = (squares[:, None, :, None] + steps[None, :, None, :] ** 2).reshape(size, size)
                terms.append(((-1.0) ** sum(f * o for f, o in zip(eta, sigma)), rank[squares]))
            tables.append(terms)
        return step * np.sqrt(whole), tables

    def unfold(self, parts: list[np.ndarray]) -> None:
        """Turn rows of parity-class values into field values, in place.

        ``parts[c]`` holds rows of class c's values, time-major over the
        class's sites (the order of ``parity``).  Axis by axis, the even
        part a and the odd part b of each pair of classes become
        u(x) = a(x) + b(x) in a's place and u(-x) = a(x) - b(x) in b's.
        Afterwards ``parts[c]`` holds the field, time-major, at the sites
        with coordinates x >= 0 on class c's even axes and x < 0 on its odd
        ones, each axis by increasing |x|.
        """
        n, d = len(self.site_axis), self.space_dim
        sizes = [len(self._half_axis(odd)) for odd in (0, 1)]
        classes = self._classes()
        shaped = [p.reshape(len(p), len(self.times), *(sizes[odd] for odd in sigma)) for p, sigma in zip(parts, classes)]
        for k in range(d):
            for c, sigma in enumerate(classes):
                if sigma[k]:
                    continue
                # the sites x > 0 of the even part, which the odd part shares
                even = shaped[c][(slice(None),) * (k + 2) + (slice(n % 2, None),)]
                odd = shaped[c + 2 ** (d - 1 - k)]
                even += odd
                odd *= -2.0
                odd += even  # (a + b) - 2b, without a second buffer


def factor_covariance(model: HeatModel, grid: SampleGrid) -> list[np.ndarray]:
    """Cholesky factors of the grid covariance's parity blocks, in class order.

    Factor c is the lower triangle of the square view ``factors[c]``; the
    view's other triangle belongs to the class it shares an array with
    (see ``covariance_matrix``), or is zero for a class without one.  Each
    block is factored in place: LAPACK ``dpotrf`` overwrites the block's
    triangle with the factor and reads nothing outside it, so the packed
    blocks are the only covariance-sized arrays held.
    When a clean factorization fails, the triangle is written again from
    the rule values, its diagonal is lifted by 1e-10 of its largest entry,
    once more by 1e-9, and then the block is declared numerically
    singular.  A lift is logged as a warning.  A class without sites has a
    0 x 0 factor.  ``dpotrf`` is scipy's, loaded by ``_lapack_blas``
    without the ``scipy.linalg`` package import.
    """
    blocks, refill = covariance_matrix(model, np.asarray(grid.times), grid.parity())
    for c, block in enumerate(blocks):
        _factor_in_place(block, lambda: refill(c))
    return blocks


def _lower_operand(block: np.ndarray) -> tuple[np.ndarray, int]:
    """The block's lower triangle as a Fortran-ordered LAPACK/BLAS operand
    and the triangle flag that names it: a C-ordered view's transpose, whose
    upper triangle it is, or a Fortran-ordered view itself."""
    return (block.T, 0) if block.flags.c_contiguous else (block, 1)


def _factor_in_place(block: np.ndarray, refill) -> None:
    dpotrf, _ = _lapack_blas()
    a, lower = _lower_operand(block)
    n = block.shape[0]
    scale = float(np.max(np.diagonal(block), initial=0.0))
    for rel in (0.0, 1e-10, 1e-9):
        if rel:
            refill()
            block[range(n), range(n)] += rel * scale
        info = dpotrf(a, lower=lower, overwrite_a=1, clean=0)[1]
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


def sample_fields(
    grid: SampleGrid, factors: list[np.ndarray], components: int, seed: int, reps: Sequence[int]
) -> list[np.ndarray]:
    """Field values of the given replicates, one array per parity class.

    Array c has shape (len(reps), class size, components) and holds the
    field at class c's sites after ``grid.unfold``: together the arrays
    cover every grid point once.  The first n normals of the Philox stream
    keyed (seed, r, c) fill the classes' vectors in class order, each class
    is multiplied by its factor, the lower triangle of ``factors[c]`` (the
    other triangle is not read), and the butterfly of ``grid.unfold`` turns
    the parts into field values, so any replicate is reproduced by drawing
    it alone.  Each class keeps one C-ordered buffer with one row per
    (replicate, component), whose transpose is the column-major operand
    that ``dtrmm`` overwrites; the results are views of those buffers.
    ``dtrmm`` is scipy's, loaded by ``_lapack_blas`` without the
    ``scipy.linalg`` package import.
    """
    _, dtrmm = _lapack_blas()

    parts = [np.empty((len(reps) * components, f.shape[0])) for f in factors]
    live = [p for p in parts if p.size]  # a class without sites draws nothing
    # one bit generator per call, rekeyed in place: constructing a Philox
    # costs four times as much as resetting its state
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state
    for j, rep in enumerate(reps):
        for c in range(components):
            state["state"]["key"] = np.array([seed, (rep << 32) | c], dtype=np.uint64)
            bits.state = state
            for part in live:
                gen.standard_normal(out=part[j * components + c])
    for k, factor in enumerate(factors):
        a, lower = _lower_operand(factor)
        parts[k] = dtrmm(1.0, a, parts[k].T, lower=lower, trans_a=1 - lower, overwrite_b=1).T
    grid.unfold(parts)
    return [p.reshape(len(reps), components, -1).transpose(0, 2, 1) for p in parts]


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


def _min_distances(
    model: HeatModel,
    grid: SampleGrid,
    factors: list[np.ndarray],
    target: TargetSet,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Per-replicate minimum distance from the sampled field to the target."""
    comps = model.components
    out = np.full(n_samples, np.inf)
    for start in range(0, n_samples, _CHUNK):
        stop = min(start + _CHUNK, n_samples)
        fields = sample_fields(grid, factors, comps, seed, range(start, stop))
        for part in fields:
            size = part.shape[1]
            if not size:
                continue
            group = max(1, _DISTANCE_POINTS // size)
            for lo in range(0, stop - start, group):
                rows = part[lo : lo + group]
                # one replicate reshapes to a view; several stack into a copy
                dist = target.distance(rows.reshape(-1, comps)).reshape(len(rows), size).min(axis=1)
                seen = out[start + lo : start + lo + len(rows)]
                np.minimum(seen, dist, out=seen)
        # let this chunk go before the next is drawn, so only one is held
        del fields, part, rows
    return out


def estimate_hit_prob(
    model: HeatModel,
    grid: SampleGrid,
    target: TargetSet,
    radii: Sequence[float],
    n_samples: int,
    seed: int,
) -> list[Estimate]:
    """Monte Carlo frequencies of the field coming within each radius of the target.

    The field is sampled on ``grid`` in ``n_samples`` replicates keyed by
    ``seed``; a replicate counts at radius r when some grid point's field
    vector lies within r of the target (r = 0: on it).  One Wilson estimate
    per radius, in the order of ``radii``, all over the same replicates, so
    the frequencies are monotone in the radius.  This is the only place
    where minimum distances become frequencies.
    """
    if n_samples < 100:
        raise ConfigurationError("need n_samples >= 100 for a meaningful interval")
    if target.dim != model.components:
        raise ConfigurationError(
            f"target lives in dimension {target.dim}, field has {model.components} components"
        )
    factors = factor_covariance(model, grid)
    dmin = _min_distances(model, grid, factors, target, n_samples, seed)
    return [_estimate(int(np.count_nonzero(dmin <= r)), n_samples) for r in radii]


# -- small-ball scaling -------------------------------------------------------------


@dataclass(frozen=True)
class SmallBallReport:
    """OLS slope of log hit frequency against log ball radius, and the
    frequencies along the ladder."""

    slope: float
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

    The ladder is at least three positive, finite, strictly decreasing
    radii; ``estimate_hit_prob`` gives their frequencies at the point
    ``center`` over one replicate set, so they are monotone in eps by
    construction.  Every frequency must land strictly inside (0, 1);
    otherwise the ladder cannot identify a slope at this resolution.
    """
    eps = np.asarray([float(e) for e in eps_ladder])
    if len(eps) < 3 or not np.all((eps > 0) & (eps < np.inf)) or not np.all(np.diff(eps) < 0):
        raise ConfigurationError("eps_ladder must be >= 3 positive, finite, strictly decreasing radii")
    estimates = estimate_hit_prob(model, grid, PointSet([center]), eps, n_samples, seed)
    p_hat = np.array([e.p_hat for e in estimates])
    if np.any(p_hat <= 0.0) or np.any(p_hat >= 1.0):
        raise InsufficientResolutionError(
            f"hit frequencies {p_hat.tolist()} leave (0,1); widen the radii, "
            "refine the grid, or raise n_samples"
        )
    slope = np.polyfit(np.log(eps), np.log(p_hat), 1)[0]
    return SmallBallReport(slope=float(slope), p_hat=p_hat)
