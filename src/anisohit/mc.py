"""Exact Gaussian sampling on space-time grids and hitting-probability MC.

A grid is regular over the model window: ``n_times`` equally spaced times
in [t0, t1] times one axis of ``n_sites`` equally spaced sites in
[-M, M], repeated in each spatial dimension, at most 4096 points in all.
The field restricted to such a grid is a Gaussian vector with the model's
covariance matrix.  That covariance depends on space only through |x - y|,
so it is unchanged when a spatial axis is reflected, and the site axis is
its own mirror image: the vector splits exactly into 2^d independent
reflection-parity classes of about n/2^d points each, and the grid
covariance into one block per class, which this module lays out: a block's
entries are signed means of ``heat.covariance_matrix``'s table (every time
pair by every distinct site separation), read through the class's index
tables of whole-step offsets (``SampleGrid.parity``).  Class by class, a
block is filled and factored in place (LAPACK ``dpotrf``), so one class's
tables are held at a time; the factor serves every replicate and component.
On a 64 x 64 grid two 2048-point blocks take half the multiply flops of one
dense factor, and a quarter of its factorization flops.  A block and its
factor live in one triangle: two classes of equal size share one
(N + 1) x N array (``_packed_blocks``), so the two factors of a 64 x 64
grid take 32 MB, a quarter of one dense factor.
Randomness is counter-based (Philox) and keyed by
(seed, replicate, component), so estimates do not depend on chunking or
evaluation order, and any single replicate can be reproduced in isolation.
A chunk is ``max(1, 512 // components)`` replicates (256 at D = 2, 128 at
D = 4), about 512 (replicate, component) rows.  Per chunk, the first n
normals of each stream are drawn straight into the layouts of one in-place
triangular multiply per class (BLAS ``dtrmm``), a per-axis +/- butterfly
(``SampleGrid.unfold``) turns the class values into field values in place,
and the minimum distance to the target is taken per replicate over all n
points, with consecutive replicates stacked into one distance call of at
most 4096 field points.  Each chunk is released before the next is drawn,
so a run holds the packed factors and one chunk of field values: at most
512 rows of n float64 (one replicate if D is larger), 16 MB on a 64 x 64
grid.  ``dpotrf`` and ``dtrmm`` are scipy's compiled routines, loaded
without the ``scipy.linalg`` package (``_compiled.scipy_routine``).

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
from functools import partial
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
_CHUNK_ROWS = 512  # (replicate, component) rows sampled at once
# field points stacked into one target.distance call, so that tiny grids
# do not pay one Python call per replicate
_DISTANCE_POINTS = 4096
_FILL_BAND = 1 << 18  # entries of one band of a block fill (2 MiB of float64)


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

    def _class_sizes(self) -> list[int]:
        """Sites of each class, in class order."""
        halves = [len(self._half_axis(odd)) for odd in (0, 1)]
        return [math.prod(halves[odd] for odd in sigma) for sigma in self._classes()]

    def _step_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct whole numbers S of squared steps between two sites,
        increasing, and ``index``, shape (n,) * d: at per-axis step counts a,
        the position of sum a_k^2 among them, in 1 or 2 bytes."""
        n = len(self.site_axis)
        sums = sum(np.ix_(*[np.arange(n) ** 2] * self.space_dim))
        whole, index = np.unique(sums, return_inverse=True)  # sorts; plain np.unique imports numpy.ma
        return whole, index.reshape(sums.shape).astype(np.min_scalar_type(len(whole)))

    def separations(self) -> np.ndarray:
        """The grid's distinct site separations, step * sqrt(S), increasing."""
        n = len(self.site_axis)
        step = (self.site_axis[-1] - self.site_axis[0]) / max(n - 1, 1)
        return step * np.sqrt(self._step_index()[0])

    def parity(self, c: int) -> list[tuple[float, np.ndarray]]:
        """Class c's index tables into ``separations``: one (sign, table) per
        reflection eta (a flag per axis, 1 where it is reflected), in class order.

        Along an axis, sites i and j lie |i - j| steps apart and
        |i + j - (n - 1)| steps from each other's mirror image.  The table
        indexes |x - eta y| for the class's sites x (rows) and y (columns), a
        product of half axes with the first axis slowest, by one gather from
        ``_step_index`` at the flat position sum count_k * n^(d-1-k) < 4096
        (int16); the sign is -1 when eta reflects an odd number of the
        class's odd axes.
        """
        n, d = len(self.site_axis), self.space_dim
        index = self._step_index()[1].ravel()
        sigma = self._classes()[c]

        def flat_steps(axis: int, odd: int, flip: int) -> np.ndarray:
            a = self._half_axis(odd).astype(np.int16)
            steps = a[:, None] + (a - (n - 1)) if flip else a[:, None] - a  # one k x k array
            np.abs(steps, out=steps)
            steps *= n ** (d - 1 - axis)
            return steps

        def table(eta: tuple[int, ...]) -> np.ndarray:
            axes = zip(sigma, eta)
            flat = flat_steps(0, *next(axes))  # the first axis, slowest
            for axis, (odd, flip) in enumerate(axes, 1):
                steps = flat_steps(axis, odd, flip)
                size = len(flat) * len(steps)
                flat = (flat[:, None, :, None] + steps[None, :, None, :]).reshape(size, size)
            return index[flat]

        return [((-1.0) ** sum(f * o for f, o in zip(eta, sigma)), table(eta)) for eta in self._classes()]

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

    Factor c is the lower triangle of the square view ``factors[c]`` (see
    ``_packed_blocks``).  Class by class, the class's tables are built, its
    block is filled from them (``_fill_block``) and factored in place, and
    the tables are let go.  LAPACK ``dpotrf`` (scipy's, loaded by
    ``_compiled.scipy_routine``) overwrites the triangle and reads nothing
    outside it, so the packed blocks are the only covariance-sized arrays
    held.  When a clean factorization fails, the triangle is filled again,
    its diagonal is lifted by 1e-10 of its largest entry, once more by 1e-9,
    and then the block is declared numerically singular; a lift is logged
    as a warning.  A class without sites has a 0 x 0 factor.
    """
    nt = len(grid.times)
    table = covariance_matrix(model, np.asarray(grid.times), grid.separations())
    blocks = _packed_blocks([nt * k for k in grid._class_sizes()])
    for c, block in enumerate(blocks):
        _factor_in_place(block, partial(_fill_block, block, table, grid.parity(c)))
    return blocks


def _packed_blocks(sizes: list[int]) -> list[np.ndarray]:
    """Square views whose lower triangles hold blocks of the given sizes.

    Two consecutive blocks of equal size N share one C-ordered (N + 1) x N
    array: the first is its rows 1..N, the second the transpose of its rows
    0..N-1, whose lower triangle is the array's diagonal and upper triangle.
    Any other block has an N x N array to itself, zero above the diagonal."""
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


def _fill_block(block: np.ndarray, table: np.ndarray, terms: list[tuple[float, np.ndarray]]) -> None:
    """Write one class's covariance, time-major over its sites, into the
    lower triangle of its block and nowhere else: the signed mean of
    ``covariance_matrix``'s ``table`` over the class's ``parity`` terms.

    Time i's columns are filled in bands of the class's site rows: a band
    gathers, sums and writes its rows at every time j >= i, at most
    ``_FILL_BAND`` entries at a time, straight into the block.  The tables
    are symmetric, so row y, column x reads the entry (y, x) of each.
    """
    k = len(terms[0][1])
    nt = len(block) // k if k else 0
    (sign0, idx0), *rest = terms
    pairs = table
    for i in range(nt):
        # the pairs (i, j) for j >= i, which are the table's next nt - i rows
        head, pairs = pairs[: nt - i], pairs[nt - i :]
        # block rows at times j >= i by time i's columns, as (j - i, y, x): a view
        below = block[i * k :, i * k : (i + 1) * k].reshape(nt - i, k, k)
        rows = max(1, _FILL_BAND // ((nt - i) * k))
        for y0 in range(0, k, rows):
            y1 = min(y0 + rows, k)
            band = sign0 * head[:, idx0[y0:y1]]
            for sign, idx in rest:
                band += sign * head[:, idx[y0:y1]]
            if rest:
                band *= 1.0 / (1 + len(rest))
            below[1:, y0:y1] = band[1:]
            # at time i itself, row y reaches column y
            np.copyto(below[0, y0:y1, :y1], band[0, :, :y1], where=np.tri(y1 - y0, y1, y0, dtype=bool))


def _lower_operand(block: np.ndarray) -> tuple[np.ndarray, int]:
    """The block's lower triangle as a Fortran-ordered LAPACK/BLAS operand
    and the triangle flag that names it: a C-ordered view's transpose, whose
    upper triangle it is, or a Fortran-ordered view itself."""
    return (block.T, 0) if block.flags.c_contiguous else (block, 1)


def _factor_in_place(block: np.ndarray, fill) -> None:
    """Factor the block that ``fill()`` writes, filling it again before each lift."""
    from ._compiled import scipy_routine

    dpotrf = scipy_routine("dpotrf")
    a, lower = _lower_operand(block)
    n = block.shape[0]
    fill()
    scale = float(np.max(np.diagonal(block), initial=0.0))
    for rel in (0.0, 1e-10, 1e-9):
        if rel:
            fill()
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
    ``dtrmm`` is scipy's, loaded by ``_compiled.scipy_routine`` without the
    ``scipy.linalg`` package import.
    """
    from ._compiled import scipy_routine

    dtrmm = scipy_routine("dtrmm")

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
    chunk = max(1, _CHUNK_ROWS // comps)
    out = np.full(n_samples, np.inf)
    for start in range(0, n_samples, chunk):
        stop = min(start + chunk, n_samples)
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
