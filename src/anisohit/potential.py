"""Capacities and Hausdorff-type premeasures for compact target sets.

Capacity is computed as one over the minimal quadratic energy mu' K mu of a
probability vector on a discretization of the set into equal cells, where K
applies a radial kernel to cell distances; the diagonal takes the kernel's
self-energy of one cell, estimated by averaging over fixed quasi-random
intra-cell pair offsets.  The minimization runs an away-step Frank-Wolfe
iteration whose final duality gap is also a rigorous bound on the suboptimality, so every
reported capacity comes with a certificate.

The premeasure side covers the set with half-open dyadic cells exactly (no
sampling): each supported set type counts the cells of a given side length
that meet it, and the estimate is the count times the gauge of
the covering ball diameter, minimized over a few nearby scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import ConfigurationError, KernelError

if TYPE_CHECKING:
    from .gauges import GaugeSystem

_MAX_COVER_CELLS = 1 << 22
_CELL_PAIRS = 64  # quasi-random pairs averaged for a cell's self-energy
_FW_MAX_ITER = 200_000  # Frank-Wolfe iteration cap of the capacity solve
# cells of a capacity solve: K is n^2 float64 (128 MiB at the bound), and a
# solve peaks at about 2 n^2 float64 while K is made from the distances
_MAX_CAPACITY_CELLS = 4096
# entries of one block of point-set distances, or of one band of capacity
# cell distances (2 MiB of float64)
_DISTANCE_BLOCK = 1 << 18


# -- target sets ---------------------------------------------------------------


class TargetSet:
    """Common interface: distance queries, capacity cells, dyadic covers."""

    dim: int

    def distance(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cells(self, n_cells: int) -> tuple[np.ndarray, float]:
        """Centers (m, dim) of m >= 1 equal cells discretizing the set, and
        their common width (0 for points)."""
        raise NotImplementedError

    def dyadic_count(self, side: float) -> int:
        """Number of half-open dyadic cells of side ``side`` meeting the set."""
        raise NotImplementedError

    def _points2d(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ConfigurationError(f"points must be rows of {self.dim} coordinates")
        return pts


@dataclass(frozen=True, eq=False)
class Ball(TargetSet):
    """Closed Euclidean ball; in one dimension, an interval."""

    center: tuple
    radius: float

    def __post_init__(self):
        center = tuple(float(c) for c in np.atleast_1d(np.asarray(self.center, dtype=float)))
        object.__setattr__(self, "center", center)
        if not all(math.isfinite(c) for c in center):
            raise ConfigurationError("ball center must be finite")
        if not 0.0 <= self.radius < math.inf:
            raise ConfigurationError("radius must be finite and nonnegative")

    @property
    def dim(self) -> int:
        return len(self.center)

    def distance(self, points) -> np.ndarray:
        pts = self._points2d(points)
        return np.maximum(np.linalg.norm(pts - np.asarray(self.center), axis=1) - self.radius, 0.0)

    def cells(self, n_cells: int) -> tuple[np.ndarray, float]:
        """The cells of a per_axis^dim grid on the bounding cube whose centers
        lie in the ball, decided exactly in integers."""
        if self.radius == 0.0:
            return np.asarray([self.center]), 0.0
        per_axis = max(1, int(round(n_cells ** (1.0 / self.dim))))
        if per_axis % 2 == 0 and per_axis**2 < self.dim:
            # an even grid this coarse has no center inside the ball; an odd
            # one has the ball's own center
            per_axis += 1
        w = 2.0 * self.radius / per_axis
        # cell k's center lies (2k + 1 - per_axis) * w / 2 from the ball's center
        # along an axis; index rows are built axis by axis in product-grid order,
        # keeping a prefix only while its smallest completion fits in the ball
        sq = (2 * np.arange(per_axis) + 1 - per_axis) ** 2
        idx = np.zeros((1, 0), dtype=np.int64)
        total = np.zeros(1, dtype=np.int64)
        for left in range(self.dim - 1, -1, -1):
            rows, k = np.nonzero(total[:, None] + sq + left * sq.min() <= per_axis**2)
            idx = np.column_stack([idx[rows], k])
            total = total[rows] + sq[k]
        return np.asarray(self.center) - self.radius + w * (idx + 0.5), w

    def dyadic_count(self, side: float) -> int:
        ranges = [
            _interval_cell_range(c - self.radius, c + self.radius, side) for c in self.center
        ]
        _guard_cover_size(int(np.prod([len(r) for r in ranges])))
        idx = _product_grid([r.astype(float) for r in ranges]).astype(np.int64)
        # a half-open cell meets the closed ball when its closed box comes
        # nearer than the radius, or reaches it at the box's nearest point
        # and holds that point: not on an upper face, where center >= lo + side
        c = np.asarray(self.center)
        lo = idx * side
        gap = np.linalg.norm(np.clip(c, lo, lo + side) - c, axis=1)
        held = np.all(c < lo + side, axis=1)
        return int(np.count_nonzero((gap < self.radius) | ((gap == self.radius) & held)))


@dataclass(frozen=True, eq=False)
class Box(TargetSet):
    """Axis-aligned closed box [lo_1, hi_1] x ... x [lo_k, hi_k]."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(np.asarray(self.lo, dtype=float)))
        hi = tuple(float(v) for v in np.atleast_1d(np.asarray(self.hi, dtype=float)))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not all(math.isfinite(v) for v in lo + hi):
            raise ConfigurationError("box bounds must be finite")
        if len(lo) != len(hi) or not all(a <= b for a, b in zip(lo, hi)):
            raise ConfigurationError("box needs lo <= hi componentwise")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def distance(self, points) -> np.ndarray:
        pts = self._points2d(points)
        below = np.asarray(self.lo) - pts
        above = pts - np.asarray(self.hi)
        gap = np.maximum(np.maximum(below, above), 0.0)
        return np.linalg.norm(gap, axis=1)

    def cells(self, n_cells: int) -> tuple[np.ndarray, float]:
        edges = np.asarray(self.hi) - np.asarray(self.lo)
        positive = edges[edges > 0]
        if positive.size == 0:
            return np.asarray([self.lo]), 0.0
        w = (np.prod(positive) / n_cells) ** (1.0 / positive.size)
        axes = []
        for a, b in zip(self.lo, self.hi):
            m = max(1, int(round((b - a) / w))) if b > a else 1
            axes.append(a + (b - a) * (np.arange(m) + 0.5) / m)
        return _product_grid(axes), float(w)

    def dyadic_count(self, side: float) -> int:
        return int(np.prod([len(_interval_cell_range(a, b, side)) for a, b in zip(self.lo, self.hi)]))


@dataclass(frozen=True, eq=False)
class PointSet(TargetSet):
    """A finite set of at least one point, given as an (n, dim) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            raise ConfigurationError("a point set needs at least one point")
        if pts.ndim != 2:
            raise ConfigurationError("points must be an (n, dim) array")
        if not np.all(np.isfinite(pts)):
            raise ConfigurationError("points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def distance(self, points) -> np.ndarray:
        """Distance to the nearest point of the set.

        The squared distances are summed coordinate by coordinate over
        blocks of the set's points, so that one block's (queries x points)
        array holds at most ``_DISTANCE_BLOCK`` entries (one point's column
        when there are more queries); the minimum is the same under any
        blocking, and the square root is taken once per query.
        """
        pts = self._points2d(points)
        step = min(len(self.points), max(1, _DISTANCE_BLOCK // max(1, len(pts))))
        sq, diff = np.empty((2, len(pts), step))
        out = np.full(len(pts), np.inf)
        for lo in range(0, len(self.points), step):
            block = self.points[lo : lo + step]
            s, d = sq[:, : len(block)], diff[:, : len(block)]
            np.subtract.outer(pts[:, 0], block[:, 0], out=s)
            s *= s
            for k in range(1, self.dim):
                np.subtract.outer(pts[:, k], block[:, k], out=d)
                d *= d
                s += d
            np.minimum(out, np.min(s, axis=1), out=out)
        return np.sqrt(out, out=out)

    def cells(self, n_cells: int) -> tuple[np.ndarray, float]:
        return self.points.copy(), 0.0

    def dyadic_count(self, side: float) -> int:
        # distinct rows counted in lexicographic order, where repeats are
        # neighbours: np.unique(axis=0) imports numpy.ma on its first call
        cells = np.floor(self.points / side).astype(np.int64)
        cells = cells[np.lexsort(cells.T[::-1])]
        return 1 + int(np.count_nonzero(np.any(cells[1:] != cells[:-1], axis=1)))


@dataclass(frozen=True, eq=False)
class CantorDust(TargetSet):
    """Product of middle-thirds Cantor prefractals of [0, 1] at a fixed recursion level."""

    level: int
    dim: int = 1

    def __post_init__(self):
        if not 0 <= self.level <= 20:
            raise ConfigurationError("cantor level must lie in [0, 20]")
        if not 1 <= self.dim <= 3:
            raise ConfigurationError("cantor dust supports dim 1..3")

    def distance(self, points) -> np.ndarray:
        pts = self._points2d(points)
        starts, ends = _cantor_intervals(self.level)
        per_axis = [_interval_union_distance(pts[:, k], starts, ends) for k in range(self.dim)]
        return np.linalg.norm(np.stack(per_axis, axis=1), axis=1)

    def cells(self, n_cells: int) -> tuple[np.ndarray, float]:
        lvl = self.level
        while lvl > 0 and (2**lvl) ** self.dim > n_cells:
            lvl -= 1
        starts, ends = _cantor_intervals(lvl)
        mids = 0.5 * (starts + ends)
        return _product_grid([mids] * self.dim), float(ends[0] - starts[0])

    def _axis_cells(self, side: float) -> np.ndarray:
        starts, ends = _cantor_intervals(self.level)
        lo_idx = np.floor(starts / side).astype(np.int64)
        hi_idx = np.floor(ends / side).astype(np.int64)
        counts = hi_idx - lo_idx + 1
        total = int(np.sum(counts))
        _guard_cover_size(total)
        # interval k's cells lo_idx[k] .. hi_idx[k], all in one expansion;
        # the intervals are sorted and disjoint, so the cells come sorted and
        # only a cell shared by neighbouring intervals repeats (np.unique
        # would hash them and import numpy.ma on its first call)
        first = np.cumsum(counts) - counts
        cells = np.repeat(lo_idx - first, counts) + np.arange(total)
        return cells[np.concatenate(([True], cells[1:] != cells[:-1]))]

    def dyadic_count(self, side: float) -> int:
        return len(self._axis_cells(side)) ** self.dim


def _product_grid(axes: Sequence[np.ndarray]) -> np.ndarray:
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _interval_cell_range(a: float, b: float, side: float) -> np.ndarray:
    lo = math.floor(a / side)
    hi = math.floor(b / side)
    _guard_cover_size(hi - lo + 1)
    return np.arange(lo, hi + 1, dtype=np.int64)


def _guard_cover_size(count: int) -> None:
    if count > _MAX_COVER_CELLS:
        raise ConfigurationError(
            f"dyadic cover would need {count} cells (limit {_MAX_COVER_CELLS}); "
            "use a coarser resolution"
        )


@lru_cache(maxsize=32)
def _cantor_intervals(level: int) -> tuple[np.ndarray, np.ndarray]:
    starts = np.asarray([0.0])
    length = 1.0
    for _ in range(level):
        length /= 3.0
        starts = np.concatenate([starts, starts + 2.0 * length])
    starts = np.sort(starts)
    return starts, starts + length


def _interval_union_distance(x: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Distance from each x to a sorted union of disjoint closed intervals."""
    idx = np.searchsorted(starts, x, side="right")
    dist_left = np.where(idx > 0, x - ends[np.maximum(idx - 1, 0)], math.inf)
    dist_left = np.maximum(dist_left, 0.0)  # inside an interval
    dist_right = np.where(idx < len(starts), starts[np.minimum(idx, len(starts) - 1)] - x, math.inf)
    return np.minimum(dist_left, np.maximum(dist_right, 0.0))


# -- kernels -------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialKernel:
    """Radial kernel with a flag for integrability of the cell self-energy."""

    radial_profile: Callable[[np.ndarray], np.ndarray]
    integrable_at_zero: bool


def riesz_kernel(beta: float, ambient_dim: int) -> PotentialKernel:
    """|z|^(-beta) with the self-energy flag relative to ambient_dim cells."""
    if not 0.0 <= beta < math.inf:
        raise ConfigurationError("riesz exponent must be nonnegative and finite")

    def profile(r):
        rr = np.asarray(r, dtype=float)
        if beta == 0.0:
            return np.ones_like(rr)
        with np.errstate(divide="ignore"):
            return rr ** (-beta)

    return PotentialKernel(profile, integrable_at_zero=beta < ambient_dim)


def kernel_from_gauge(system: GaugeSystem, ambient_dim: int | None = None) -> PotentialKernel:
    """1 / hausdorff_gauge(|z|), constant past diam_cap, for hitting capacities.

    Requires the gauge to be increasing near 0 (otherwise the kernel has no
    potential-theoretic meaning); the profile is frozen at the gauge's value
    where monotonicity ends.  ``ambient_dim`` defaults to the field's state
    dimension, the space where hitting targets live.
    """
    from .gauges import check_monotonicity  # only gauge kernels need the gauge calculus

    mono = check_monotonicity(system)
    if not mono.increasing_on_some_interval:
        raise ConfigurationError("hausdorff gauge is not increasing near 0; no kernel")
    r_cap = min(system.diam_cap, mono.increasing_hi)
    if ambient_dim is None:
        ambient_dim = system.state_dim

    def profile(r):
        rr = np.minimum(np.asarray(r, dtype=float), r_cap)
        out = np.full_like(rr, math.inf)
        pos = rr > 0.0
        out[pos] = 1.0 / system.hausdorff_gauge(rr[pos])
        return out

    return PotentialKernel(profile, integrable_at_zero=system.power_exponent < ambient_dim)


# -- capacity ------------------------------------------------------------------


@dataclass(frozen=True)
class CapacityReport:
    """Capacity value with its optimization certificate.

    ``weights`` is the minimizing probability vector on the target's cell
    centers, or None when no cell can carry mass.
    """

    capacity: float
    energy: float
    gap: float
    iterations: int
    weights: np.ndarray | None


def _halton(n: int, dim: int) -> np.ndarray:
    """Unscrambled Halton points 1..n: radical inverses of the index in the first dim primes."""
    primes: list[int] = []
    cand = 2
    while len(primes) < dim:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    out = np.zeros((n, dim))
    for j, base in enumerate(primes):
        for i in range(n):
            k, f, x = i + 1, 1.0, 0.0
            while k:
                f /= base
                x += f * (k % base)
                k //= base
            out[i, j] = x
    return out


@lru_cache(maxsize=8)
def _unit_pair_seps(dim: int) -> np.ndarray:
    """Fixed quasi-random intra-cell pair separations for a unit cell."""
    u = _halton(_CELL_PAIRS, 2 * dim)
    seps = np.linalg.norm(u[:, :dim] - u[:, dim:], axis=1)
    return seps[seps > 0.0]


def capacity(
    kernel: PotentialKernel,
    target: TargetSet,
    n_cells: int,
    tol: float,
) -> CapacityReport:
    """Generalized capacity of the target under the given kernel.

    Solves min mu' K mu over the probability simplex on about ``n_cells``
    equal cells of the target (at most 4096) with away-step Frank-Wolfe;
    the reported ``gap`` bounds energy - optimum, so ``capacity`` is exact
    up to gap / energy^2.  All cells share one width and so one
    self-energy; when it is infinite (points under a singular kernel) no
    cell can carry mass and the capacity is 0.
    """
    if n_cells < 2:
        raise ConfigurationError("capacity needs n_cells >= 2")
    if n_cells > _MAX_CAPACITY_CELLS:
        raise ConfigurationError(f"capacity allows at most {_MAX_CAPACITY_CELLS} cells, asked for {n_cells}")
    if not tol > 0.0:
        raise ConfigurationError("capacity needs tol > 0")
    centers, width = target.cells(n_cells)
    if len(centers) > _MAX_CAPACITY_CELLS:
        raise ConfigurationError(
            f"the target splits into {len(centers)} cells; capacity allows at most {_MAX_CAPACITY_CELLS}"
        )
    if width == 0.0:  # points: a repeated one is refused ahead of any verdict
        dists = _cell_distances(centers)
        self_energy = float(np.asarray(kernel.radial_profile(np.zeros(1)))[0])
    elif kernel.integrable_at_zero:
        self_energy = float(np.mean(kernel.radial_profile(width * _unit_pair_seps(target.dim))))
    else:
        self_energy = math.inf
    if not math.isfinite(self_energy):
        return CapacityReport(0.0, math.inf, 0.0, 0, None)
    if width > 0.0:  # cells of one positive width cannot repeat a point
        dists = _cell_distances(centers)

    with np.errstate(over="ignore"):
        K = np.asarray(kernel.radial_profile(dists), dtype=float)
    del dists
    np.fill_diagonal(K, self_energy)
    if not np.all(np.isfinite(K)):
        raise KernelError("kernel produced non-finite values at positive distances")

    mu, energy, gap, iters = _simplex_min_quadratic(K, tol=tol, max_iter=_FW_MAX_ITER)
    return CapacityReport(
        capacity=1.0 / energy,
        energy=float(energy),
        gap=float(gap),
        iterations=iters,
        weights=mu,
    )


def _cell_distances(centers: np.ndarray) -> np.ndarray:
    """Distances between all pairs of cell centers, filled in bands of rows
    of at most ``_DISTANCE_BLOCK`` (row, cell, coordinate) entries.  Each
    row holds one zero, its own cell's; any other means the target repeats
    a point."""
    n, dim = centers.shape
    dists = np.empty((n, n))
    rows = max(1, _DISTANCE_BLOCK // (n * dim))
    for lo in range(0, n, rows):
        band = centers[lo : lo + rows, None, :] - centers[None, :, :]
        np.sqrt(np.sum(band * band, axis=2), out=dists[lo : lo + rows])
        if np.count_nonzero(dists[lo : lo + rows] == 0.0) > len(band):
            raise ConfigurationError("coincident cell centers; the target repeats a point")
    return dists


def _simplex_min_quadratic(
    K: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, float, float, int]:
    """min mu' K mu on the simplex by away-step Frank-Wolfe with exact line search.

    K is symmetric, so a vertex's column is read as its contiguous row.
    ``q = K mu`` is updated in place, and the away vertex is the first
    maximum of q over the support of mu, found in two preallocated buffers.
    """
    n = K.shape[0]
    mu = np.full(n, 1.0 / n)
    q = K @ mu
    f = float(mu @ q)
    gap = 0.0
    refresh = 256
    on_support = np.empty(n, dtype=bool)
    q_support = np.empty(n)  # q on the support of mu, -inf off it
    for it in range(max_iter):
        if it % refresh == refresh - 1:
            q = K @ mu
            f = float(mu @ q)
        mq = float(mu @ q)
        s = int(q.argmin())
        gap = 2.0 * (mq - q[s])
        if gap <= tol * max(f, 1e-300):
            return mu, f, gap, it
        np.greater(mu, 0.0, out=on_support)
        q_support.fill(-np.inf)
        np.copyto(q_support, q, where=on_support)
        v = int(q_support.argmax())
        away_gap = 2.0 * (q[v] - mq)
        if gap >= away_gap:
            denom = f - 2.0 * q[s] + K[s, s]
            step = 1.0 if denom <= 0.0 else min(1.0, max(0.0, (f - q[s]) / denom))
            f = (1 - step) ** 2 * f + 2 * step * (1 - step) * q[s] + step**2 * K[s, s]
            mu *= 1.0 - step
            mu[s] += step
            q *= 1.0 - step
            q += step * K[s]
        else:
            g_max = mu[v] / (1.0 - mu[v]) if mu[v] < 1.0 else 1.0
            denom = f - 2.0 * q[v] + K[v, v]
            step = g_max if denom <= 0.0 else min(g_max, max(0.0, (q[v] - f) / denom))
            f = (1 + step) ** 2 * f - 2 * step * (1 + step) * q[v] + step**2 * K[v, v]
            mu *= 1.0 + step
            drop = step >= g_max * (1.0 - 1e-14)
            mu[v] = 0.0 if drop else mu[v] - step
            q *= 1.0 + step
            q -= step * K[v]
    q = K @ mu
    f = float(mu @ q)
    gap = 2.0 * float(mu @ q - np.min(q))
    return mu, f, gap, max_iter


# -- premeasure covers ---------------------------------------------------------


@dataclass(frozen=True)
class CoverEstimate:
    """One scale of the dyadic premeasure: count * gauge(covering diameter)."""

    eps: float
    side: float
    count: int
    value: float


def hausdorff_upper(
    gauge: Callable[[float], float], target: TargetSet, eps_ladder: Sequence[float]
) -> list[CoverEstimate]:
    """Dyadic-cover upper estimates of the gauge premeasure at each resolution.

    For each eps the set is covered by dyadic cells of side 2^-m small
    enough that a cell's circumscribed ball has radius at most eps; the
    estimate is N * gauge(ball diameter).  Two further halvings are also
    tried and the smallest estimate kept, since any finer cover remains
    a valid upper bound.
    """
    ladder = [float(e) for e in eps_ladder]
    if not ladder or not all(0.0 < e < math.inf for e in ladder) or not all(
        b < a for a, b in zip(ladder, ladder[1:])
    ):
        raise ConfigurationError("eps_ladder must be positive, finite and strictly decreasing")
    root_dim = math.sqrt(target.dim)
    out = []
    for eps in ladder:
        m0 = max(0, math.ceil(math.log2(root_dim / (2.0 * eps))))
        best = None
        for m in (m0, m0 + 1, m0 + 2):
            side = 2.0**-m
            count = target.dyadic_count(side)
            value = count * float(gauge(side * root_dim))
            if best is None or value < best.value:
                best = CoverEstimate(eps=eps, side=side, count=count, value=value)
        out.append(best)
    return out
