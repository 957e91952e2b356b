"""Capacities, the simplex optimizer, target geometry, and dyadic covers."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from anisohit.errors import ConfigurationError, KernelError
from anisohit.gauges import GaugeSpec, GaugeSystem
from anisohit.heat import HeatModel, model_gauges
from anisohit.potential import (
    _DISTANCE_BLOCK,
    Ball,
    Box,
    CantorDust,
    PointSet,
    PotentialKernel,
    _cantor_intervals,
    _guard_cover_size,
    _simplex_min_quadratic,
    _unit_pair_seps,
    capacity,
    hausdorff_upper,
    kernel_from_gauge,
    riesz_kernel,
)

CANTOR_DIM = math.log(2.0) / math.log(3.0)


# -- target geometry -------------------------------------------------------------


def test_ball_distance():
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    assert ball.distance([[2.0, 0.0]])[0] == pytest.approx(1.0)
    assert ball.distance([[0.3, -0.4]])[0] == 0.0
    assert ball.distance([[3.0, 4.0]])[0] == pytest.approx(4.0)


def test_box_distance():
    box = Box(lo=(0.0, 0.0), hi=(1.0, 2.0))
    assert box.distance([[2.0, 3.0]])[0] == pytest.approx(math.sqrt(2.0))
    assert box.distance([[0.5, 1.0]])[0] == 0.0
    assert box.distance([[-1.0, 1.0]])[0] == pytest.approx(1.0)


def test_point_set_distance():
    pts = PointSet(points=np.array([[0.0], [1.0]]))
    assert pts.distance([[0.4]])[0] == pytest.approx(0.4)
    plane = PointSet(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert plane.distance([[0.0, 0.5], [1.0, 1.0]]).tolist() == [0.5, 0.0]


def _unblocked_distance(points, queries):
    # the whole (queries x points x dim) difference array at once
    return np.min(np.linalg.norm(queries[:, None, :] - points[None, :, :], axis=2), axis=1)


@pytest.mark.parametrize(
    "n_points, n_queries, dim",
    [(1, 4096, 4), (3000, 2000, 2), (700, 1, 3), (50, 6000, 6), (2, 300_000, 1)],
)
def test_point_set_distance_equals_the_unblocked_minimum(n_points, n_queries, dim):
    rng = np.random.default_rng(n_points + dim)
    target = PointSet(rng.standard_normal((n_points, dim)))
    queries = rng.standard_normal((n_queries, dim))
    assert np.array_equal(target.distance(queries), _unblocked_distance(target.points, queries))


def test_point_set_distance_holds_one_block():
    # 2000 queries against 3000 points in the plane: the unblocked
    # difference array alone is 96 MB, a block of squared distances 2 MiB
    rng = np.random.default_rng(7)
    target = PointSet(rng.standard_normal((3000, 2)))
    queries = rng.standard_normal((2000, 2))
    target.distance(queries[:10])  # warms up untraced
    tracemalloc.start()
    try:
        target.distance(queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * _DISTANCE_BLOCK


def test_cantor_distance():
    dust = CantorDust(level=1)
    assert dust.distance([[0.5]])[0] == pytest.approx(1.0 / 6.0)
    assert dust.distance([[0.2]])[0] == 0.0
    assert dust.distance([[1.2]])[0] == pytest.approx(0.2)
    plane = CantorDust(level=1, dim=2)
    assert plane.distance([[0.5, 0.5]])[0] == pytest.approx(math.sqrt(2.0) / 6.0)


def test_dyadic_cover_counts():
    line = Box(lo=(0.0,), hi=(1.0,))
    assert line.dyadic_count(0.125) == 9  # the closed endpoint touches cell 8
    square = Box(lo=(0.0, 0.0), hi=(1.0, 1.0))
    assert square.dyadic_count(0.125) == 81
    dust = CantorDust(level=1)
    # [0, 1/3] meets cells 0, 1 at side 1/4; [2/3, 1] meets 2, 3, 4
    assert dust.dyadic_count(0.25) == 5
    ball = Ball(center=(0.5,), radius=0.5)
    assert ball.dyadic_count(0.5) == 3


@pytest.mark.parametrize("center, radius, side", [((0.0, 0.0), 0.4, 1.0 / 16.0), ((0.3, -0.2, 0.1), 0.25, 0.125)])
def test_ball_cover_counts_cells_whose_closed_box_touches_it(center, radius, side):
    # every cell of the bounding range, tested one at a time
    c = np.asarray(center)
    axes = [range(math.floor((v - radius) / side), math.floor((v + radius) / side) + 1) for v in center]
    want = 0
    for idx in itertools.product(*axes):
        lo = np.asarray(idx) * side
        want += np.linalg.norm(np.maximum(np.maximum(lo - c, c - lo - side), 0.0)) <= radius
    assert Ball(center=center, radius=radius).dyadic_count(side) == want


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_points", [1, 2, 300])
def test_point_set_count_equals_np_unique_rows(dim, n_points):
    rng = np.random.default_rng(dim * 1000 + n_points)
    pts = rng.normal(scale=2.0, size=(n_points, dim))  # negative cells too
    if n_points > 1:
        pts[n_points // 2 :] = pts[: n_points - n_points // 2]  # repeated points
    pts[-1] += 0.01  # a point sharing its neighbour's cell at coarse sides
    for side in (4.0, 1.0, 0.3, 1.0 / 64.0):
        want = len(np.unique(np.floor(pts / side).astype(np.int64), axis=0))
        assert PointSet(pts).dyadic_count(side) == want


def _looped_cantor_axis(dust, side):
    # one arange per interval, as the cover was first built
    starts, ends = _cantor_intervals(dust.level)
    lo_idx = np.floor(starts / side).astype(np.int64)
    hi_idx = np.floor(ends / side).astype(np.int64)
    _guard_cover_size(int(np.sum(hi_idx - lo_idx + 1)))
    return np.unique(np.concatenate([np.arange(a, b + 1) for a, b in zip(lo_idx, hi_idx)]))


@pytest.mark.parametrize("limit", [1 << 22, 1 << 12], ids=["limit-2^22", "limit-2^12"])
@pytest.mark.parametrize("level", [0, 1, 3, 8, 14])
@pytest.mark.parametrize("dim", [1, 2])
def test_cantor_cover_equals_the_per_interval_loop(monkeypatch, limit, level, dim):
    # the small limit makes the cover guard fire inside the ladder of sides
    monkeypatch.setattr("anisohit.potential._MAX_COVER_CELLS", limit)
    dust = CantorDust(level=level, dim=dim)
    for m in range(21):
        side = 2.0**-m
        try:
            axis = _looped_cantor_axis(dust, side)
        except ConfigurationError:
            with pytest.raises(ConfigurationError):
                dust.dyadic_count(side)
            continue
        assert dust.dyadic_count(side) == len(axis) ** dim


def test_oversized_cover_is_rejected():
    with pytest.raises(ConfigurationError):
        Box(lo=(0.0,), hi=(1.0,)).dyadic_count(2.0**-24)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Ball(center=(0.0,), radius=-1.0),
        lambda: Box(lo=(1.0,), hi=(0.0,)),
        lambda: PointSet(points=np.zeros(0)),
        lambda: CantorDust(level=25),
        lambda: CantorDust(level=2, dim=4),
        lambda: Ball(center=(np.nan, 0.0), radius=0.5),
        lambda: PointSet(points=np.array([[0.0], [np.inf]])),
        lambda: Ball(center=(0.0,), radius=math.inf),
        lambda: Box(lo=(0.0,), hi=(math.inf,)),
        lambda: Box(lo=(0.0, -math.inf), hi=(1.0, 1.0)),
        lambda: PointSet(points=np.array([0.0, 1.0])),  # points are rows
    ],
)
def test_invalid_targets_are_rejected(build):
    with pytest.raises(ConfigurationError):
        build()


def test_distance_checks_coordinate_count():
    with pytest.raises(ConfigurationError):
        Ball(center=(0.0, 0.0), radius=1.0).distance([[1.0]])
    with pytest.raises(ConfigurationError):
        CantorDust(level=1).distance([0.5])  # points are rows, also on a line


# -- simplex optimizer --------------------------------------------------------------


def test_optimizer_finds_interior_optimum_exactly():
    K = np.array([[2.0, 1.0], [1.0, 2.0]])
    mu, f, gap, _ = _simplex_min_quadratic(K, tol=1e-12, max_iter=10_000)
    assert f == pytest.approx(1.5, rel=1e-10)
    assert mu == pytest.approx(np.array([0.5, 0.5]), abs=1e-6)
    assert gap <= 1e-12 * f


def test_optimizer_finds_vertex_optimum():
    # the minimum sits at the first vertex; reaching it requires the away
    # step to remove mass from the other coordinate entirely
    K = np.array([[1.0, 3.0], [3.0, 4.0]])
    mu, f, gap, _ = _simplex_min_quadratic(K, tol=1e-12, max_iter=10_000)
    assert f == pytest.approx(1.0, rel=1e-10)
    assert mu[0] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("seed", [0, 1])
def test_optimizer_certificate_bounds_the_true_optimum(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(12, 8))
    K = A.T @ A + 0.1 * np.eye(8)
    mu, f, gap, _ = _simplex_min_quadratic(K, tol=1e-10, max_iter=100_000)
    assert gap <= 1e-10 * f
    assert np.all(mu >= 0.0) and np.sum(mu) == pytest.approx(1.0, abs=1e-12)
    # brute-force reference on a simplex grid can only be worse
    grid = rng.dirichlet(np.ones(8), size=4000)
    brute = float(np.min(np.einsum("ij,jk,ik->i", grid, K, grid)))
    assert f <= brute + gap + 1e-12


def test_optimizer_agrees_with_convex_solver_within_gap():
    cp = pytest.importorskip("cvxpy")
    kernel = riesz_kernel(0.4, 1)
    target = Box(lo=(0.0,), hi=(1.0,))
    report = capacity(kernel, target, n_cells=32, tol=1e-8)

    centers, width = target.cells(32)
    diffs = centers[:, None, :] - centers[None, :, :]
    dists = np.sqrt(np.sum(diffs * diffs, axis=2))
    K = np.asarray(kernel.radial_profile(dists), dtype=float)
    np.fill_diagonal(K, float(np.mean(kernel.radial_profile(width * _unit_pair_seps(target.dim)))))

    mu = cp.Variable(K.shape[0], nonneg=True)
    prob = cp.Problem(cp.Minimize(cp.quad_form(mu, cp.psd_wrap(K))), [cp.sum(mu) == 1])
    prob.solve()
    assert report.energy == pytest.approx(float(prob.value), abs=report.gap + 1e-7 * report.energy)


# -- capacity ---------------------------------------------------------------------------


def test_constant_kernel_gives_capacity_one():
    # energy of any probability measure under the constant kernel is 1
    kernel = riesz_kernel(0.0, 1)
    for target in (Box(lo=(0.0,), hi=(1.0,)), Ball(center=(0.0, 0.0), radius=0.5)):
        report = capacity(kernel, target, n_cells=64, tol=1e-10)
        assert report.capacity == pytest.approx(1.0, rel=1e-9)


def test_points_are_polar_for_singular_kernels():
    kernel = riesz_kernel(0.5, 1)
    report = capacity(kernel, PointSet(points=np.array([[0.3]])), n_cells=4, tol=1e-6)
    assert report.capacity == 0.0
    assert report.weights is None
    two = PointSet(points=np.array([[0.3], [0.7]]))
    assert capacity(kernel, two, n_cells=4, tol=1e-6).capacity == 0.0


def test_points_carry_capacity_under_bounded_kernels():
    report = capacity(riesz_kernel(0.0, 1), PointSet(points=np.array([[0.3], [0.7]])), n_cells=4, tol=1e-6)
    assert report.capacity == pytest.approx(1.0, rel=1e-9)


def test_riesz_capacity_homogeneity():
    # scaling a set by lambda scales the beta-capacity by lambda^beta
    beta = 0.5
    kernel = riesz_kernel(beta, 2)
    small = capacity(kernel, Ball(center=(0.0, 0.0), radius=0.5), n_cells=256, tol=1e-8)
    large = capacity(kernel, Ball(center=(0.0, 0.0), radius=1.0), n_cells=256, tol=1e-8)
    assert large.capacity / small.capacity == pytest.approx(2.0**beta, rel=0.01)


def test_capacity_is_monotone_under_inclusion():
    kernel = riesz_kernel(0.3, 1)
    inner = capacity(kernel, Box(lo=(0.25,), hi=(0.75,)), n_cells=128, tol=1e-8)
    outer = capacity(kernel, Box(lo=(0.0,), hi=(1.0,)), n_cells=128, tol=1e-8)
    assert inner.capacity <= outer.capacity * (1.0 + 1e-6)


def test_capacity_refines_with_the_mesh():
    kernel = riesz_kernel(0.3, 1)
    target = Ball(center=(0.0,), radius=1.0)
    caps = [capacity(kernel, target, n_cells=n, tol=1e-9).capacity for n in (32, 128, 512)]
    assert abs(caps[2] - caps[1]) < abs(caps[1] - caps[0])
    assert abs(caps[2] - caps[1]) < 0.005 * caps[2]


def test_capacity_certificate_and_minimizer():
    kernel = riesz_kernel(0.4, 1)
    report = capacity(kernel, Box(lo=(0.0,), hi=(1.0,)), n_cells=64, tol=1e-8)
    assert report.gap <= 1e-8 * report.energy
    assert report.capacity == pytest.approx(1.0 / report.energy, rel=1e-14)
    w = report.weights
    assert np.all(w >= 0.0)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
    # the equilibrium measure on an interval loads the endpoints
    assert w[0] > np.median(w[w > 0])


# Recorded from the column-reading Frank-Wolfe iteration (numpy 2.4.6,
# OpenBLAS 0.3.31, x86-64): reading rows of the symmetric K must not move a bit.
@pytest.mark.parametrize(
    "case, energy, gap, iterations, weights_sha256",
    [
        (
            "interval",
            "0x1.a5fd52b37f1f8p+0",
            "0x1.b6c596c000000p-20",
            8133,
            "20470ecbd7178827dbcf0b5a1f5e5037314a9e412dbc7384a7167c28f15f64e3",
        ),
        (
            "gauge",
            "0x1.892bfe9cd0086p+0",
            "0x1.927eedd400000p-20",
            1737,
            "b0765e43562b67e74e2b779e4ca001409c8680842fd373ea5894fe491a83a53b",
        ),
    ],
    ids=["interval", "gauge"],
)
def test_capacity_solve_is_pinned_bit_for_bit(case, energy, gap, iterations, weights_sha256):
    if case == "interval":
        rep = capacity(riesz_kernel(0.3, 1), Box(lo=(0.0,), hi=(1.0,)), n_cells=1024, tol=1e-6)
    else:
        # the critical model's power-log gauge, on a box inside R^4
        kernel = kernel_from_gauge(model_gauges(HeatModel(hurst=0.75, components=4)))
        rep = capacity(kernel, Box(lo=(0.0,) * 4, hi=(0.5, 1.0, 0.25, 0.0)), n_cells=256, tol=1e-6)
    assert (rep.energy.hex(), rep.gap.hex(), rep.iterations) == (energy, gap, iterations)
    assert hashlib.sha256(rep.weights.tobytes()).hexdigest() == weights_sha256


def test_capacity_error_contracts():
    kernel = riesz_kernel(0.3, 1)
    with pytest.raises(ConfigurationError):
        capacity(kernel, Box(lo=(0.0,), hi=(1.0,)), n_cells=1, tol=1e-6)
    with pytest.raises(ConfigurationError):
        capacity(kernel, Box(lo=(0.0,), hi=(1.0,)), n_cells=256, tol=0.0)
    with pytest.raises(ConfigurationError, match="coincident"):
        capacity(riesz_kernel(0.0, 1), PointSet(points=np.array([[0.5], [0.5]])), n_cells=256, tol=1e-6)
    with pytest.raises(ConfigurationError, match="coincident"):
        # checked ahead of the self-energy, which is infinite here
        capacity(riesz_kernel(0.5, 1), PointSet(points=np.array([[0.5], [0.5]])), n_cells=256, tol=1e-6)


def test_capacity_cells_are_bounded():
    # K holds n^2 float64: the bound is checked before the cells are made,
    # and again on the cell count, which a point set does not take from n_cells
    kernel = riesz_kernel(0.3, 1)
    with pytest.raises(ConfigurationError, match="at most 4096"):
        capacity(kernel, Box(lo=(0.0,), hi=(1.0,)), n_cells=10**12, tol=1e-6)
    many = PointSet(points=np.arange(4097.0).reshape(-1, 1))
    with pytest.raises(ConfigurationError, match="4097 cells"):
        capacity(riesz_kernel(0.0, 1), many, n_cells=256, tol=1e-6)


def test_five_dimensional_ball_has_a_capacity():
    # round(32^(1/5)) = 2 cells per axis would put every center outside the
    # ball, at sqrt(5)/2 radii; three per axis keep the center and its neighbours
    report = capacity(riesz_kernel(0.3, 5), Ball(center=(0.0,) * 5, radius=1.0), n_cells=32, tol=1e-6)
    assert report.capacity > 0.0
    assert report.gap <= 1e-6 * report.energy
    assert len(report.weights) == len(Ball(center=(0.0,) * 5, radius=1.0).cells(32)[0])


def test_twenty_dimensional_ball_cover_in_closed_form():
    # 3 cells per axis in place of round(4096^(1/20)) = 2: the kept offsets
    # (in half widths) are 0 or +-2 with at most two nonzero, as 3 * 4 > 9;
    # the bounding grid of 3^20 cells is never built
    centers, width = Ball(center=(0.0,) * 20, radius=1.0).cells(4096)
    assert width == 2.0 / 3.0
    assert len(centers) == 1 + 2 * 20 + 4 * (20 * 19 // 2)
    assert np.all(np.count_nonzero(np.abs(centers) > 0.1, axis=1) <= 2)


@pytest.mark.parametrize("radius", [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.9, 1.1, 1.3])
def test_four_dimensional_ball_keeps_the_centers_on_its_sphere(radius):
    # 2 cells per axis: all 16 centers lie exactly on the sphere, at
    # (+-r/2, +-r/2, +-r/2, +-r/2), and belong to the closed ball
    centers, width = Ball(center=(0.0,) * 4, radius=radius).cells(16)
    assert len(centers) == 16 and width == radius
    np.testing.assert_allclose(np.abs(centers), radius / 2.0, rtol=1e-12)


@pytest.mark.parametrize("dim", range(1, 9))
def test_ball_cover_is_never_empty_and_exact(dim):
    rng = np.random.default_rng(dim)
    for n_cells in (2, 3, 5, 16, 32, 64, 100, 256, 1000, 4096):
        ball = Ball(center=tuple(rng.normal(size=dim)), radius=float(rng.uniform(0.01, 3.0)))
        centers, width = ball.cells(n_cells)
        assert len(centers) >= 1
        # the product-grid reference: every cell of the bounding cube whose
        # center is inside, by the center's offset in half widths
        per_axis = round(2.0 * ball.radius / width)
        offsets = 2 * np.arange(per_axis) + 1 - per_axis
        grid = np.stack(np.meshgrid(*[offsets] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
        kept = (grid[np.sum(grid**2, axis=1) <= per_axis**2] + per_axis - 1) // 2
        assert np.array_equal(centers, np.asarray(ball.center) - ball.radius + width * (kept + 0.5))


def test_non_finite_kernel_off_diagonal_is_an_error():
    def profile(r):
        rr = np.asarray(r, dtype=float)
        return np.where(rr > 0.5, np.inf, 1.0)

    kernel = PotentialKernel(profile, integrable_at_zero=True)
    with pytest.raises(KernelError):
        capacity(kernel, Box(lo=(0.0,), hi=(1.0,)), n_cells=4, tol=1e-6)


# -- gauge kernels ------------------------------------------------------------------------


def _power_system(state_dim):
    return GaugeSystem(
        q1=GaugeSpec.power(0.5),
        q2=GaugeSpec.power(0.5),
        d1=1,
        d2=1,
        state_dim=state_dim,
        diam_cap=1.0,
    )


def test_kernel_from_gauge_inverts_the_hausdorff_gauge():
    system = _power_system(5)  # exponent 5 - 2 - 2 = 1
    kernel = kernel_from_gauge(system)
    r = np.array([0.1, 0.5])
    assert kernel.radial_profile(r) == pytest.approx(1.0 / system.hausdorff_gauge(r), rel=1e-12)
    # frozen past the cap
    far = kernel.radial_profile(np.array([3.0]))[0]
    at_cap = kernel.radial_profile(np.array([1.0]))[0]
    assert far == pytest.approx(at_cap, rel=1e-12)
    assert kernel.integrable_at_zero  # exponent 1 < state_dim 5


def test_kernel_from_gauge_integrability_tracks_ambient_dim():
    system = _power_system(5)
    assert not kernel_from_gauge(system, ambient_dim=1).integrable_at_zero


def test_kernel_from_gauge_rejects_decreasing_gauges():
    with pytest.raises(ConfigurationError):
        kernel_from_gauge(_power_system(3))  # exponent 3 - 4 < 0


# -- premeasure covers ----------------------------------------------------------------------


def test_cantor_premeasure_is_bounded_at_its_own_dimension():
    dust = CantorDust(level=10)
    ladder = [3.0**-k for k in range(2, 7)]
    estimates = hausdorff_upper(lambda d: d**CANTOR_DIM, dust, ladder)
    values = np.array([e.value for e in estimates])
    assert values.max() / values.min() <= 2.0


def test_points_are_null_for_fractional_gauges():
    pts = PointSet(points=np.array([[0.1], [0.5], [0.9]]))
    ladder = [2.0**-k for k in range(2, 18)]
    estimates = hausdorff_upper(lambda d: d**0.5, pts, ladder)
    values = [e.value for e in estimates]
    # the count saturates at 3, so the estimate decays like sqrt(side)
    assert values[-1] < 1e-2 * values[0]
    assert all(e.count <= 3 for e in estimates)


def test_cover_estimates_respect_the_resolution():
    box = Box(lo=(0.0,), hi=(1.0,))
    estimates = hausdorff_upper(lambda d: d, box, [0.1, 0.05])
    for e in estimates:
        # the covering ball of a chosen cell has radius at most eps
        assert e.side * math.sqrt(box.dim) <= 2.0 * e.eps
        assert e.value == pytest.approx(e.count * e.side, rel=1e-12)


def test_interval_length_is_recovered_by_linear_gauge():
    box = Box(lo=(0.0,), hi=(1.0,))
    estimates = hausdorff_upper(lambda d: d, box, [2.0**-k for k in range(3, 9)])
    # the closed interval meets 2^m + 1 cells of side 2^-m, so the
    # estimate approaches the length 1 from above like 1 + 2^-m
    for e in estimates:
        assert 1.0 <= e.value <= 1.07
    assert estimates[-1].value <= 1.002


def test_premeasure_ladder_validation():
    box = Box(lo=(0.0,), hi=(1.0,))
    with pytest.raises(ConfigurationError):
        hausdorff_upper(lambda d: d, box, [])
    with pytest.raises(ConfigurationError):
        hausdorff_upper(lambda d: d, box, [0.1, 0.1])
    with pytest.raises(ConfigurationError):
        hausdorff_upper(lambda d: d, box, [0.1, -0.05])
