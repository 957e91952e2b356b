"""Grid sampling, keyed reproducibility, hitting estimates, Wilson intervals."""

import itertools
import logging
import math

import numpy as np
import pytest
from _tracing import traced_peak

import anisohit.mc
from anisohit import _compiled
from anisohit.errors import ConfigurationError, FactorizationError, InsufficientResolutionError
from anisohit.heat import HeatModel, covariance_matrix, model_gauges, separations
from anisohit.mc import (
    SampleGrid,
    _fill_block,
    _min_distances,
    _packed_blocks,
    estimate_hit_prob,
    factor_covariance,
    mesh_inflation,
    sample_fields,
    small_ball_slope,
    wilson_interval,
)
from anisohit.potential import Ball, Box, PointSet


def _model(**kw):
    kw.setdefault("hurst", 0.75)
    kw.setdefault("space_dim", 1)
    return HeatModel(**kw)


# The parity layout, written out from its definition: along one axis of n
# sites the even part a lives on x >= 0 and the odd part b on x > 0, and
# u(x) = a(x) + b(x), u(-x) = a(x) - b(x).  A class takes the even or odd
# map on each axis, the first axis slowest, times the identity in time.


def _axis_maps(n, mirror_sign=-1.0):
    pos = np.arange(n // 2, n)  # sites x >= 0, by increasing x
    odd = pos[n % 2 :]  # sites x > 0
    even_map, odd_map = np.zeros((n, len(pos))), np.zeros((n, len(odd)))
    for j, i in enumerate(pos):
        even_map[i, j] = even_map[n - 1 - i, j] = 1.0
    for j, i in enumerate(odd):
        odd_map[i, j], odd_map[n - 1 - i, j] = 1.0, mirror_sign
    return even_map, odd_map


def _butterfly(grid, mirror_sign=-1.0):
    """Per class, the matrix taking its values to field values in grid order."""
    maps = _axis_maps(len(grid.site_axis), mirror_sign)
    out = []
    for sigma in itertools.product((0, 1), repeat=grid.space_dim):
        m = np.eye(len(grid.times))
        for odd in sigma:
            m = np.kron(m, maps[odd])
        out.append(m)
    return out


def _class_points(grid):
    """Grid point indices of each class's field values after the butterfly:
    x >= 0 on even axes, x < 0 on odd ones, each by increasing |x|."""
    n, d, nt = len(grid.site_axis), grid.space_dim, len(grid.times)
    pos = np.arange(n // 2, n)
    neg = n - 1 - pos[n % 2 :]
    index = np.arange(nt * n**d).reshape((nt,) + (n,) * d)
    return [
        index[np.ix_(np.arange(nt), *(neg if odd else pos for odd in sigma))].ravel()
        for sigma in itertools.product((0, 1), repeat=d)
    ]


def _in_grid_order(grid, parts):
    """The per-class arrays of ``sample_fields`` as one (reps, n_points, components) array."""
    out = np.full((parts[0].shape[0], grid.n_points, parts[0].shape[2]), np.nan)
    for part, points in zip(parts, _class_points(grid)):
        out[:, points, :] = part
    assert not np.isnan(out).any()  # every point is some class's, exactly once
    return out


def _parity_error(grid, factors, dense, mirror_sign=-1.0):
    """max |S S^T - C| / max var for S = butterfly . blockdiag(factors), each
    factor the lower triangle of its view."""
    s = np.hstack([b @ np.tril(f) for b, f in zip(_butterfly(grid, mirror_sign), factors)])
    return np.max(np.abs(s @ s.T - dense)) / np.max(np.diag(dense))


def _sites(grid):
    """The grid's site coordinates, one row per site, the first axis slowest."""
    mesh = np.meshgrid(*[np.asarray(grid.site_axis)] * grid.space_dim, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _dense(m, grid):
    """The grid's covariance, time-major, from the scalar kernel at the
    coordinate separations of every pair of sites."""
    times, sites = np.asarray(grid.times), _sites(grid)
    nt, ns = len(times), len(sites)
    uniq, inverse = np.unique(separations(np.repeat(sites, ns, axis=0), np.tile(sites, (ns, 1))), return_inverse=True)
    out = np.empty((nt * ns, nt * ns))
    for i, j in zip(*np.triu_indices(nt)):
        block = m._cov_batch(times[i], times[j], uniq)[inverse].reshape(ns, ns)
        out[i * ns : (i + 1) * ns, j * ns : (j + 1) * ns] = block
        out[j * ns : (j + 1) * ns, i * ns : (i + 1) * ns] = block.T
    return out


def _factor_peak(m, grid):
    """The factors of ``grid`` and the peak tracemalloc traced while they
    were made, after a 2 x 2 grid has loaded LAPACK untraced."""
    factor_covariance(m, SampleGrid.regular(m, 2, 2))
    return traced_peak(lambda: factor_covariance(m, grid))


def _arrays(factors):
    """The distinct arrays that hold the factors' views."""
    return list({id(a): a for a in (f if f.base is None else f.base for f in factors)}.values())


# -- grids -------------------------------------------------------------------------


def test_regular_grid_shape_and_window():
    m = _model()
    grid = SampleGrid.regular(m, 4, 5)
    assert grid.n_points == 20
    assert grid.times[0] == m.t0 and grid.times[-1] == m.t1
    assert len(grid.site_axis) == 5
    assert grid.site_axis[0] == -m.box_radius and grid.site_axis[-1] == m.box_radius
    plane = SampleGrid.regular(_model(space_dim=2), 3, 4)
    # one axis in each dimension
    assert plane.n_points == 48 and plane.space_dim == 2
    np.testing.assert_allclose(plane.site_axis, np.linspace(-1.0, 1.0, 4), rtol=0.0, atol=4.5e-16)


@pytest.mark.parametrize("box_radius", [1.0, 2.7])
def test_site_axis_is_exactly_mirror_symmetric(box_radius):
    # np.linspace(-1, 1, n) is not, at n = 4, 8, 16, 32, 64: the parity
    # blocks pair each site with its exact negative
    m = _model(box_radius=box_radius)
    for n in range(1, 66):
        axis = np.asarray(SampleGrid.regular(m, 1, n).site_axis)
        assert np.array_equal(axis[::-1], -axis), n
        if n > 1:
            assert axis[0] == -box_radius and axis[-1] == box_radius
            np.testing.assert_allclose(axis, np.linspace(-box_radius, box_radius, n), rtol=0.0, atol=1e-15 * box_radius)
    assert SampleGrid.regular(m, 1, 1).site_axis == (0.0,)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        SampleGrid.regular(_model(), 0, 4)
    with pytest.raises(ConfigurationError):
        SampleGrid.regular(_model(), 4, 0)
    with pytest.raises(ConfigurationError):
        SampleGrid.regular(_model(), 80, 80)  # 6400 > factorization bound
    with pytest.raises(ConfigurationError):
        SampleGrid.regular(_model(space_dim=3), 2, 13)  # 2 * 13^3 = 4394


def test_mesh_widths():
    # times 0.1, 0.4, 0.7, 1.0 and sites -1, 0, 1 on both axes of the plane
    grid = SampleGrid.regular(_model(space_dim=2), 4, 3)
    dt, dx = grid.mesh_widths()
    assert dt == pytest.approx(0.3, rel=1e-12)
    assert dx == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert SampleGrid.regular(_model(), 1, 1).mesh_widths() == (0.0, 0.0)


# -- factorization and marginals ------------------------------------------------------


PARITY_GRIDS = [
    (dict(), (3, 4)),
    (dict(), (3, 5)),
    (dict(), (1, 1)),  # the odd block is empty
    (dict(hurst=0.8, alpha=0.5, space_dim=2), (2, 5)),
    (dict(hurst=0.9, space_dim=3), (2, 3)),
    (dict(hurst=0.8, alpha=0.5, space_dim=2), (2, 4)),  # every class pairs
    (dict(hurst=0.9, space_dim=3), (2, 4)),
]
PARITY_IDS = ["d1-even", "d1-odd", "1x1", "d2-alpha0.5-odd", "d3", "d2-alpha0.5-even", "d3-even"]


def _class_sites(grid, sigma):
    """Coordinates of class sigma's sites: x >= 0 on its even axes and x > 0
    on its odd ones, each by increasing x, the first axis slowest."""
    axis = np.asarray(grid.site_axis)
    mesh = np.meshgrid(*[axis[axis > 0.0] if odd else axis[axis >= 0.0] for odd in sigma], indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@pytest.mark.parametrize("kw, shape", PARITY_GRIDS, ids=PARITY_IDS)
def test_parity_tables_index_the_coordinate_separations(kw, shape):
    # whole-step offsets give each |x - eta y| of a class to rounding, with
    # the sign of eta in the class, and every separation is some pair's
    m = _model(**kw)
    grid = SampleGrid.regular(m, *shape)
    seps = grid.separations()
    tables = [grid.parity(c) for c in range(2**grid.space_dim)]
    assert seps[0] == 0.0 and np.all(np.diff(seps) > 0.0)
    classes = list(itertools.product((0, 1), repeat=grid.space_dim))
    used = np.zeros(len(seps), dtype=bool)
    for sigma, terms in zip(classes, tables):
        x = _class_sites(grid, sigma)
        assert len(terms) == len(classes)
        for eta, (sign, idx) in zip(classes, terms):
            assert sign == (-1.0) ** sum(f * o for f, o in zip(eta, sigma))
            y = x * np.where(eta, -1.0, 1.0)
            want = separations(np.repeat(x, len(x), axis=0), np.tile(y, (len(x), 1))).reshape(idx.shape)
            np.testing.assert_allclose(seps[idx], want, rtol=1e-15, atol=1e-15 * m.box_radius)
            used[idx] = True
    assert used.all()


@pytest.mark.parametrize("kw, shape", PARITY_GRIDS + [(dict(), (1, 4096))], ids=PARITY_IDS + ["1x4096"])
def test_step_index_ranks_every_count_vector(kw, shape):
    # whole holds the distinct sums of squared per-axis step counts, and the
    # index maps each count vector a to the position of sum a_k^2 in whole,
    # in at most n^d entries of one or two bytes
    grid = SampleGrid.regular(_model(**kw), *shape)
    n, d = len(grid.site_axis), grid.space_dim
    whole, index = grid._step_index()
    counts = np.indices((n,) * d).reshape(d, -1).T
    sums = np.sum(counts**2, axis=1)
    assert np.array_equal(whole, np.unique(sums))
    assert index.shape == (n,) * d and index.size <= 4096
    assert index.dtype.itemsize <= 2 and index.dtype.kind == "u"
    assert np.array_equal(index[tuple(counts.T)], np.searchsorted(whole, sums))


def _filled(m, grid):
    """The parity blocks as ``_fill_block`` writes them from the grid's
    covariance table, each made symmetric from its lower triangle."""
    table = covariance_matrix(m, np.asarray(grid.times), grid.separations())
    blocks = _packed_blocks([len(grid.times) * k for k in grid._class_sizes()])
    for c, block in enumerate(blocks):
        _fill_block(block, table, grid.parity(c))
    return [np.tril(b) + np.tril(b, -1).T for b in blocks]


def test_filled_blocks_are_symmetric_positive_semidefinite():
    m = HeatModel(hurst=0.7, t0=0.2, t1=1.0, box_radius=0.5)
    grid = SampleGrid.regular(m, 4, 5)
    # every index table is symmetric, so a block's lower triangle holds it
    for c in range(2):
        assert all(np.array_equal(idx, idx.T) for _, idx in grid.parity(c))
    blocks = _filled(m, grid)
    assert [len(b) for b in blocks] == [12, 8]  # sites x >= 0 and x > 0, four times each
    for cov in blocks:
        eig = np.linalg.eigvalsh(cov)
        assert eig.min() > -1e-12 * eig.max()


def test_filled_blocks_match_pointwise_kernel():
    # each entry is its definition: the signed mean over the reflections eta
    # of the scalar kernel at the coordinate separation |x - eta y|
    m = HeatModel(hurst=0.75, space_dim=2, t0=0.3, t1=0.8, box_radius=0.4)
    grid = SampleGrid.regular(m, 2, 3)
    blocks = _filled(m, grid)
    classes = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for cov, sigma in zip(blocks, classes):
        sites = _class_sites(grid, sigma)
        k = len(sites)
        for i, t in enumerate(grid.times):
            for j, s in enumerate(grid.times):
                for a, x in enumerate(sites):
                    for b, y in enumerate(sites):
                        ref = 0.0
                        for eta in classes:
                            flip = np.where(eta, -1.0, 1.0)
                            sign = (-1.0) ** sum(f * o for f, o in zip(eta, sigma))
                            ref += sign * m._cov_batch(t, s, separations(x[None, :], (flip * y)[None, :]))[0] / 4
                        assert cov[i * k + a, j * k + b] == pytest.approx(ref, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_filled_blocks_equal_the_scalar_kernel_bit_for_bit(alpha):
    # the table reuses one buffer across rules; every block must still be
    # exactly the signed mean of what fresh-buffer calls of the same kernel return
    m = HeatModel(hurst=0.8, alpha=alpha)
    grid = SampleGrid.regular(m, 5, 4)
    times, seps = np.asarray(grid.times), grid.separations()
    for cov, c in zip(_filled(m, grid), range(2)):
        terms = grid.parity(c)
        k = len(terms[0][1])
        for i in range(5):
            for j in range(i, 5):
                vals = m._cov_batch(times[i], times[j], seps)
                block = sum(sign * vals[idx] for sign, idx in terms) / len(terms)
                assert np.array_equal(cov[k * j : k * j + k, k * i : k * i + k], block.T)
                if i == j:
                    assert np.array_equal(np.tril(cov[k * i : k * i + k, k * i : k * i + k]), np.tril(block))


def test_filled_diagonal_is_the_variance():
    m = HeatModel(hurst=0.6, t0=0.4, t1=0.9)
    cov, odd = _filled(m, SampleGrid.regular(m, 2, 1))  # the one site x = 0 is even
    assert odd.shape == (0, 0)
    assert cov[0, 0] == pytest.approx(m.variance(0.4), rel=1e-12)
    assert cov[1, 1] == pytest.approx(m.variance(0.9), rel=1e-12)


@pytest.mark.parametrize("kw, shape", PARITY_GRIDS, ids=PARITY_IDS)
def test_factor_reproduces_the_covariance(kw, shape, caplog):
    m = _model(**kw)
    grid = SampleGrid.regular(m, *shape)
    with caplog.at_level(logging.WARNING, logger="anisohit"):
        factors = factor_covariance(m, grid)
    assert caplog.records == []  # a clean grid needs no jitter
    dense = _dense(m, grid)
    assert len(factors) == 2**m.space_dim
    assert sum(f.shape[0] for f in factors) == grid.n_points
    assert _parity_error(grid, factors, dense) <= 1e-8
    # consecutive classes of equal size share one (N + 1) x N array, the
    # first as its C-ordered rows 1..N, the second as the Fortran-ordered
    # transpose of its rows 0..N-1; any other class is alone, zero above
    # its factor
    owners = [f if f.base is None else f.base for f in factors]
    for c, f in enumerate(factors):
        shared = [k for k, a in enumerate(owners) if a is owners[c]]
        a, n = owners[c], f.shape[0]
        if shared == [c]:
            assert f.flags.c_contiguous and np.max(np.abs(np.triu(f, 1)), initial=0.0) == 0.0
        else:
            assert shared in ([c, c + 1], [c - 1, c])
            assert a.shape == (n + 1, n) and a.flags.c_contiguous
            view = a[1:] if shared[0] == c else a[:-1].T
            assert (f.ctypes.data, f.strides, f.shape) == (view.ctypes.data, view.strides, view.shape)


@pytest.mark.parametrize("kw, shape", [g for g in PARITY_GRIDS if g[1] != (1, 1)], ids=[i for i in PARITY_IDS if i != "1x1"])
def test_parity_check_rejects_a_wrong_sign_or_a_dropped_mirror_term(kw, shape):
    # negative controls for the check above: the odd part entering u(-x)
    # with a + sign, and blocks assembled without the reflected term
    m = _model(**kw)
    grid = SampleGrid.regular(m, *shape)
    factors = factor_covariance(m, grid)
    times = np.asarray(grid.times)
    dense = _dense(m, grid)
    assert _parity_error(grid, factors, dense, mirror_sign=1.0) > 1e-3
    table = covariance_matrix(m, times, grid.separations())
    dropped = _packed_blocks([len(f) for f in factors])
    for c, block in enumerate(dropped):
        _fill_block(block, table, grid.parity(c)[:1])
    factors = [np.linalg.cholesky(b) if b.size else b for b in dropped]  # reads the lower triangle
    assert _parity_error(grid, factors, dense) > 1e-3


@pytest.mark.parametrize("kw, shape", [g for g in PARITY_GRIDS if g[1] in ((3, 4), (2, 4))], ids=["d1-even", "d2-even", "d3-even"])
def test_a_class_reads_nothing_of_its_partners_triangle(monkeypatch, kw, shape):
    # with the partner's triangle filled with NaN, each class of an all-paired
    # grid factors and samples to the same bits, and finite
    m = _model(**kw)
    grid = SampleGrid.regular(m, *shape)
    table = covariance_matrix(m, np.asarray(grid.times), grid.separations())
    want = factor_covariance(m, grid)
    monkeypatch.setattr(SampleGrid, "unfold", lambda self, parts: None)  # class values, not field values
    want_parts = sample_fields(grid, want, 2, 7, [0, 5])
    for c in range(len(want)):
        blocks = _packed_blocks([len(f) for f in want])
        partner = blocks[c ^ 1]
        assert partner.base is blocks[c].base
        partner[np.tril_indices(len(partner))] = np.nan
        anisohit.mc._factor_in_place(blocks[c], lambda: _fill_block(blocks[c], table, grid.parity(c)))
        assert np.array_equal(np.tril(blocks[c]), np.tril(want[c]))
        assert np.isfinite(np.tril(blocks[c])).all()
        parts = sample_fields(grid, blocks, 2, 7, [0, 5])
        assert np.array_equal(parts[c], want_parts[c])
        assert np.isfinite(parts[c]).all() and np.isnan(parts[c ^ 1]).all()


def test_factor_holds_one_covariance_sized_array():
    # assembly and factorization share the packed arrays that are returned;
    # a copy anywhere would double the traced peak
    m = _model()
    grid = SampleGrid.regular(m, 32, 32)
    factors, peak = _factor_peak(m, grid)
    packed = sum(a.nbytes for a in _arrays(factors))
    # the two 512-point classes share one 513 x 512 array, against two 512^2 ones
    assert packed <= 0.51 * sum(f.shape[0] ** 2 * 8 for f in factors)
    assert peak <= 1.25 * packed


def test_factor_of_a_plane_grid_holds_no_site_pair_table():
    # each parity table spans one class's sites: on this 1 x 48^2 grid,
    # tables over all site pairs traced a 388 MB peak for 5 MB of factors
    m = _model(hurst=0.8, space_dim=2)
    grid = SampleGrid.regular(m, 1, 48)
    _, peak = _factor_peak(m, grid)
    assert peak <= 96e6


def test_factor_holds_one_class_of_parity_tables():
    # a class's index tables are built when it is filled and let go once it
    # is factored: on this 1 x 64^2 grid the four classes' tables (34 MB)
    # held at once traced an 84 MB peak for 17 MB of factors
    m = _model(hurst=0.8, space_dim=2)
    grid = SampleGrid.regular(m, 1, 64)
    _, peak = _factor_peak(m, grid)
    assert peak <= 70e6


@pytest.mark.parametrize(
    "kw, shape, bound",
    [(dict(), (1, 4096), 70e6), (dict(), (2, 2048), 60e6), (dict(hurst=0.9, components=4), (64, 64), 37e6)],
    ids=["1x4096", "2x2048", "64x64"],
)
def test_factor_fills_its_blocks_in_row_bands(kw, shape, bound):
    # a block is written band by band, straight from the class's tables, and
    # the tables are read through the grid's step-count index: whole-block
    # gathers, their signed sum, np.tril_indices and int64 squared steps
    # traced 184.6 MB on 1 x 4096 and 96.5 MB on 2 x 2048, for 33.6 MB of
    # factors, and a lookup over every whole number of squared steps up to
    # (n - 1)^2 still 100.8 MB on 1 x 4096; 64 x 64 traced 36.2 MB
    m = _model(**kw)
    grid = SampleGrid.regular(m, *shape)
    _, peak = _factor_peak(m, grid)
    assert peak <= bound


@pytest.mark.parametrize("kw, shape", [g for g in PARITY_GRIDS if g[1] != (1, 1)], ids=[i for i in PARITY_IDS if i != "1x1"])
@pytest.mark.parametrize("band", [1, 7, 40])
def test_a_fill_in_narrow_bands_writes_the_same_lower_triangle(monkeypatch, kw, shape, band):
    # bands of one or a few site rows, splitting the rows of a time and the
    # triangle at its own time, give the bits of a one-band fill and write
    # nothing above the diagonal, where a partner's triangle lives
    m = _model(**kw)
    grid = SampleGrid.regular(m, *shape)
    table = covariance_matrix(m, np.asarray(grid.times), grid.separations())
    sizes = [len(grid.times) * k for k in grid._class_sizes()]
    want = _packed_blocks(sizes)
    for c, block in enumerate(want):
        _fill_block(block, table, grid.parity(c))
    monkeypatch.setattr(anisohit.mc, "_FILL_BAND", band)
    for c, size in enumerate(sizes):
        blocks = _packed_blocks(sizes)
        for block in blocks:
            block.fill(np.nan)
        _fill_block(blocks[c], table, grid.parity(c))
        assert np.array_equal(np.tril(blocks[c]), np.tril(want[c]))
        assert np.isnan(blocks[c][np.triu_indices(size, 1)]).all()


@pytest.mark.parametrize("components", [2, 4])
def test_min_distances_hold_one_chunk(components):
    # each chunk of field values is let go before the next is drawn, and a
    # chunk is sized in (replicate, component) rows: holding the previous one
    # while sampling, or 256 replicates at D = 4, would double the traced peak
    m = _model(components=components)
    grid = SampleGrid.regular(m, 16, 16)
    factors = factor_covariance(m, grid)
    target = Ball(center=(0.1, -0.2, 0.0, 0.3)[:components], radius=0.3)
    _min_distances(m, grid, factors, target, n_samples=100, seed=1)  # warms up untraced
    chunk = anisohit.mc._CHUNK_ROWS // components
    n_samples = 2 * chunk + 17  # the last chunk is short
    _, peak = traced_peak(lambda: _min_distances(m, grid, factors, target, n_samples=n_samples, seed=5))
    chunk_bytes = anisohit.mc._CHUNK_ROWS * grid.n_points * 8
    assert peak <= 1.5 * chunk_bytes


def test_sampled_variance_matches_the_model():
    m = _model(t0=0.5)
    grid = SampleGrid.regular(m, 1, 1)  # t = 0.5, x = 0
    factors = factor_covariance(m, grid)
    n_reps = 4000
    draws = np.array(
        [sample_fields(grid, factors, m.components, 11, [r])[0][0, 0, 0] for r in range(n_reps)]
    )
    want = m.variance(0.5)
    got = float(np.var(draws))
    # the sample variance of n gaussians has sd about var * sqrt(2/n)
    assert abs(got - want) <= 4.0 * want * math.sqrt(2.0 / n_reps)
    assert abs(float(np.mean(draws))) <= 4.0 * math.sqrt(want / n_reps)


def test_sampled_correlation_matches_the_model():
    m = _model(t0=0.4, t1=0.9)
    grid = SampleGrid.regular(m, 2, 1)  # t = 0.4, 0.9 at x = 0
    factors = factor_covariance(m, grid)
    n_reps = 4000
    z = np.array(
        [sample_fields(grid, factors, m.components, 3, [r])[0][0, :, 0] for r in range(n_reps)]
    )
    want = m._cov_batch(0.4, 0.9, np.zeros(1))[0]
    got = float(np.mean(z[:, 0] * z[:, 1]))
    sd = math.sqrt((m.variance(0.4) * m.variance(0.9) + want * want) / n_reps)
    assert abs(got - want) <= 4.0 * sd


def _pair_with_identity(monkeypatch, cov, slot):
    """Make ``factor_covariance`` fill ``cov`` as the class in ``slot`` of
    one packed pair and the identity as its partner; returns the log of
    filled classes.  The grid must have two classes of ``len(cov)`` points,
    and the stand-in for ``SampleGrid.parity`` gives each class its index."""
    n = len(cov)
    fills = []

    def fill(block, table, c):
        fills.append(c)
        block[np.tril_indices(n)] = (cov if c == slot else np.eye(n))[np.tril_indices(n)]

    monkeypatch.setattr(SampleGrid, "parity", lambda self, c: c)
    monkeypatch.setattr(anisohit.mc, "_fill_block", fill)
    return fills


def _refills(fills):
    """The fills of a log after each class's first: the jitter's refills."""
    return [c for k, c in enumerate(fills) if c in fills[:k]]


SLOTS = pytest.mark.parametrize("slot", [0, 1], ids=["first", "second"])


@SLOTS
def test_jitter_lifts_a_singular_covariance(monkeypatch, caplog, slot):
    # the all-ones matrix is PSD of rank one: the clean factorization fails
    # and the first lift, 1e-10 of the largest variance, succeeds
    ones = np.ones((3, 3))
    fills = _pair_with_identity(monkeypatch, ones, slot)
    m = _model()
    with caplog.at_level(logging.WARNING, logger="anisohit"):
        factors = factor_covariance(m, SampleGrid.regular(m, 3, 2))  # two classes of three points
    L, partner = np.tril(factors[slot]), np.tril(factors[1 - slot])
    assert fills == sorted([0, 1, slot])  # class by class, each refilled before the next is filled
    assert _refills(fills) == [slot]
    assert np.array_equal(partner, np.eye(3))  # the partner's triangle is untouched
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(ones)
    assert np.max(np.abs(L @ L.T - (ones + 1e-10 * np.eye(3)))) <= 1e-12
    [record] = caplog.records
    assert record.levelno == logging.WARNING and record.name == "anisohit"
    assert "1e-10 times the largest variance" in record.getMessage()


@SLOTS
def test_jitter_restores_a_triangle_overwritten_up_to_the_last_pivot(monkeypatch, slot):
    # a rank-4 Gram matrix pushed just below semidefinite at its last entry:
    # the clean in-place factorization overwrites every column before the
    # last pivot fails, so the lift must start again from the refilled matrix
    a = np.random.default_rng(3).standard_normal((5, 4))
    cov = a @ a.T
    scale = np.max(np.diag(cov))
    cov[4, 4] -= 1e-13 * scale
    from scipy.linalg.lapack import dpotrf

    assert dpotrf(cov, lower=1)[1] == 5
    fills = _pair_with_identity(monkeypatch, cov, slot)
    m = _model()
    factors = factor_covariance(m, SampleGrid.regular(m, 5, 2))
    L, partner = np.tril(factors[slot]), np.tril(factors[1 - slot])
    assert _refills(fills) == [slot]
    assert np.array_equal(partner, np.eye(5))
    assert np.max(np.abs(L @ L.T - (cov + 1e-10 * scale * np.eye(5)))) <= 1e-12


def test_indefinite_covariance_raises(monkeypatch):
    # the clean factorization and both lifts fail: two refills, then the error
    indefinite = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    fills = _pair_with_identity(monkeypatch, indefinite, 1)
    m = _model()
    with pytest.raises(FactorizationError):
        factor_covariance(m, SampleGrid.regular(m, 3, 2))
    assert _refills(fills) == [1, 1]


def test_public_scipy_modules_serve_when_the_compiled_files_are_not_found(monkeypatch):
    # scipy's module layout is private; when the compiled modules cannot be
    # imported on their own, the routines come from the public packages and
    # give the same bits
    m = _model()
    grid = SampleGrid.regular(m, 3, 4)
    factors = factor_covariance(m, grid)
    fields = sample_fields(grid, factors, 2, 7, [0, 5])
    coloured = HeatModel(hurst=0.8, alpha=0.5, space_dim=2)
    x = np.linspace(0.0, 500.0, 101)
    kummer = coloured._kummer(x)
    asked = []

    def not_found(name):
        asked.append(name)
        raise ImportError(name)

    monkeypatch.setattr(_compiled, "_load", not_found)
    _compiled.scipy_routine.cache_clear()
    try:
        for got, want in zip(factor_covariance(m, grid), factors, strict=True):
            assert np.array_equal(got, want)
        for got, want in zip(sample_fields(grid, factors, 2, 7, [0, 5]), fields, strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(coloured._kummer(x), kummer)
        import scipy.linalg.blas
        import scipy.linalg.lapack
        import scipy.special

        assert _compiled.scipy_routine("dpotrf") is scipy.linalg.lapack.dpotrf
        assert _compiled.scipy_routine("dtrmm") is scipy.linalg.blas.dtrmm
        assert _compiled.scipy_routine("hyp1f1") is scipy.special.hyp1f1
    finally:
        _compiled.scipy_routine.cache_clear()
    assert sorted(asked) == ["scipy.linalg._fblas", "scipy.linalg._flapack", "scipy.special._ufuncs"]


# -- keyed randomness ------------------------------------------------------------------


def _reference_fields(grid, factors, components, seed, reps):
    # one Philox stream per (replicate, component) column, then a dense
    # product by butterfly . blockdiag(factors)
    n = grid.n_points
    z = np.empty((n, len(reps) * components))
    for j, r in enumerate(reps):
        for c in range(components):
            gen = np.random.Generator(np.random.Philox(key=[seed, r << 32 | c]))
            z[:, j * components + c] = gen.standard_normal(n)
    s = np.hstack([b @ np.tril(f) for b, f in zip(_butterfly(grid), factors)])
    return np.moveaxis((s @ z).reshape(n, len(reps), components), 0, 1)


@pytest.mark.parametrize("components", [1, 4])
@pytest.mark.parametrize(
    "kw, shape",
    [
        (dict(), (3, 4)),
        (dict(), (1, 1)),
        (dict(), (3, 5)),
        (dict(hurst=0.8, alpha=0.5, space_dim=2), (2, 5)),
        (dict(hurst=0.8, alpha=0.5, space_dim=2), (2, 4)),
        (dict(hurst=0.9, space_dim=3), (2, 4)),
    ],
    ids=["3x4", "1x1", "3x5", "d2-2x5", "d2-2x4", "d3-2x4"],
)
def test_sample_fields_match_an_independent_reference(components, kw, shape):
    m = _model(**kw)
    grid = SampleGrid.regular(m, *shape)
    factors = factor_covariance(m, grid)
    reps = [0, 5, 300]
    parts = sample_fields(grid, factors, components, 21, reps)
    assert [p.shape for p in parts] == [(len(reps), f.shape[0], components) for f in factors]
    got = _in_grid_order(grid, parts)
    want = _reference_fields(grid, factors, components, 21, reps)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_samples_are_reproducible_and_distinct():
    m = _model()
    grid = SampleGrid.regular(m, 3, 3)
    factors = factor_covariance(m, grid)
    a, b, c, d = (
        _in_grid_order(grid, sample_fields(grid, factors, m.components, seed, [rep]))
        for seed, rep in ((7, 5), (7, 5), (7, 6), (8, 5))
    )
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_min_distances_match_isolated_replicates():
    # chunked evaluation must agree with reproducing single replicates,
    # which is what the counter-based keying promises
    m = _model()
    grid = SampleGrid.regular(m, 3, 3)
    factors = factor_covariance(m, grid)
    target = Ball(center=(0.0,), radius=0.25)
    dmin = _min_distances(m, grid, factors, target, n_samples=300, seed=4)
    for rep in (0, 137, 299):
        sample = _in_grid_order(grid, sample_fields(grid, factors, m.components, 4, [rep]))[0]
        want = float(np.min(target.distance(sample)))
        assert dmin[rep] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "target",
    [
        Ball(center=(0.1, -0.2), radius=0.3),
        Box(lo=(-0.2, 0.0), hi=(0.3, 0.5)),
        PointSet(points=np.array([[0.0, 0.0], [0.4, -0.3]])),
    ],
    ids=["ball", "box", "pointset"],
)
def test_min_distances_match_isolated_replicates_in_two_components(target):
    m = _model(components=2)
    grid = SampleGrid.regular(m, 4, 4)
    factors = factor_covariance(m, grid)
    dmin = _min_distances(m, grid, factors, target, n_samples=300, seed=4)
    for rep in (0, 137, 299):
        sample = _in_grid_order(grid, sample_fields(grid, factors, m.components, 4, [rep]))[0]
        want = float(np.min(target.distance(sample)))
        assert dmin[rep] == pytest.approx(want, rel=1e-12)


def test_estimates_are_deterministic_given_the_seed():
    m = _model()
    grid = SampleGrid.regular(m, 3, 3)
    target = Ball(center=(0.5,), radius=0.5)
    a = estimate_hit_prob(m, grid, target, [0.0, 0.3], n_samples=400, seed=9)
    b = estimate_hit_prob(m, grid, target, [0.0, 0.3], n_samples=400, seed=9)
    assert a == b


# -- hitting estimates ----------------------------------------------------------------------


def test_frequencies_are_monotone_in_the_radius():
    m = _model()
    grid = SampleGrid.regular(m, 4, 4)
    target = Ball(center=(1.2,), radius=0.3)
    radii = [0.0, 0.1, 0.2, 0.4, 0.8]
    ps = [e.p_hat for e in estimate_hit_prob(m, grid, target, radii, n_samples=500, seed=2)]
    assert all(a <= b for a, b in zip(ps, ps[1:]))
    assert ps[0] < ps[-1]  # the ladder spans frequencies that differ


def test_one_estimate_per_radius_over_shared_replicates():
    # each frequency counts the replicates whose minimum distance is within
    # its radius, in the order the radii are given
    m = _model(components=2)
    grid = SampleGrid.regular(m, 4, 4)
    target = Ball(center=(0.4, -0.2), radius=0.1)
    radii = [0.3, 0.0, 0.6]
    estimates = estimate_hit_prob(m, grid, target, radii, n_samples=300, seed=5)
    dmin = _min_distances(m, grid, factor_covariance(m, grid), target, n_samples=300, seed=5)
    assert len(estimates) == len(radii)
    for r, est in zip(radii, estimates):
        hits = int(np.sum(dmin <= r))
        assert est.p_hat == hits / 300
        assert (est.ci_lo, est.ci_hi) == wilson_interval(hits, 300)


def test_far_target_is_never_hit():
    # a point far past the field's range and the mesh radius (about 12.4)
    m = _model()
    grid = SampleGrid.regular(m, 3, 3)
    target = PointSet(points=np.array([[1e3]]))
    raw, inflated = estimate_hit_prob(m, grid, target, [0.0, mesh_inflation(m, grid)], n_samples=200, seed=0)
    assert raw.p_hat == 0.0
    assert inflated.p_hat == 0.0


def test_huge_target_is_always_hit():
    m = _model()
    grid = SampleGrid.regular(m, 3, 3)
    target = Box(lo=(-100.0,), hi=(100.0,))
    [raw] = estimate_hit_prob(m, grid, target, [0.0], n_samples=200, seed=0)
    assert raw.p_hat == 1.0
    # the mesh radius on this coarse grid (about 12.4) reaches the far point
    far = PointSet(points=np.array([[4.0]]))
    [inflated] = estimate_hit_prob(m, grid, far, [mesh_inflation(m, grid)], n_samples=200, seed=0)
    assert inflated.p_hat == 1.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_point_grid_matches_the_noncentral_chi2_law(seed):
    # on a 1 x 1 grid the field is one N(0, variance(t0) I_D) vector, so the
    # hit frequency of a ball is a noncentral chi^2 cdf; the law at t = 0.2
    # (0.1349 against 0.1625) is a control that the bound must reject
    from scipy.stats import ncx2

    m = HeatModel(hurst=0.7, space_dim=1, components=2)
    grid = SampleGrid.regular(m, 1, 1)
    assert grid.times == (m.t0,)
    center, radius, n = np.array([0.3, 0.0]), 0.2, 20_000
    [est] = estimate_hit_prob(m, grid, Ball(center=center, radius=radius), [0.0], n_samples=n, seed=seed)

    def law(t):
        var = float(m.variance(t))
        return float(ncx2.cdf(radius**2 / var, df=2, nc=float(center @ center) / var))

    exact, control = law(m.t0), law(0.2)
    assert exact == pytest.approx(0.162458, abs=1e-6)
    assert abs(est.p_hat - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / n)
    assert abs(est.p_hat - control) > 4.0 * math.sqrt(control * (1.0 - control) / n)


def test_hit_probability_input_contracts():
    m = _model()
    grid = SampleGrid.regular(m, 3, 3)
    target = Ball(center=(0.0,), radius=0.5)
    with pytest.raises(ConfigurationError):
        estimate_hit_prob(m, grid, target, [0.0], n_samples=50, seed=0)
    with pytest.raises(ConfigurationError):
        estimate_hit_prob(m, grid, Ball(center=(0.0, 0.0), radius=0.5), [0.0], n_samples=200, seed=0)


def test_mesh_inflation_shrinks_on_a_finer_grid():
    m = _model(hurst=0.6)
    assert mesh_inflation(m, SampleGrid.regular(m, 6, 6)) < mesh_inflation(m, SampleGrid.regular(m, 4, 4))


def test_mesh_inflation_formula():
    m = _model()
    grid = SampleGrid.regular(m, 4, 4)
    system = model_gauges(m)
    dt, dx = grid.mesh_widths()
    want = 3.0 * (system.q1.value(dt) + system.q2.value(dx)) * math.sqrt(2.0 * math.log(grid.n_points))
    assert mesh_inflation(m, grid) == pytest.approx(want, rel=1e-12)
    single = SampleGrid.regular(m, 1, 1)
    assert mesh_inflation(m, single) == 0.0


# -- wilson intervals ---------------------------------------------------------------------------


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.06
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and 0.94 < lo < 1.0
    with pytest.raises(ConfigurationError):
        wilson_interval(5, 0)
    with pytest.raises(ConfigurationError):
        wilson_interval(7, 5)


def test_wilson_interval_calibration():
    # coverage of the true p should be close to the nominal 95%
    rng = np.random.default_rng(5)
    p_true, n, reps = 0.3, 200, 200
    covered = 0
    for _ in range(reps):
        hits = int(rng.binomial(n, p_true))
        lo, hi = wilson_interval(hits, n)
        covered += lo <= p_true <= hi
    assert covered / reps >= 0.90


# -- small-ball ladder -----------------------------------------------------------------------------


def test_small_ball_frequencies_are_monotone_by_construction():
    m = _model()
    grid = SampleGrid.regular(m, 6, 6)
    report = small_ball_slope(
        m, grid, center=[0.0], eps_ladder=[0.05, 0.025, 0.0125], n_samples=800, seed=1
    )
    assert np.all(np.diff(report.p_hat) <= 0.0)
    assert report.slope > 0.0


def test_small_ball_ladder_contracts():
    m = _model()
    grid = SampleGrid.regular(m, 4, 4)
    with pytest.raises(ConfigurationError):
        small_ball_slope(m, grid, [0.0], eps_ladder=[0.4, 0.2], n_samples=200, seed=0)
    with pytest.raises(ConfigurationError):
        small_ball_slope(m, grid, [0.0], eps_ladder=[0.1, 0.2, 0.4], n_samples=200, seed=0)
    with pytest.raises(ConfigurationError):
        small_ball_slope(m, grid, [0.0, 0.0], eps_ladder=[0.4, 0.2, 0.1], n_samples=200, seed=0)
    with pytest.raises(ConfigurationError, match="n_samples >= 100"):
        small_ball_slope(m, grid, [0.0], eps_ladder=[0.4, 0.2, 0.1], n_samples=0, seed=0)
    with pytest.raises(InsufficientResolutionError):
        # every replicate lands within 50 of the center, so p sticks at 1
        small_ball_slope(m, grid, [0.0], eps_ladder=[200.0, 100.0, 50.0], n_samples=200, seed=0)
