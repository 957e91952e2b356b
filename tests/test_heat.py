"""Covariance model: variance scaling, frozen oracles, metric structure."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisohit.errors import ConfigurationError, NumericalError
from anisohit.heat import (
    HeatModel,
    covariance_matrix,
    model_gauges,
    separations,
    spatial_gauge_residual,
    spatial_slope,
    temporal_slope,
)
from anisohit.mc import SampleGrid

# Oracle values frozen from two independent computations: the variance
# constant kappa from its hypergeometric closed form evaluated with mpmath
# at 40 digits, and covariances from tanh-sinh quadrature of the reduced
# one-dimensional integral at 50 digits with breakpoints at every kink.
# The quadrature oracle forms the weight factor directly in the
# distance-to-endpoint variable; building it from the integration variable
# by subtraction loses every digit near the endpoint and silently drops
# the r^(2H-b-1) mass there, which is exactly the failure mode these
# tests pin down.
KAPPA_ORACLE = {
    # (hurst, space_dim, alpha) -> kappa, variance(t) = kappa * t^(2H-b)
    (0.6, 1, 0.0): 0.36039265017291445,
    (0.75, 1, 0.0): 0.33233509704478426,
    (0.9, 1, 0.0): 0.31782220338720961,
    (0.8, 2, 1.0): 0.16327493186364773,
    (0.7, 3, 1.5): 0.045661783155350051,
    (0.55, 2, 0.0): 0.46567966197889272714,
    (0.8, 3, 0.0): 0.18691993281219858692,
    (0.51, 2, 0.2): 0.39201988424335508722,
}

COV_ORACLE = [
    # (hurst, space_dim, alpha, t, s, rho) -> cov
    (0.75, 1, 0.0, 0.7, 0.4, 0.3, 0.12501275022468423741),
    (0.9, 1, 0.0, 0.3, 0.6, 0.0, 0.09067586108876290054),
    (0.8, 2, 1.0, 0.5, 0.5, 0.5, 0.06681812248935868409),
    (0.6, 1, 0.0, 0.9, 0.85, 0.01, 0.30010992963816231078),
    (0.8, 3, 0.0, 0.5, 0.500001, 0.0, 0.13449882326027854873),
    (0.7, 3, 1.5, 0.9, 0.2, 1.1, 0.0060351886263044693324),
]

# Equal times, separation 1e-3, hurst 0.55 in dimension 2: about half of
# the squared metric then rides on the closed-form endpoint correction,
# so this single number is the sharpest test of that correction we have.
SMALL_GAP_METRIC = 0.4522741901675179745
SMALL_GAP_COV = 0.3402129440887919614

# d = 1, alpha = 0 covariances at t = 0.25, s = 0.25 * ratio, for ratios
# around 3: there the weight's |r - w|^(2H-1) cusp, at p = 2 min(t, s), meets
# the midpoint (t+s)/2 of the time integral.  Frozen from mpmath tanh-sinh
# quadrature at 34 digits with breakpoints {0, t, 2t, s, t+s}.
SEAM_ORACLE = [
    # (hurst, rho, ratio) -> cov
    (0.55, 0.0, 2.9, 0.083565779433416727104),
    (0.55, 0.0, 2.99, 0.082430550951284324319),
    (0.55, 0.0, 3, 0.082307683358073999711),
    (0.55, 0.0, 3 * (1 - 1e-6), 0.082307720123305212284),
    (0.55, 0.0, 3 * (1 + 1e-6), 0.082307646592899664187),
    (0.55, 0.0, 3.01, 0.082185447678022283511),
    (0.55, 0.0, 3.1, 0.08111284222976939726),
    (0.55, 0.1, 2.9, 0.083183711646797777242),
    (0.55, 0.1, 2.99, 0.082064839259100212159),
    (0.55, 0.1, 3, 0.081943708015719762746),
    (0.55, 0.1, 3 * (1 - 1e-6), 0.081943744262367806336),
    (0.55, 0.1, 3 * (1 + 1e-6), 0.081943671769127208798),
    (0.55, 0.1, 3.01, 0.081823193270421824123),
    (0.55, 0.1, 3.1, 0.080765414824287768935),
    (0.9, 0.0, 2.9, 0.083118045348787817328),
    (0.9, 0.0, 2.99, 0.084130234886402519292),
    (0.9, 0.0, 3, 0.084241396945547512683),
    (0.9, 0.0, 3 * (1 - 1e-6), 0.084241363635276109348),
    (0.9, 0.0, 3 * (1 + 1e-6), 0.084241430255795940073),
    (0.9, 0.0, 3.01, 0.084352303770057855292),
    (0.9, 0.0, 3.1, 0.085339213845207976714),
    (0.9, 0.1, 2.9, 0.08226959362148790951),
    (0.9, 0.1, 2.99, 0.083285592135330047601),
    (0.9, 0.1, 3, 0.083397167274676340908),
    (0.9, 0.1, 3 * (1 - 1e-6), 0.083397133840774394586),
    (0.9, 0.1, 3 * (1 + 1e-6), 0.083397200708555135712),
    (0.9, 0.1, 3.01, 0.083508485228766593222),
    (0.9, 0.1, 3.1, 0.084499010905566894519),
]


# d = 1, alpha = 0 covariances at s = t * ratio for the separations
# RULE_RHOS, taken in one batch as covariance_matrix takes its separations:
# equal, generic, ratio-3 and near-equal time pairs.  Frozen from mpmath
# tanh-sinh quadrature at 40 digits in r = (t+s) - p with breakpoints
# {0, |t-s|, min, max, t+s}; at 60 digits the values agree to 5e-20.
RULE_RHOS = (0.0, 1e-2, 0.3)
RULE_ORACLE = [
    # (hurst, t, ratio) -> cov at each of RULE_RHOS
    (0.55, 0.5, 1.0, (0.24829506030349537476, 0.24731112102261809757, 0.19839837881291015206)),
    (0.55, 0.2, 4.5, (0.060228457541797869765, 0.060226121402828274842, 0.058293954291068970889)),
    (0.55, 0.25, 3.0, (0.082307683358073999711, 0.082303964122963775505, 0.07920371832181415423)),
    (0.55, 0.1106, 1 + 1e-8, (0.10042330992870629203, 0.099448730518076717558, 0.057763249357045651145)),
    (0.55, 0.1106, 1 + 1e-5, (0.10035723147633307253, 0.099449010378866346161, 0.057763519199458953405)),
    (0.55, 0.1106, 1 + 1e-3, (0.099385517963754075406, 0.099029655327476868891, 0.057790243520112747356)),
    (0.7, 0.5, 1.0, (0.18193382820887117049, 0.18183377340228617263, 0.15870088672072423597)),
    (0.7, 0.2, 4.5, (0.064392011131802590086, 0.064387451252870009707, 0.060983089996551329262)),
    (0.7, 0.25, 3.0, (0.082719280968097871591, 0.082713135827294198099, 0.078055763600046424975)),
    (0.7, 0.1106, 1 + 1e-8, (0.046797220074334381473, 0.046705392624935981887, 0.030719117750964192446)),
    (0.7, 0.1106, 1 + 1e-5, (0.046796616897170958274, 0.046705599784754379828, 0.030719303377175055918)),
    (0.7, 0.1106, 1 + 1e-3, (0.046766845545738466966, 0.046699101207138531275, 0.030737681597029832451)),
    (0.9, 0.5, 1.0, (0.12907592315823993637, 0.12905769649030261208, 0.11785410751558993765)),
    (0.9, 0.2, 4.5, (0.073799077525691157754, 0.07379112644752494948, 0.06816153525120228769)),
    (0.9, 0.25, 3.0, (0.084241396945547512683, 0.084232353774107958368, 0.077743383984624478199)),
    (0.9, 0.1106, 1 + 1e-8, (0.018157911793237233811, 0.018146640012418353485, 0.012980395183899597103)),
    (0.9, 0.1106, 1 + 1e-5, (0.01815802811015813993, 0.018146757848848083593, 0.012980497835630425234)),
    (0.9, 0.1106, 1 + 1e-3, (0.018169080315698851176, 0.018158020513962410938, 0.012990666266551052622)),
]
# Bound on the relative error over RULE_ORACLE, per hurst: the one rule's
# measured worst case (3.1e-15, 1.1e-15 and 8.9e-16 at H = 0.55, 0.7 and
# 0.9), rounded up.
RULE_TOL = {0.55: 5e-15, 0.7: 2e-15, 0.9: 2e-15}


def _near_equal_case(h):
    """(t, ratio, refs) of the RULE_ORACLE pair at s/t = 1 + 1e-5."""
    ((t, ratio, refs),) = [case[1:] for case in RULE_ORACLE if case[0] == h and case[2] == 1 + 1e-5]
    return t, ratio, refs


def _model(h, d, al):
    return HeatModel(hurst=h, space_dim=d, alpha=al)


# -- frozen oracles ------------------------------------------------------------


@pytest.mark.parametrize("params,ref", sorted(KAPPA_ORACLE.items()))
def test_variance_constant_matches_closed_form(params, ref):
    h, d, al = params
    assert _model(h, d, al).variance_const == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("h,d,al,t,s,rho,ref", COV_ORACLE)
def test_covariance_matches_quadrature_oracle(h, d, al, t, s, rho, ref):
    m = _model(h, d, al)
    assert m._cov_batch(t, s, np.array([rho]))[0] == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("h,rho,ratio,ref", SEAM_ORACLE)
def test_covariance_is_accurate_where_the_cusp_meets_the_midpoint(h, rho, ratio, ref):
    m = _model(h, 1, 0.0)
    assert m._cov_batch(0.25, 0.25 * ratio, np.array([rho]))[0] == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("h,t,ratio,refs", RULE_ORACLE)
def test_rule_matches_quadrature_oracle(h, t, ratio, refs):
    got = _model(h, 1, 0.0)._cov_batch(t, t * ratio, np.array(RULE_RHOS))
    np.testing.assert_allclose(got, refs, rtol=RULE_TOL[h], atol=0.0)


@pytest.mark.parametrize("h,t,ratio,refs", RULE_ORACLE)
def test_covariance_matrix_matches_quadrature_oracle(h, t, ratio, refs):
    # the public matrix path over every RULE_ORACLE pair; at |t - s| = 1e-5 t
    # the weight's cusp at r = |t - s| sits far below the r-half segment
    # [|t - s|, min(t, s)], where a rule that halves only in steps of the
    # segment span never reaches it.  One class of three sites, the first
    # RULE_RHOS from each; the other entries only fill the table
    table = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    parity = (np.array(RULE_RHOS), [[(1.0, table)]])
    [cov], _ = covariance_matrix(_model(h, 1, 0.0), np.array([t, t * ratio]), parity)
    np.testing.assert_allclose(cov[3:, 0], refs, rtol=RULE_TOL[h], atol=0.0)
    np.testing.assert_allclose(cov[3, :3], refs, rtol=RULE_TOL[h], atol=0.0)


def test_rule_depth_set_for_a_smoother_cusp_misses_the_oracle():
    # negative control: the H = 0.9 depth on an H = 0.55 model under-resolves
    # the |r - w|^0.1 cusp of the near-equal pair, by orders of magnitude
    m = _model(0.55, 1, 0.0)
    assert m._rule_levels > _model(0.9, 1, 0.0)._rule_levels == 19
    m.__dict__["_rule_levels"] = 19
    t, ratio, refs = _near_equal_case(0.55)
    got = m._cov_batch(t, t * ratio, np.array(RULE_RHOS))
    assert np.max(np.abs(got / np.array(refs) - 1.0)) > 100.0 * RULE_TOL[0.55]


def test_small_separation_metric_matches_oracle():
    m = _model(0.55, 2, 0.0)
    got = m.metric(0.6, [0.0, 0.0], 0.6, [1e-3, 0.0])
    assert got == pytest.approx(SMALL_GAP_METRIC, rel=1e-12)
    cov = float(m._cov_batch(0.6, 0.6, np.array([1e-3]))[0])
    assert cov == pytest.approx(SMALL_GAP_COV, rel=1e-12)


# -- variance scaling ----------------------------------------------------------


@pytest.mark.parametrize("h,d,al", [(0.6, 1, 0.0), (0.75, 2, 0.5), (0.9, 3, 0.0)])
def test_variance_scaling_law(h, d, al):
    m = _model(h, d, al)
    for t in (0.07, 0.3, 1.7):
        assert m.variance_direct(t) == pytest.approx(m.variance(t), rel=1e-12)


def test_variance_vanishes_at_and_before_zero():
    m = _model(0.7, 1, 0.0)
    assert m.variance(0.0) == 0.0
    assert m.variance(-1.0) == 0.0
    assert m.variance_direct(0.0) == 0.0
    vals = m.variance(np.array([-1.0, 0.0, 0.25, 1.0]))
    assert vals[0] == 0.0 and vals[1] == 0.0
    assert vals[3] == pytest.approx(m.variance_const, rel=1e-14)


def test_variance_of_an_array_equals_its_scalar_variances_bit_for_bit():
    # numpy's vectorized power differs from the scalar one in the last bit
    # of a few percent of times; an array must not see that
    m = _model(0.7, 1, 0.0)
    t = np.random.default_rng(4).uniform(-0.1, 2.0, 100_000)
    want = np.array([m.variance(float(v)) for v in t])
    assert np.array_equal(m.variance(t), want)
    assert m.variance(t.reshape(400, 250)).shape == (400, 250)


# -- structural identities -------------------------------------------------------


def test_covariance_is_symmetric_in_its_arguments():
    m = _model(0.7, 2, 0.5)
    rho = separations(np.array([[0.1, -0.2]]), np.array([[0.4, 0.0]]))
    a = m._cov_batch(0.8, 0.3, rho)[0]
    b = m._cov_batch(0.3, 0.8, rho)[0]
    assert a == pytest.approx(b, rel=1e-13)


def test_equal_time_metric_agrees_with_assembled_form():
    # the dedicated differenced integrand and the var+var-2cov assembly
    # must describe the same quantity
    m = _model(0.65, 1, 0.0)
    for rho in (0.3, 0.02):
        direct = m.metric(0.5, [0.0], 0.5, [rho]) ** 2
        assembled = 2.0 * (m.variance_direct(0.5) - m._cov_batch(0.5, 0.5, np.array([rho]))[0])
        assert direct == pytest.approx(assembled, rel=1e-11)


def test_metric_of_identical_points_is_zero():
    m = _model(0.75, 1, 0.0)
    assert m.metric(0.5, [0.2], 0.5, [0.2]) == 0.0


def test_covariance_before_start_is_zero():
    # a pair with a time at or before 0 has covariance 0, so its squared
    # metric is the other point's variance
    m = _model(0.75, 1, 0.0)
    got = m.metrics(np.array([0.0, -0.3, 0.5]), np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.2, 0.1]))
    assert np.array_equal(got, np.full(3, math.sqrt(m.variance(0.5))))


def test_spatial_points_must_match_dimension():
    m = _model(0.75, 2, 0.0)
    with pytest.raises(ConfigurationError):
        m.metric(0.5, [0.0], 0.5, [0.1])


# -- model validation ------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"hurst": 0.5},
        {"hurst": 1.0},
        {"hurst": 0.75, "space_dim": 0},
        {"hurst": 0.75, "components": 0},
        {"hurst": 0.75, "alpha": -0.1},
        {"hurst": 0.75, "alpha": 1.0, "space_dim": 1},
        {"hurst": 0.55, "space_dim": 3},          # d - alpha = 3 >= 4H = 2.2
        {"hurst": 0.8, "alpha": 0.5, "space_dim": 4},
        {"hurst": 0.75, "t0": 0.0},
        {"hurst": 0.75, "t0": 0.6, "t1": 0.5},
        {"hurst": 0.75, "box_radius": 0.0},
    ],
)
def test_model_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigurationError):
        HeatModel(**kwargs)


def test_derived_exponents():
    m = _model(0.75, 1, 0.0)
    assert m.decay == 0.5
    assert m.time_exponent == pytest.approx(1.0)
    assert m.temporal_order == pytest.approx(0.5)
    assert m.is_critical
    m2 = _model(0.6, 1, 0.0)
    assert m2.time_exponent == pytest.approx(0.7)
    assert m2.spatial_order == pytest.approx(0.7)
    assert not m2.is_critical
    m3 = _model(0.9, 1, 0.0)
    # time exponent 1.3 caps the spatial order at 1
    assert m3.spatial_order == 1.0


# -- special function branches ----------------------------------------------------


def test_kummer_deficit_series_meets_direct_branch():
    m = _model(0.8, 2, 1.0)
    # at the seam x = 0.5 the series branch is selected; the direct
    # difference is still accurate there, so both must agree
    x = np.array([0.5])
    series = m._kummer_deficit(x)[0]
    direct = 1.0 - m._kummer(x)[0]
    assert series == pytest.approx(direct, rel=1e-13)
    x = np.array([1e-3, 0.1, 0.4])
    total = m._kummer_deficit(x) + m._kummer(x)
    assert np.max(np.abs(total - 1.0)) < 1e-14


def test_kummer_deficit_keeps_relative_accuracy_at_tiny_argument():
    m = _model(0.8, 2, 1.0)
    x = np.array([1e-12])
    # leading term is (c - a)/c * x = 0.5e-12; the direct difference
    # 1 - kummer would return 0 here
    assert m._kummer_deficit(x)[0] == pytest.approx(0.5e-12, rel=1e-9)


def test_kummer_asymptotic_meets_hypergeometric_branch():
    from anisohit.heat import _kummer_asymptotic

    m = _model(0.8, 2, 1.0)
    # at the seam x = 400 the hypergeometric branch is selected; the
    # asymptotic series is already converged to well below double
    # precision there, so evaluating both at the same point must agree
    x = np.array([400.0])
    direct = m._kummer(x)[0]
    asym = _kummer_asymptotic(x, 0.5 * m.alpha, 0.5 * m.space_dim)[0]
    assert direct == pytest.approx(asym, rel=1e-11)
    assert 0.0 < direct < 1.0


# -- assembled covariance matrices -------------------------------------------------


def _blocks(model, grid):
    """The parity blocks of ``covariance_matrix`` on the grid, each made
    symmetric from its lower triangle."""
    blocks, _ = covariance_matrix(model, np.asarray(grid.times), grid.parity())
    return [np.tril(b) + np.tril(b, -1).T for b in blocks]


def test_covariance_matrix_is_symmetric_positive_semidefinite():
    m = HeatModel(hurst=0.7, t0=0.2, t1=1.0, box_radius=0.5)
    grid = SampleGrid.regular(m, 4, 5)
    # every index table is symmetric, so a block's lower triangle holds it
    for terms in grid.parity()[1]:
        assert all(np.array_equal(idx, idx.T) for _, idx in terms)
    blocks = _blocks(m, grid)
    assert [len(b) for b in blocks] == [12, 8]  # sites x >= 0 and x > 0, four times each
    for cov in blocks:
        eig = np.linalg.eigvalsh(cov)
        assert eig.min() > -1e-12 * eig.max()


def test_covariance_matrix_blocks_match_pointwise_kernel():
    # each entry is its definition: the signed mean over the reflections eta
    # of the scalar kernel at the coordinate separation |x - eta y|
    m = HeatModel(hurst=0.75, space_dim=2, t0=0.3, t1=0.8, box_radius=0.4)
    grid = SampleGrid.regular(m, 2, 3)
    axis = np.asarray(grid.site_axis)
    blocks = _blocks(m, grid)
    classes = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for cov, sigma in zip(blocks, classes):
        halves = [axis[axis > 0.0] if odd else axis[axis >= 0.0] for odd in sigma]
        sites = [np.array(x) for x in itertools.product(*halves)]
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
def test_covariance_matrix_blocks_equal_the_scalar_kernel_bit_for_bit(alpha):
    # the matrix reuses one buffer across rules; every block must still be
    # exactly the signed mean of what fresh-buffer calls of the same kernel return
    m = _model(0.8, 1, alpha)
    grid = SampleGrid.regular(m, 5, 4)
    times = np.asarray(grid.times)
    seps, tables = grid.parity()
    blocks, _ = covariance_matrix(m, times, (seps, tables))
    for cov, terms in zip(blocks, tables):
        k = len(terms[0][1])
        lower = np.tril_indices(k)
        for i in range(5):
            for j in range(i, 5):
                vals = m._cov_batch(times[i], times[j], seps)
                block = sum(sign * vals[idx] for sign, idx in terms) / len(terms)
                if i == j:
                    assert np.array_equal(cov[k * i : k * i + k, k * i : k * i + k][lower], block[lower])
                else:
                    assert np.array_equal(cov[k * j : k * j + k, k * i : k * i + k], block.T)


# time pairs that take every branch of the rule builder: equal times, the
# cusp on the seam (max = 3 min), a near-equal pair, a generic pair, a long
# pair; each row of separations holds 0 and differs from its neighbours
BATCH_PAIRS = [
    (0.5, 0.5),
    (0.25, 0.75),
    (0.3, 0.9 * (1.0 + 1e-7)),
    (0.1106, 0.1106 * (1.0 + 1e-5)),
    (0.8, 0.35),
    (0.1, 1.0),
    (0.6, 0.2),
    (0.45, 0.45),
    (0.9, 0.3),
    (0.2, 0.21),
    (0.7, 0.7 * (1.0 + 1e-12)),
]


@pytest.mark.parametrize("h,d,al", [(0.7, 1, 0.0), (0.8, 2, 0.5), (0.55, 1, 0.0)])
@pytest.mark.parametrize("chunk_nodes", [1, 6000, 20000, None])
def test_batched_rules_equal_single_pair_rules_bit_for_bit(monkeypatch, h, d, al, chunk_nodes):
    # a pair's covariances are the same alone as anywhere in a batch, also
    # when chunk boundaries fall between, before or after it
    from anisohit import heat

    if chunk_nodes is not None:
        monkeypatch.setattr(heat, "_RULE_CHUNK_NODES", chunk_nodes)
    m = _model(h, d, al)
    t, s = (np.array(col) for col in zip(*BATCH_PAIRS))
    rhos = np.array([[0.0, 1e-3 * (k + 1), 0.3, 1.7 - 0.1 * k] for k in range(len(t))])
    got = m._cov_pairs(t, s, rhos)
    for k in range(len(t)):
        assert np.array_equal(got[k], m._cov_batch(t[k], s[k], rhos[k])), k
    deficit = m._cov_pairs(t, t, rhos, deficit=True)
    for k in range(len(t)):
        assert np.array_equal(deficit[k], m._cov_batch(t[k], t[k], rhos[k], deficit=True)), k


def test_batched_metric_equals_single_pair_metric_bit_for_bit():
    m = _model(0.8, 2, 0.5)
    rng = np.random.default_rng(5)
    t, s = (np.array(col) for col in zip(*BATCH_PAIRS))
    x = rng.uniform(-1.0, 1.0, (len(t), 2))
    y = x + rng.uniform(-0.5, 0.5, (len(t), 2))
    y[1] = x[1]  # rho = 0 at distinct times
    y[7] = x[7]  # identical points
    rho = separations(x, y)
    got = m.metrics(t, s, rho)
    assert got[7] == 0.0
    for k in range(len(t)):
        assert rho[k] == np.linalg.norm(x[k] - y[k])
        assert got[k] == m.metric(t[k], x[k], s[k], y[k]), k


def test_metric_clamp_is_a_reported_event(caplog):
    # at s = t + 1e-15 the exact radicand is far below the rounding of
    # var(t) + var(s) - 2 cov, which comes out slightly negative
    m = _model(0.9, 1, 0.0)
    with caplog.at_level("WARNING", logger="anisohit"):
        assert m.metric(0.1, [0.0], 0.100000000000001, [0.0]) == 0.0
    (record,) = caplog.records
    assert record.levelname == "WARNING"
    assert "clamped 1 negative radicand" in record.getMessage()


def test_clean_metric_batch_logs_nothing(caplog):
    m = _model(0.9, 1, 0.0)
    with caplog.at_level("DEBUG", logger="anisohit"):
        vals = m.metrics(np.array([0.1, 0.5, 0.3]), np.array([0.2, 0.5, 0.9]), np.array([0.0, 0.1, 0.4]))
    assert np.all(vals > 0.0)
    assert caplog.records == []


def test_covariance_matrix_diagonal_is_the_variance():
    m = HeatModel(hurst=0.6, t0=0.4, t1=0.9)
    cov, odd = _blocks(m, SampleGrid.regular(m, 2, 1))  # the one site x = 0 is even
    assert odd.shape == (0, 0)
    assert cov[0, 0] == pytest.approx(m.variance(0.4), rel=1e-12)
    assert cov[1, 1] == pytest.approx(m.variance(0.9), rel=1e-12)


# -- gauges and envelope -------------------------------------------------------------


def test_model_gauges_off_critical_are_pure_powers():
    system = model_gauges(_model(0.6, 1, 0.0))
    assert system.q1.family == "power"
    assert system.q2.family == "power"
    assert system.q1.nu == pytest.approx(0.35)
    assert system.q2.nu == pytest.approx(0.7)
    assert system.d1 == 1 and system.d2 == 1


def test_model_gauges_on_critical_line_carry_the_log_factor():
    m = _model(0.75, 1, 0.0)
    assert m.is_critical
    system = model_gauges(m)
    assert system.q2.family == "power-log"
    assert system.q2.nu == pytest.approx(1.0)
    assert system.q2.delta == pytest.approx(0.5)
    # the log factor makes the gauge strictly larger than the bare power
    # on small arguments
    assert system.q2.value(1e-4) > 1e-4


def test_envelope_brackets_the_metric_off_critical():
    m = _model(0.6, 1, 0.0)
    system = model_gauges(m)
    rng = np.random.default_rng(7)
    ratios = []
    for _ in range(12):
        t = 0.1 + 0.9 * rng.random()
        s = 0.1 + 0.9 * rng.random()
        x = np.array([rng.uniform(-1, 1)])
        y = np.array([rng.uniform(-1, 1)])
        dd = m.metric(t, x, s, y) ** 2
        ee = system.q1.value(abs(t - s)) ** 2 + system.q2.value(float(np.abs(x - y)[0])) ** 2
        if ee > 0:
            ratios.append(dd / ee)
    ratios = np.array(ratios)
    # two-sided comparability with moderate constants
    assert ratios.min() > 1e-3
    assert ratios.max() < 1e3


# -- slope fits -------------------------------------------------------------------------


def test_temporal_slope_spot_check():
    fit = temporal_slope(_model(0.6, 1, 0.0))
    assert fit.slope == pytest.approx(0.35, abs=0.02)
    assert fit.rms_residual < 0.05


def test_spatial_slope_spot_check():
    fit = spatial_slope(_model(0.6, 1, 0.0))
    assert fit.slope == pytest.approx(0.7, abs=0.03)


# For these H the metric's |x|^(2 min(1, a)) and |x|^(2 max(1, a)) terms,
# a = 2H - 1/2, cross over inside the fit window 1e-4..1e-1, where a single
# log-log slope misses min(1, a) by more than the rates pipeline's 0.03
# (0.858 against 0.9 at H = 0.7); the fit has to resolve both terms.
@pytest.mark.parametrize("h", [0.70, 0.72, 0.74, 0.76, 0.78, 0.80])
def test_spatial_slope_near_the_critical_line(h):
    m = _model(h, 1, 0.0)
    assert spatial_slope(m).slope == pytest.approx(min(1.0, 2.0 * h - 0.5), abs=0.03)


def test_spatial_slope_checked_against_a_neighbouring_order_fails():
    # negative control: the H = 0.72 fit (order 0.94) is told apart from the
    # orders of H = 0.70 and H = 0.76 at the pipeline's tolerance
    fit = spatial_slope(_model(0.72, 1, 0.0))
    assert fit.rms_residual < 1e-6
    for other in (0.70, 0.76):
        assert fit.slope != pytest.approx(_model(other, 1, 0.0).spatial_order, abs=0.03)


def test_log_corrected_gauge_fits_critical_spatial_data_better():
    m = _model(0.75, 1, 0.0)
    system = model_gauges(m)
    log_resid = spatial_gauge_residual(m, system.q2)
    from anisohit.gauges import GaugeSpec

    power_resid = spatial_gauge_residual(m, GaugeSpec.power(1.0))
    assert log_resid < power_resid


# -- property-based checks ---------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    t=st.floats(0.15, 1.0),
    s=st.floats(0.15, 1.0),
    dx=st.floats(-0.8, 0.8),
)
def test_cauchy_schwarz_for_covariance(t, s, dx):
    m = _model(0.65, 1, 0.0)
    cov = m._cov_batch(t, s, np.array([abs(dx)]))[0]
    bound = math.sqrt(m.variance(t) * m.variance(s))
    assert abs(cov) <= bound * (1.0 + 1e-10)


@settings(max_examples=10, deadline=None)
@given(
    t=st.floats(0.2, 0.9),
    s=st.floats(0.2, 0.9),
    r=st.floats(0.2, 0.9),
    dx=st.floats(-0.6, 0.6),
    dy=st.floats(-0.6, 0.6),
)
def test_metric_triangle_inequality(t, s, r, dx, dy):
    m = _model(0.7, 1, 0.0)
    a = (t, np.array([0.0]))
    b = (s, np.array([dx]))
    c = (r, np.array([dy]))
    ab = m.metric(a[0], a[1], b[0], b[1])
    bc = m.metric(b[0], b[1], c[0], c[1])
    ac = m.metric(a[0], a[1], c[0], c[1])
    assert ac <= ab + bc + 1e-12
