"""Panelled Gauss rules, octave panel edges and the log-domain weighted sum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisohit import _quad


def _fixed_quad(f, edges, order):
    nodes, weights = _quad.panel_rule(np.asarray(edges, dtype=float), order)
    return float(np.dot(f(nodes), weights))


def test_gauss_rule_is_exact_on_polynomials():
    # An n-point rule integrates degree 2n-1 exactly; degree 2n must miss.
    x, w = _quad.gauss_rule(5)
    assert math.isclose(float(np.dot(w, x ** 9)), 0.0, abs_tol=1e-15)
    assert math.isclose(float(np.dot(w, x ** 8)), 2.0 / 9.0, rel_tol=1e-14)
    assert abs(float(np.dot(w, x ** 10)) - 2.0 / 11.0) > 1e-6


def test_panel_rule_rejects_bad_edges():
    with pytest.raises(ValueError):
        _quad.panel_rule(np.array([0.0, 1.0, 1.0]), 4)
    with pytest.raises(ValueError):
        _quad.panel_rule(np.array([0.5]), 4)


def test_panel_rule_keeps_nodes_off_the_edges():
    edges = np.array([0.0, 0.25, 1.0])
    nodes, weights = _quad.panel_rule(edges, 8)
    assert nodes.shape == weights.shape == (16,)
    assert not np.isin(nodes, edges).any()
    assert np.all(weights > 0.0)
    assert math.isclose(float(weights.sum()), 1.0, rel_tol=1e-15)


def test_fixed_quad_matches_closed_form():
    val = _fixed_quad(np.exp, [0.0, 0.4, 1.0], order=16)
    assert math.isclose(val, math.e - 1.0, rel_tol=1e-15)


def test_panel_edges_tame_an_endpoint_singularity():
    # int_0^1 x^(-1/2) dx = 2, singular only at 0.  The single panel below
    # the first octave edge still hides mass ~ 2 * 2^(-61/2), so the bound
    # tracks that floor rather than machine precision.
    edges = np.concatenate([[0.0], _quad.panel_edges(0.5 ** 61, (), 1.0, tip=False, levels=0)])
    val = _fixed_quad(lambda x: 1.0 / np.sqrt(x), edges, order=16)
    assert math.isclose(val, 2.0, rel_tol=1e-8)


def test_panel_edges_cover_the_interval_by_octaves():
    edges = _quad.panel_edges(1e-6, (), 1.0, tip=False, levels=12)
    # the ends are lo and hi up to the rounding of exp(log(.))
    assert edges[0] == pytest.approx(1e-6, rel=1e-15)
    assert edges[-1] == pytest.approx(1.0, rel=1e-15)
    ratios = edges[1:] / edges[:-1]
    assert np.all(ratios > 1.0)
    assert np.all(ratios <= 2.0 * (1.0 + 1e-9))


def test_panel_edges_halve_toward_each_kink_from_both_sides():
    lo, kinks, hi, levels = 1e-3, (0.5, 0.1), 1.0, 10
    edges = _quad.panel_edges(lo, kinks, hi, tip=False, levels=levels)

    def has_edges_at(points, edges):
        # an edge within the merge distance of every point
        gaps = np.min(np.abs(np.subtract.outer(points, edges)), axis=1)
        return np.all(gaps <= 16.0 * np.finfo(float).eps * np.asarray(points))

    brks = [lo, 0.1, 0.5, hi]
    for k in (1, 2):
        kink = brks[k]
        # below a kink the steps scale with the segment's span; above it
        # with min(span, kink), so the kink 0.1 halves in steps of 0.1, not 0.4
        below, above = kink - brks[k - 1], min(brks[k + 1] - kink, kink)
        halvings = [kink - below * 0.5 ** j for j in range(1, levels + 1)]
        halvings += [kink + above * 0.5 ** j for j in range(1, levels + 1)]
        assert has_edges_at([kink] + halvings, edges)
    # the innermost edge above the kink 0.1 (which exp(log(.)) may round up)
    assert edges[edges > 0.1 * (1.0 + 1e-9)][0] == pytest.approx(0.1 + 0.1 * 0.5 ** levels, rel=1e-15)
    # hi is refined only when tip says it is a kink too
    assert edges[-2] == 0.75
    toward_hi = [hi - (hi - 0.5) * 0.5 ** j for j in range(1, levels + 1)]
    assert has_edges_at(toward_hi, _quad.panel_edges(lo, kinks, hi, tip=True, levels=levels))


def test_panel_edges_merge_near_duplicates():
    kink = 0.5
    edges = _quad.panel_edges(1e-3, (kink, np.nextafter(kink, 1.0)), 1.0, tip=True, levels=40)
    assert np.all(np.diff(edges) > 16.0 * np.finfo(float).eps * edges[1:])
    # kinks outside (lo, hi) are ignored rather than extending the range
    assert np.array_equal(
        _quad.panel_edges(1e-3, (kink, 1e-4, 2.0), 1.0, tip=True, levels=40),
        _quad.panel_edges(1e-3, (kink,), 1.0, tip=True, levels=40),
    )


def test_panel_edges_validate_their_range():
    with pytest.raises(ValueError):
        _quad.panel_edges(0.0, (), 1.0, tip=False, levels=4)
    with pytest.raises(ValueError):
        _quad.panel_edges(-1.0, (), 1.0, tip=False, levels=4)
    with pytest.raises(ValueError):
        _quad.panel_edges(1.0, (), 1.0, tip=False, levels=4)
    with pytest.raises(ValueError):
        _quad.panel_edges(2.0, (), 1.0, tip=False, levels=4)


def test_log_weighted_sum_matches_direct_sum_in_range():
    rng = np.random.default_rng(3)
    logs = rng.uniform(-5.0, 5.0, 50)
    w = rng.uniform(0.1, 2.0, 50)
    direct = math.log(float(np.dot(w, np.exp(logs))))
    assert math.isclose(_quad.log_weighted_sum(logs, w), direct, rel_tol=1e-13)


def test_log_weighted_sum_survives_huge_exponents():
    logs = np.array([-5000.0, 2000.0, 1999.0])
    w = np.ones(3)
    val = _quad.log_weighted_sum(logs, w)
    # exp(2000) dominates; the sum adds log(1 + e^-1) on top.
    assert math.isclose(val, 2000.0 + math.log1p(math.exp(-1.0)), rel_tol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    power=st.floats(min_value=-0.5, max_value=3.0),
    hi=st.floats(min_value=0.1, max_value=50.0),
)
def test_power_integrals_on_octave_panels(power, hi):
    edges = np.concatenate([[0.0], _quad.panel_edges(hi * 0.5 ** 61, (), hi, tip=False, levels=0)])
    val = _fixed_quad(lambda x: x ** power, edges, order=16)
    ref = hi ** (power + 1.0) / (power + 1.0)
    assert math.isclose(val, ref, rel_tol=1e-7)
