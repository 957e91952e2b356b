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


def _edges(lo, kinks, hi, *, tip, levels):
    """The edges of one interval, as a one-row batch, without its padding."""
    (row,) = _quad.panel_edges([lo], [kinks], [hi], tip=[tip], levels=levels)
    return row[np.isfinite(row)]


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
    edges = np.concatenate([[0.0], _edges(0.5 ** 61, (), 1.0, tip=False, levels=0)])
    val = _fixed_quad(lambda x: 1.0 / np.sqrt(x), edges, order=16)
    assert math.isclose(val, 2.0, rel_tol=1e-8)


def test_panel_edges_cover_the_interval_by_octaves():
    edges = _edges(1e-6, (), 1.0, tip=False, levels=12)
    # the ends are lo and hi up to the rounding of exp(log(.))
    assert edges[0] == pytest.approx(1e-6, rel=1e-15)
    assert edges[-1] == pytest.approx(1.0, rel=1e-15)
    ratios = edges[1:] / edges[:-1]
    assert np.all(ratios > 1.0)
    assert np.all(ratios <= 2.0 * (1.0 + 1e-9))


def test_panel_edges_halve_toward_each_kink_from_both_sides():
    lo, kinks, hi, levels = 1e-3, (0.5, 0.1), 1.0, 10
    edges = _edges(lo, kinks, hi, tip=False, levels=levels)

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
    assert has_edges_at(toward_hi, _edges(lo, kinks, hi, tip=True, levels=levels))


def test_panel_edges_merge_near_duplicates():
    kink = 0.5
    edges = _edges(1e-3, (kink, np.nextafter(kink, 1.0)), 1.0, tip=True, levels=40)
    assert np.all(np.diff(edges) > 16.0 * np.finfo(float).eps * edges[1:])
    # kinks outside (lo, hi) are ignored rather than extending the range,
    # and a repeated kink counts once
    once = _edges(1e-3, (kink,), 1.0, tip=True, levels=40)
    assert np.array_equal(_edges(1e-3, (kink, 1e-4, 2.0), 1.0, tip=True, levels=40), once)
    assert np.array_equal(_edges(1e-3, (kink, kink), 1.0, tip=True, levels=40), once)


def test_panel_edges_validate_their_range():
    for lo, hi in ((0.0, 1.0), (-1.0, 1.0), (1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError):
            _edges(lo, (), hi, tip=False, levels=4)
    # one bad row rejects the batch
    with pytest.raises(ValueError):
        _quad.panel_edges([1e-3, 1.0], [[], []], [1.0, 1.0], tip=[False, False], levels=4)


# rows of differing octave counts, kinks inside and outside, repeated kinks,
# kinks within an ulp of each other, with and without a kink at hi
ROWS = [
    (1e-6, (0.5, 0.25), 1.0, False),
    (0.3, (0.1, 4.0), 0.9, True),
    (1e-180, (1e-3, 1e-3), 2.0, True),
    (1e-3, (0.5, np.nextafter(0.5, 1.0)), 1.0, True),
    (2.0, (3.0, 6.0), 7.5, False),
    (0.5 ** 30, (0.25, 0.5), 0.5, True),
]


def test_panel_edges_rows_are_their_single_row_edges_padded_with_inf():
    lo, kinks, hi, tip = (list(col) for col in zip(*ROWS))
    batch = _quad.panel_edges(lo, kinks, hi, tip=tip, levels=17)
    widths = []
    for row, (a, k, b, tipped) in zip(batch, ROWS):
        alone = _edges(a, k, b, tip=tipped, levels=17)
        widths.append(alone.size)
        assert np.array_equal(row[: alone.size], alone)
        assert np.all(row[alone.size :] == np.inf)
    assert batch.shape == (len(ROWS), max(widths))


def test_panel_edges_do_not_merge_across_rows():
    # the second row is the first one moved up by 4 ulps: alone or together,
    # each keeps every one of its edges
    lo, hi = 1e-3, 1.0
    up = lambda v: v * (1.0 + 4.0 * np.finfo(float).eps)
    rows = _quad.panel_edges([lo, up(lo)], [[0.5], [up(0.5)]], [hi, up(hi)], tip=[True, True], levels=12)
    first = _edges(lo, (0.5,), hi, tip=True, levels=12)
    second = _edges(up(lo), (up(0.5),), up(hi), tip=True, levels=12)
    assert np.max(np.abs(second / first - 1.0)) < 16.0 * np.finfo(float).eps
    assert np.array_equal(rows[0], first)
    assert np.array_equal(rows[1], second)


def test_panel_rule_reads_padded_rows_row_by_row():
    lo, kinks, hi, tip = (list(col) for col in zip(*ROWS))
    batch = _quad.panel_edges(lo, kinks, hi, tip=tip, levels=5)
    nodes, weights = _quad.panel_rule(batch, 6)
    parts = [_quad.panel_rule(row[np.isfinite(row)], 6) for row in batch]
    assert np.array_equal(nodes, np.concatenate([p[0] for p in parts]))
    assert np.array_equal(weights, np.concatenate([p[1] for p in parts]))


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
    edges = np.concatenate([[0.0], _edges(hi * 0.5 ** 61, (), hi, tip=False, levels=0)])
    val = _fixed_quad(lambda x: x ** power, edges, order=16)
    ref = hi ** (power + 1.0) / (power + 1.0)
    assert math.isclose(val, ref, rel_tol=1e-7)
