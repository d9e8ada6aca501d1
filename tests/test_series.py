"""Truncated Laurent series and the elliptic function ring."""

import pytest
from hypothesis import given, settings, strategies as st

from ellop.rationals import Rat
from ellop.poly import MultiPoly
from ellop.series import LaurentSeries, TruncationError, wp_series, wp_series_numeric
from ellop.elliptic import EllipticElement


def const_series(vals, low, order):
    coeffs = [MultiPoly.const(Rat(v)) for v in vals]
    coeffs += [MultiPoly.zero()] * (order - low - len(coeffs))
    return LaurentSeries(low, coeffs, order)


small = st.lists(st.integers(-5, 5), min_size=1, max_size=5)


@given(small, small)
@settings(max_examples=40, deadline=None)
def test_product_rule(a, b):
    f = const_series(a, -1, 4)
    g = const_series(b, 0, 4)
    lhs = (f * g).differentiate()
    rhs = f.differentiate() * g + f * g.differentiate()
    lo = min(lhs.order, rhs.order)
    for k in range(-3, lo):
        assert (lhs.coefficient(k) - rhs.coefficient(k)).is_zero()


def test_truncation_tracking():
    f = const_series([1, 2, 3], 0, 3)
    g = const_series([1, 1], -2, 1)
    assert (f * g).order <= 1
    assert (f + g).order == 1


def test_wp_series_defining_relation():
    K = 12
    P = wp_series(K)
    Pp = P.differentiate()
    lhs = Pp * Pp
    rhs = P * P * P * Rat(4) - P * MultiPoly.var("g2") - MultiPoly.var("g3") * const_series([1], 0, K)
    for k in range(-6, min(lhs.order, rhs.order)):
        assert (lhs.coefficient(k) - rhs.coefficient(k)).is_zero()


def test_wp_series_leading_terms():
    P = wp_series(8)
    assert P.coefficient(-2) == MultiPoly.const(1)
    assert P.coefficient(0).is_zero()
    assert P.coefficient(2) == MultiPoly.var("g2") * Rat(1, 20)
    assert P.coefficient(4) == MultiPoly.var("g3") * Rat(1, 28)
    assert P.coefficient(1).is_zero()


@pytest.mark.parametrize("K", [0, 1, 2, 3, 5, 8, 13, 40])
def test_numeric_series_is_the_exact_series_at_a_point(K):
    g2, g3 = 1.5 - 0.25j, -0.75 + 2j
    exact = wp_series(K)
    numeric = wp_series_numeric(K, g2, g3)
    assert list(numeric) == [-2] + [k for k in range(2, K, 2)]
    for k, v in numeric.items():
        want = complex(exact.coefficient(k).evaluate({"g2": g2, "g3": g3}))
        assert abs(v - want) <= 1e-14 * max(1.0, abs(want))


def test_elliptic_ring_relation():
    P = EllipticElement.P()
    Pp = EllipticElement.Pprime()
    g2 = MultiPoly.var("g2")
    g3 = MultiPoly.var("g3")
    assert Pp * Pp == P * P * P * 4 - P * g2 - EllipticElement.const(g3)


def test_elliptic_derivative_matches_series():
    elem = EllipticElement([0, 2, 1], [3])   # 2P + P^2 + 3P'
    K = 6
    lhs = elem.derivative().to_series(K)
    rhs = elem.to_series(K + 2).differentiate()
    for k in range(-8, min(lhs.order, rhs.order)):
        assert (lhs.coefficient(k) - rhs.coefficient(k)).is_zero()


def test_drop_constant():
    elem = EllipticElement([5, 1], [])       # P + 5
    dropped = elem.drop_constant()
    assert dropped.to_series(1).coefficient(0).is_zero()
