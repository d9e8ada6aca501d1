"""Truncated Laurent series and the elliptic function ring."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ellop
from ellop import poly
from ellop.operators import IndexData, cyclic_L0
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
    Pp = EllipticElement((), [1])
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


def reference_to_series(elem, K):
    """elem's Laurent series through z^(K-1), made by generic series
    arithmetic: sum of c P^i and c P^i P' over the parts, at a guard order
    that covers every product."""
    parts = elem.parts()
    # one past the highest power of P in each part (the powers ascend)
    size = {prime: i + 1 for i, prime, _ in parts}
    G = K + 4 * max(size.get(0, 0), size.get(1, 0) + 2) + 8
    P = wp_series(G)
    Pp = P.differentiate()
    out = LaurentSeries.zero(G)
    for i, prime, c in parts:
        out = out + (P ** i * Pp if prime else P ** i) * c
    return out.truncate(K)


def assert_same_series(got, want):
    assert (got.low, got.order) == (want.low, want.order)
    assert len(got.coeffs) == got.order - got.low
    for k in range(got.low, got.order):
        assert got.coefficient(k) == want.coefficient(k), k


C, E = MultiPoly.var("c"), MultiPoly.var("e")
ELEMENTS = [
    EllipticElement(),                                   # zero
    EllipticElement([Rat(7, 3)]),                        # constant
    EllipticElement([C, Rat(-2)]),                       # c - 2P
    EllipticElement([0, E], [Rat(5, 2)]),                # eP + 5/2 P'
    EllipticElement([], [C]),                            # cP'
    EllipticElement([0, 0, 1]),                          # P^2, no P^0 or P^1
    EllipticElement([1, C, 0, E, Rat(-3, 4)], [2, 0, C * E, Rat(1, 9)]),  # P-degree 4, P'P^3
    EllipticElement([MultiPoly.var("g2"), 0, 3], [0, MultiPoly.var("g3")]),
]


@pytest.mark.parametrize("K", [0, 1, 2, 5, 8, 13, 24])
@pytest.mark.parametrize("index", range(len(ELEMENTS)))
def test_to_series_is_the_generic_series_arithmetic(index, K):
    elem = ELEMENTS[index]
    assert_same_series(elem.to_series(K), reference_to_series(elem, K))


@pytest.mark.parametrize("n,indices,curve", [
    (3, (-1, 1, 3), "generic"),
    (4, (-1, 1, 2, 4), "g3=0"),
    (6, (-2, 0, 1, 3, 5, 8), "g2=0"),
])
@pytest.mark.parametrize("K", [3, 10])
def test_to_series_of_the_cyclic_operators(n, indices, curve, K):
    op = cyclic_L0(n, IndexData(indices), curve)
    for elem in op.coeffs.values():
        assert_same_series(elem.to_series(K), reference_to_series(elem, K))


def random_element(rng):
    """An element whose two parts have P-degree 2 or 3, with coefficients
    of up to four terms in g2, g3 and c."""
    monomials = [MultiPoly.const(1), MultiPoly.var("g2"), MultiPoly.var("g3"),
                 MultiPoly.var("g2") * C, C * C]

    def coefficient():
        return sum((m * Rat(rng.randint(-6, 6), rng.randint(1, 3))
                    for m in rng.sample(monomials, rng.randint(1, 4))), MultiPoly.zero())

    def part():
        top = coefficient()
        return [coefficient() for _ in range(rng.randint(2, 3))] + [top or MultiPoly.const(1)]

    return EllipticElement(part(), part())


@pytest.mark.parametrize("seed", range(8))
def test_ring_products_and_derivatives_are_the_series_arithmetic(seed):
    rng = random.Random(seed)
    a, b = random_element(rng), random_element(rng)
    K = 4
    # each factor has a pole of order at most 9, so a guard of 9 more
    # terms keeps the product exact through z^(K-1)
    want = (reference_to_series(a, K + 9) * reference_to_series(b, K + 9)).truncate(K)
    assert_same_series((a * b).to_series(K), want)
    assert_same_series(a.derivative().to_series(K),
                       reference_to_series(a, K + 1).differentiate())


def test_a_product_with_an_empty_factor_makes_no_kernel_call(monkeypatch):
    # a factor with no terms gives the zero polynomial over the universe
    # that aligning the factors would give, and the kernel never sees it;
    # so an element without a P' part costs one product, part0's
    g2 = MultiPoly.var("g2")
    p = C * C * Rat(3, 2) + g2
    zero = MultiPoly.zero(("e", "lambda"))
    a = EllipticElement([C, 1, Rat(-1, 2)])
    b = EllipticElement([g2, C])
    calls = []
    kernel = poly.sum_of_products

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(poly, "sum_of_products", counted)
    for got in (p * zero, zero * p):
        assert got.is_zero() and got.denom == 1
        assert got.vars == ("c", "e", "g2", "lambda")
    assert calls == []
    ab = a * b
    assert len(calls) == 1
    da = a.derivative()
    assert len(calls) == 1
    monkeypatch.undo()
    assert ab.part0 == a.part0 * b.part0 and ab.part1.is_zero()
    assert da.part0.is_zero() and da.part1 == a.part0.derivative("P")


def test_a_coefficient_that_uses_the_ring_variable_is_refused():
    P = MultiPoly.var("P")
    for make in (lambda: EllipticElement([0, P]), lambda: EllipticElement([], [C * P]),
                 lambda: EllipticElement.const(P), lambda: EllipticElement.P() * P,
                 lambda: EllipticElement.P() + P):
        with pytest.raises(ValueError, match="ring variable"):
            make()
    # P in the universe of a coefficient that does not use it is no clash
    assert EllipticElement([P - P + C]) == EllipticElement([C])


SERIES_DUMP = """
import json, sys
from ellop.series import wp_series
out = {}
for K in map(int, sys.argv[1:]):
    P = wp_series(K)
    out[K] = [P.low, P.order, [P.coefficient(k).text() for k in range(P.low, P.order)]]
print(json.dumps(out))
"""


@pytest.mark.parametrize("first", ["small", "large"])
def test_wp_series_truncates_a_longer_one_whichever_is_built_first(first):
    # in a fresh interpreter, so that nothing built before decides the order
    small, large = 9, 40
    order = (small, large) if first == "small" else (large, small)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(ellop.__file__).parents[1])] + sys.path))
    out = subprocess.run([sys.executable, "-c", SERIES_DUMP, *map(str, order)],
                         env=env, capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    low, order, coeffs = got[str(small)]
    big_low, big_order, big_coeffs = got[str(large)]
    assert (low, order, big_low, big_order) == (-2, small, -2, large)
    assert coeffs == big_coeffs[:small - low]
    P = wp_series(large)
    assert big_coeffs == [P.coefficient(k).text() for k in range(-2, large)]


@pytest.mark.parametrize("call,error,message", [
    (lambda: LaurentSeries(0, [], -1), ValueError, "truncation order below lowest exponent"),
    (lambda: const_series([1], 0, 2).coefficient(2), TruncationError,
     "exponent 2 beyond trusted order 2"),
    (lambda: const_series([1], 0, 2) ** -1, ValueError,
     "negative powers of a series are not supported"),
    (lambda: const_series([1], 0, 2).truncate(3), TruncationError,
     "cannot extend trusted order 2 to 3"),
    (lambda: wp_series(-1), ValueError, "K must be nonnegative"),
], ids=["order_below_low", "coefficient_beyond_order", "negative_power", "truncate_extends",
        "wp_series_negative_K"])
def test_series_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()
