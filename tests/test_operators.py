"""Differential operator algebra: composition, indicial data."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ellop.rationals import Rat
from ellop.poly import MultiPoly
from ellop.elliptic import EllipticElement
from ellop.series import LaurentSeries
from ellop.operators import (
    GlobalEllipticOperator,
    IndexData,
    InvalidGapsError,
    LocalOperator,
    VerificationError,
    _rational_roots,
    coefficients_from_indices,
    cyclic_L0,
    find_commuting,
    homogeneous_integrable,
    indicial_coefficients,
    op_commutator,
    op_compose,
    third_order_from_gaps,
    third_order_indices,
)

from reference import wp_series


def small_op(spec):
    """Operator dict {power: EllipticElement} from (power, p0, p1) triples."""
    out = {}
    for pw, p0, p1 in spec:
        out[pw] = EllipticElement(p0, p1)
    return out


ints = st.integers(-3, 3)
elems = st.tuples(
    st.lists(ints, max_size=3), st.lists(ints, max_size=2)
).map(lambda t: EllipticElement(*t))
opdicts = st.dictionaries(st.integers(0, 2), elems, max_size=3)


@given(opdicts, opdicts, opdicts)
@settings(max_examples=25, deadline=None)
def test_composition_is_associative(a, b, c):
    lhs = op_compose(op_compose(a, b), c)
    rhs = op_compose(a, op_compose(b, c))
    keys = set(lhs) | set(rhs)
    zero = EllipticElement.zero()
    for k in keys:
        assert (lhs.get(k, zero) - rhs.get(k, zero)).is_zero()


@given(opdicts, opdicts)
@settings(max_examples=25, deadline=None)
def test_commutator_antisymmetry(a, b):
    lhs = op_commutator(a, b)
    rhs = op_commutator(b, a)
    keys = set(lhs) | set(rhs)
    zero = EllipticElement.zero()
    for k in keys:
        assert (lhs.get(k, zero) + rhs.get(k, zero)).is_zero()


def test_leibniz_on_a_function():
    # [D, f] = f' as multiplication operators
    f = EllipticElement([0, 2], [1])       # 2P + P'
    D = {1: EllipticElement.const(1)}
    comm = op_commutator(D, {0: f})
    assert set(comm) == {0}
    assert (comm[0] - f.derivative()).is_zero()


def test_index_data_sorting_and_gaps():
    idx = IndexData((3, -1, 1))
    assert idx.indices == (Rat(-1), Rat(1), Rat(3))
    assert idx.index_sum_ok()


def test_homogeneous_integrable():
    ok, _ = homogeneous_integrable(IndexData((-1, 1, 3)), 3)
    assert ok
    bad, reason = homogeneous_integrable(IndexData((0, 1, 3)), 3)
    assert not bad and "residue" in reason
    frac, reason = homogeneous_integrable(IndexData((Rat(1, 2), 1, 3)), 3)
    assert not frac and "integer" in reason


@pytest.mark.parametrize("q,r", [(1, 1), (2, 2), (4, 1), (5, 2), (7, 4)])
def test_third_order_indices_realize_gaps(q, r):
    idx = third_order_indices(q, r)
    m0, m1, m2 = idx.indices
    assert (m1 - m0, m2 - m1) == (Rat(q), Rat(r))
    assert m0 + m1 + m2 == Rat(3)


@pytest.mark.parametrize("q,r", [(3, 3), (1, 2), (2, 4), (0, 3)])
def test_invalid_gaps_rejected(q, r):
    with pytest.raises(InvalidGapsError):
        third_order_indices(q, r)


def test_third_order_operator_shape():
    L = third_order_from_gaps(2, 2)
    # D^3 + (aP + c)D + (bP' + eP) with a = -3, b = -3/2 for gaps (2,2)
    assert L.n == 3
    a2 = {(i, prime): c for i, prime, c in L.coeffs[2].parts()}
    a3 = {(i, prime): c for i, prime, c in L.coeffs[3].parts()}
    assert a2[1, 0] == MultiPoly.const(Rat(-3))
    assert a3[0, 1] == MultiPoly.const(Rat(-3, 2))


def test_third_order_coefficients_from_the_indices():
    # a = e2(m) - 2 and b = e3(m)/2 in the indices m0, m1, m2
    for q in range(1, 30):
        for r in range(1, 30):
            if (q - r) % 3 or q % 3 == 0:
                continue
            m0, m1, m2 = third_order_indices(q, r).indices
            a2 = EllipticElement([MultiPoly.var("c"), m0 * m1 + m0 * m2 + m1 * m2 - 2])
            a3 = EllipticElement([0, MultiPoly.var("e")], [m0 * m1 * m2 / 2])
            L = third_order_from_gaps(q, r)
            assert (L.coeffs[2] - a2).is_zero() and (L.coeffs[3] - a3).is_zero(), (q, r)


def test_third_order_indicial_roots_match():
    L = third_order_from_gaps(1, 1)
    assert sorted(L.localize(4).indicial_roots()) == [Rat(0), Rat(1), Rat(2)]


def test_cyclic_operator_indices():
    idx = IndexData((-1, 1, 2, 4))
    L = cyclic_L0(4, idx)
    assert sorted(L.localize(5).indicial_roots()) == [Rat(-1), Rat(1), Rat(2), Rat(4)]


def test_cyclic_rejects_bad_indices():
    with pytest.raises(ValueError):
        cyclic_L0(3, IndexData((0, 1, 3)))


def test_cyclic_order_five_warns():
    idx = IndexData((-1, 1, 2, 3, 5))
    with pytest.warns(UserWarning):
        cyclic_L0(5, idx)


def test_substitute_refuses_g2_and_g3():
    # the P expansion keeps g2 and g3 symbolic, so values for them would
    # reach neither localize nor any other reader of the coefficients
    op = third_order_from_gaps(4, 4)
    for mapping in ({"g2": 3}, {"g3": 5}, {"c": 1, "e": 2, "g2": 3, "g3": 5}):
        with pytest.raises(ValueError, match="g2 and g3"):
            op.substitute({k: MultiPoly.const(v) for k, v in mapping.items()})
    got = op.substitute({"c": MultiPoly.const(1), "e": MultiPoly.const(2)})
    assert [a.text() for a in got.coeffs.values()] == ["1 - 15*P", "2*P - 15/2*P'"]


def test_find_commuting_integrable_point():
    L = GlobalEllipticOperator(2, {2: EllipticElement([0, -2])})
    M = find_commuting(L, 3)
    assert M is not None
    comm = op_commutator(L.as_opdict(), M)
    assert all(c.is_zero() for c in comm.values())


def test_a_partner_that_fails_the_recheck_is_a_verification_error(monkeypatch):
    from ellop import operators

    partners = []

    def commutator(a, b):
        # the linear system's columns and right-hand side come from one-term
        # operators and see the true commutator; the re-check of the
        # assembled partner sees a nonzero one
        if len(b) == 1:
            return op_commutator(a, b)
        partners.append(b)
        return {0: EllipticElement.const(1)}

    monkeypatch.setattr(operators, "op_commutator", commutator)
    L = GlobalEllipticOperator(2, {2: EllipticElement([0, -2])})
    with pytest.raises(VerificationError, match="fails to commute"):
        find_commuting(L, 3)
    assert len(partners) == 1


def test_find_commuting_generic_point_fails():
    L = GlobalEllipticOperator(2, {2: EllipticElement([0, Rat(-5, 2)])})
    assert find_commuting(L, 3) is None


def test_find_commuting_requires_coprime_orders():
    L = GlobalEllipticOperator(2, {2: EllipticElement([0, -2])})
    with pytest.raises(ValueError):
        find_commuting(L, 4)


@pytest.mark.parametrize("indices", [(-1, 1, 3), (-3, 2, 4), (-1, 1, 2, 4), (-2, 3)])
def test_indicial_coefficients_invert_coefficients_from_indices(indices):
    idx = IndexData(indices)
    bs = coefficients_from_indices(idx)
    P = indicial_coefficients(idx.n, bs)
    assert P[-1] == 1 and len(P) == idx.n + 1
    assert IndexData(_rational_roots(P)) == idx


def test_rational_roots_with_24_digit_coefficients(within):
    # (7x - N)(7x + N)(x - 2)^2 x with N = 10^12 + 1: once the root at 0
    # is out, trial division would run up to sqrt(4 N^2) = 2 * 10^12
    N = 10**12 + 1
    poly = [Rat(0), Rat(1)]
    for factor in ([-N, 7], [N, 7], [-2, 1], [-2, 1]):
        poly = [sum(poly[i] * factor[k - i] for i in range(len(poly)) if 0 <= k - i < 2)
                for k in range(len(poly) + 1)]
    with within(1.0):
        roots = _rational_roots(poly)
        idx = IndexData((Rat(-N, 7), Rat(N, 7) + 1, Rat(2)))
        from_indices = _rational_roots(indicial_coefficients(3, coefficients_from_indices(idx)))
    assert roots == [0, 2, 2, Rat(N, 7), Rat(-N, 7)]
    assert from_indices == [2, Rat(-N, 7), Rat(N, 7) + 1]


def reference_rational_roots(poly):
    """Rational roots in Fraction arithmetic: candidates from the current
    quotient, Horner over the rationals, rational synthetic division."""
    poly = [Rat(c) for c in poly]
    while poly and poly[-1] == 0:
        poly.pop()
    roots = []
    while poly and poly[0] == 0:
        roots.append(Rat(0))
        poly = poly[1:]

    def divisors(v):
        v = abs(v)
        small = [f for f in range(1, math.isqrt(v) + 1) if v % f == 0]
        return set(small) | {v // f for f in small}

    changed = True
    while changed and len(poly) > 1:
        changed = False
        den = math.lcm(*(c.denominator for c in poly))
        a0, an = int(poly[0] * den), int(poly[-1] * den)
        cands = sorted({Rat(s * p, q) for p in divisors(a0) for q in divisors(an)
                        for s in (1, -1)}, key=lambda x: (abs(x), x < 0))
        for cand in cands:
            val = Rat(0)
            for c in reversed(poly):
                val = val * cand + c
            if val == 0:
                roots.append(cand)
                new, carry = [], Rat(0)
                for c in reversed(poly[1:]):
                    carry = carry * cand + c
                    new.append(carry)
                poly = new[::-1]
                changed = True
                break
    return roots


@pytest.mark.parametrize("seed", range(30))
def test_rational_roots_match_the_fraction_reference(seed):
    # products of rational linear factors, repeated ones, irreducible
    # quadratics and a rational scale, as low-to-high coefficient lists
    rng = random.Random(seed)
    poly = [Rat(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1))]
    for _ in range(rng.randint(0, 5)):
        root = Rat(rng.randint(-6, 6), rng.randint(1, 3))
        factor = [-root, Rat(1)] if rng.random() < 0.8 else [Rat(rng.randint(1, 4)), Rat(0), Rat(1)]
        for _ in range(rng.choice((1, 1, 2))):
            poly = [sum(poly[i] * factor[k - i] for i in range(len(poly))
                        if 0 <= k - i < len(factor)) for k in range(len(poly) + len(factor) - 1)]
    roots = _rational_roots(poly)
    assert roots == reference_rational_roots(poly)
    assert all(type(x) is Rat for x in roots)


@pytest.mark.parametrize("call,error,message", [
    (lambda: LocalOperator(1, {}), ValueError, "order must be at least 2"),
    (lambda: LocalOperator(2, {2: LaurentSeries(-3, [1], 4)}), ValueError,
     "coefficient a_2 has a pole of order > 2: not Fuchsian"),
    (lambda: LocalOperator(3, {2: wp_series(4)}), ValueError, "coefficient a_3 is missing"),
    (lambda: cyclic_L0(3, IndexData((0, 1, 5))), ValueError,
     r"index sum incompatible with a vanishing d\^\(n-1\) term"),
    (lambda: cyclic_L0(3, IndexData((-1, 1, 3)), curve="nodal"), ValueError,
     "unknown curve mode 'nodal'"),
    # no operator of order below 2 exists, as LocalOperator checks
    (lambda: cyclic_L0(1, IndexData((0,))), ValueError, "order must be at least 2"),
    # indices summing to other than n(n-1)/2 need a d^(n-1) term
    (lambda: coefficients_from_indices(IndexData((0, 1, 5))), ArithmeticError,
     "indicial matching failed"),
], ids=["order_below_2", "not_fuchsian", "missing_coefficient", "index_sum", "unknown_curve",
        "cyclic_order_below_2", "indicial_matching"])
def test_operator_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()
