"""Exact scalar and polynomial layer."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ellop.rationals import Rat, as_rat, rat_str
from ellop.poly import (MAX_EXPONENT, WEIGHTS, MultiPoly, RatFunc, exact_div,
                        gcd_univariate, remainder_sequence, sort_vars, sum_of_products,
                        try_div)

from reference import from_terms


rats = st.fractions(
    min_value=-30, max_value=30, max_denominator=6
).map(lambda f: Rat(f.numerator, f.denominator))


def poly_from_spec(spec):
    """Build a small polynomial in c, e from (coeff, i, j) triples."""
    out = MultiPoly.zero(("c", "e"))
    for cf, i, j in spec:
        out = out + MultiPoly.var("c", i, cf) * MultiPoly.var("e", j)
    return out


poly_specs = st.lists(
    st.tuples(rats, st.integers(0, 3), st.integers(0, 3)), max_size=5
)
polys = poly_specs.map(poly_from_spec)


def test_as_rat_coercions():
    assert as_rat("3/4") == Rat(3, 4)
    assert as_rat(Fraction(1, 2)) == Rat(1, 2)
    assert as_rat(7) == Rat(7)
    with pytest.raises(TypeError):
        as_rat(0.5)


def test_rat_str():
    assert rat_str(Rat(-3, 4)) == "-3/4"
    assert rat_str(Rat(6, 3)) == "2"


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) - b == a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(polys, rats, rats)
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_homomorphism(a, x, y):
    point = {"c": x, "e": y}
    b = a * a + a
    assert b.evaluate_exact(point) == a.evaluate_exact(point) ** 2 + a.evaluate_exact(point)


@given(polys, rats)
@settings(max_examples=40, deadline=None)
def test_substitute_then_evaluate(a, x):
    image = a.substitute({"c": MultiPoly.var("e", 2)})
    lhs = image.evaluate_exact({"e": x})
    rhs = a.evaluate_exact({"c": x * x, "e": x})
    assert lhs == rhs


def test_coefficients_in():
    p = poly_from_spec([(Rat(2), 2, 1), (Rat(-1), 0, 3), (Rat(5), 2, 0)])
    by_c = p.coefficients_in("c")
    assert set(by_c) == {0, 2}
    assert by_c[2] == MultiPoly.var("e", 1, 2) + MultiPoly.const(5)


def test_primitive_and_content():
    p = MultiPoly.var("c", 1, Rat(4, 3)) + MultiPoly.const(Rat(8, 3))
    prim = p.primitive()
    assert prim == MultiPoly.var("c") + MultiPoly.const(2)


def test_weighted_homogeneity():
    # weights: e = 1, c = 2, g2 = 4
    p = MultiPoly.var("c", 1) * MultiPoly.var("e", 2) + MultiPoly.var("g2")
    assert p.primitive_with_weights()[1] == {4}
    q = p + MultiPoly.var("e")
    assert q.primitive_with_weights()[1] == {1, 4}


def test_exact_division():
    a = poly_from_spec([(Rat(1), 1, 0), (Rat(2), 0, 1)])
    b = poly_from_spec([(Rat(1), 2, 2), (Rat(3), 0, 0)])
    prod = a * b
    assert exact_div(prod, a) == b
    assert try_div(b, a) is None


def test_ratfunc_arithmetic():
    c = RatFunc(MultiPoly.var("c"))
    e = RatFunc(MultiPoly.var("e"))
    x = c / e + e / c
    y = (c * c + e * e) / (c * e)
    assert (x - y).is_zero()
    assert (c / e) ** 2 == (c * c) / (e * e)


def test_division_by_a_rational_scalar():
    p = poly_from_spec([(Rat(3), 1, 0), (Rat(-1, 2), 0, 2)])
    assert (p / 4).items() == (p * Rat(1, 4)).items()
    assert (p / Rat(-2, 3)).items() == (p * Rat(-3, 2)).items()
    with pytest.raises(ZeroDivisionError):
        p / 0
    with pytest.raises(TypeError):
        p / p
    with pytest.raises(TypeError):
        p / 0.5
    assert p / RatFunc(p) == RatFunc(1)       # RatFunc still takes the division


def test_ratfunc_over_a_constant_keeps_the_numerator_terms():
    p = poly_from_spec([(Rat(3), 1, 0), (Rat(-1, 2), 0, 2), (Rat(5), 2, 1)])
    for den in (None, 1, MultiPoly.const(1)):
        f = RatFunc(p, den)
        assert f.num.items() == p.items() and f.den == MultiPoly.const(1)
    assert RatFunc(p, Rat(-2)).num.items() == (p * Rat(-1, 2)).items()


def test_ratfunc_substitute_pole():
    c = RatFunc(MultiPoly.var("c"))
    e = RatFunc(MultiPoly.var("e"))
    f = c / e
    with pytest.raises(ZeroDivisionError):
        f.substitute({"e": MultiPoly.zero()})


# -- regressions --------------------------------------------------------------


def test_zero_is_not_equal_to_a_nonzero_constant():
    assert not (MultiPoly.zero() == 5)
    assert MultiPoly.zero() != Rat(1, 2)
    assert MultiPoly.zero(("c",)) == 0
    assert MultiPoly.const(5, ("c", "e")) == 5
    assert MultiPoly.var("c") != 5


def test_hash_ignores_unused_universe_variables():
    p = MultiPoly.var("c") * 0 + MultiPoly.var("e")
    assert p.vars == ("c", "e")
    q = MultiPoly.var("e")
    assert p == q and hash(p) == hash(q)
    assert len({p, q}) == 1
    # the same value built over differently ordered universes
    a = from_terms(("g2", "e", "c"), {(0, 2, 1): Rat(3, 4), (1, 0, 0): 1})
    b = from_terms(("c", "e", "g2"), {(0, 0, 1): 1, (1, 2, 0): Rat(3, 4)})
    assert a == b and hash(a) == hash(b)
    assert hash(MultiPoly.const(Rat(5, 2), ("c",))) == hash(Rat(5, 2))
    den = MultiPoly.var("g2") + 1
    assert hash(RatFunc(p, den)) == hash(RatFunc(q, den))


def test_ratfunc_divides_by_the_signed_content_of_a_multivariate_denominator():
    c, e, x = MultiPoly.var("c"), MultiPoly.var("e"), MultiPoly.var("x")
    # -3/2 c^2 + 6 e: its leading term, c^2, is negative, and no univariate
    # gcd applies; so num and den are divided by the signed content -3/2
    f = RatFunc(c + e, c**2 * Rat(-3, 2) + e * 6)
    assert f.num.items() == ((c + e) * Rat(-2, 3)).items()
    assert f.den.items() == (c**2 - e * 4).items()
    assert (f.num.denom, f.den.denom) == (3, 1)
    # univariate: the common factor x - 1 cancels first
    f = RatFunc((x - 1) * (x + 2), (x - 1) * (x + 3) * -2)
    assert (f.num.items(), f.den.items()) == (((x + 2) * Rat(-1, 2)).items(), (x + 3).items())


# -- the remainder sequence against a Fraction Euclid ------------------------


def _strip(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def ref_rem(a, b):
    """The remainder of a by b over the rationals, low to high."""
    r = [Fraction(v) for v in a]
    while len(r) >= len(b):
        k, off = r[-1] / b[-1], len(r) - len(b)
        r = [v - k * b[i - off] if i >= off else v for i, v in enumerate(r[:-1])]
    return _strip(r)


def ref_gcd(a, b):
    """Euclid over Fraction lists; the gcd as primitive integers, positive
    leading coefficient; [] if a = b = 0."""
    while b:
        a, b = b, ref_rem(a, b)
    if not a:
        return []
    scale = math.lcm(*(Fraction(v).denominator for v in a)) * (1 if a[-1] > 0 else -1)
    ints = [int(v * scale) for v in a]
    g = math.gcd(*ints)
    return [v // g for v in ints]


def _proportional(p, q):
    """Is p a positive multiple of q?"""
    return len(p) == len(q) and p[-1] * q[-1] > 0 and all(
        x * q[-1] == y * p[-1] for x, y in zip(p, q))


def _coefficient_list(p: MultiPoly):
    items = p.in_universe(("x",)).items()
    out = [0] * (max((e for (e,), _ in items), default=-1) + 1)
    for (e,), cf in items:
        out[e] = cf
    return out


def _random_pair(rnd):
    def poly(deg):
        return [rnd.randint(-9, 9) for _ in range(deg)] + [rnd.choice([-3, -2, -1, 1, 2, 5])]

    def mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, u in enumerate(p):
            for j, v in enumerate(q):
                out[i + j] += u * v
        return out

    g = poly(rnd.randint(0, 2))       # degree 0: usually a coprime pair
    return mul(g, poly(rnd.randint(0, 5))), mul(g, poly(rnd.randint(0, 5)))


@pytest.mark.parametrize("seed", range(60))
def test_remainder_sequence_and_gcd_match_the_fraction_reference(seed):
    rnd = random.Random(seed)
    a, b = _random_pair(rnd)
    seq = remainder_sequence(a, b)
    assert seq[:2] == [a, b]
    for k in range(2, len(seq)):
        assert seq[k] and math.gcd(*seq[k]) == 1
        assert _proportional(seq[k], [-v for v in ref_rem(seq[k - 2], seq[k - 1])])
    assert len(seq[-1]) == 1 or not ref_rem(seq[-2], seq[-1])
    g = ref_gcd(a, b)                                 # up to sign
    assert _proportional(seq[-1], g) or _proportional([-v for v in seq[-1]], g)
    # gcd_univariate reads the numerators of polynomials with denominators,
    # over universes holding variables they do not use
    d = rnd.randint(1, 12)
    A = from_terms(("c", "x"), {(0, i): Rat(v, d) for i, v in enumerate(a)})
    B = from_terms(("x", "y"), {(i, 0): Rat(v, 7) for i, v in enumerate(b)})
    assert _coefficient_list(gcd_univariate(A, B, "x")) == g


def test_remainder_sequence_and_gcd_edge_cases():
    x = MultiPoly.var("x")
    a, b = [2, 0, 1], [1, 1, 3, 1]                  # deg b > deg a
    assert _proportional(remainder_sequence(a, b)[2], [-v for v in a])
    assert _coefficient_list(gcd_univariate(x**2 + 2, x**3 + 3 * x**2 + x + 1, "x")) == [1]
    # one zero input: the gcd is the other polynomial, made primitive
    for p, q in ((x * 6 - 4, MultiPoly.zero()), (MultiPoly.zero(), x * -6 + 4)):
        assert _coefficient_list(gcd_univariate(p, q, "x")) == [-2, 3]
    assert remainder_sequence([-4, 6], []) == [[-4, 6], []]
    assert remainder_sequence([], [-4, 6]) == [[], [-4, 6]]
    assert gcd_univariate(MultiPoly.zero(), MultiPoly.zero(), "x") == 1
    with pytest.raises(ValueError, match="not univariate"):
        gcd_univariate(x * MultiPoly.var("c"), x, "x")


# -- the packed kernel against a dict-of-Fraction reference -------------------


class RefPoly:
    """Reference polynomial: exponent tuples to nonzero Fractions.

    The loops are those of the plain dict-of-rationals kernel the packed
    one replaced, so the kernel must reproduce its terms in the same order.
    """

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        self.terms = terms

    def in_universe(self, variables):
        pos = {v: i for i, v in enumerate(variables)}
        terms = {}
        for expo, cf in self.terms.items():
            new = [0] * len(variables)
            for v, p in zip(self.vars, expo):
                new[pos[v]] = p
            terms[tuple(new)] = cf
        return RefPoly(variables, terms)

    @staticmethod
    def align(a, b):
        if a.vars == b.vars:
            return a, b
        uni = sort_vars(a.vars + b.vars)
        return a.in_universe(uni), b.in_universe(uni)

    def __add__(self, other):
        a, b = RefPoly.align(self, other)
        terms = dict(a.terms)
        for expo, cf in b.terms.items():
            s = terms.get(expo, 0) + cf
            if s == 0:
                terms.pop(expo, None)
            else:
                terms[expo] = s
        return RefPoly(a.vars, terms)

    def __neg__(self):
        return RefPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RefPoly):
            other = Fraction(other)
            if other == 0:
                return RefPoly(self.vars, {})
            return RefPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        a, b = RefPoly.align(self, other)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                expo = tuple(x + y for x, y in zip(e1, e2))
                s = terms.get(expo, 0) + c1 * c2
                if s == 0:
                    terms.pop(expo, None)
                else:
                    terms[expo] = s
        return RefPoly(a.vars, terms)

    def __pow__(self, k):
        out = RefPoly(self.vars, {(0,) * len(self.vars): Fraction(1)})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def order_key(self, expo):
        w = [WEIGHTS.get(v, 0) for v in self.vars]
        return (sum(p * wi for p, wi in zip(expo, w)), expo)

    def leading(self):
        expo = max(self.terms, key=self.order_key)
        return expo, self.terms[expo]

    def primitive(self):
        if not self.terms:
            return self
        num = math.gcd(*(c.numerator for c in self.terms.values()))
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        c = Fraction(num, den) * (1 if self.leading()[1] > 0 else -1)
        return RefPoly(self.vars, {e: cf / c for e, cf in self.terms.items()})

    def coefficients_in(self, name):
        if name not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        out = {}
        for expo, cf in self.terms.items():
            out.setdefault(expo[i], {})[expo[:i] + expo[i + 1:]] = cf
        return {p: RefPoly(rest, d) for p, d in out.items()}

    def derivative(self, name):
        if name not in self.vars:
            return RefPoly(self.vars, {})
        i = self.vars.index(name)
        return RefPoly(self.vars, {expo[:i] + (expo[i] - 1,) + expo[i + 1:]: cf * expo[i]
                                   for expo, cf in self.terms.items() if expo[i]})

    def substitute(self, mapping):
        out = RefPoly((), {})
        one = RefPoly((), {(): Fraction(1)})
        for expo, cf in self.terms.items():
            term = one * cf
            for v, p in zip(self.vars, expo):
                if p:
                    term = term * (mapping[v] ** p if v in mapping
                                   else RefPoly((v,), {(p,): Fraction(1)}))
            out = out + term
        return out

    def text(self):
        if not self.terms:
            return "0"
        chunks = []
        for expo in sorted(self.terms, key=self.order_key, reverse=True):
            cf = self.terms[expo]
            factors = [v if p == 1 else f"{v}^{p}" for v, p in zip(self.vars, expo) if p]
            if not factors:
                body = rat_str(abs(cf))
            elif abs(cf) == 1:
                body = "*".join(factors)
            else:
                body = rat_str(abs(cf)) + "*" + "*".join(factors)
            chunks.append(("-" if cf < 0 else "+", body))
        out = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
        return out + "".join(f" {s} {b}" for s, b in chunks[1:])


def ref_try_div(a, b):
    if set(b.terms) <= {(0,) * len(b.vars)}:
        return a * (1 / b.terms[(0,) * len(b.vars)])
    a, b = RefPoly.align(a, b)
    lead_b, cb = b.leading()
    quot = {}
    rem = dict(a.terms)
    while rem:
        expo = max(rem, key=a.order_key)
        qe = tuple(x - y for x, y in zip(expo, lead_b))
        if any(p < 0 for p in qe):
            return None
        qc = rem[expo] / cb
        quot[qe] = qc
        for be, bc in b.terms.items():
            te = tuple(x + y for x, y in zip(qe, be))
            s = rem.get(te, 0) - qc * bc
            if s == 0:
                rem.pop(te, None)
            else:
                rem[te] = s
    return RefPoly(a.vars, quot)


REF_VARS = ("c", "e", "g2", "g3", "lambda", "u1", "x")


def random_pair(rng, max_terms=6, max_expo=4):
    """The same random polynomial as (MultiPoly, RefPoly), on a random
    universe, sometimes holding unused variables or in non-canonical order."""
    universe = rng.sample(REF_VARS, rng.randint(0, 4))
    if rng.random() < 0.7:
        universe = list(sort_vars(universe))
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        expo = tuple(rng.randint(0, max_expo) for _ in universe)
        if rng.random() < 0.5:
            expo = tuple(p if rng.random() < 0.5 else 0 for p in expo)
        cf = Fraction(rng.randint(-24, 24), rng.choice((1, 1, 2, 3, 4, 6, 9)))
        if cf:
            terms[expo] = cf
    return from_terms(universe, terms), RefPoly(universe, terms)


def assert_same(p, ref):
    assert p.vars == ref.vars
    assert p.items() == list(ref.terms.items())
    assert p.text() == ref.text()
    # == compares the stored form, so this also checks that p is reduced
    assert p == from_terms(ref.vars, ref.terms)


@pytest.mark.parametrize("seed", range(40))
def test_kernel_matches_reference(seed):
    rng = random.Random(seed)
    (a, ra), (b, rb), (c, rc) = (random_pair(rng) for _ in range(3))
    assert_same(a, ra)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(a - a, ra - ra)
    assert_same(-a, -ra)
    assert_same(a * b, ra * rb)
    assert_same((a * b) * c + a, (ra * rb) * rc + ra)
    k = rng.randint(0, 3)
    assert_same(a ** k, ra ** k)
    # rational scalars, a 60-digit integer among them, go through the kernel
    for s in (0, -1, Fraction(3, 7), 10**59 + 7,
              Fraction(rng.randint(-9, 9), rng.randint(1, 8))):
        assert_same(a * s, ra * s)
        assert_same(s * a, ra * s)
    assert_same(a.primitive(), ra.primitive())
    for name in (a.vars + ("absent",)):
        parts = a.coefficients_in(name)
        ref_parts = ra.coefficients_in(name)
        assert list(parts) == list(ref_parts)
        for p in parts:
            assert_same(parts[p], ref_parts[p])
        assert_same(a.derivative(name), ra.derivative(name))
    # exact division: divisible and (almost always) not divisible
    if not b.is_zero():
        assert_same(try_div(a * b, b), ref_try_div(ra * rb, rb))
        q, rq = try_div(a + c, b), ref_try_div(ra + rc, rb)
        assert (q is None) == (rq is None)
        if q is not None:
            assert_same(q, rq)
    # polynomial substitution into the variables of a
    mapping, ref_mapping = {}, {}
    for v in a.vars:
        if rng.random() < 0.6:
            mapping[v], ref_mapping[v] = random_pair(rng, max_terms=3, max_expo=2)
    assert_same(a.substitute(mapping), ra.substitute(ref_mapping))


@pytest.mark.parametrize("seed", range(40))
def test_substituting_zero_matches_reference(seed):
    # terms through a variable mapped to 0 are skipped before any product is
    # made; the rest must come out as RefPoly's term-by-term sum
    rng = random.Random(seed)
    a, ra = random_pair(rng, max_terms=8)
    unused = tuple(v for v in rng.sample(REF_VARS, 2) if v not in a.vars)
    a, ra = a.in_universe(a.vars + unused), ra.in_universe(ra.vars + unused)
    mapping, ref_mapping = {}, {}
    for v in a.vars:
        roll = rng.random()
        if roll < 0.4:
            zero = sort_vars(rng.sample(REF_VARS, rng.randint(0, 2)))
            mapping[v] = rng.choice((0, Rat(0), MultiPoly.zero(zero)))
            ref_mapping[v] = RefPoly(zero if isinstance(mapping[v], MultiPoly) else (), {})
        elif roll < 0.7:
            mapping[v], ref_mapping[v] = random_pair(rng, max_terms=3, max_expo=2)
    assert_same(a.substitute(mapping), ra.substitute(ref_mapping))


def test_substituting_zero_into_every_term():
    c, e, g2 = (MultiPoly.var(v) for v in ("c", "e", "g2"))
    p = (c * e * 3 + c * c * g2 * Rat(1, 2)).in_universe(("c", "e", "g2", "x"))
    got = p.substitute({"c": MultiPoly.zero(("lambda",)), "g2": MultiPoly.var("g3")})
    assert got.is_zero() and got.denom == 1 and got.text() == "0"
    assert got.vars == ("e", "g3", "lambda")
    assert (c * e).substitute({"c": 0, "e": 0}).vars == ()


def test_exponent_overflow_raises():
    top = MultiPoly.var("x", MAX_EXPONENT)
    assert (MultiPoly.var("x", MAX_EXPONENT - 1) * MultiPoly.var("x")) == top
    with pytest.raises(OverflowError):
        top * MultiPoly.var("x")
    # the carry must not land in the neighbouring field (e here)
    ce = MultiPoly.var("c", MAX_EXPONENT) * MultiPoly.var("e")
    with pytest.raises(OverflowError):
        ce * MultiPoly.var("c")
    with pytest.raises(OverflowError):
        MultiPoly.var("e") ** (MAX_EXPONENT + 1)
    with pytest.raises(OverflowError):
        MultiPoly.var("x", MAX_EXPONENT + 1)
    with pytest.raises(OverflowError):
        from_terms(("c", "e"), {(0, MAX_EXPONENT + 1): 1})
    # the quotient times a lower term of the divisor overflows e
    a = MultiPoly.var("c") * MultiPoly.var("e", MAX_EXPONENT - 1)
    with pytest.raises(OverflowError):
        try_div(a, MultiPoly.var("e", 2) + MultiPoly.var("c"))
    with pytest.raises(ValueError):
        MultiPoly.var("x", -1)


# -- the fused sum-of-products kernel -----------------------------------------


def ref_sum_of_products(variables, triples, divisor=1):
    """Reference: every term product added into one dict of Fractions, in
    triple order, P's terms outside Q's, a key removed when it sums to 0."""
    acc = {}
    for s, rp, rq in triples:
        for e1, c1 in rp.terms.items():
            for e2, c2 in rq.terms.items():
                expo = tuple(x + y for x, y in zip(e1, e2))
                v = acc.get(expo, 0) + Fraction(s) * c1 * c2
                if v:
                    acc[expo] = v
                else:
                    acc.pop(expo, None)
    return RefPoly(variables, {e: c / Fraction(divisor) for e, c in acc.items()})


def random_triples(rng, count):
    pairs = [random_pair(rng, max_terms=5, max_expo=3) for _ in range(2 * count)]
    universe = sort_vars([v for p, _ in pairs for v in p.vars])
    scalars = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(count)]
    triples, ref_triples = [], []
    for s, (p, rp), (q, rq) in zip(scalars, pairs[::2], pairs[1::2]):
        triples.append((s, p.in_universe(universe), q.in_universe(universe)))
        ref_triples.append((s, rp.in_universe(universe), rq.in_universe(universe)))
    return universe, triples, ref_triples


@pytest.mark.parametrize("seed", range(40))
def test_sum_of_products_matches_reference(seed):
    rng = random.Random(seed)
    universe, triples, ref_triples = random_triples(rng, rng.randint(1, 5))
    divisor = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
    got = sum_of_products(universe, triples, divisor)
    assert_same(got, ref_sum_of_products(universe, ref_triples, divisor))
    # and the same value as the ring operations of RefPoly
    value = RefPoly(universe, {})
    for s, rp, rq in ref_triples:
        value = value + (rp * rq) * s
    assert got == from_terms(universe, (value * (1 / divisor)).terms)


def test_sum_of_products_edge_cases():
    uni = ("c", "e")
    c, e = (MultiPoly.var(v).in_universe(uni) for v in uni)
    one = MultiPoly.const(1, uni)
    # no triples: the zero polynomial over the universe
    zero = sum_of_products(uni, [])
    assert zero.vars == uni and zero.is_zero() and zero.denom == 1
    # a zero scalar is skipped, even when its product's keys are not yet in
    # the sum (multiplying by it would delete keys that are not there)
    assert sum_of_products(uni, [(0, c, e), (Rat(0), c, c), (2, c, one)]) == c * 2
    # a sum that cancels to 0
    total = sum_of_products(uni, [(1, c + e, c - e), (-1, c, c), (1, e, e)])
    assert total.is_zero() and total.vars == uni and total.denom == 1
    # a negative divisor keeps the denominator positive and the form reduced
    got = sum_of_products(uni, [(Rat(3, 2), c, e), (1, e, one * Rat(1, 4))], Rat(-9, 2))
    assert got.denom > 0
    assert got == (c * e * Rat(3, 2) + e * Rat(1, 4)) * Rat(-2, 9)
    assert got.text() == "-1/3*c*e - 1/18*e"
    assert sum_of_products(uni, [(1, c, one)], -1) == -c
    with pytest.raises(ZeroDivisionError):
        sum_of_products(uni, [(1, c, one)], 0)
    # every factor must be over the universe itself
    with pytest.raises(ValueError):
        sum_of_products(uni, [(1, MultiPoly.var("c"), one)])


# -- substitute: polynomial values against the RatFunc path -------------------


def ratfunc_substitute(p, mapping):
    """Reference: substitute term by term in RatFunc arithmetic."""
    vals = {v: RatFunc(x) for v, x in mapping.items()}
    out = RatFunc(0)
    for expo, cf in p.items():
        term = RatFunc(cf)
        for v, k in zip(p.vars, expo):
            if k:
                term = term * (vals[v] ** k if v in vals else RatFunc(MultiPoly.var(v, k)))
        out = out + term
    return out


@pytest.mark.parametrize("seed", range(40))
def test_substitute_polynomial_ratfunc_values_match_the_ratfunc_path(seed):
    rng = random.Random(seed)
    a, _ = random_pair(rng, max_terms=8)
    mapping = {}
    for v in a.vars:
        if rng.random() < 0.6:
            mapping[v] = random_pair(rng, max_terms=3, max_expo=2)[0]
    if not mapping or rng.random() < 0.5:
        mapping["absent"] = Rat(rng.randint(-3, 3), 2)
    got = a.substitute(mapping)
    want = ratfunc_substitute(a, mapping)
    assert isinstance(got, MultiPoly) and want.den == 1
    assert got == want.num and got.text() == want.text()


def test_substitute_rejects_a_ratfunc_value():
    c, e = MultiPoly.var("c"), MultiPoly.var("e")
    p = c * c + e
    for value in (RatFunc(e, c + 1), RatFunc(e * 2)):
        with pytest.raises(TypeError):
            p.substitute({"c": value})


C, E, Q = MultiPoly.var("c"), MultiPoly.var("e"), MultiPoly.var("q")


@pytest.mark.parametrize("call,error,message", [
    (lambda: from_terms(("c", "e"), {(1,): 1}), ValueError,
     r"exponent \(1,\) does not match \('c', 'e'\)"),
    (lambda: (C + E).in_universe(("e",)), ValueError, r"uses variables missing from \('e',\)"),
    (lambda: (C + 1).constant_value(), ValueError, "not a constant: c"),
    (lambda: C ** -1, ValueError, "negative power of a polynomial"),
    (lambda: try_div(C, MultiPoly.zero()), ZeroDivisionError, "polynomial division by zero"),
    (lambda: exact_div(C, C + E), ArithmeticError, r"inexact polynomial division: \(c\) / \(c \+ e\)"),
    (lambda: RatFunc(C, MultiPoly.zero()), ZeroDivisionError,
     "rational function with zero denominator"),
    (lambda: RatFunc(1, Q + 1).as_poly(), ValueError, "not a polynomial"),
    (lambda: RatFunc(Q) / RatFunc(MultiPoly.zero()), ZeroDivisionError,
     "division by the zero rational function"),
], ids=["from_terms", "in_universe", "constant_value", "negative_power", "try_div",
        "exact_div", "zero_denominator", "as_poly", "ratfunc_division"])
def test_exact_layer_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()
