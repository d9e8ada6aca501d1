"""Sparse multivariate polynomials and rational functions over exact rationals.

A MultiPoly over the ordered variable universe ``vars`` stores integer
numerators over one positive common denominator: the coefficient of a
monomial is ``terms[key] / denom``.  The form is kept reduced, so that
gcd(content of the numerators, denom) = 1 and the zero polynomial has
denom 1; equal polynomials over one universe then have equal terms and
denom.  Binary operations extend the universe to the union automatically.

Each monomial key is a single int holding the exponents in fixed-width
fields of _BITS = 16 bits, the first variable in the most significant field.
Multiplying two monomials is one integer addition, and comparing two keys
compares their exponent tuples lexicographically.  The top bit of every
field is a guard bit, so exponents range over 0 .. MAX_EXPONENT = 32767: a
sum of two exponents never carries into the neighbouring field, and an
operation whose result would hold a larger exponent raises OverflowError
instead of returning a wrong polynomial.  Nothing
outside this module reads keys; `items`, `from_terms` and `monomial_vars`
speak in exponent tuples.

Sums of products go through one kernel, `sum_of_products`: (sum of s*P*Q) /
divisor over one universe, accumulated in a single integer dict over the lcm
of the denominators and reduced once, in the term order that P*Q followed by
`+` would give when each P is a single term.  The Frobenius recursion makes
one call per coefficient, with one product per earlier coefficient (the
scaled operator coefficients that multiply it are summed first by a small
call of their own), `MultiPoly.substitute` makes one call with a
(monomial, cached power product) pair per term that does not vanish, and
the product of two MultiPolys is one call with a single triple; so is the
product with a rational scalar s, the triple (s, P, 1).  A factor with no
terms never reaches the kernel: the product is the zero polynomial over the
universe that aligning the factors gives.  The elliptic ring keeps its
parts as MultiPolys in P, so its products come here too.
Substitution takes polynomial and rational values only and always returns a
MultiPoly; a RatFunc is substituted into by `RatFunc.substitute`, numerator
and denominator apart.

Printing and "leading coefficient" use graded lexicographic order, graded by
the homothety weights deg(e)=1, deg(c)=2, deg(lambda)=3, deg(g2)=4,
deg(g3)=6 (other variables weigh 0, so they compare by plain lex within a
grade).
"""

from __future__ import annotations

import functools
import math
import operator

from .rationals import Rat, ZERO, as_rat, rat_str

# Canonical position of the well-known variables; anything else sorts after
# them alphabetically.
_CANON = {"c": 0, "e": 1, "g2": 2, "g3": 3, "lambda": 4, "q": 5, "w": 6, "m": 7}

WEIGHTS = {"e": 1, "c": 2, "lambda": 3, "g2": 4, "g3": 6, "w": 2}

_BITS = 16
_MASK = (1 << _BITS) - 1
MAX_EXPONENT = (1 << (_BITS - 1)) - 1


def _var_key(name: str):
    if name in _CANON:
        return (0, _CANON[name], name)
    return (1, 0, name)


def sort_vars(names):
    return tuple(sorted(set(names), key=_var_key))


@functools.lru_cache(maxsize=1024)
def _union(a: tuple, b: tuple) -> tuple:
    return sort_vars(a + b)


@functools.cache
def _guard(n: int) -> int:
    """The guard bits of n packed fields."""
    return sum(1 << (_BITS * i + _BITS - 1) for i in range(n))


def _pack(expo) -> int:
    key = 0
    for p in expo:
        if p < 0:
            raise ValueError(f"negative exponent {p}")
        if p > MAX_EXPONENT:
            raise OverflowError(f"exponent {p} exceeds {MAX_EXPONENT}")
        key = (key << _BITS) | p
    return key


def _unpack(key: int, n: int):
    return tuple((key >> (_BITS * (n - 1 - i))) & _MASK for i in range(n))


def _check_overflow(keys, n: int):
    if keys and functools.reduce(operator.or_, keys) & _guard(n):
        raise OverflowError(f"an exponent exceeds {MAX_EXPONENT}")


@functools.lru_cache(maxsize=1024)
def _segments(old: tuple, new: tuple):
    """How to move packed keys from universe old to universe new.

    Returns (segments, dropped): one (old shift, mask, new shift) per run of
    old variables that stays contiguous in new, and the mask of the fields
    of old variables missing from new.
    """
    pos = {v: i for i, v in enumerate(new)}
    segs = []
    dropped = 0
    j = len(old) - 1
    while j >= 0:
        if old[j] not in pos:
            dropped |= _MASK << (_BITS * (len(old) - 1 - j))
            j -= 1
            continue
        hi = j
        while hi > 0 and pos.get(old[hi - 1], -2) == pos[old[hi]] - 1:
            hi -= 1
        segs.append((_BITS * (len(old) - 1 - j), (1 << (_BITS * (j - hi + 1))) - 1,
                     _BITS * (len(new) - 1 - pos[old[j]])))
        j = hi - 1
    return tuple(segs), dropped


def _lowest_terms(variables, terms: dict, denom: int) -> "MultiPoly":
    """MultiPoly of numerators `terms` over denom > 0, reduced."""
    if denom != 1:
        g = math.gcd(denom, *terms.values())
        if g != 1:
            terms = {k: c // g for k, c in terms.items()}
            denom //= g
    return MultiPoly(variables, terms, denom)


def sum_of_products(variables, triples, divisor=1) -> "MultiPoly":
    """(sum of s*P*Q over (s, P, Q) in triples) / divisor, reduced.

    s and divisor are ints or rationals, and P and Q are MultiPolys over the
    universe `variables` exactly.  Every term product lands in one integer
    dict over the lcm of the denominators, and the result is reduced once.
    When each P is a single term, the keys come out in the order that P*Q
    followed by `+` gives.  Triples with s = 0 or a zero factor are skipped.
    """
    variables = tuple(variables)
    dnum, dden = divisor.numerator, divisor.denominator
    if not dnum:
        raise ZeroDivisionError("sum of products divided by zero")
    if dnum < 0:  # keep the denominator positive
        dnum, dden = -dnum, -dden
    parts = []
    denom = 1
    for s, p, q in triples:
        if p.vars != variables or q.vars != variables:
            raise ValueError(f"factor not over the universe {variables}")
        if s and p.terms and q.terms:
            d = s.denominator * p.denom * q.denom
            denom = math.lcm(denom, d)
            parts.append((s.numerator, d, p.terms, q.terms))
    terms = {}
    get = terms.get
    for num, d, pterms, qterms in parts:
        scale = num * (denom // d) * dden
        qitems = qterms.items()
        for k1, c1 in pterms.items():
            c1 *= scale
            for k2, c2 in qitems:
                k = k1 + k2
                c = get(k, 0) + c1 * c2
                if c:
                    terms[k] = c
                else:
                    del terms[k]
    _check_overflow(terms, len(variables))
    return _lowest_terms(variables, terms, denom * dnum)


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients.

    ``terms`` maps packed monomial keys to nonzero int numerators over the
    positive int ``denom`` (see the module docstring).
    """

    __slots__ = ("vars", "terms", "denom")

    def __init__(self, variables=(), terms=None, denom: int = 1):
        self.vars = tuple(variables)
        self.terms = {} if terms is None else terms
        self.denom = denom

    # -- construction -----------------------------------------------------

    @classmethod
    def const(cls, value, variables=()):
        if type(value) is int:
            num, den = value, 1
        else:
            value = as_rat(value)
            num, den = int(value.numerator), int(value.denominator)
        return cls(tuple(variables), {0: num} if num else {}, den if num else 1)

    @classmethod
    def var(cls, name, power: int = 1, coeff=1):
        coeff = as_rat(coeff)
        key = _pack((power,))
        if coeff == 0:
            return cls((name,))
        return cls((name,), {key: int(coeff.numerator)}, int(coeff.denominator))

    @classmethod
    def zero(cls, variables=()):
        return cls(tuple(variables))

    @classmethod
    def from_terms(cls, variables, terms):
        """Polynomial with coefficient terms[expo] at each exponent tuple."""
        variables = tuple(variables)
        rats = {}
        for expo, cf in terms.items():
            if len(expo) != len(variables):
                raise ValueError(f"exponent {expo} does not match {variables}")
            cf = as_rat(cf)
            if cf != 0:
                rats[_pack(expo)] = cf
        denom = math.lcm(*(int(cf.denominator) for cf in rats.values()))
        return cls(variables, {k: int(cf.numerator) * (denom // int(cf.denominator))
                               for k, cf in rats.items()}, denom)

    def items(self):
        """[(exponent tuple, rational coefficient)] of every term, in term order."""
        n = len(self.vars)
        return [(_unpack(k, n), Rat(c, self.denom)) for k, c in self.terms.items()]

    # -- universe handling ------------------------------------------------

    def in_universe(self, variables) -> "MultiPoly":
        """Re-express self over another universe holding every used variable."""
        variables = tuple(variables)
        if variables == self.vars:
            return self
        if not self.vars:  # a constant: its only key is 0 in every universe
            return MultiPoly(variables, self.terms, self.denom)
        segs, dropped = _segments(self.vars, variables)
        if dropped and self.terms and functools.reduce(operator.or_, self.terms) & dropped:
            raise ValueError(f"{self} uses variables missing from {variables}")
        if len(segs) == 1:
            ((so, mask, sn),) = segs
            terms = {((k >> so) & mask) << sn: c for k, c in self.terms.items()}
        else:
            terms = {sum(((k >> so) & mask) << sn for so, mask, sn in segs): c
                     for k, c in self.terms.items()}
        return MultiPoly(variables, terms, self.denom)

    @staticmethod
    def align(a: "MultiPoly", b: "MultiPoly"):
        if a.vars == b.vars:
            return a, b
        uni = _union(a.vars, b.vars)
        return a.in_universe(uni), b.in_universe(uni)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant_value(self):
        if not self.terms:
            return ZERO
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Rat(self.terms[0], self.denom)

    def used_vars(self):
        if not self.terms:
            return set()
        seen = functools.reduce(operator.or_, self.terms)
        return {v for v, p in zip(self.vars, _unpack(seen, len(self.vars))) if p}

    def monomial_vars(self):
        """Variables with positive exponent, in universe order, if self is a
        single term; None otherwise."""
        if len(self.terms) != 1:
            return None
        (key,) = self.terms
        return [v for v, p in zip(self.vars, _unpack(key, len(self.vars))) if p]

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.const(as_rat(other), self.vars)

    def __add__(self, other):
        if not isinstance(other, (MultiPoly, int, Rat)) and not hasattr(other, "numerator"):
            return NotImplemented
        a, b = MultiPoly.align(self, self._coerce(other))
        if a.denom == b.denom:
            denom, sa, sb = a.denom, 1, 1
        else:
            g = math.gcd(a.denom, b.denom)
            sa, sb = b.denom // g, a.denom // g
            denom = a.denom * sa
        terms = dict(a.terms) if sa == 1 else {k: c * sa for k, c in a.terms.items()}
        get = terms.get
        for k, c in b.terms.items():
            s = get(k, 0) + c * sb
            if s:
                terms[k] = s
            else:
                del terms[k]
        return _lowest_terms(a.vars, terms, denom)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {k: -c for k, c in self.terms.items()}, self.denom)

    def __sub__(self, other):
        return self + (-self._coerce(other) if not isinstance(other, MultiPoly) else -other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        s = 1
        if not isinstance(other, MultiPoly):
            try:
                s, other = as_rat(other), MultiPoly.const(1, self.vars)
            except TypeError:
                return NotImplemented
        if not (self.terms and other.terms):  # zero, over the universe align would give
            uni = self.vars if self.vars == other.vars else _union(self.vars, other.vars)
            return MultiPoly(uni)
        a, b = MultiPoly.align(self, other)
        return sum_of_products(a.vars, ((s, a, b),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational scalar."""
        try:
            cf = as_rat(other)
        except TypeError:
            return NotImplemented
        return self * (1 / cf)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.const(1, self.vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            a, b = MultiPoly.align(self, other)
            return a.denom == b.denom and a.terms == b.terms
        try:
            cf = as_rat(other)
        except TypeError:
            return NotImplemented
        return self.is_constant() and self.constant_value() == cf

    def __hash__(self):
        # equal values hash equal across universes and against rationals
        if self.is_constant():
            return hash(self.constant_value())
        p = self.in_universe(sort_vars(self.used_vars()))
        return hash((p.vars, p.denom, frozenset(p.terms.items())))

    # -- degrees and ordering --------------------------------------------

    def _weight(self):
        """The homothety weight of a packed monomial."""
        n = len(self.vars)
        fields = [(_BITS * (n - 1 - i), WEIGHTS[v]) for i, v in enumerate(self.vars) if v in WEIGHTS]
        return lambda k: sum(((k >> s) & _MASK) * w for s, w in fields)

    def _order(self):
        """Sort key of a packed monomial: (homothety weight, key), so weight
        first, then lex."""
        weight = self._weight()
        return lambda k: (weight(k), k)

    def weights(self):
        """The set of homothety weights of the terms, in one pass."""
        return set(map(self._weight(), self.terms))

    # -- normalization ----------------------------------------------------

    def primitive(self):
        """self divided by signed content: content 1, positive leading coeff."""
        if not self.terms:
            return self
        g = math.gcd(*self.terms.values())
        if self.terms[max(self.terms, key=self._order())] < 0:
            g = -g
        return MultiPoly(self.vars, {k: c // g for k, c in self.terms.items()})

    # -- structure queries ------------------------------------------------

    def degree_in(self, name: str) -> int:
        if name not in self.vars or not self.terms:
            return 0
        shift = _BITS * (len(self.vars) - 1 - self.vars.index(name))
        return max((k >> shift) & _MASK for k in self.terms)

    def coefficients_in(self, name: str):
        """Split as a univariate polynomial in `name`: {power: MultiPoly}."""
        if name not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1 :]
        shift = _BITS * (len(self.vars) - 1 - i)
        low = (1 << shift) - 1
        out = {}
        for k, c in self.terms.items():
            sub = ((k >> (shift + _BITS)) << shift) | (k & low)
            out.setdefault((k >> shift) & _MASK, {})[sub] = c
        return {p: _lowest_terms(rest, d, self.denom) for p, d in out.items()}

    def coefficient_of(self, name: str, power: int) -> "MultiPoly":
        return self.coefficients_in(name).get(power, MultiPoly.zero(self.vars))

    def derivative(self, name: str) -> "MultiPoly":
        """The partial derivative in `name`, in the universe of self."""
        if name not in self.vars:
            return MultiPoly(self.vars)
        shift = _BITS * (len(self.vars) - 1 - self.vars.index(name))
        terms = {k - (1 << shift): c * p for k, c in self.terms.items()
                 if (p := (k >> shift) & _MASK)}
        return _lowest_terms(self.vars, terms, self.denom)

    # -- substitution and evaluation --------------------------------------

    def substitute(self, mapping):
        """Ring-homomorphic substitution var -> MultiPoly or rational.

        Returns a MultiPoly, made by one `sum_of_products` call.  Any other
        value, a RatFunc included, raises TypeError.
        """
        vals = {k: as_multipoly(v) for k, v in mapping.items()}
        n = len(self.vars)
        used = _unpack(functools.reduce(operator.or_, self.terms, 0), n)
        universe = sort_vars([u for v, p in zip(self.vars, used) if p
                              for u in (vals[v].vars if v in vals else (v,))])
        shift = {v: _BITS * (len(universe) - 1 - i) for i, v in enumerate(universe)}
        # the fields of variables mapped to zero: a term using one vanishes
        vanish = sum(_MASK << (_BITS * (n - 1 - i)) for i, v in enumerate(self.vars)
                     if v in vals and not vals[v].terms)
        # one (monomial, power product) pair per other term, in term order, so
        # the sum makes the dict operations of term-by-term products and `+`
        powers = {}
        products = {}
        triples = []
        for key, c in self.terms.items():
            if key & vanish:
                continue
            mono = 0
            subs = []
            for v, p in zip(self.vars, _unpack(key, n)):
                if not p:
                    continue
                if v in vals:
                    subs.append((v, p))
                else:
                    mono += p << shift[v]
            subs = tuple(subs)
            prod = products.get(subs)
            if prod is None:
                prod = MultiPoly.const(1)
                for vp in subs:
                    if vp not in powers:
                        powers[vp] = vals[vp[0]] ** vp[1]
                    prod = prod * powers[vp]
                prod = products[subs] = prod.in_universe(universe)
            triples.append((c, MultiPoly(universe, {mono: 1}), prod))
        return sum_of_products(universe, triples, self.denom)

    def evaluate(self, mapping):
        """Numeric evaluation; mapping must cover every used variable."""
        out = 0
        for expo, cf in self.items():
            t = complex(int(cf.numerator)) / complex(int(cf.denominator))
            for v, p in zip(self.vars, expo):
                if p:
                    t *= mapping[v] ** p
            out += t
        return out

    def evaluate_exact(self, mapping):
        """Evaluate at exact rational points for the given variables."""
        out = ZERO
        for expo, cf in self.items():
            t = cf
            for v, p in zip(self.vars, expo):
                if p:
                    t *= as_rat(mapping[v]) ** p
            out = out + t
        return out

    # -- printing ---------------------------------------------------------

    def text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        n = len(self.vars)
        for key in sorted(self.terms, key=self._order(), reverse=True):
            cf = Rat(self.terms[key], self.denom)
            factors = []
            for v, p in zip(self.vars, _unpack(key, n)):
                if p == 1:
                    factors.append(v)
                elif p > 1:
                    factors.append(f"{v}^{p}")
            if not factors:
                body = rat_str(abs(cf))
            elif abs(cf) == 1:
                body = "*".join(factors)
            else:
                body = rat_str(abs(cf)) + "*" + "*".join(factors)
            chunks.append(("-" if cf < 0 else "+", body))
        sign, body = chunks[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"MultiPoly({self.text()})"


def as_multipoly(c) -> MultiPoly:
    """c itself if it is a MultiPoly, else the constant polynomial of the
    rational c (TypeError for anything else)."""
    return c if isinstance(c, MultiPoly) else MultiPoly.const(c)


# -- polynomial division ---------------------------------------------------


def try_div(a: MultiPoly, b: MultiPoly):
    """Exact division a/b over the rationals; None if not divisible."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if b.is_constant():
        return a * (1 / b.constant_value())
    a, b = MultiPoly.align(a, b)
    order = a._order()
    guard = _guard(len(a.vars))
    lead_b = max(b.terms, key=order)
    cb = b.terms[lead_b]
    # divide the numerators of a by those of b; the remainder is rem / rden
    quot = {}
    rem = dict(a.terms)
    rden = 1
    while rem:
        expo = max(rem, key=order)
        qe = (expo | guard) - lead_b
        if qe & guard != guard:
            return None
        qe ^= guard
        g = math.gcd(rem[expo], cb)
        u, v = rem[expo] // g, cb // g
        if v != 1:
            rem = {k: c * v for k, c in rem.items()}
            rden *= v
        quot[qe] = (u, rden)
        get = rem.get
        for be, bc in b.terms.items():
            te = qe + be
            if te & guard:
                raise OverflowError(f"an exponent exceeds {MAX_EXPONENT}")
            s = get(te, 0) - u * bc
            if s:
                rem[te] = s
            else:
                del rem[te]
        if v != 1:
            g = math.gcd(rden, *rem.values())
            if g != 1:
                rem = {k: c // g for k, c in rem.items()}
                rden //= g
    denom = math.lcm(*(d for _, d in quot.values()))
    terms = {k: u * (denom // d) * b.denom for k, (u, d) in quot.items()}
    return _lowest_terms(a.vars, terms, denom * a.denom)


def exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    q = try_div(a, b)
    if q is None:
        raise ArithmeticError(f"inexact polynomial division: ({a}) / ({b})")
    return q


def remainder_sequence(a, b):
    """The remainder sequence a, b, -rem(a, b), ... of two integer
    polynomials (coefficient lists, low to high, b without trailing zeros):
    each member after b is a positive multiple of the negated remainder of
    the two before it, with primitive integer coefficients, made by
    fraction-free division (the primitive PRS, Knuth, TAOCP vol. 2,
    4.6.1).  It ends at a constant member or before a zero remainder, so
    for b = a' it is a Sturm sequence, and for any pair its last nonzero
    member is a gcd."""
    seq = [a, b]
    while len(seq[-1]) > 1:
        r, b = list(seq[-2]), seq[-1]
        lead, sign = abs(b[-1]), 1 if b[-1] > 0 else -1
        # r -> |lc(b)| r - sign(lc(b)) lc(r) x^shift b: a positive multiple
        # of the remainder step r - (lc(r)/lc(b)) x^shift b
        while len(r) >= len(b):
            f = sign * r[-1]
            shift = len(r) - len(b)
            r = [lead * c - (f * b[i - shift] if i >= shift else 0)
                 for i, c in enumerate(r[:-1])]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
        g = math.gcd(*r)
        seq.append([-c // g for c in r])
    return seq


def _numerators_in(p: MultiPoly, name: str):
    """The integer numerators of p, univariate in `name`, as a coefficient
    list low to high: p times its positive common denominator."""
    if not p.used_vars() <= {name}:
        raise ValueError(f"{p} is not univariate in {name}")
    if not p.terms:
        return []
    # every key is (exponent of name) << shift: no other variable is used
    shift = _BITS * (len(p.vars) - 1 - p.vars.index(name)) if name in p.vars else 0
    out = [0] * ((max(p.terms) >> shift) + 1)
    for k, c in p.terms.items():
        out[k >> shift] = c
    return out


def gcd_univariate(a: MultiPoly, b: MultiPoly, name: str) -> MultiPoly:
    """The gcd of two polynomials univariate in `name`, primitive with a
    positive leading coefficient: the last nonzero member of their
    remainder sequence, or 1 if both are zero."""
    seq = remainder_sequence(_numerators_in(a, name), _numerators_in(b, name))
    g = next((p for p in reversed(seq) if p), [1])
    return MultiPoly((name,), {e: c for e, c in enumerate(g) if c}).primitive()


# -- rational functions -----------------------------------------------------


class RatFunc:
    """Quotient of MultiPolys; denominator primitive with positive leading
    coefficient.  Cancels constants, exact polynomial factors, and univariate
    common factors; no general multivariate gcd (not needed here)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num, den = as_multipoly(num), as_multipoly(1 if den is None else den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num, den = MultiPoly.align(num, den)
        if num.is_zero():
            den = MultiPoly.const(1)
        elif den.is_constant():
            c = den.constant_value()
            if c != 1:
                num = num * (1 / c)
            den = MultiPoly.const(1)
        else:
            q = try_div(num, den)
            if q is not None:
                num, den = q, MultiPoly.const(1)
            else:
                nv, dv = num.used_vars(), den.used_vars()
                common = nv & dv
                if len(nv | dv) == 1 and len(common) == 1:
                    (v,) = common
                    g = gcd_univariate(num, den, v)
                    if not g.is_constant():
                        num = exact_div(num, g)
                        den = exact_div(den, g)
                # divide both by the denominator's signed content
                prim = den.primitive()
                k = next(iter(den.terms))
                num = num * Rat(den.denom * prim.terms[k], den.terms[k])
                den = prim
            num, den = MultiPoly.align(num, den)
        self.num = num
        self.den = den

    @classmethod
    def from_value(cls, v):
        if isinstance(v, RatFunc):
            return v
        return cls(v)

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.is_constant()

    def as_poly(self) -> MultiPoly:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: {self}")
        return self.num * (1 / self.den.constant_value())

    def constant_value(self):
        return self.num.constant_value() / self.den.constant_value()

    def _coerce(self, other):
        return other if isinstance(other, RatFunc) else RatFunc(other)

    def __add__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return RatFunc(self.den, self.num) ** (-k)
        return RatFunc(self.num**k, self.den**k)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero()

    def __hash__(self):
        return hash((self.num, self.den))

    def substitute(self, mapping):
        """Substitute polynomial or rational values into num and den."""
        den = self.den.substitute(mapping)
        if den.is_zero():
            raise ZeroDivisionError("substitution produced a zero denominator")
        return RatFunc(self.num.substitute(mapping), den)

    def evaluate_exact(self, mapping):
        d = self.den.evaluate_exact(mapping)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at the point")
        return self.num.evaluate_exact(mapping) / d

    def text(self):
        if self.is_polynomial():
            return self.as_poly().text()
        return f"({self.num.text()})/({self.den.text()})"

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"RatFunc({self.text()})"
