"""Differential operators: local Fuchsian form, global one-pole elliptic
form, indices, composition, cyclic operators, and commuting certificates."""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

from .rationals import ONE, Rat, ZERO, as_rat
from .poly import MultiPoly, exact_div, remainder_sequence
from .elliptic import EllipticElement
from .linalg import solve_linear_over_field


class InvalidGapsError(ValueError):
    pass


class VerificationError(ArithmeticError):
    """A result failed the program's own exact certificate."""


# -- generic operator algebra ----------------------------------------------
#
# An operator is a dict {power: coefficient}; coefficients live in any ring
# with +, *, unary -, and .derivative() (EllipticElement).


def op_compose(A: dict, B: dict) -> dict:
    out = {}
    for i, a in A.items():
        for j, b in B.items():
            d = b
            for k in range(i + 1):
                term = a * d * Rat(math.comb(i, k))
                p = i + j - k
                out[p] = (out[p] + term) if p in out else term
                if k < i:
                    d = d.derivative()
    return _op_clean(out)


def _op_clean(op: dict) -> dict:
    return {p: c for p, c in op.items() if not c.is_zero()}


def op_sub(A: dict, B: dict) -> dict:
    out = dict(A)
    for p, c in B.items():
        out[p] = (out[p] + (-c)) if p in out else (-c)
    return _op_clean(out)


def op_commutator(A: dict, B: dict) -> dict:
    return op_sub(op_compose(A, B), op_compose(B, A))


# -- index data -------------------------------------------------------------


@dataclass(frozen=True)
class IndexData:
    """Sorted indices of an operator at a point."""

    indices: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "indices", tuple(sorted(as_rat(m) for m in self.indices))
        )

    @property
    def n(self) -> int:
        return len(self.indices)

    def index_sum_ok(self) -> bool:
        n = self.n
        return sum(self.indices) == Rat(n * (n - 1), 2)

    def all_integer(self) -> bool:
        return all(m.denominator == 1 for m in self.indices)


def homogeneous_integrable(idx: IndexData, n: int):
    """Integers, pairwise distinct mod n.  Returns (ok, reason)."""
    if idx.n != n:
        return False, "wrong number of indices"
    if not idx.all_integer():
        return False, "non-integer indices"
    residues = [int(m) % n for m in idx.indices]
    if len(set(residues)) != n:
        return False, "indices repeat a residue class mod n"
    return True, None


# -- local operators --------------------------------------------------------


def _times_linear(p, a):
    """Coefficients of p(m) * (m - a), for p given low to high."""
    return [(p[d - 1] if d else ZERO) - (a * p[d] if d < len(p) else ZERO)
            for d in range(len(p) + 1)]


@functools.cache
def _falling(k: int):
    """Coefficients of m(m-1)...(m-k+1), low to high, as a tuple; cached,
    since every operator of order n reads those of k <= n."""
    p = [ONE]
    for j in range(k):
        p = _times_linear(p, j)
    return tuple(p)


def indicial_coefficients(n: int, bs: dict):
    """Coefficients, low to high, of the indicial polynomial
    m(m-1)...(m-n+1) + sum_i b_i m(m-1)...(m-n+i+1) of an order-n operator
    whose coefficient a_i of d^(n-i) has leading term b_i z^-i."""
    P = list(_falling(n))
    for i in range(2, n + 1):
        b = bs.get(i, ZERO)
        for d, c in enumerate(_falling(n - i)):
            P[d] += b * c
    return P


class LocalOperator:
    """Monic order-n operator with a_1 = 0 and Fuchsian pole bounds:
    ord_0(a_i) >= -i for each coefficient a_i of d^(n-i), i = 2..n."""

    def __init__(self, n: int, coeffs: dict):
        if n < 2:
            raise ValueError("order must be at least 2")
        self.n = n
        self.coeffs = {}
        for i in range(2, n + 1):
            s = coeffs.get(i)
            if s is None:
                raise ValueError(f"coefficient a_{i} is missing")
            if s.valuation() is not None and s.valuation() < -i:
                raise ValueError(
                    f"coefficient a_{i} has a pole of order > {i}: not Fuchsian"
                )
            self.coeffs[i] = s

    def b(self, i: int) -> MultiPoly:
        """Leading Laurent coefficient of a_i at z^-i."""
        return self.coeffs[i].coefficient(-i)

    @functools.cached_property
    def _roots(self):
        """The indicial polynomial's rational roots, found once per
        operator."""
        bs = {}
        for i in range(2, self.n + 1):
            b = self.b(i)
            if not b.is_constant():
                raise ValueError("indicial polynomial has symbolic coefficients")
            bs[i] = b.constant_value()
        return tuple(_rational_roots(indicial_coefficients(self.n, bs)))

    def indicial_roots(self):
        """The indicial polynomial's rational roots, with multiplicity, in
        ``_rational_roots`` order."""
        return self._roots


def _homogeneous_horner(a, t: int, s: int) -> int:
    """s^d a(t/s), d = len(a) - 1, for integer coefficients a (low to
    high): one integer Horner, exact."""
    v, sk = a[-1], 1
    for c in reversed(a[:-1]):
        sk *= s
        v = v * t + c * sk
    return v


def _sign_changes(seq, t: int, s: int) -> int:
    """Sign changes, zeros skipped, of the integer polynomials seq (low to
    high) at t/s for s > 0: the sign of each is that of s^d P(t/s)."""
    out, last = 0, 0
    for a in seq:
        v = _homogeneous_horner(a, t, s)
        if v:
            if last and (v > 0) != (last > 0):
                out += 1
            last = v
    return out


def _rational_roots(poly):
    """Rational roots (with multiplicity) of a rational-coefficient
    polynomial given as a coefficient list, low to high, in the order
    (|root|, negative after positive).

    With denominators cleared to integers a_0..a_d, a root p/q in lowest
    terms has q | a_d, so y = |a_d| x is an integer, and |y| is at most a
    power-of-two form of Fujiwara's bound.  Sturm bisection over y between
    half-integers, which are never roots, narrows each real root to an
    interval that holds one integer, and one exact Horner check decides it.
    No divisor of a_0 or a_d is enumerated, so the cost is polynomial in
    the coefficients' bit length."""
    poly = [as_rat(c) for c in poly]
    while poly and poly[-1] == 0:
        poly.pop()
    roots = []
    # strip roots at zero
    while poly and poly[0] == 0:
        roots.append(ZERO)
        poly = poly[1:]
    scale = math.lcm(*(c.denominator for c in poly))
    a = [c.numerator * (scale // c.denominator) for c in poly]
    if len(a) < 2:
        return roots
    top = abs(a[-1])
    seq = remainder_sequence(a, [i * c for i, c in enumerate(a)][1:])  # a's Sturm sequence
    # |x| <= 2 max_i (|a_(d-i)| / top)^(1/i) (Fujiwara) <= 2^(1+e), as
    # |c| / top < 2^(bits(c) - bits(top) + 1)
    d, bits = len(a) - 1, top.bit_length()
    e = max(-((bits - 1 - abs(c).bit_length()) // (d - i)) for i, c in enumerate(a[:-1]) if c)
    Y = top << (1 + max(e, 0))
    # changes[k]: sign changes of seq at y = k + 1/2, x = (2k + 1) / (2 top)
    changes = {k: _sign_changes(seq, 2 * k + 1, 2 * top) for k in (-Y - 1, Y)}
    cands = []
    # (lo, hi) holds the real roots with lo + 1/2 < y < hi + 1/2; once it
    # holds one integer, hi, that is the one candidate
    stack = [(-Y - 1, Y)]
    while stack:
        lo, hi = stack.pop()
        if changes[lo] == changes[hi]:
            continue
        if hi - lo == 1:
            cands.append(hi)
            continue
        mid = (lo + hi) // 2
        changes[mid] = _sign_changes(seq, 2 * mid + 1, 2 * top)
        stack += [(lo, mid), (mid, hi)]
    for y in sorted(cands, key=lambda y: (abs(y), y < 0)):
        g = math.gcd(y, top)
        p, q = y // g, top // g
        while len(a) > 1:
            if _homogeneous_horner(a, p, q):
                break
            roots.append(Rat(p, q))
            # divide by q*x - p; the quotient is integral (Gauss's lemma)
            quot, carry = [], 0
            for c in reversed(a[1:]):
                carry = (c + p * carry) // q
                quot.append(carry)
            a = quot[::-1]
    return roots


# -- global one-pole operators ----------------------------------------------


class GlobalEllipticOperator:
    """Monic operator of order n with a_1 = 0 whose coefficients are
    elements of the elliptic function ring, all poles at z = 0."""

    def __init__(self, n: int, coeffs: dict):
        self.n = n
        self.coeffs = {i: coeffs.get(i, EllipticElement.zero()) for i in range(2, n + 1)}

    def as_opdict(self):
        d = {self.n: EllipticElement.const(1)}
        for i, c in self.coeffs.items():
            if not c.is_zero():
                d[self.n - i] = c
        return d

    def localize(self, K: int) -> LocalOperator:
        return LocalOperator(self.n, {i: c.to_series(K) for i, c in self.coeffs.items()})

    def substitute(self, mapping) -> "GlobalEllipticOperator":
        """Values for the coefficients' parameters.  g2 and g3 are refused:
        they belong to the curve P'^2 = 4P^3 - g2 P - g3, which the ring's
        products and the Laurent expansion keep symbolic and the numeric
        evaluator takes from the lattice, so no reader of the operator
        would see values put in here."""
        if {"g2", "g3"} & set(mapping):
            raise ValueError("cannot substitute g2 and g3 into an operator: the "
                             "expansion of P keeps them symbolic")
        return GlobalEllipticOperator(
            self.n, {i: c.substitute(mapping) for i, c in self.coeffs.items()}
        )



def third_order_indices(q: int, r: int) -> IndexData:
    if (q - r) % 3 != 0 or q % 3 == 0 or r % 3 == 0:
        raise InvalidGapsError(
            f"gaps ({q},{r}) must be congruent mod 3 and not divisible by 3"
        )
    m0 = Rat(3 - (2 * q + r), 3)
    m1 = Rat(3 + (q - r), 3)
    m2 = Rat(3 + (2 * r + q), 3)
    return IndexData((m0, m1, m2))


def third_order_from_gaps(q: int, r: int) -> GlobalEllipticOperator:
    """The one-pole operator D^3 + (a*P + c)D + (b*P' + e*P) whose indicial
    roots realize the gaps (q, r); a and b are forced by the roots, and c, e
    are the free variables of the locus."""
    bs = coefficients_from_indices(third_order_indices(q, r))
    a, b = bs[2], -bs[3] / 2
    a2 = EllipticElement([MultiPoly.var("c"), a])
    a3 = EllipticElement([0, MultiPoly.var("e")], [b])
    return GlobalEllipticOperator(3, {2: a2, 3: a3})


def coefficients_from_indices(idx: IndexData):
    """Leading Laurent coefficients b_2..b_n matching the indicial roots."""
    n = idx.n
    target = [ONE]
    for m in idx.indices:
        target = _times_linear(target, m)
    R = [t - f for t, f in zip(target, _falling(n))]
    bs = {}
    for i in range(2, n + 1):
        deg = n - i
        bs[i] = R[deg]
        R = [r - bs[i] * f for r, f in zip(R, _falling(deg) + (ZERO,) * i)]
    if any(R):
        raise ArithmeticError("indicial matching failed")
    return bs


def cyclic_L0(n: int, idx: IndexData, curve: str = "generic") -> GlobalEllipticOperator:
    """The unique operator with indices idx whose coefficients expand as
    b_i z^-i + O(z): every deeper nonpositive Laurent coefficient is zero.

    curve selects a specialization: "generic", "g2=0" (equianharmonic) or
    "g3=0" (lemniscatic)."""
    if n < 2:
        raise ValueError("order must be at least 2")
    ok, reason = homogeneous_integrable(idx, n)
    if not ok:
        raise ValueError(f"indices not integrable: {reason}")
    if not idx.index_sum_ok():
        raise ValueError("index sum incompatible with a vanishing d^(n-1) term")
    if n not in (2, 3, 4, 6):
        warnings.warn(
            f"order {n}: cyclic symmetry does not certify integrability",
            stacklevel=2,
        )
    bs = coefficients_from_indices(idx)
    coeffs = {}
    deriv = EllipticElement.P()
    basis = {2: deriv}
    for i in range(3, n + 1):
        deriv = deriv.derivative()
        basis[i] = deriv
    subs = {}
    if curve == "g2=0":
        subs = {"g2": MultiPoly.zero()}
    elif curve == "g3=0":
        subs = {"g3": MultiPoly.zero()}
    elif curve != "generic":
        raise ValueError(f"unknown curve mode {curve!r}")
    for i in range(2, n + 1):
        if bs[i] == 0:
            continue
        scale = Rat((-1) ** i) / Rat(math.factorial(i - 1))
        f_i = (basis[i] * scale).drop_constant()
        if subs:
            f_i = f_i.substitute(subs)
        coeffs[i] = f_i * bs[i]
    return GlobalEllipticOperator(n, coeffs)


# -- commuting certificates --------------------------------------------------


def _elliptic_basis(max_pole: int):
    """Monomials P^a (P')^b, b <= 1, of pole order <= max_pole (incl. 1)."""
    out = []
    for b in (0, 1):
        a = 0
        while 2 * a + 3 * b <= max_pole:
            out.append((a, b))
            a += 1
    return sorted(out, key=lambda ab: (2 * ab[0] + 3 * ab[1], ab[1]))


def _slots(op: dict) -> dict:
    """The nonzero coefficients of an operator over the elliptic ring, keyed
    by (power of D, P'-degree, power of P)."""
    return {(p, deg, a): v for p, c in op.items() for a, deg, v in c.parts()}


def find_commuting(L: GlobalEllipticOperator, m: int):
    """Search for an order-m operator M = d D^m + ... with [L, M] = 0.
    Returns an operator dict {power: EllipticElement} or None.  Raises
    ValueError if m is not coprime to L's order n or m < 1.

    M is D^m plus unknown multiples of the terms P^a (P')^b D^(m-i), (a, b)
    over _elliptic_basis(w*i).  L's pole weight w is the least integer
    w >= 1 with pole(a_i) <= w*i for every coefficient a_i of D^(n-i),
    where pole(P^a (P')^b) = 2a + 3b.  [L, M] is linear in M, so each term
    gives one column of a linear system, the slots of its commutator with
    L, and the right-hand side is -[L, D^m].  The system is solved in the
    polynomial ring (``solve_linear_over_field``), with the free unknowns
    at 0: no partner is found only when it is inconsistent.  d is 1, so M
    is monic, unless that solution has a denominator in the parameters;
    then d is the polynomial that clears it, which is constant in z, and M
    is divided by the gcd of its coefficients' integer numerators and by
    the largest monomial in the parameters that divides them all, so
    [L, M] = 0 still holds and is checked.

    The bound loses no partner.  Call sum_j b_j D^j (j < 0 too) of weight k
    when pole(b_j) <= w*(k - j) for every j.  Weights add under products,
    since the s-th derivative of a coefficient deepens its pole by
    s <= w*s.  L has weight n, so Q = L^(1/n) = D + q_2 D^-1 + ... has
    weight 1: the coefficient of D^(n-i) in Q^n is n*q_i plus terms in
    q_2..q_(i-1) of weight n.  Every operator that commutes with L is
    sum_k c_k (Q^k)_+ with c_k constant (Schur 1905), so it has weight at
    most its order.  So every partner, and every operator of lower order
    that commutes with L, lies in the span of the columns.  A wider basis
    adds only columns that are 0 in every solution and kernel vector: each
    is a pivot column, the other columns keep their pivots, and the
    solution with free unknowns at 0, or None, is the same; only d, when it
    is not 1, may change by a factor constant in z."""
    n = L.n
    if math.gcd(n, m) != 1:
        raise ValueError(f"order {m} not coprime to {n}")
    if m < 1:
        raise ValueError(f"order {m} of the partner must be at least 1")
    w = max([1] + [-(-(2 * a + 3 * b) // i)
                   for i, c in L.coeffs.items() for a, b, _ in c.parts()])
    lop = L.as_opdict()
    one = EllipticElement.const(1)
    terms = [(m - i, EllipticElement((), [0] * a + [1]) if b else EllipticElement([0] * a + [1]))
             for i in range(1, m + 1) for a, b in _elliptic_basis(w * i)]
    columns = [_slots(op_commutator(lop, {p: term})) for p, term in terms]
    top = _slots(op_commutator(lop, {m: one}))
    # Rows run by (-power of D, P'-degree, power of P).  The solution does
    # not depend on the row order, but the growth of the fraction-free
    # elimination's entries does: with rows in first-seen order,
    # third:q=4,r=4,c=6,e=0 at order 7 takes 0.26-0.36 s, not 0.08-0.10 s.
    slots = sorted(top.keys() | {s for col in columns for s in col},
                   key=lambda s: (-s[0], s[1], s[2]))
    zero = MultiPoly.zero()
    solved = solve_linear_over_field([[col.get(s, zero) for col in columns] for s in slots],
                                     [-top.get(s, zero) for s in slots])
    if solved is None:
        return None
    d, sol = solved
    if d != 1:
        # d and sol are M's coefficients
        coeffs = [c for c in (d, *sol) if c.terms]
        common = MultiPoly.const(math.gcd(*(k for c in coeffs for k in c.terms.values())))
        for v in set().union(*(c.used_vars() for c in coeffs)):
            common = common * MultiPoly.var(v, min(min(c.coefficients_in(v)) for c in coeffs))
        d, sol = exact_div(d, common), [exact_div(c, common) for c in sol]
    out = {m: EllipticElement([d])}
    for (p, term), v in zip(terms, sol):
        out[p] = out.get(p, EllipticElement.zero()) + term * v
    out = _op_clean(out)
    # never trust the ansatz: re-verify the commutator exactly
    check = op_commutator(lop, out)
    if check:
        raise VerificationError("candidate certificate fails to commute")
    return out
