"""Test-only reference implementations.

No program path runs these, so they live with the tests, which compare the
program's direct computations against them (``tools/reach.py`` checks that
src/ellop holds only what a program path runs):

- ``Series``: the generic Laurent series algebra, on top of the program's
  read-only ``LaurentSeries``; ``Series.of`` views a series the program built;
- ``wp_series``: Weierstrass P as a ``Series`` over Q[g2, g3];
- ``from_terms``: a MultiPoly from exponent tuples;
- ``psi``: the series of a ``frobenius_solve`` solution, unpacked;
- ``split_coefficients``: an obstruction's coefficients by repeated
  ``MultiPoly.coefficients_in``, which ``monodromy._split_coefficients``
  reads from the slots instead;
- ``standing_conditions``: the z-engine certificate of a solved branch of
  the gap family, with ``every_start`` and ``with_coefficients``; the tests
  and ``tools/certify.py`` run it;
- ``cryst3_H`` and ``inozemtsev_U``: the potentials whose gradients
  ``cm.cryst3_grad_H`` and ``cm.inozemtsev_gradient`` compute;
- ``LOW_CELLS``: the gap cells that the tests and ``tools/certify.py`` run
  through both engines and the certificate.
"""

from __future__ import annotations

import math

from ellop.cm import ETA, _EPS, Cryst3Config, _cryst3_input, _inozemtsev_input
from ellop.lattice import Lattice, wp01
from ellop.locus3 import _reduce_relation_poly
from ellop.monodromy import trivial_monodromy_constraints
from ellop.operators import LocalOperator, third_order_from_gaps
from ellop.poly import MultiPoly, _pack, as_multipoly
from ellop.rationals import Rat, as_rat
from ellop.series import LaurentSeries, TruncationError, _wp_coefficient

#: every valid gap cell (q, r) with q <= 31 and r <= 22, 158 of them, by q
#: and then r; the q < r ones, which locus never scans, among them
LOW_CELLS = [(q, r) for q in range(1, 32) for r in range(1, 23)
             if q % 3 and r % 3 and (q - r) % 3 == 0]


class Series(LaurentSeries):
    """A LaurentSeries with the series algebra; every result is a Series.
    The other operand may be any LaurentSeries or a coefficient."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, s: LaurentSeries):
        """The series s, with the algebra."""
        return cls(s.low, s.coeffs, s.order)

    @classmethod
    def zero(cls, order: int):
        return cls(order, [], order)

    @classmethod
    def monomial(cls, coeff, expo: int, order: int):
        if expo >= order:
            return cls.zero(order)
        return cls(expo, [coeff], order)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            other = Series.monomial(other, 0, self.order)
        order = min(self.order, other.order)
        low = min(self.low, other.low)
        coeffs = []
        for k in range(low, order):
            a = self.coeffs[k - self.low] if self.low <= k < self.order else MultiPoly.zero()
            b = other.coeffs[k - other.low] if other.low <= k < other.order else MultiPoly.zero()
            coeffs.append(a + b)
        return Series(low, coeffs, order)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.low, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            other = Series.monomial(other, 0, self.order)
        return self + (-Series.of(other))

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            c = as_multipoly(other)
            return Series(self.low, [x * c for x in self.coeffs], self.order)
        # product trusted while both factors are trusted
        order = min(self.low + other.order, other.low + self.order)
        low = self.low + other.low
        n = order - low
        acc = [MultiPoly.zero() for _ in range(max(n, 0))]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                k = i + j
                if k >= n:
                    break
                if b.is_zero():
                    continue
                acc[k] = acc[k] + a * b
        return Series(low, acc, order)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of a series are not supported")
        out = Series.monomial(1, 0, self.order + abs(self.low) * (k + 1) + 1)
        for _ in range(k):
            out = out * self
        return out

    def differentiate(self) -> "Series":
        coeffs = []
        for k in range(self.low, self.order):
            coeffs.append(self.coeffs[k - self.low] * Rat(k))
        return Series(self.low - 1, coeffs, self.order - 1)

    def shift(self, m: int) -> "Series":
        """Multiply by z^m for integer m."""
        return Series(self.low + m, list(self.coeffs), self.order + m)

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise TruncationError(
                f"cannot extend trusted order {self.order} to {order}"
            )
        return Series(min(self.low, order), self.coeffs[: order - self.low], order)


def wp_series(K: int) -> Series:
    """Weierstrass P as a Laurent series, trusted through z^(K-1), with
    coefficients polynomials in g2, g3.  Each c_k of ``series._wp_laurent``
    is made once per process, whatever K first asks for it."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    return Series(-2, [_wp_coefficient(k) for k in range(-2, K)], K)


def from_terms(variables, terms) -> MultiPoly:
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
    return MultiPoly(variables, {k: int(cf.numerator) * (denom // int(cf.denominator))
                                 for k, cf in rats.items()}, denom)


def psi(sol) -> Series:
    """1 + sum f_k z^k of a ``frobenius_solve`` solution, the solution being
    z^m * psi: its packed f_k, unpacked."""
    return Series(0, [sol.slots.unpack(num, den, k)
                      for k, (num, den) in enumerate(sol.packed)], len(sol.packed))


def split_coefficients(poly: MultiPoly, names):
    """All coefficients of poly w.r.t. monomials in names: {expo: MultiPoly}."""
    out = {(): poly}
    for nm in names:
        new = {}
        for key, p in out.items():
            for d, c in p.coefficients_in(nm).items():
                new[key + (d,)] = c
        out = new
    return out


def every_start(op):
    """op, its indices but the last, and the last."""
    *starts, top = sorted(op.indicial_roots())
    return op, starts, top


def with_coefficients(op, f):
    """op with the coefficient c of z^k in a_i replaced by f(i, k, c)."""
    return LocalOperator(op.n, {i: LaurentSeries(
        a.low, [f(i, k, a.coefficient(k)) for k in range(a.low, a.order)], a.order)
        for i, a in op.coeffs.items()})


#: g2 and g3 on each curve that standing_conditions takes by name; the
#: nodal curve is y^2 = 4x^3 - 3w^2 x - w^3 = 4(x + w/2)^2 (x - w).  They
#: are written out here, not read from locus3, so that the certificate
#: checks the program's curves too
CURVE_INVARIANTS = {
    "generic": {},
    "nodal": {"g2": MultiPoly.var("w", 2, 3), "g3": MultiPoly.var("w", 3)},
}


def standing_conditions(branch, assignments, curve="generic"):
    """The conditions of trivial monodromy at every index of the branch's
    localized operator, third_order_from_gaps(q, r).localize(q + r - 1),
    that do not vanish modulo the branch's c^2 relation.  assignments go
    into its Laurent coefficients, which carry g2 and g3; on the curve
    named by curve, its CURVE_INVARIANTS go in with them, assignments put
    into them first."""
    assignments = {**assignments, **{v: p.substitute(assignments)
                                     for v, p in CURVE_INVARIANTS[curve].items()}}
    op, _, _ = every_start(with_coefficients(
        third_order_from_gaps(branch.q, branch.r).localize(branch.q + branch.r - 1),
        lambda i, k, c: c.substitute(assignments)))
    polys = [c.poly for c in trivial_monodromy_constraints(op).conditions]
    if branch.relation is not None:
        polys = [_reduce_relation_poly(p, *branch.relation) for p in polys]
    return [p for p in polys if not p.is_zero()]


def cryst3_H(cfg: Cryst3Config) -> complex:
    """H = sum p_i^3 + sum_{i,r} (A_r wp(z_i - eta_r) p_i + B_r wp'(z_i -
    eta_r)) - 3 sum_{i != j, s} wp(z_i - eps^s z_j) p_i."""
    lat, n, zs, ps, A, B = _cryst3_input(cfg)
    val = sum(p**3 for p in ps)
    for i in range(n):
        for r in range(3):
            wp, wpp = wp01(zs[i] - ETA[r], lat)
            val += A[r] * wp * ps[i]
            val += B[r] * wpp
        for j in range(n):
            if j == i:
                continue
            for s in range(3):
                val -= 3 * wp01(zs[i] - _EPS**s * zs[j], lat)[0] * ps[i]
    return val


def inozemtsev_U(points, ms, lat: Lattice) -> complex:
    """U = sum_{i,j} (m_i + 1/2)^2 wp(z_j - w_i)
    + sum_{k != j} (wp(z_j - z_k) + wp(z_j + z_k))."""
    zs, ms, ws = _inozemtsev_input(points, ms, lat)
    val = 0j
    for z in zs:
        for mi, w in zip(ms, ws):
            val += (mi + 0.5) ** 2 * wp01(z - w, lat)[0]
    for j in range(len(zs)):
        for k in range(len(zs)):
            if k == j:
                continue
            val += wp01(zs[j] - zs[k], lat)[0] + wp01(zs[j] + zs[k], lat)[0]
    return val
