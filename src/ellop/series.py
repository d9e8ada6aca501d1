"""Truncated Laurent series in z with exact polynomial coefficients."""

from __future__ import annotations

from functools import cache

from .rationals import Rat
from .poly import MultiPoly, as_multipoly


class TruncationError(Exception):
    """A coefficient beyond the trusted truncation order was requested."""


class LaurentSeries:
    """Coefficients for exponents low .. order-1; `order` is the first
    untrusted exponent.  Coefficients are MultiPoly (rationals embed).

    The arithmetic, ``__add__`` through ``truncate``, is the generic series
    algebra.  The program builds its series directly (``to_series`` and the
    Frobenius recursion sum each coefficient at once); the tests keep this
    algebra as the reference those direct sums are compared against."""

    __slots__ = ("low", "coeffs", "order")

    def __init__(self, low: int, coeffs, order: int):
        coeffs = [as_multipoly(c) for c in coeffs]
        if order < low:
            raise ValueError("truncation order below lowest exponent")
        want = order - low
        if len(coeffs) > want:
            coeffs = coeffs[:want]
        elif len(coeffs) < want:
            coeffs = coeffs + [MultiPoly.zero()] * (want - len(coeffs))
        self.low = low
        self.coeffs = coeffs
        self.order = order

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int):
        return cls(order, [], order)

    @classmethod
    def monomial(cls, coeff, expo: int, order: int):
        if expo >= order:
            return cls.zero(order)
        return cls(expo, [coeff], order)

    # -- access ------------------------------------------------------------

    def coefficient(self, k: int) -> MultiPoly:
        if k >= self.order:
            raise TruncationError(f"exponent {k} beyond trusted order {self.order}")
        if k < self.low:
            return MultiPoly.zero()
        return self.coeffs[k - self.low]

    def valuation(self):
        """Exponent of the first nonzero stored coefficient (None if all zero)."""
        for k in range(self.low, self.order):
            if not self.coeffs[k - self.low].is_zero():
                return k
        return None

    def normalized(self) -> "LaurentSeries":
        """Strip leading stored zeros (explicit request per the contract)."""
        v = self.valuation()
        if v is None:
            return LaurentSeries.zero(self.order)
        return LaurentSeries(v, self.coeffs[v - self.low :], self.order)

    def is_zero_to_order(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.monomial(other, 0, self.order)
        order = min(self.order, other.order)
        low = min(self.low, other.low)
        coeffs = []
        for k in range(low, order):
            a = self.coeffs[k - self.low] if self.low <= k < self.order else MultiPoly.zero()
            b = other.coeffs[k - other.low] if other.low <= k < other.order else MultiPoly.zero()
            coeffs.append(a + b)
        return LaurentSeries(low, coeffs, order)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.low, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.monomial(other, 0, self.order)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            c = as_multipoly(other)
            return LaurentSeries(self.low, [x * c for x in self.coeffs], self.order)
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
        return LaurentSeries(low, acc, order)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of a series are not supported")
        out = LaurentSeries.monomial(1, 0, self.order + abs(self.low) * (k + 1) + 1)
        for _ in range(k):
            out = out * self
        return out

    def differentiate(self) -> "LaurentSeries":
        coeffs = []
        for k in range(self.low, self.order):
            coeffs.append(self.coeffs[k - self.low] * Rat(k))
        return LaurentSeries(self.low - 1, coeffs, self.order - 1)

    def shift(self, m: int) -> "LaurentSeries":
        """Multiply by z^m for integer m."""
        return LaurentSeries(self.low + m, list(self.coeffs), self.order + m)

    def truncate(self, order: int) -> "LaurentSeries":
        if order > self.order:
            raise TruncationError(
                f"cannot extend trusted order {self.order} to {order}"
            )
        return LaurentSeries(min(self.low, order), self.coeffs[: order - self.low], order)

    def text(self) -> str:
        s = self.normalized()
        if s.is_zero_to_order():
            return f"O(z^{self.order})"
        inner = []
        for k in range(s.low, s.order):
            c = s.coeffs[k - s.low]
            if c.is_zero():
                continue
            body = c.text()
            if " " in body or body.startswith("-"):
                body = f"({body})"
            off = k - s.low
            if off == 0:
                inner.append(body)
            elif off == 1:
                inner.append(f"{body}*z")
            else:
                inner.append(f"{body}*z^{off}")
        head = f"z^{s.low}*(" if s.low != 0 else "("
        return head + " + ".join(inner) + f") + O(z^{s.order})"

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"LaurentSeries({self.text()})"


def _wp_laurent(K: int, g2, g3, c=None) -> dict:
    """{k: c_k} for 2 <= k <= max(3, (K+1)//2), which covers every k with
    2k-2 < K, in P = z^-2 + sum_{k>=2} c_k z^(2k-2).  From the defining
    relation (P')^2 = 4 P^3 - g2 P - g3: c_2 = g2/20, c_3 = g3/28,
    c_k = 3 (sum_{m=2}^{k-2} c_m c_{k-m}) / ((2k+1)(k-3)) for k >= 4.
    g2 and g3 are exact polynomials or complex numbers.

    c_k does not depend on K.  A dict c of the coefficients already made
    for these g2, g3 is extended in place and returned; it may then hold
    more than K needs."""
    if c is None:
        c = {2: g2 / 20, 3: g3 / 28}
    for k in range(len(c) + 2, (K + 1) // 2 + 1):
        c[k] = 3 * sum(c[m] * c[k - m] for m in range(2, k - 1)) / ((2 * k + 1) * (k - 3))
    return c


_G2, _G3 = MultiPoly.var("g2"), MultiPoly.var("g3")
_ONE = MultiPoly.const(1)
_ZERO = MultiPoly.zero()
#: c_k over Q[g2, g3], made once per process and extended as larger K need
_WP_EXACT = _wp_laurent(0, _G2, _G3)


def _wp_coefficient(k: int) -> MultiPoly:
    """The coefficient of z^k in P, k >= -2, a polynomial in g2, g3."""
    if k == -2:
        return _ONE
    if k < 2 or k % 2:
        return _ZERO
    return _wp_laurent(k + 1, _G2, _G3, _WP_EXACT)[k // 2 + 1]


@cache
def wp_power_coefficient(i: int, prime: int, k: int) -> MultiPoly:
    """The coefficient of z^k in P^i (P')^prime, for i >= 0 and prime 0 or
    1, a polynomial in g2, g3.  Cached: each is made once per process, as
    one sum over the coefficients of P times those of P^(i-1) (P')^prime."""
    if prime and not i:
        return _wp_coefficient(k + 1) * (k + 1)
    if not prime and i <= 1:
        return _wp_coefficient(k) if i else (_ONE if k == 0 else _ZERO)
    low = -2 * (i - 1) - 3 * prime       # of P^(i-1) (P')^prime
    out = _ZERO
    for j in range(-2, k - low + 1):
        p = _wp_coefficient(j)
        if p.terms:
            out = out + p * wp_power_coefficient(i - 1, prime, k - j)
    return out


def wp_series(K: int) -> LaurentSeries:
    """Weierstrass P as a Laurent series, trusted through z^(K-1), with
    coefficients polynomials in g2, g3.  Each c_k of ``_wp_laurent`` is made
    once per process, whatever K first asks for it."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    return LaurentSeries(-2, [_wp_coefficient(k) for k in range(-2, K)], K)


def wp_series_numeric(K: int, g2: complex, g3: complex):
    """Complex coefficient dict {exponent: coeff} of the P series."""
    d = {-2: 1.0 + 0j}
    d.update((2 * k - 2, complex(ck)) for k, ck in _wp_laurent(K, g2, g3).items()
             if 2 * k - 2 < K)
    return d
