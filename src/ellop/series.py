"""Truncated Laurent series in z with exact polynomial coefficients."""

from __future__ import annotations

from functools import cache

from .poly import MultiPoly, as_multipoly


class TruncationError(Exception):
    """A coefficient beyond the trusted truncation order was requested."""


class LaurentSeries:
    """Coefficients for exponents low .. order-1; `order` is the first
    untrusted exponent.  Coefficients are MultiPoly (rationals embed).

    The program builds its series directly (``to_series`` sums each
    coefficient at once) and only reads them, so the class has no
    arithmetic.  The generic series algebra, the reference those direct sums
    are compared against, lives with the tests, in ``tests/reference.py``.
    Nothing prints a series: output shows its MultiPoly coefficients."""

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


def wp_series_numeric(K: int, g2: complex, g3: complex):
    """Complex coefficient dict {exponent: coeff} of the P series."""
    d = {-2: 1.0 + 0j}
    d.update((2 * k - 2, complex(ck)) for k, ck in _wp_laurent(K, g2, g3).items()
             if 2 * k - 2 < K)
    return d
