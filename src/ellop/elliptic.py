"""The ring Q(g2,g3)[P, P'] modulo (P')^2 = 4P^3 - g2*P - g3.

Elements are kept reduced to P'-degree at most one: part0 + part1*P', where
each part is one MultiPoly in the ring variable P and the parameters (g2, g3
and the operator's own).  Sums, products, derivatives and substitutions are
plain MultiPoly operations, so every product goes through the kernel
``poly.sum_of_products``; P'^2 is replaced by the one constant ``_CUBIC``.
A part with no terms costs nothing: the kernel never sees an empty factor,
so the product of two elements without P' is one MultiPoly product.  There
are no ring powers; P^a and P^a*P' are built from their coefficient lists.
The constructor takes lists of coefficients of P^0, P^1, ..., each a
MultiPoly or a rational that does not use P, never denominators in the
parameters.  ``parts()`` reads the coefficients back.
"""

from __future__ import annotations

from .poly import MultiPoly, as_multipoly
from .series import LaurentSeries, wp_power_coefficient

_P = "P"
_ZERO = MultiPoly.zero()
# P'^2 = 4P^3 - g2*P - g3, and so P'' = (d/dP of it) / 2 = 6P^2 - g2/2
_CUBIC = -MultiPoly.var("g3") - MultiPoly.var("g2") * MultiPoly.var(_P) + MultiPoly.var(_P, 3, 4)
_WPP = _CUBIC.derivative(_P) / 2


def _coefficient(c) -> MultiPoly:
    """c as a MultiPoly; ValueError if it uses the ring variable P."""
    c = as_multipoly(c)
    if _P in c.used_vars():
        raise ValueError(f"coefficient {c} uses the ring variable {_P}")
    return c


class EllipticElement:
    __slots__ = ("part0", "part1")

    def __init__(self, part0=(), part1=()):
        self.part0, self.part1 = (
            sum((_coefficient(c) * MultiPoly.var(_P, i) for i, c in enumerate(part)), _ZERO)
            for part in (part0, part1))

    @classmethod
    def _of(cls, part0: MultiPoly, part1: MultiPoly) -> "EllipticElement":
        """The element part0 + part1*P' of two MultiPolys in P."""
        out = object.__new__(cls)
        out.part0, out.part1 = part0, part1
        return out

    @classmethod
    def const(cls, c):
        return cls._of(_coefficient(c), _ZERO)

    @classmethod
    def P(cls):
        return cls._of(MultiPoly.var(_P), _ZERO)

    @classmethod
    def zero(cls):
        return cls._of(_ZERO, _ZERO)

    def is_zero(self):
        return not self.part0.terms and not self.part1.terms

    def parts(self):
        """[(power of P, P'-degree, coefficient)] of the nonzero coefficients,
        those of P'-degree 0 first, each in ascending power of P."""
        return [(i, prime, c) for prime, part in enumerate((self.part0, self.part1))
                for i, c in sorted(part.coefficients_in(_P).items())]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, EllipticElement):
            return EllipticElement._of(self.part0 + _coefficient(other), self.part1)
        return EllipticElement._of(self.part0 + other.part0, self.part1 + other.part1)

    __radd__ = __add__

    def __neg__(self):
        return EllipticElement._of(-self.part0, -self.part1)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, EllipticElement):
            c = _coefficient(other)
            return EllipticElement._of(self.part0 * c, self.part1 * c)
        a0, a1, b0, b1 = self.part0, self.part1, other.part0, other.part1
        return EllipticElement._of(a0 * b0 + a1 * b1 * _CUBIC, a0 * b1 + a1 * b0)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (self - other).is_zero()

    def derivative(self) -> "EllipticElement":
        """d/dz with P -> P', P' -> P'' = 6P^2 - g2/2, reduced to P'-degree <= 1."""
        # (f(P) + g(P) P')' = f'(P) P' + g'(P) (P')^2 + g(P) P''
        f, g = self.part0, self.part1
        return EllipticElement._of(g.derivative(_P) * _CUBIC + g * _WPP, f.derivative(_P))

    def substitute(self, mapping) -> "EllipticElement":
        return EllipticElement._of(self.part0.substitute(mapping),
                                   self.part1.substitute(mapping))

    def to_series(self, K: int) -> LaurentSeries:
        """The Laurent expansion at z = 0, exact through z^(K-1).

        Each coefficient is one sum over the nonzero parts: part coefficient
        times the coefficient of P^i or P^i P' (``wp_power_coefficient``,
        made once per process).  The series starts at the deepest pole of a
        nonzero part, -2i or -2i-3, or at K if that is lower."""
        parts = self.parts()
        low = min([K] + [-2 * i - 3 * prime for i, prime, _ in parts])
        coeffs = []
        for k in range(low, K):
            terms = [c * w for i, prime, c in parts
                     if (w := wp_power_coefficient(i, prime, k)).terms]
            coeffs.append(sum(terms[1:], terms[0]) if terms else MultiPoly.zero())
        return LaurentSeries(low, coeffs, K)

    def drop_constant(self) -> "EllipticElement":
        """Subtract the constant term of the Laurent expansion at 0."""
        return self - EllipticElement.const(self.to_series(1).coefficient(0))

    def text(self) -> str:
        chunks = []

        def mono(i, prime):
            s = ""
            if i == 1:
                s = "P"
            elif i > 1:
                s = f"P^{i}"
            if prime:
                s = (s + "*P'") if s else "P'"
            return s

        for i, prime, c in self.parts():
            m = mono(i, prime)
            body = c.text()
            if not m:
                chunks.append(body)
            elif body == "1":
                chunks.append(m)
            elif body == "-1":
                chunks.append(f"-{m}")
            elif " " in body:
                chunks.append(f"({body})*{m}")
            else:
                chunks.append(f"{body}*{m}")
        if not chunks:
            return "0"
        out = chunks[0]
        for ch in chunks[1:]:
            out += f" - {ch[1:]}" if ch.startswith("-") else f" + {ch}"
        return out
