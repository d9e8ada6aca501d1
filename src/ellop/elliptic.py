"""The ring Q(g2,g3)[P, P'] modulo (P')^2 = 4P^3 - g2*P - g3.

Elements are kept reduced to P'-degree at most one: part0(P) + part1(P)*P'.
Coefficients are polynomials (MultiPoly) in g2, g3 and the operator
parameters; the constructor takes MultiPolys and rationals, never
denominators in the parameters.
"""

from __future__ import annotations

from .rationals import Rat
from .poly import MultiPoly, as_multipoly
from .series import LaurentSeries, wp_power_coefficient


def _trim(lst):
    while lst and lst[-1].is_zero():
        lst.pop()
    return lst


def _poly_add(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else MultiPoly.zero()
        y = b[i] if i < len(b) else MultiPoly.zero()
        out.append(x + y)
    return _trim(out)


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [MultiPoly.zero() for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _wp_cubic():
    # 4P^3 - g2 P - g3 as a list in P
    return [
        -MultiPoly.var("g3"),
        -MultiPoly.var("g2"),
        MultiPoly.zero(),
        MultiPoly.const(4),
    ]


class EllipticElement:
    __slots__ = ("part0", "part1")

    def __init__(self, part0=(), part1=()):
        self.part0 = _trim([as_multipoly(c) for c in part0])
        self.part1 = _trim([as_multipoly(c) for c in part1])

    @classmethod
    def const(cls, c):
        return cls([c], [])

    @classmethod
    def P(cls):
        return cls([0, 1], [])

    @classmethod
    def Pprime(cls):
        return cls([], [1])

    @classmethod
    def zero(cls):
        return cls([], [])

    def is_zero(self):
        return not self.part0 and not self.part1

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, EllipticElement):
            other = EllipticElement.const(other)
        return EllipticElement(
            _poly_add(self.part0, other.part0), _poly_add(self.part1, other.part1)
        )

    __radd__ = __add__

    def __neg__(self):
        return EllipticElement([-c for c in self.part0], [-c for c in self.part1])

    def __sub__(self, other):
        if not isinstance(other, EllipticElement):
            other = EllipticElement.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return EllipticElement.const(other) - self

    def __mul__(self, other):
        if not isinstance(other, EllipticElement):
            other = EllipticElement.const(other)
        a0, a1, b0, b1 = self.part0, self.part1, other.part0, other.part1
        p0 = _poly_add(_poly_mul(a0, b0), _poly_mul(_poly_mul(a1, b1), _wp_cubic()))
        p1 = _poly_add(_poly_mul(a0, b1), _poly_mul(a1, b0))
        return EllipticElement(p0, p1)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers not supported in the elliptic ring")
        out = EllipticElement.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, EllipticElement):
            other = EllipticElement.const(other)
        return (self - other).is_zero()

    def derivative(self) -> "EllipticElement":
        """d/dz with P -> P', P' -> 6P^2 - g2/2, reduced to P'-degree <= 1."""
        # (f(P) + g(P) P')' = f'(P) P' + g'(P) (P')^2 + g(P) P''
        d0 = []
        d1 = [c * Rat(i + 1) for i, c in enumerate(self.part0[1:])]
        gP = self.part1
        dg = [c * Rat(i + 1) for i, c in enumerate(gP[1:])]
        d0 = _poly_mul(dg, _wp_cubic())
        ppp = [MultiPoly.var("g2") * Rat(-1, 2), MultiPoly.zero(), MultiPoly.const(6)]
        d0 = _poly_add(d0, _poly_mul(gP, ppp))
        return EllipticElement(d0, d1)

    def substitute(self, mapping) -> "EllipticElement":
        return EllipticElement(
            [c.substitute(mapping) for c in self.part0],
            [c.substitute(mapping) for c in self.part1],
        )

    def to_series(self, K: int) -> LaurentSeries:
        """The Laurent expansion at z = 0, exact through z^(K-1).

        Each coefficient is one sum over the nonzero parts: part coefficient
        times the coefficient of P^i or P^i P' (``wp_power_coefficient``,
        made once per process).  The series starts at the deepest pole of a
        nonzero part, -2i or -2i-3, or at K if that is lower."""
        parts = [(c, i, 0) for i, c in enumerate(self.part0) if not c.is_zero()]
        parts += [(c, i, 1) for i, c in enumerate(self.part1) if not c.is_zero()]
        low = min([K] + [-2 * i - 3 * prime for _, i, prime in parts])
        coeffs = []
        for k in range(low, K):
            terms = [c * w for c, i, prime in parts
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

        for part, prime in ((self.part0, False), (self.part1, True)):
            for i, c in enumerate(part):
                if c.is_zero():
                    continue
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

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"EllipticElement({self.text()})"
