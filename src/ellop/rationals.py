"""Exact rational scalars.

Rational scalars (indicial values, coefficients handed in and out of the
polynomial layer) are ``Rat``, the stdlib ``fractions.Fraction``.
Polynomials keep their coefficients as integers (see ``poly``), so scalar
arithmetic is a small share of the exact layer's time.
"""

from fractions import Fraction

Rat = Fraction
BACKEND = "fractions"

ZERO = Rat(0)
ONE = Rat(1)


def as_rat(x):
    """Coerce ints, Fractions and strings like "3/4"."""
    if isinstance(x, Rat):
        return x
    if isinstance(x, (int, str)):
        return Rat(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


def rat_str(x) -> str:
    """Serialize as "p/q", or just "p" for integers."""
    n, d = x.numerator, x.denominator
    return f"{n}" if d == 1 else f"{n}/{d}"
