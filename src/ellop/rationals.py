"""Exact rational scalars.

Rational scalars (indicial values, coefficients handed in and out of the
polynomial layer) are ``Rat``: gmpy2's ``mpq`` when gmpy2 is importable,
the stdlib ``fractions.Fraction`` otherwise.  Set ``ELLOP_PURE_RATIONAL=1``
to force the stdlib backend.  Polynomials keep their coefficients as
integers (see ``poly``), so the backend only affects scalar arithmetic.
"""

import math
import os
from fractions import Fraction

if os.environ.get("ELLOP_PURE_RATIONAL") == "1":
    Rat = Fraction
    BACKEND = "fractions"
else:
    try:
        from gmpy2 import mpq as Rat

        BACKEND = "gmpy2"
    except ImportError:  # pragma: no cover
        Rat = Fraction
        BACKEND = "fractions"

ZERO = Rat(0)
ONE = Rat(1)


def as_rat(x):
    """Coerce ints, Fractions, strings like "3/4", and backend rationals."""
    if isinstance(x, Rat):
        return x
    if isinstance(x, (int, Fraction)):
        return Rat(x)
    if isinstance(x, str):
        return Rat(Fraction(x))
    if hasattr(x, "numerator") and hasattr(x, "denominator"):
        return Rat(int(x.numerator), int(x.denominator))
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


def rat_str(x) -> str:
    """Serialize as "p/q", or just "p" for integers."""
    n, d = x.numerator, x.denominator
    return f"{n}" if d == 1 else f"{n}/{d}"


def falling_factorial(s, k: int):
    """s(s-1)...(s-k+1) as an exact rational; 1 for k=0."""
    out = ONE
    for j in range(k):
        out *= s - j
    return out


def sqrt_exact(x):
    """Exact square root of a nonnegative rational, or None."""
    x = as_rat(x)
    if x < 0:
        return None
    n, d = int(x.numerator), int(x.denominator)
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Rat(rn, rd)
    return None
