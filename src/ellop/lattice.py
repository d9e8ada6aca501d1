"""Numerical Weierstrass functions on a lattice Z + tau*Z.

make_lattice reduces tau once to tau' in the SL2(Z) fundamental domain, with
Z + tau*Z = mu*(Z + tau'*Z), so that wp(z) = mu^-2 wp(z/mu; tau') and
wp'(z) = mu^-3 wp'(z/mu; tau') (DLMF 23.18).  On the reduced lattice a short
fixed float64 theta series gives wp and wp' as theta quotients (DLMF 23.6);
near the pole the truncated Laurent series takes over.  wp01 is the one
evaluator: it reads (wp, wp') at a point, and wp_derivative gives the
derivatives of order two to five from that pair by the algebraic recurrences
implied by the defining relation, never by numerical differentiation.  A
point within 1e-8 shortest periods of a lattice point is a pole (near_pole).
Only the invariants g2, g3 are computed in extended precision, in stdlib
decimal, once per lattice.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from .series import wp_series_numeric


class InvalidLatticeError(ValueError):
    pass


class NearPoleError(ValueError):
    pass


# The Eisenstein series aims at _DPS digits: it stops at the first |q^n|
# below _BREAK, and runs in decimal with 10 guard digits and pi to 50
# decimal places.
_DPS = 30
_PI = Decimal("3.14159265358979323846264338327950288419716939937511")
_BREAK = Decimal(10) ** (-_DPS - 5)
_TINY = Decimal(10) ** (-_DPS - 10)
# After reduction |q| = e^(-2 pi Im tau') <= e^(-pi sqrt 3) ~ 0.0043, so
# |q|^n drops below 10^-(_DPS+5) by n = 15.
_EISENSTEIN_TERMS = 16
_SERIES_TERMS = 80
# After reduction the n-th theta term is at most e^(-pi Im tau' n^2) times the
# first (see _wp01_theta), and Im tau' >= sqrt(3)/2: the first omitted term,
# n = 6, is below e^-97 even with the factor (2n+1)^3 of the third derivative.
_THETA_TERMS = 6
_ODD = tuple((2 * n + 1, (2 * n + 1) ** 2, (2 * n + 1) ** 3) for n in range(_THETA_TERMS))
# per-call constants of _wp01_theta, made once by the same expressions
_TWO_I_N = tuple(2j * n for n in range(_THETA_TERMS))
_PI2 = math.pi**2
_PI3 = math.pi**3
# Boundary points of the fundamental domain (|tau| = 1, Re tau = +-1/2) stay
# where they are, with mu = 1, when they are off by rounding only.
_EDGE = Fraction(1, 10**12)
# Each inversion is a step of Gauss's lattice reduction, which takes
# O(log 1/Im tau) steps: about 250 for the smallest positive Im tau a float
# holds.
_MAX_REDUCTION_STEPS = 1000


@dataclass(frozen=True)
class Lattice:
    tau: complex
    g2: complex
    g3: complex
    shortest: float               # norm of the shortest nonzero period
    tau_reduced: complex          # tau' in the SL2(Z) fundamental domain
    mu: complex                   # Z + tau*Z = mu*(Z + tau'*Z)
    theta_exponents: tuple        # log (-1)^n p^(n(n+1)), p = e^(i pi tau')
    wp_shift: complex             # pi^2 theta1'''(0) / (3 theta1'(0)) at tau'
    wp_laurent: tuple             # wp(w; tau') coefficients of w^-2, w^-1, ...


def _check_tau(tau) -> complex:
    tau = complex(tau)
    if not cmath.isfinite(tau):
        raise InvalidLatticeError("tau must be finite")
    if tau.imag <= 0:
        raise InvalidLatticeError("tau must have positive imaginary part")
    return tau


def _reduce(tau: complex):
    """(tau', mu) with tau' in the fundamental domain and
    Z + tau*Z = mu*(Z + tau'*Z).

    The float tau is taken as exact and the unimodular (a, b; c, d) with
    tau' = (a tau + b)/(c tau + d) and mu = c tau + d is found in rational
    arithmetic, so that thin lattices lose nothing to cancellation and tau',
    mu are correctly rounded.
    """
    x, y = Fraction(tau.real), Fraction(tau.imag)
    a, b, c, d = 1, 0, 0, 1
    for _ in range(_MAX_REDUCTION_STEPS):
        # tau' = ((a x + b) + i a y) / ((c x + d) + i c y)
        num, den = a * x + b, c * x + d
        den2 = den * den + (c * y) ** 2
        re = (num * den + a * c * y * y) / den2
        if abs(re) > Fraction(1, 2) + _EDGE:
            n = round(re)                   # the same lattice
            a, b, num, re = a - n * c, b - n * d, num - n * den, re - n
        if num * num + (a * y) ** 2 >= (1 - _EDGE) ** 2 * den2:
            try:
                return complex(re, y / den2), complex(den, c * y)
            except OverflowError:
                raise InvalidLatticeError(f"tau = {tau} is too thin: Im tau' is "
                                          "beyond the float range") from None
        a, b, c, d = -c, -d, a, b           # tau' -> -1/tau'
    raise InvalidLatticeError(f"tau did not reduce in {_MAX_REDUCTION_STEPS} steps")


def _cis(x: Decimal):
    """(cos x, sin x) for |x| <= 4: the Taylor series of e^(ix), summed on
    (re, im) pairs until a term is below _TINY."""
    re, im = t_re, t_im = Decimal(1), Decimal(0)
    k = 0
    while abs(t_re) + abs(t_im) >= _TINY:
        k += 1
        t_re, t_im = -t_im * x / k, t_re * x / k
        re, im = re + t_re, im + t_im
    return re, im


def _mul(a, b):
    """Product of two complex numbers held as (re, im) pairs."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _invariants(tau_r: complex, mu: complex):
    """(g2, g3) of mu*(Z + tau_r*Z) via normalized Eisenstein q-series at the
    reduced tau_r, scaled by mu^-4 and mu^-6, in _DPS + 10 decimal digits;
    InvalidLatticeError when either is beyond the float range."""
    with localcontext(Context(prec=_DPS + 10)):
        r = (-2 * _PI * Decimal(tau_r.imag)).exp()          # |q|
        c, s = _cis(2 * _PI * Decimal(tau_r.real))
        q = qn = (r * c, r * s)
        rn = r                                               # |q^n|
        e4, e6 = [Decimal(1), Decimal(0)], [Decimal(1), Decimal(0)]
        for n in range(1, _EISENSTEIN_TERMS + 1):
            if rn < _BREAK:
                break
            # q^n / (1 - q^n) = (q^n - |q^n|^2) / |1 - q^n|^2
            d2 = 1 - 2 * qn[0] + rn * rn
            for i, t in enumerate(((qn[0] - rn * rn) / d2, qn[1] / d2)):
                e4[i] += 240 * n**3 * t
                e6[i] -= 504 * n**5 * t
            qn, rn = _mul(qn, q), rn * r
        else:
            raise ArithmeticError(f"Eisenstein series at tau = {tau_r} did not converge")
        m2 = Decimal(mu.real) ** 2 + Decimal(mu.imag) ** 2
        w = (Decimal(mu.real) / m2, -Decimal(mu.imag) / m2)  # 1/mu
        w2 = _mul(w, w)
        w4 = _mul(w2, w2)
        # + 0.0 turns the -0 that the sign rules leave in a zero part into 0
        g2 = complex(*(float(4 * _PI**4 / 3 * v) + 0.0 for v in _mul(e4, w4)))
        g3 = complex(*(float(8 * _PI**6 / 27 * v) + 0.0 for v in _mul(e6, _mul(w4, w2))))
    if not (cmath.isfinite(g2) and cmath.isfinite(g3)):
        raise InvalidLatticeError(f"the lattice mu*(Z + tau'*Z) with tau' = {tau_r}, "
                                  f"mu = {mu} is too thin: g2 or g3 is beyond "
                                  "the float range")
    return g2, g3


def lattice_invariants(tau: complex):
    """(g2, g3) of Z + tau*Z via normalized Eisenstein q-series."""
    return _invariants(*_reduce(_check_tau(tau)))


def make_lattice(tau: complex) -> Lattice:
    tau = _check_tau(tau)
    tau_r, mu = _reduce(tau)
    g2, g3 = _invariants(tau_r, mu)
    shortest = abs(mu) * min(
        abs(m + n * tau_r)
        for m in (-1, 0, 1)
        for n in (-1, 0, 1)
        if (m, n) != (0, 0)
    )
    # theta1(v) = 2 p^(1/4) sum_n (-1)^n p^(n(n+1)) sin((2n+1)v); the common
    # factor p^(1/4) cancels in every quotient and would underflow first
    exponents = tuple(1j * math.pi * (tau_r * n * (n + 1) + n) for n in range(_THETA_TERMS))
    weights = [cmath.exp(e) for e in exponents]
    d1 = sum(w * k for w, (k, _, _) in zip(weights, _ODD))
    d3 = -sum(w * k3 for w, (_, _, k3) in zip(weights, _ODD))
    laurent = wp_series_numeric(_SERIES_TERMS, g2 * mu**4, g3 * mu**6)
    return Lattice(
        tau, g2, g3, shortest, tau_r, mu, exponents,
        math.pi**2 * d3 / (3 * d1),
        tuple(laurent.get(k, 0j) for k in range(-2, max(laurent) + 1)),
    )


HEX_TAU = complex(-0.5, math.sqrt(3) / 2)  # the hexagonal (equianharmonic) cell


def reduce_to_cell(z: complex, lat: Lattice) -> complex:
    """Minimal-norm representative of z modulo the lattice.

    z/mu is rounded to the nearest point w0 of the reduced parallelogram
    grid; when |w0| < 0.49 that is the answer, and otherwise the shortest
    of w0 and its eight neighbours w0 - m - n*tau' is."""
    tau = lat.tau_reduced
    w = complex(z) / lat.mu
    b = w.imag / tau.imag
    a = w.real - b * tau.real
    w0 = w - round(a) - round(b) * tau
    # tau' is in the fundamental domain up to _EDGE, so every nonzero period
    # m + n*tau' has norm at least 1 - 1e-11; below 0.49, w0 is then
    # strictly shorter than every other candidate, which have norm above 0.5
    if abs(w0) < 0.49:
        return lat.mu * w0
    best = w0
    for m in (-1, 0, 1):
        for n in (-1, 0, 1):
            cand = w0 - m - n * tau
            if abs(cand) < abs(best):
                best = cand
    return lat.mu * best


def _wp01_theta(z: complex, lat: Lattice):
    """(wp, wp') by theta quotients on the reduced lattice; z away from the
    lattice points."""
    tau = lat.tau_reduced
    w = complex(z) / lat.mu
    w -= round(w.imag / tau.imag) * tau
    w -= round(w.real)
    flip = w.imag < 0                   # wp is even, wp' odd
    if flip:
        w = -w
    # Now |Re w| <= 1/2 and 0 <= Im w <= Im tau'/2.  Times 2 e^(iv), v = pi w,
    # the n-th term of theta1 and its derivatives is a_n - b_n (sine) or
    # a_n + b_n (cosine) times a power of 2n+1, where
    # b_n = (-1)^n p^(n(n+1)) e^(-2inv) has modulus at most e^(-pi Im tau' n^2)
    # and a_n = b_n e^(2i(2n+1)v) is no larger, so nothing overflows.
    v = math.pi * w
    s = cmath.exp(2j * v)
    s2 = s * s
    sk = s
    s0 = c1 = s2_sum = c3 = 0j
    exp = cmath.exp
    for e, two_i_n, (k, k2, k3) in zip(lat.theta_exponents, _TWO_I_N, _ODD):
        b = exp(e - two_i_n * v)
        a = b * sk
        sk *= s2
        s0 += a - b
        c1 += k * (a + b)
        s2_sum += k2 * (a - b)
        c3 += k3 * (a + b)
    # theta1'/theta1 = i u, theta1''/theta1 = -r2, theta1'''/theta1 = -i c3/s0
    u = c1 / s0
    r2 = s2_sum / s0
    wp = _PI2 * (r2 - u * u) + lat.wp_shift
    wpp = 1j * _PI3 * (c3 / s0 - 3 * u * r2 + 2 * u**3)
    if flip:
        wpp = -wpp
    m = 1 / lat.mu
    return wp * m * m, wpp * m * m * m


def _wp01_series(z: complex, lat: Lattice):
    w = complex(z) / lat.mu
    wp = 0j
    wpp = 0j
    for k, c in enumerate(lat.wp_laurent, -2):
        if c:
            wk = w**k
            wp += c * wk
            wpp += k * c * wk / w
    m = 1 / lat.mu
    return wp * m * m, wpp * m * m * m


def near_pole(z0: complex, lat: Lattice) -> bool:
    """Is z0, a value of reduce_to_cell, within 1e-8 shortest periods of 0,
    that is, the point it stands for within that of a lattice point?  wp01
    raises NearPoleError there, and the many-body layer (cm) calls two such
    points coincident."""
    return abs(z0) < 1e-8 * lat.shortest


def wp01(z: complex, lat: Lattice):
    """(wp(z), wp'(z)): the Laurent series below 0.1 of the shortest period
    from the nearest lattice point, theta quotients elsewhere; NearPoleError
    within 1e-8 of the shortest period from a lattice point."""
    z0 = reduce_to_cell(z, lat)
    if near_pole(z0, lat):
        raise NearPoleError(f"z is within 1e-8 of a lattice point, in units "
                            f"of the shortest period: {z}")
    if abs(z0) < 0.1 * lat.shortest:
        return _wp01_series(z0, lat)
    return _wp01_theta(z0, lat)


def wp_eval(z: complex, lat: Lattice, d: int = 0) -> complex:
    """wp^(d)(z) for 0 <= d <= 5, absolute accuracy about 1e-10 in units
    where the shortest period is 1, for every tau.  The rounding of z itself,
    about 1e-16*|z|, adds to this when z lies many shortest periods out."""
    return wp_derivative(*wp01(z, lat), lat.g2, d)


def wp_derivative(wp: complex, wpp: complex, g2: complex, d: int) -> complex:
    """wp^(d) at a point, 0 <= d <= 5, from (wp, wp') there as wp01 reads
    them: wp'' = 6 wp^2 - g2/2 and its derivatives.  A caller that needs
    several orders at one point reads the pair once and calls this for each."""
    if not 0 <= d <= 5:
        raise ValueError("derivative order must be 0..5")
    if d == 0:
        return wp
    if d == 1:
        return wpp
    w2 = 6 * wp**2 - g2 / 2
    if d == 2:
        return w2
    if d == 3:
        return 12 * wp * wpp
    if d == 4:
        return 12 * wpp**2 + 12 * wp * w2
    return 36 * wpp * w2 + 12 * wp * (12 * wp * wpp)
