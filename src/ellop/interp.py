"""Exact rational-function interpolation in one variable, with no degree bound.

Samples are read one at a time into Thiele's continued fraction
(Milne-Thomson, *The Calculus of Finite Differences*, 1933, ch. V)

    f(q) = a0 + (q - x0) / (a1 + (q - x1) / (a2 + ...)),

whose coefficient a_k is the k-th inverse difference at the node x_k.  A new
sample (x, v) passes through phi_0 = v and phi_k = (x - x_{k-1}) /
(phi_{k-1} - a_{k-1}).  phi_k = a_k means that the convergent ending at a_k
already fits the sample.  When that is the deepest convergent, the sample
confirms it; after ``_CONFIRM`` confirmations in a row the data show the
function is found, and reading stops (early termination, Kaltofen and Yang,
ISSAC 2007).  When only a shallower convergent fits, the next inverse
difference would be infinite: the sample is read, not used.  Otherwise phi
one level past the deepest becomes a new coefficient with x as its node.

The result is checked against every sample read.  If R = A/B fits m
distinct samples of f = P/Q, then PB - AQ vanishes at all m.  Reading stops
with n + 1 nodes and at least _CONFIRM confirmations, so m >= n + 1 +
_CONFIRM, while deg A <= ceil(n/2) and deg B <= floor(n/2).  When deg P and
deg Q are at most _CONFIRM, deg(PB - AQ) < m, so R = f: such a function is
never mistaken.
"""

from __future__ import annotations

from .rationals import as_rat
from .poly import MultiPoly, RatFunc

#: consecutive samples the deepest convergent must fit before reading stops
_CONFIRM = 3
#: samples read before giving up
_MAX_SAMPLES = 200


class ReconstructionError(ArithmeticError):
    """No rational function could be recovered from the samples."""


def rational_interpolate(samples) -> RatFunc:
    """The rational function of q through an iterable of exact (q0, value)
    samples with distinct q0, read lazily until ``_CONFIRM`` samples in a
    row confirm it.

    Raises ReconstructionError if the samples run out first, if
    ``_MAX_SAMPLES`` are read without confirmation, or if the result misses
    a sample.
    """
    xs, coeffs, read = [], [], {}
    run = 0
    for x, v in samples:
        x, v = as_rat(x), as_rat(v)
        if x in read:
            raise ValueError("sample abscissae must be distinct")
        read[x] = v
        phi = v
        for k, (xk, ak) in enumerate(zip(xs, coeffs)):
            if phi == ak:
                # the convergent ending at a_k fits x; only the deepest counts
                run = run + 1 if k == len(xs) - 1 else 0
                break
            phi = (x - xk) / (phi - ak)
        else:
            xs.append(x)
            coeffs.append(phi)
            run = 0
        if run == _CONFIRM:
            break
        if len(read) == _MAX_SAMPLES:
            raise ReconstructionError(f"no rational function confirmed by {len(read)} samples")
    else:
        raise ReconstructionError(f"samples ran out after {len(read)} without confirmation")
    # three-term recurrence for the convergent's numerator and denominator
    q = MultiPoly.var("q")
    num_prev, num = MultiPoly.const(1), MultiPoly.const(coeffs[0])
    den_prev, den = MultiPoly.zero(), MultiPoly.const(1)
    for k in range(1, len(coeffs)):
        step = q - xs[k - 1]
        num_prev, num = num, num * coeffs[k] + num_prev * step
        den_prev, den = den, den * coeffs[k] + den_prev * step
    try:
        f = RatFunc(num, den)
        if any(f.evaluate_exact({"q": x}) != v for x, v in read.items()):
            raise ReconstructionError("interpolant misses a sample point")
    except ZeroDivisionError as exc:
        raise ReconstructionError("interpolant has a pole at a sample") from exc
    return f
