"""Power-series obstruction engine for local monodromy.

A monic operator with integer indices has trivial local monodromy iff the
Frobenius recursion, run from each index with a symbolic spectral parameter,
produces no obstruction at any resonance.  Obstructions are polynomials in
the operator parameters, the spectral parameter, and the free parameters
introduced at earlier resonances; the locus conditions are their
coefficients with those auxiliary variables stripped off.

``obstruction_conditions`` is the one path from an operator to them:
``trivial_monodromy_constraints`` runs it from every index but the last,
``locus3.constraints_for`` from the gap family's middle index alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .rationals import Rat, ZERO, as_rat, falling_factorial
from .poly import MultiPoly, as_multipoly, sort_vars, sum_of_products
from .series import LaurentSeries, TruncationError
from .operators import IndexData, LocalOperator, _homogeneous_horner, homogeneous_integrable


@dataclass(frozen=True)
class Condition:
    poly: MultiPoly          # content 1, positive leading coefficient
    lambda_degree: int
    provenance: tuple        # (order n, index, resonance offset)


@dataclass(frozen=True)
class ConstraintSet:
    """Parameter conditions cutting out an integrability locus (immutable)."""

    n: int
    conditions: tuple = ()
    unsatisfiable: bool = False
    reason: str | None = None
    q: int | None = None
    r: int | None = None

    def satisfied(self) -> bool:
        """For constant conditions: does the data lie on the locus?"""
        if self.unsatisfiable:
            return False
        return all(c.poly.is_zero() for c in self.conditions)

    def to_json(self) -> str:
        doc = {"n": self.n}
        if self.q is not None:
            doc["q"] = self.q
        if self.r is not None:
            doc["r"] = self.r
        if self.unsatisfiable:
            doc["unsatisfiable"] = True
            if self.reason:
                doc["reason"] = self.reason
        doc["conditions"] = [
            {"lambda_degree": c.lambda_degree, "poly": c.poly.text()}
            for c in self.conditions
        ]
        return json.dumps(doc)


@dataclass
class FrobeniusSolution:
    psi: LaurentSeries       # 1 + sum f_k z^k; the solution is z^m * psi
    obstructions: list       # (offset k, MultiPoly inhomogeneous term)
    free_parameters: list    # names of parameters introduced at resonances


def _horner(coeffs, x):
    v = ZERO
    for c in reversed(coeffs):
        v = v * x + c
    return v


def _indicial_values(P, m, K: int):
    """[P(m + k) for k = 0..K] for rational coefficients P, low to high, and
    rational m = p/q: each value is one integer Horner over the common
    denominator D of P, as D q^d P((p + kq)/q) / (D q^d), d = deg P."""
    den = math.lcm(*(c.denominator for c in P))
    p, q = m.numerator, m.denominator
    a = [c.numerator * (den // c.denominator) for c in P]
    scale = den * q ** (len(P) - 1)
    return [Rat(_homogeneous_horner(a, p + k * q, q), scale) for k in range(K + 1)]


def frobenius_solve(op: LocalOperator, m, K: int) -> FrobeniusSolution:
    """Run the recursion psi = z^m (1 + sum f_k z^k) up to order K.

    The spectral parameter is the symbol lambda.  At a resonant offset k
    (indicial value of m + k is zero) the inhomogeneous term is recorded as
    an obstruction and f_k becomes a fresh free parameter u1, u2, ...

    m may be any rational root.  The indicial values P(m + k) come from one
    integer Horner each (``_indicial_values``), the scale factor
    -(m + kp)(m + kp - 1)...(m + kp - n + i + 1) of a_i's coefficients
    against f_kp is made once per (kp, i), and the indicial roots are the
    operator's own (``LocalOperator.indicial_roots``).
    """
    m = as_rat(m)
    n = op.n
    values = _indicial_values(op.indicial_coefficients(), m, K)
    if values[0] != 0:
        raise ValueError(f"{m} is not an indicial root")
    # refuse truncations that cannot see every resonance
    offsets = [int(rt - m) for rt in op.indicial_roots()
               if (rt - m).denominator == 1 and rt > m]
    if offsets and K < max(offsets):
        raise TruncationError(
            f"K={K} below deepest resonance offset {max(offsets)}"
        )
    # scale[kp][i] multiplies the coefficients of a_i against f_kp
    scale = [{i: -falling_factorial(m + kp, n - i) for i in range(2, n + 1)}
             for kp in range(K)]
    # f_k is the free parameter u1, u2, ... at each resonant offset k, so
    # every coefficient, lambda and f_k lives over one universe, made here
    resonances = [k for k in range(1, K + 1) if values[k] == 0]
    free = [f"u{i}" for i in range(1, len(resonances) + 1)]
    universe = sort_vars(("lambda", *free) + tuple(v for a_i in op.coeffs.values()
                                                  for c in a_i.coeffs for v in c.vars))
    lam = MultiPoly.var("lambda").in_universe(universe)
    one = MultiPoly.const(1, universe)
    f = {0: one}
    for k, name in zip(resonances, free):
        f[k] = MultiPoly.var(name).in_universe(universe)
    # (i, j) -> the nonzero coefficient of z^j in a_i, through z^(K-i); the
    # leading z^-i terms are the indicial polynomial's
    local = {(i, j): A for i, a_i in op.coeffs.items()
             for j in range(a_i.low, K - i + 1) if j != -i
             if (A := a_i.coefficient(j).in_universe(universe)).terms}
    obstructions = []
    for k in range(1, K + 1):
        # f_k * indicial(m + k) = sum over earlier kp of (scaled a_i
        # coefficients) * f_kp, each f_kp multiplied once; at a resonance
        # the sum is the obstruction
        scaled = {}  # kp -> [(s, A, one)]
        for (i, j), A in local.items():
            if j <= k - i:
                scaled.setdefault(k - i - j, []).append((scale[k - i - j][i], A, one))
        if k >= n:
            scaled.setdefault(k - n, []).append((1, lam, one))
        triples = [(1, sum_of_products(universe, group), f[kp])
                   for kp, group in scaled.items()]
        if values[k]:
            f[k] = sum_of_products(universe, triples, values[k])
        else:
            obstructions.append((k, sum_of_products(universe, triples)))
    psi = LaurentSeries(0, [f[k] for k in range(K + 1)], K + 1)
    return FrobeniusSolution(psi, obstructions, free)


def _split_coefficients(poly: MultiPoly, names):
    """All coefficients of poly w.r.t. monomials in names: {expo: MultiPoly}."""
    out = {(): poly}
    for nm in names:
        new = {}
        for key, p in out.items():
            for d, c in p.coefficients_in(nm).items():
                new[key + (d,)] = c
        out = new
    return out


def obstruction_conditions(op: LocalOperator, starts, top) -> tuple:
    """The conditions of the recursion run from each index m in starts to
    the offset top - m: every nonzero coefficient of every obstruction
    with respect to the spectral parameter and the free resonance
    parameters, made primitive, by descending exponents, each value kept
    once at its first occurrence."""
    conditions = []
    seen = set()  # MultiPoly ==/hash ignore unused universe variables
    for m in starts:
        sol = frobenius_solve(op, m, int(top - m))
        for offset, obs in sol.obstructions:
            pieces = _split_coefficients(obs, ["lambda"] + sol.free_parameters)
            for expo in sorted(pieces, reverse=True):
                p = pieces[expo]
                if p.is_zero():
                    continue
                p = p.primitive()
                if p in seen:
                    continue
                seen.add(p)
                conditions.append(Condition(p, expo[0], (op.n, m, offset)))
    return tuple(conditions)


def trivial_monodromy_constraints(op: LocalOperator) -> ConstraintSet:
    """Conditions on the operator parameters for trivial local monodromy.

    The recursion runs from every index but the last, up to the last
    (``obstruction_conditions``).  The free-parameter coefficients of an
    obstruction reproduce obstructions of higher indices, so stripping them
    this way cuts out exactly the trivial-monodromy locus.  Fewer than n
    rational indicial roots, or indices that fail
    ``homogeneous_integrable``, give an unsatisfiable set.
    """
    n = op.n
    roots = op.indicial_roots()
    if len(roots) < n:
        return ConstraintSet(n, unsatisfiable=True, reason="non-rational indices")
    idx = IndexData(roots)
    ok, reason = homogeneous_integrable(idx, n)
    if not ok:
        return ConstraintSet(n, unsatisfiable=True, reason=reason)
    *starts, top = idx.indices
    return ConstraintSet(n, obstruction_conditions(op, starts, top))


def second_order_conditions(m: int, u: LaurentSeries) -> ConstraintSet:
    """Conditions for trivial monodromy of d^2 + u with a -m(m+1)/z^2 pole:
    the odd Laurent coefficients of u through exponent 2m - 1."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    want = MultiPoly.const(Rat(-m * (m + 1)))
    if not (u.coefficient(-2) - want).is_zero():
        raise ValueError("principal part must be -m(m+1)/z^2")
    if not u.coefficient(-1).is_zero():
        raise ValueError("1/z term must vanish")
    conditions = []
    for j in range(1, 2 * m, 2):
        cj = u.coefficient(j)
        if cj.is_zero():
            continue
        conditions.append(Condition(cj.primitive(), 0, (2, Rat(-m), j + 2)))
    return ConstraintSet(2, tuple(conditions))


def two_gap_conditions(a_coeffs, b_coeffs) -> ConstraintSet:
    """Conditions for gaps (2,2): a(z) = sum a_k z^(k-2), b(z) = sum
    b_k z^(k-3), normalized a0 = -3, b0 = 3 (indices -1, 1, 3)."""
    a = [as_multipoly(x) for x in a_coeffs]
    b = [as_multipoly(x) for x in b_coeffs]
    if len(a) < 5 or len(b) < 5:
        raise ValueError("need coefficients a0..a4 and b0..b4")
    if not (a[0] - Rat(-3)).is_zero() or not (b[0] - Rat(3)).is_zero():
        raise ValueError("principal parts must be a0 = -3, b0 = 3")
    raw = [
        (a[1], 2),
        (b[2], 2),
        (a[2] * 3 + b[1] * b[1], 2),
        (b[4] * 3 - a[4] * 3 - b[1] * a[3], 4),
    ]
    conditions = []
    for p, offset in raw:
        if p.is_zero():
            continue
        conditions.append(Condition(p.primitive(), 0, (3, Rat(-1), offset)))
    return ConstraintSet(3, tuple(conditions))
