"""Power-series obstruction engine for local monodromy.

A monic operator with integer indices has trivial local monodromy iff the
Frobenius recursion, run from each index with a symbolic spectral parameter,
produces no obstruction at any resonance.  Obstructions are polynomials in
the operator parameters, the spectral parameter, and the free parameters
introduced at earlier resonances; the locus conditions are their
coefficients with those auxiliary variables stripped off.

Each engine has one entry, from an operator and an index to the
conditions.  ``obstruction_conditions(op, m, top)`` runs the recursion over
a local operator's Laurent series in z, and ``trivial_monodromy_constraints``
runs it once, from the lowest index to the highest.
``algebraic_conditions(L, m, top)`` runs it over a one-pole operator's
coefficients in x = P, y = P', where the recursion is a band;
``locus3.constraints_for`` runs it from the gap family's middle index.
Each engine writes the recursion's coefficients as integer templates in the
index eps (one in z, one per parity of eps in x), and one row builder,
``_template_rows``, reads the rows from them for one slot engine,
``_slot_passes``, from whose obstructions one reader,
``_split_coefficients``, reads the conditions.  The engine's second pass is
a generator that holds only the band of earlier coefficients that a later
row reads, and both entries keep only the obstructions.  ``frobenius_solve``
keeps every f_k of a z run; no program path runs it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

from .rationals import ONE, Rat, ZERO, as_rat
from .poly import (_BITS, _MASK, WEIGHTS, MultiPoly, as_multipoly, product_terms, reduced,
                   sort_vars, weight_function)
from .series import LaurentSeries
from .operators import IndexData, LocalOperator, _falling, homogeneous_integrable


@dataclass(frozen=True)
class Condition:
    poly: MultiPoly          # content 1, positive leading coefficient
    lambda_degree: int


@dataclass(frozen=True)
class ConstraintSet:
    """Parameter conditions cutting out an integrability locus (immutable).
    Each condition is nonzero, so a point lies on the locus iff
    ``locus3.substitute_constraints`` leaves no condition there."""

    n: int
    conditions: tuple = ()
    q: int | None = None
    r: int | None = None

    def __post_init__(self):
        if any(c.poly.is_zero() for c in self.conditions):
            raise ValueError("a condition of a constraint set is zero")

    def to_json(self) -> str:
        doc = {"n": self.n}
        if self.q is not None:
            doc["q"] = self.q
        if self.r is not None:
            doc["r"] = self.r
        doc["conditions"] = [
            {"lambda_degree": c.lambda_degree, "poly": c.poly.text()}
            for c in self.conditions
        ]
        return json.dumps(doc)


def _field(universe, name) -> int:
    """The shift of name's exponent field in a packed key over universe."""
    return _BITS * (len(universe) - 1 - universe.index(name))


def _key_mask(universe, implicit) -> int:
    """The mask that clears the lambda field of a packed key over universe,
    and the field of the implicit variable if there is one."""
    mask = -1 ^ (_MASK << _field(universe, "lambda"))
    return mask if implicit is None else mask ^ (_MASK << _field(universe, implicit))


class _LambdaSlots:
    """The layout of the Frobenius recursion's coefficients over one
    universe (see ``_slot_passes``).

    A polynomial is a dict from keys to ints.  A key is a universe key whose
    lambda field is zero (``_key_mask``), and so is the field of the
    implicit variable v when there is one.  The int holds the key's
    polynomial in lambda, c_0 + c_1 lambda + ..., as sum c_d 2^(s d): each
    c_d sits in a signed s-bit slot, which reads it back exactly when
    |c_d| < 2^(s-1).  v's exponent is restored from the weight: in a term of
    weight w, lambda degree d and key weight w', it is
    (w - w' - n d) / weight(v), lambda weighing n.
    """

    def __init__(self, universe, s: int, n: int, implicit, weights: dict):
        self.universe = universe
        self.s = s
        self.n = n
        self.implicit = implicit
        if implicit is not None:
            self.v = _field(universe, implicit)
            self.v_weight = weights[implicit]
            self.weight = weight_function(universe, weights)

    def _read(self, numerators: dict, weight: int):
        """(key, lambda degree d, c) for every nonzero slot c of
        `numerators`, key by key and d ascending, the implicit variable's
        exponent restored for terms of weight `weight`."""
        s = self.s
        full = 1 << s
        half = full >> 1
        for key, x in numerators.items():
            if self.implicit is not None:
                spare = weight - self.weight(key)
            d = 0
            while x:
                c = x & (full - 1)
                if c >= half:
                    c -= full
                if c:
                    x -= c
                    if self.implicit is None:
                        yield key, d, c
                    else:
                        yield key + (((spare - self.n * d) // self.v_weight) << self.v), d, c
                x >>= s
                d += 1

    def unpack(self, numerators: dict, denom: int, weight: int) -> MultiPoly:
        """The reduced MultiPoly of the slots `numerators` over denom, every
        term of weight `weight` if a variable is implicit."""
        lam = _field(self.universe, "lambda")
        return reduced(self.universe, {key + (d << lam): c
                                       for key, d, c in self._read(numerators, weight)}, denom)


@dataclass
class FrobeniusSolution:
    obstructions: list       # (offset k, MultiPoly inhomogeneous term)
    free_parameters: list    # names of parameters introduced at resonances
    slots: _LambdaSlots = field(repr=False)
    packed: list = field(repr=False)  # (numerators in slots, denominator) of every f_k


def _implicit_variable(graded, universe, params, weights: dict):
    """The least-weight operator parameter in params, first in universe
    order among equals, if every parameter has a weight and every key of
    each (weight w, keys) in graded is of weight w over universe; else
    None."""
    if not set(params) <= weights.keys():
        return None
    weight = weight_function(universe, weights)
    if any(weight(key) != w for w, keys in graded for key in keys):
        return None
    return min(params, key=weights.get, default=None)


def _slot_passes(n: int, values, rows, universe, free, implicit, weights: dict):
    """The recursion's two passes over the leading values and rows made by
    ``_template_rows``.

    values[k] is the rational leading value R_0(m + k) at step k, zero at a
    resonance; rows[k - 1] lists step k's coefficients (kp, Ĉ, E, has
    lambda), each Ĉ / E (+ lambda) multiplying the earlier coefficient
    g_kp, with Ĉ's keys cleared by ``_key_mask``.  A resonance's g_k is the
    next name in free.  Returns the ``_LambdaSlots`` layout and a generator
    of the second pass's steps, each (k, numerators, denominator of g_k,
    obstruction): the obstruction is (numerators, denominator) at a
    resonance and None elsewhere.

    Layout.  g_k is kept as N_k / D_k: N_k maps monomials in every variable
    but lambda (and the implicit one, if any) to one int, which holds their
    polynomial in lambda in s-bit slots, lambda -> 2^s (Kronecker
    substitution, ``_LambdaSlots``).  So one term product of the kernel's
    loop (``poly.product_terms``) multiplies a whole lambda-polynomial, and
    lambda times g_kp is g_kp moved up one slot.

    Slot width.  With values[k] = a / b, b > 0, the recursion is N_k = sum
    over kp of mu_kp Ĉ N_kp (+ mu_kp E lambda N_kp), where mu_kp = sign(a)
    b L_k / (E D_kp), L_k is the lcm over kp of E D_kp and D_k = |a| L_k;
    at a resonance the obstruction is the same sum with mu_kp = L_k /
    (E D_kp), over L_k.  No step reduces the content.  A coefficient of
    Ĉ N_kp sums at most one product per term of Ĉ, so it is at most
    |Ĉ|_1 max|N_kp| in size, and
        B_k = sum over kp of |mu_kp| (|Ĉ|_1 + [has lambda] E) B_kp,
        B_0 = B_u = 1,
    bounds every coefficient of N_k, and of each obstruction.  The first
    pass makes D_k and B_k without any product of g's; s is one more than
    the bit length of the largest B, so every slot reads back and none ever
    needs widening.  The second pass makes the products, every g_kp
    multiplied once per k.  It holds only its band: the first pass records
    the last step that reads each g_kp, the second drops g_kp after that
    step, and a g_k that no row reads, such as the x path's u1 at the top,
    is never held.  What the caller does not keep of the steps is freed
    as it goes."""
    K = len(rows)
    den = [1] * (K + 1)
    bound = [1] * (K + 1)
    last = [0] * (K + 1)  # the last step whose row reads g_kp, 0 if none
    largest = 1
    plan = []
    for k, row in enumerate(rows, 1):
        for kp, _, _, _ in row:
            last[kp] = k
        lcm = math.lcm(*(E * den[kp] for kp, _, E, _ in row))
        a, b = values[k].numerator, values[k].denominator  # b = 1 at a resonance
        sign_b = -b if a < 0 else b
        mults = [lcm // (E * den[kp]) * sign_b for kp, _, E, _ in row]
        B = sum(abs(mu) * (sum(map(abs, terms.values())) + (E if has_lambda else 0)) * bound[kp]
                for mu, (kp, terms, E, has_lambda) in zip(mults, row))
        largest = max(largest, B)
        if a:
            den[k], bound[k] = abs(a) * lcm, B
        plan.append((mults, lcm))
    slots = _LambdaSlots(universe, largest.bit_length() + 1, n, implicit, weights)

    def steps():
        one = {0: 1}
        band = {0: one}
        names = iter(free)
        for k, (row, (mults, lcm)) in enumerate(zip(rows, plan), 1):
            parts = []
            for mu, (kp, terms, E, has_lambda) in zip(mults, row):
                f = band[kp]
                parts.append((mu, terms, f))
                if has_lambda:
                    parts.append((mu * E, one, {key: x << slots.s for key, x in f.items()}))
                if last[kp] == k:
                    del band[kp]
            terms = product_terms(parts)
            obstruction = None
            if not values[k]:  # den[k] stays 1
                obstruction = terms, lcm
                terms = MultiPoly.var(next(names)).in_universe(universe).terms
            if last[k]:
                band[k] = terms
            yield k, terms, den[k], obstruction

    return slots, steps()


def _template_rows(templates, n: int, m, K: int, keep: int):
    """The leading values and rows for ``_slot_passes`` of the recursion
        g_k R_0(m + k) = -sum over kp < k of R_(k-kp)(m + kp) g_kp
                         + lambda g_(k-n)
    from k = 1 to K, read from one template of the R_j per residue of eps.

    For m = p/q and eps = t/q, (E, {j: {key: [c_0, ..., c_n]}}) =
    templates[t % len(templates)] gives R_j(eps) as the sum of (c_d / E)
    eps^d times the monomial key; R_0 is a constant.  Each template is
    scaled once to c_d q^(n-d) over E q^n, its keys cleared by keep, so
    R_j(eps) is one integer Horner at t per key.  Returns [R_0(m + k) for k
    = 0..K], and rows[k - 1], which lists by ascending kp each nonzero
    -R_(k-kp)(m + kp) (+ lambda when k - kp = n) as (kp, Ĉ, E', has
    lambda), Ĉ / E' in lowest terms."""
    p, q = m.numerator, m.denominator
    powers = [q ** (n - d) for d in range(n + 1)]
    scaled = [(E * powers[0], {j: [(key & keep, [c * s for c, s in zip(cs, powers)][::-1])
                                   for key, cs in row.items()] for j, row in table.items()})
              for E, table in templates]
    width = max([n, *(j for _, table in templates for j in table)])
    values = []
    rows = [[] for _ in range(K)]
    for kp in range(K + 1):
        t = p + kp * q
        E, table = scaled[t % len(scaled)]
        for j in range(min(width, K - kp) + 1):
            terms = {}
            for key, cs in table.get(j, ()):
                v = 0
                for c in cs:
                    v = v * t + c
                if v:
                    terms[key] = v
            if not j:
                values.append(Rat(terms.get(0, 0), E))
            elif terms or j == n:
                g = math.gcd(E, *terms.values())
                rows[kp + j - 1].append((kp, {key: -c // g for key, c in terms.items()}, E // g,
                                         j == n))
    return values, rows


def _laurent_passes(op: LocalOperator, m, K: int):
    """The recursion psi = z^m (1 + sum f_k z^k) from the index m to the
    offset K, as (free, slots, steps) of ``_slot_passes``.

    The spectral parameter is the symbol lambda, which the operator's
    coefficients may not use.  At a resonant offset k (m + k an indicial
    root) the inhomogeneous term is an obstruction and f_k is the next free
    parameter of free.  m may be any rational indicial root.  The operator
    maps z^eps to the sum over J of R_J(eps) z^(eps-n+J), where
        R_J(eps) = sum over i + j = J of A_(i,j) eps(eps-1)...(eps-n+i+1),
    A_(i,j) is the coefficient of z^j in a_i, through z^(K-i), and D^n is
    the term i = 0, A = 1; R_0 is the indicial polynomial.  These make one
    template, cleared to integers over the lcm of the A's denominators, and
    the f_k are the g_k of ``_template_rows``.  When every A_(i,j) is
    weighted-homogeneous of weight i + j under ``poly.WEIGHTS``, with
    lambda weighing n and each u the offset at which it enters, f_k is
    homogeneous of weight k, so the least-weight variable (e for the gap
    family) leaves the keys as well; otherwise only lambda is packed."""
    n = op.n
    # m is one of R_0's n roots, so at most n - 1 resonances lie above it;
    # lambda, every f_k and every coefficient live over one universe
    free = [f"u{i}" for i in range(1, n)]
    params = sort_vars(v for a_i in op.coeffs.values() for c in a_i.coeffs for v in c.vars
                       if v != "lambda")
    universe = sort_vars(("lambda", *free, *params))
    local = [(0, 0, MultiPoly.const(1, universe))]
    local += [(i, j, A) for i, a_i in op.coeffs.items() for j in range(a_i.low, K - i + 1)
              if (A := a_i.coefficient(j).in_universe(universe)).terms]
    lam = _MASK << _field(universe, "lambda")
    if any(key & lam for _, _, A in local for key in A.terms):
        raise ValueError("the operator's coefficients use the spectral parameter lambda")
    E = math.lcm(*(A.denom for _, _, A in local))
    table = {}
    for i, j, A in local:
        falling = [c.numerator * (E // A.denom) for c in _falling(n - i)]
        row = table.setdefault(i + j, {})
        for key, c in A.terms.items():
            slot = row.setdefault(key, [0] * (n + 1))
            for d, f in enumerate(falling):
                slot[d] += c * f
    if set(table[0]) != {0}:
        raise ValueError("indicial polynomial has symbolic coefficients")
    weights = {**WEIGHTS, "lambda": n}
    implicit = _implicit_variable(table.items(), universe, params, weights)
    values, rows = _template_rows([(E, table)], n, m, K, _key_mask(universe, implicit))
    if values[0]:
        raise ValueError(f"{m} is not an indicial root")
    weights.update(zip(free, (k for k in range(1, K + 1) if not values[k])))
    return (free, *_slot_passes(n, values, rows, universe, free, implicit, weights))


def frobenius_solve(op: LocalOperator, m, K: int) -> FrobeniusSolution:
    """The z run from the index m to the offset K (``_laurent_passes``)
    with every f_k kept in slots (``packed``) and each obstruction
    unpacked.  No program path reads the solution: the tests check the
    engine through it, and perfbench's ``monodromy.frobenius`` span hooks
    this name and counts the terms of ``obstructions``."""
    free, slots, steps = _laurent_passes(op, as_rat(m), K)
    packed = [({0: 1}, 1)]
    obstructions = []
    for k, g, D, obstruction in steps:
        packed.append((g, D))
        if obstruction:
            obstructions.append((k, slots.unpack(*obstruction, k)))
    return FrobeniusSolution(obstructions, free[:len(obstructions)], slots, packed)


def _split_coefficients(slots: _LambdaSlots, obstructions, free) -> list:
    """The conditions of one run's obstructions, each (offset k, numerators
    in slots, denominator), as [(``Condition``, its terms' weights)]; the
    run's resonance parameters are free.
    Each term goes to the group of its lambda degree and free fields, with
    those fields cleared, and each group is made primitive over the other
    variables.  Groups come by descending lambda degree, then free
    exponents in the order of free, and each value is kept once, at its
    first occurrence over the run."""
    universe = slots.universe
    fields = [_field(universe, name) for name in free]
    free_fields = sum(_MASK << f for f in fields)
    keep = ~free_fields
    rest = tuple(v for v in universe if v != "lambda" and v not in free)
    conditions = []
    seen = set()
    for k, numerators, _ in obstructions:
        groups = {}
        for key, d, c in slots._read(numerators, k):
            groups.setdefault((d, key & free_fields), {})[key & keep] = c
        for group in sorted(groups, reverse=True,
                            key=lambda g: (g[0], *((g[1] >> f) & _MASK for f in fields))):
            p, ws = reduced(universe, groups[group], 1).in_universe(rest).primitive_with_weights()
            if (h := frozenset(p.terms.items())) not in seen:
                seen.add(h)
                conditions.append((Condition(p, group[0]), ws))
    return conditions


def obstruction_conditions(op: LocalOperator, m, top) -> tuple:
    """The conditions of the recursion run from the index m to the offset
    top - m: every nonzero coefficient of every obstruction with respect to
    the spectral parameter and the free resonance parameters, made
    primitive, by descending exponents, each value kept once at its first
    occurrence (``_split_coefficients``).  Only the obstructions are kept,
    so each f_k lives only while a later row still reads it."""
    free, slots, steps = _laurent_passes(op, as_rat(m), int(top - m))
    obstructions = [(k, *obstruction) for k, _, _, obstruction in steps if obstruction]
    return tuple(c for c, _ in _split_coefficients(slots, obstructions, free))


# -- the recursion in x = P, y = P' -------------------------------------------
#
# A function near z = 0 is A(x) + y B(x), A and B Laurent in 1/x, over the
# basis phi_e = x^(-e/2) for even e and y x^(-(e+3)/2) for odd e; each
# phi_e is c_e z^e (1 + O(z^4)), c_e = 1 or -2.  With Q = y^2 =
# 4x^3 - g2 x - g3, D = d/dz, x = P and y = P' act on it as
#     D phi_s = -s/2 phi_(s-1)                                   (s even),
#     D phi_s = -2s phi_(s-1) + g2 (s+2)/2 phi_(s+3) + g3 (s+3)/2 phi_(s+5),
#     x phi_s = phi_(s-2),
#     y phi_s = phi_(s-3)                                        (s even),
#     y phi_s = 4 phi_(s-3) - g2 phi_(s+1) - g3 phi_(s+3)       (s odd).
# _STEPS holds each rule as (shift, a, b, g2 and g3 exponents): the term
# (a s + b) g2^i g3^j phi_(s+shift), by the parity of s.
_STEPS = {
    "D": ([(-1, Rat(-1, 2), 0, 0, 0)],
          [(-1, -2, 0, 0, 0), (3, Rat(1, 2), 1, 1, 0), (5, Rat(1, 2), Rat(3, 2), 0, 1)]),
    "x": ([(-2, 0, 1, 0, 0)], [(-2, 0, 1, 0, 0)]),
    "y": ([(-3, 0, 1, 0, 0)], [(-3, 0, 4, 0, 0), (1, 0, -1, 1, 0), (3, 0, -1, 0, 1)]),
}


@functools.cache
def _phi_form(parity: int, steps: str) -> tuple:
    """The operators in steps, rightmost first, applied to phi_eps for eps
    of the given parity, as (D, ((delta, d, i, j, c), ...)): the sum of
    (c / D) eps^d g2^i g3^j phi_(eps+delta), c an integer.  Made once per
    process."""
    form = {(0, 0, 0, 0): ONE}
    for step in reversed(steps):
        out = {}
        for (delta, d, i, j), c in form.items():
            for shift, a, b, di, dj in _STEPS[step][(parity + delta) % 2]:
                # (a s + b) at s = eps + delta is a eps + (a delta + b)
                for dd, f in ((d + 1, a), (d, a * delta + b)):
                    if f:
                        key = (delta + shift, dd, i + di, j + dj)
                        out[key] = out.get(key, ZERO) + c * f
        form = {key: c for key, c in out.items() if c}
    D = math.lcm(*(c.denominator for c in form.values()))
    return D, tuple((*key, int(c * D)) for key, c in form.items())


def _algebraic_templates(L, universe) -> list:
    """For each parity of eps, (E, {j: {key: [c_0, c_1, ...]}}): L phi_eps
    is the sum over j of R_j(eps) phi_(eps - n + j), and R_j(eps) the sum
    of (c_d / E) eps^d times the monomial key over universe, c_d integers.
    Each term P^p P'^s D^(n-i) of L, read from ``EllipticElement.parts()``,
    is one cached ``_phi_form``."""
    n = L.n
    g2, g3 = _field(universe, "g2"), _field(universe, "g3")
    terms = [("D" * n, MultiPoly.const(1, universe))]
    terms += [("y" * s + "x" * p + "D" * (n - i), coeff.in_universe(universe))
              for i, a_i in L.coeffs.items() for p, s, coeff in a_i.parts()]
    templates = []
    for parity in (0, 1):
        forms = [(_phi_form(parity, steps), coeff) for steps, coeff in terms]
        E = math.lcm(*(D * coeff.denom for (D, _), coeff in forms))
        table = {}
        for (D, form), coeff in forms:
            scale = E // (D * coeff.denom)
            for delta, d, i, j, c in form:
                row = table.setdefault(n + delta, {})
                for key, num in coeff.terms.items():
                    slot = row.setdefault(key + (i << g2) + (j << g3), [0] * (n + 1))
                    slot[d] += c * num * scale
        templates.append((E, {j: {key: cs for key, cs in row.items() if any(cs)}
                              for j, row in table.items()}))
    return templates


def algebraic_conditions(L, m, top) -> tuple:
    """The conditions of the recursion from the integer index m of the
    one-pole operator L (a ``GlobalEllipticOperator``) to the next index
    top, run over L's coefficients in x = P, y = P', with no Laurent
    series: each nonzero lambda-coefficient of the obstruction, made
    primitive, by descending lambda degree, each value kept once, as
    (``Condition``, the set of its terms' weights).

    The solution is psi = sum g_k phi_(m+k), g_0 = 1, and L phi_e = sum
    over j of R_j(e) phi_(e-n+j) (``_algebraic_templates``).  So
        g_k R_0(m + k) = -sum over kp < k of R_(k-kp)(m + kp) g_kp
                         + lambda g_(k-n),
    R_0(e) is c_e / c_(e-n) times the indicial polynomial P(e), and R_j
    is zero past a fixed width (12 for the gap family, where R_j has
    weight j): each step reads a band of earlier g's, where the z
    recursion reads all of them.  R_j(eps) has degree at most n in eps, so
    its template is made once per parity of eps, cleared to integers; the
    rows are read from the two (``_template_rows``) and go to the slot
    engine ``_slot_passes``, and the conditions are read from the
    obstruction's slots by ``_split_coefficients``, as the z recursion's
    are.  Only the obstruction is kept, so each g_k lives only while the
    band still reads it.  u1 enters at top, so the obstruction has no free
    parameter.

    Below top the solution is unique, so psi agrees with the z recursion's
    through z^(top-1), and the two obstructions differ by a rational
    factor, P(top) being 0: the conditions are those of
    ``obstruction_conditions(L.localize(top - m - 1), m, top)``.  top
    must be the run's first resonance."""
    n = L.n
    if as_rat(m).denominator != 1:
        raise ValueError(f"index {m} is not an integer")
    m, K = int(m), int(top - m)
    params = sort_vars({"g2", "g3"} | {v for a_i in L.coeffs.values()
                                       for _, _, coeff in a_i.parts() for v in coeff.vars})
    if "lambda" in params:
        raise ValueError("the operator's coefficients use the spectral parameter lambda")
    universe = sort_vars(("lambda", "u1", *params))
    templates = _algebraic_templates(L, universe)
    if any(j < 0 for _, table in templates for j, row in table.items() if row):
        raise ValueError("the operator is not Fuchsian at the pole")
    if any(set(table.get(0, {0: 0})) != {0} for _, table in templates):
        raise ValueError("indicial polynomial has symbolic coefficients")
    weights = {**WEIGHTS, "lambda": n, "u1": K}
    implicit = _implicit_variable(((j, row) for _, table in templates for j, row in table.items()),
                                  universe, params, weights)
    values, rows = _template_rows(templates, n, m, K, _key_mask(universe, implicit))
    if values[0]:
        raise ValueError(f"{m} is not an indicial root")
    if values[K] or not all(values[1:K]):
        raise ValueError(f"{top} is not the first resonance above {m}")
    slots, steps = _slot_passes(n, values, rows, universe, ["u1"], implicit, weights)
    obstructions = [(k, *obstruction) for k, _, _, obstruction in steps if obstruction]
    return tuple(_split_coefficients(slots, obstructions, ["u1"]))


def trivial_monodromy_constraints(op: LocalOperator) -> ConstraintSet:
    """Conditions on the operator parameters for trivial local monodromy.

    Fewer than n rational indicial roots, or indices that fail
    ``homogeneous_integrable``, raise ValueError("indices not integrable:
    <reason>"), as ``cyclic_L0`` does for such indices.  Otherwise the
    indices m_0 < m_1 < ... are integers, and the recursion runs once, from
    m_0 to the highest index (``obstruction_conditions``).  Below the first
    resonance k_1 = m_1 - m_0 the run is unique, and f_(k_1) is the free
    parameter u1.  The recursion is linear, so every later f_k and
    obstruction is affine in u1, and u1's coefficient runs the same
    recursion from the index m_1.  By induction over the indices, the
    obstructions of each higher index's run, and their coefficients in its
    own free parameters, are u-coefficients of the run from m_0.  So the
    groups that ``_split_coefficients`` keeps from it are those of the runs
    from every index, each value at its first occurrence, and they all
    vanish iff no index's run is obstructed: trivial local monodromy.
    """
    n = op.n
    roots = op.indicial_roots()
    if len(roots) < n:
        raise ValueError("indices not integrable: non-rational indices")
    idx = IndexData(roots)
    ok, reason = homogeneous_integrable(idx, n)
    if not ok:
        raise ValueError(f"indices not integrable: {reason}")
    return ConstraintSet(n, obstruction_conditions(op, idx.indices[0], idx.indices[-1]))


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
        conditions.append(Condition(cj.primitive(), 0))
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
        a[1],
        b[2],
        a[2] * 3 + b[1] * b[1],
        b[4] * 3 - a[4] * 3 - b[1] * a[3],
    ]
    conditions = []
    for p in raw:
        if p.is_zero():
            continue
        conditions.append(Condition(p.primitive(), 0))
    return ConstraintSet(3, tuple(conditions))
