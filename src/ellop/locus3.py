"""Third-order one-pole integrability loci.

For gaps (q, r) the recursion from the middle index, run in x = P, y = P'
with nothing localized, meets one obstruction, at offset r; it
splits into weighted-homogeneous conditions on (c, e, g2, g3), one per
power of the spectral parameter.  This module generates them, solves them
in triangular fashion with explicit branching, classifies the branches,
computes j-invariants, reconstructs closed forms as rational functions of
q, and sweeps grids over generic and degenerate curves.  A closed form in q
is read from exact samples at q = r, r+3, ... until ``interp`` confirms it,
so no degree bound is needed.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field
from functools import cache

from .rationals import ONE, Rat
from .poly import MultiPoly, RatFunc, try_div
from .monodromy import Condition, ConstraintSet, algebraic_conditions
from .operators import (InvalidGapsError, VerificationError, third_order_from_gaps,
                        third_order_indices)
from .interp import rational_interpolate

GENERIC_UNIVERSE = ("c", "e", "g2", "g3")
PRECEDENCE = ("g3", "g2", "c", "e", "w")


@cache
def constraints_for(q: int, r: int) -> ConstraintSet:
    """Integrability conditions for the gap-(q, r) one-pole family: the
    obstruction of the recursion from the middle index m1, which meets its
    one resonance at offset r = m2 - m1, one condition per spectral-
    parameter degree, descending.  The recursion runs over the operator's
    coefficients in x = P, y = P' (``monodromy.algebraic_conditions``), so
    nothing is localized.  A condition of lambda degree d must be
    weighted-homogeneous of weight r - 3d, or VerificationError.  Cached,
    since ConstraintSet is immutable.

    Lemma: every condition vanishes at the cyclic point c = e = g2 = 0.
    Proof: a condition is a polynomial in c, e, g2, g3 (weights 2, 1, 4, 6)
    whose terms all weigh r - 3d, by the check below.  A term free of c, e
    and g2 is a constant times g3^y, of weight 6y = 0 (mod 3), and r - 3d is
    not, since ``third_order_indices`` refuses 3 | r.  So every term has a
    factor c, e or g2."""
    if q < 1 or r < 1:
        raise InvalidGapsError("gaps must be positive")
    _, m1, m2 = third_order_indices(q, r).indices
    conditions = []
    for c, weights in algebraic_conditions(third_order_from_gaps(q, r), m1, m2):
        if len(weights) > 1:
            raise VerificationError("condition not weighted-homogeneous")
        if weights != {r - 3 * c.lambda_degree}:
            raise VerificationError("condition weight inconsistent with gap r")
        conditions.append(c)
    return ConstraintSet(3, tuple(conditions), q=q, r=r)


def substitute_constraints(cs: ConstraintSet, mapping) -> ConstraintSet:
    """Apply a substitution (e.g. a degenerate-curve parametrization) to
    every condition, dropping those that become zero."""
    reduced = ((_normalize(c.poly, mapping, None), c.lambda_degree) for c in cs.conditions)
    kept = tuple(Condition(p, d) for p, d in reduced if not p.is_zero())
    return ConstraintSet(cs.n, kept, q=cs.q, r=cs.r)


# -- branch solving ----------------------------------------------------------


@dataclass
class LocusBranch:
    q: int
    r: int
    assignments: dict            # var -> MultiPoly in unassigned variables
    relation: tuple | None       # ("c", MultiPoly value of c^2) or None
    free: list
    nonzero: list                # variables assumed nonzero on this branch
    residuals: list              # unsolved leftover conditions
    classification: str
    witness: MultiPoly | None = None

    def j(self):
        g2, g3 = self.assignments.get("g2"), self.assignments.get("g3")
        if g2 is None or g3 is None:
            return "generic"
        if g2.is_zero() and g3.is_zero():
            return "cusp"
        return j_invariant(g2, g3)


def j_invariant(g2, g3):
    """j = 1728 g2^3 / (g2^3 - 27 g3^2); "infinite" at zero discriminant."""
    g2 = RatFunc(g2)
    g3 = RatFunc(g3)
    disc = g2**3 - g3**2 * 27
    if disc.is_zero():
        return "infinite"
    return g2**3 * 1728 / disc


def _reduce_relation_poly(p: MultiPoly, var: str, val: MultiPoly) -> MultiPoly:
    """Rewrite p modulo var^2 = val; result has var-degree <= 1."""
    out = MultiPoly.zero()
    x = MultiPoly.var(var)
    for pw, cf in p.coefficients_in(var).items():
        t = cf * val ** (pw // 2)
        if pw % 2:
            t = t * x
        out = out + t
    return out


def _normalize(p: MultiPoly, assignments, relation) -> MultiPoly:
    """p with assignments substituted, reduced modulo relation's c^2 = value
    and made primitive: the one reduction of a condition, for the solve,
    ``_verify`` and ``substitute_constraints``.  A p that uses no mapped
    variable keeps its universe."""
    if not p.used_vars().isdisjoint(assignments):
        p = p.substitute(assignments)
    if relation is not None and relation[0] in p.used_vars():
        p = _reduce_relation_poly(p, *relation)
    if p.is_zero():
        return p
    return p.primitive()


class _State:
    """One branch of the solve.  No assignment or relation value uses an
    assigned variable, so substituting the assignments once closes any
    polynomial."""

    __slots__ = ("conds", "assignments", "relation", "nonzero", "residuals")

    def __init__(self, conds, assignments, relation, nonzero, residuals):
        self.conds = list(conds)
        self.assignments = dict(assignments)
        self.relation = relation
        self.nonzero = list(nonzero)
        self.residuals = list(residuals)

    def assign(self, x: str, value: MultiPoly):
        """Record x = value, a polynomial in unassigned variables other than
        x, and substitute it into the earlier values."""
        sub = {x: value}
        for v, a in self.assignments.items():
            if x in a.used_vars():
                self.assignments[v] = a.substitute(sub)
        self.assignments[x] = value
        if self.relation is None:
            return
        var, square = self.relation
        if x in square.used_vars():
            square = square.substitute(sub)
        if var == x or square.is_zero():
            # c = value, or c^2 = 0, returns the relation to the conditions
            # as c^2 - square, which the next step reduces
            self.conds.insert(0, MultiPoly.var(var) ** 2 - square)
            self.relation = None
        else:
            self.relation = (var, square)


def triangular_solve(cs: ConstraintSet, universe=GENERIC_UNIVERSE):
    """Solve the conditions by sequential elimination with branching.

    Rules, in order, applied to each condition after substituting what is
    already solved: pure monomials force a variable to zero (branching when
    several could vanish); a condition is solved as A*x + B for x = -B/A in
    the first variable x in PRECEDENCE order (g3, g2, c, e, w) in which it is
    linear with A a nonzero constant or a single-variable monomial dividing
    B, and in the monomial case the branch forks on the vanishing of A; a
    pure quadratic in c is kept as a square relation.
    The relation's c is solved like any other variable, and c = value turns
    c^2 = V into the condition value^2 - V; a relation whose value becomes
    0 returns as the condition c^2, so c = 0.  Anything else is left as an
    unsolved residual.  Every surviving branch is verified by exact
    back-substitution.
    """
    original = [c.poly for c in cs.conditions]
    branches = []
    _run(_State(original, {}, None, [], []), branches)
    q = cs.q if cs.q is not None else 0
    r = cs.r if cs.r is not None else 0
    return [_finalize(st, witness, original, universe, q, r) for st, witness in branches]


def _run(state: _State, sink: list):
    while state.conds:
        p = _normalize(state.conds.pop(0), state.assignments, state.relation)
        if p.is_zero():
            continue
        mono = p.monomial_vars()
        if mono is not None:
            cands = [v for v in mono if v not in state.nonzero]
            if not cands:
                sink.append((state, p))
                return
            # overlap-free fan-out: kth branch assumes earlier cands nonzero
            for pos, v in enumerate(cands[1:], start=1):
                _run_zero(state, v, cands[:pos], sink)
            state.assign(cands[0], MultiPoly.zero())
            continue
        if _try_linear(state, p, sink):
            continue
        if _try_square(state, p):
            continue
        state.residuals.append(p)
    sink.append((state, None))


def _run_zero(state: _State, v: str, nonzero, sink: list):
    """Solve a copy of state with v = 0 and the variables in nonzero not 0."""
    side = _State(state.conds, state.assignments, state.relation,
                  [*state.nonzero, *nonzero], state.residuals)
    side.assign(v, MultiPoly.zero())
    _run(side, sink)


def _try_linear(state: _State, p: MultiPoly, sink: list) -> bool:
    # p is normalized, so every variable it uses is unassigned
    used = p.used_vars()
    for x in PRECEDENCE:
        if x not in used:
            continue
        parts = p.coefficients_in(x)
        if max(parts) != 1:
            continue
        A, B = parts[1], parts.get(0, MultiPoly.zero(p.vars))
        if A.is_constant():
            state.assign(x, B * (-1 / A.constant_value()))
            return True
        vs = A.monomial_vars()
        if vs is None or len(vs) != 1:
            continue
        (v,) = vs
        value = try_div(-B, A)
        if value is None:
            continue
        if v not in state.nonzero:
            # A may vanish: fork on v = 0, where p, a multiple of A, vanishes
            _run_zero(state, v, (), sink)
            state.nonzero.append(v)
        state.assign(x, value)
        return True
    return False


def _try_square(state: _State, p: MultiPoly) -> bool:
    # p is normalized: it has no c once c is assigned, and c-degree <= 1
    # under a relation
    parts = p.coefficients_in("c")
    if max(parts) != 2 or 1 in parts or not parts[2].is_constant():
        return False
    A, B = parts[2], parts.get(0, MultiPoly.zero(p.vars))
    state.relation = ("c", B * (-1 / A.constant_value()))
    return True


def _verify(original, assignments, relation):
    if any(not _normalize(p, assignments, relation).is_zero() for p in original):
        raise VerificationError("branch fails back-substitution")


def _finalize(state: _State, witness, original, universe, q, r) -> LocusBranch:
    assignments, relation = state.assignments, state.relation
    free = [
        v
        for v in universe
        if v not in assignments and (relation is None or relation[0] != v)
    ]
    if witness is not None:
        cls = "inconsistent"
    elif state.residuals:
        cls = "unsolved"
    else:
        _verify(original, assignments, relation)
        cls = _classify(assignments, relation)
    return LocusBranch(
        q, r, assignments, relation, free, state.nonzero, state.residuals, cls, witness
    )


def _classify(assignments, relation) -> str:
    def zero(v):
        a = assignments.get(v)
        return a is not None and a.is_zero()

    if zero("c") and zero("e"):
        return "cyclic-point"
    # a relation's value is never zero: c^2 = 0 is solved as c = 0
    constraints = sum(1 for v in ("g2", "g3", "w") if v in assignments)
    constraints += relation is not None
    if constraints >= 2:
        return "exotic-j"
    if constraints == 1:
        return "finite-set"
    return "one-parameter-family"


# -- closed forms in q -------------------------------------------------------

_QUANTITIES = ("c/e2", "g2/e4", "g3/e6", "g2/c2", "g3/c3", "c2/g2", "j")


def solved_branch(q: int, r: int) -> LocusBranch:
    """The unique non-cyclic, non-inconsistent branch for (q, r)."""
    branches = triangular_solve(constraints_for(q, r))
    picked = [
        b
        for b in branches
        if b.classification in ("one-parameter-family", "finite-set", "exotic-j")
    ]
    if len(picked) != 1:
        raise ArithmeticError(
            f"expected one solved branch for ({q},{r}), got {len(picked)}"
        )
    return picked[0]


def _read_quantity(quantity: str):
    """(target, base variable, power, inverted) of "target/baseN" or "c2/g2"."""
    parts = quantity.split("/")
    inverted = parts[0] == "c2"
    target, base = parts[::-1] if inverted else parts
    return target, base[0], int(base[1:]), inverted


def branch_quantity(branch: LocusBranch, quantity: str):
    """Evaluate a homogeneity-invariant ratio on a solved branch, exactly."""
    if quantity == "j":
        j = branch.j()
        if isinstance(j, str):
            raise ValueError(f"j is {j} on this branch")
        return j.constant_value()
    target, base, power, flip = _read_quantity(quantity)
    if target == "c" and branch.relation is not None:
        raise ValueError("c is determined only up to sign on this branch")
    expr = branch.assignments.get(target)
    if expr is None:
        raise ValueError(f"{target} is not determined on this branch")
    # with c^2 = V the base is V: evaluate at c = 1, then divide by V
    relation = branch.relation if (base, power) == ("c", 2) else None
    if relation is not None and relation[1].used_vars():
        raise ValueError("square relation is not constant")
    if not expr.used_vars() <= {base}:
        # another variable stays free, so the ratio has no value
        raise ValueError(f"{quantity} is not determined on this branch")
    v = expr.evaluate_exact({base: ONE})
    if relation is not None:
        v = v / relation[1].constant_value()
    return 1 / v if flip else v


def reconstruct_in_q(r: int, quantity: str) -> RatFunc:
    """Recover a locus quantity as an exact rational function of q from
    exact samples at the valid gaps q = r, r+3, ..., read by
    ``rational_interpolate`` until they confirm the function."""
    if quantity not in _QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    return rational_interpolate(
        (Rat(q), branch_quantity(solved_branch(q, r), quantity))
        for q in itertools.count(r, 3))


# -- grid scans --------------------------------------------------------------


@dataclass
class ScanRow:
    r: int
    q: int
    branch: int
    classification: str
    c_text: str
    g2_text: str
    g3_text: str
    j_text: str


@dataclass
class ScanReport:
    curve: str
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["r", "q", "branch", "classification", "c_over_e2",
                    "g2_relation", "g3_relation", "j"])
        for row in self.rows:
            w.writerow([row.r, row.q, row.branch, row.classification,
                        row.c_text, row.g2_text, row.g3_text, row.j_text])
        return buf.getvalue()


#: curve name -> (its g2 and g3 as polynomials, or None when they stay
#: free; the variables it solves over; its fixed j text, or None when j
#: varies by branch)
_CURVES = {
    "generic": (None, GENERIC_UNIVERSE, None),
    "cuspidal": ({"g2": MultiPoly.zero(), "g3": MultiPoly.zero()}, ("c", "e"), "cusp"),
    "nodal": ({"g2": MultiPoly.var("w", 2, 3), "g3": MultiPoly.var("w", 3)}, ("c", "e", "w"),
              "infinite"),
}


def valid_r(r: int) -> bool:
    return r >= 1 and r % 3 != 0


def curve_branches(q: int, r: int, curve: str = "generic") -> list:
    """The branches of the gap-(q, r) locus on a curve: the conditions of
    ``constraints_for``, which vanish at the cyclic point by its lemma, with
    the curve's g2 and g3 put in, solved by ``triangular_solve`` over the
    curve's variables."""
    if curve not in _CURVES:
        raise ValueError(f"unknown curve mode {curve!r}")
    mapping, universe, _ = _CURVES[curve]
    cs = constraints_for(q, r)
    if mapping is not None:
        cs = substitute_constraints(cs, mapping)
    return triangular_solve(cs, universe)


def scan_grid(r_values, q_offset: int = 9, curve: str = "generic") -> ScanReport:
    if curve not in _CURVES:
        raise ValueError(f"unknown curve mode {curve!r}")
    report = ScanReport(curve)
    for r in sorted(r_values):
        if not valid_r(r):
            continue
        for q in range(r, r + q_offset + 1, 3):
            for bid, b in enumerate(curve_branches(q, r, curve)):
                report.rows.append(ScanRow(
                    r, q, bid, b.classification,
                    _var_text(b, "c", curve), _var_text(b, "g2", curve),
                    _var_text(b, "g3", curve), _j_text(b, curve),
                ))
    return report


def _var_text(b: LocusBranch, v: str, curve: str = "generic") -> str:
    if v == "c" and b.relation is not None:
        return f"c^2 = {b.relation[1].text()}"
    if v in ("g2", "g3") and curve != "generic":
        # w may itself have been forced to zero on this branch
        return _CURVES[curve][0][v].substitute(b.assignments).text()
    a = b.assignments.get(v)
    if a is None:
        return "free"
    return a.text()


def _j_text(b: LocusBranch, curve: str = "generic") -> str:
    if b.classification == "inconsistent":
        return "none"
    j = _CURVES[curve][2] or b.j()
    return j if isinstance(j, str) else j.text()
