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
    since ConstraintSet is immutable."""
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
    out = []
    for c in cs.conditions:
        p = c.poly.substitute(mapping)
        if p.is_zero():
            continue
        out.append(Condition(p.primitive(), c.lambda_degree))
    return ConstraintSet(cs.n, tuple(out), q=cs.q, r=cs.r)


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

    def curve(self):
        """(g2, g3) as MultiPoly or None when unconstrained."""
        return self.assignments.get("g2"), self.assignments.get("g3")

    def j(self):
        g2, g3 = self.curve()
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
    if not p.used_vars().isdisjoint(assignments):
        p = p.substitute(assignments)
    if relation is not None and relation[0] in p.used_vars():
        p = _reduce_relation_poly(p, *relation)
    if p.is_zero():
        return p
    return p.primitive()


def _single_var_monomial(p: MultiPoly):
    vs = p.monomial_vars()
    if vs is not None and len(vs) == 1:
        return vs[0]
    return None


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

    def fork(self):
        return _State(
            self.conds, self.assignments, self.relation, self.nonzero, self.residuals
        )

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
        if var == x:
            # c = value turns c^2 = square into a condition
            self.conds.insert(0, value * value - square)
            self.relation = None
        elif x in square.used_vars():
            self.relation = (var, square.substitute(sub))


def triangular_solve(cs: ConstraintSet, universe=GENERIC_UNIVERSE):
    """Solve the conditions by sequential elimination with branching.

    Rules, in order, applied to each condition after substituting what is
    already solved: pure monomials force a variable to zero (branching when
    several could vanish); a condition A*x + B linear in the highest-weight
    unsolved variable x is solved for x = -B/A when that quotient is a
    polynomial, i.e. when A is a nonzero constant or a single-variable
    monomial dividing B, and in the monomial case the branch forks on the
    vanishing of A; a pure quadratic in c is kept as a square relation.
    Anything else is left as an unsolved residual.  Every surviving branch
    is verified by exact back-substitution.
    """
    original = [c.poly for c in cs.conditions]
    state = _State(original, {}, None, [], [])
    branches = []
    _run(state, branches)
    q = cs.q if cs.q is not None else 0
    r = cs.r if cs.r is not None else 0
    return [_finalize(st, witness, original, universe, q, r) for st, witness in branches]


def _run(state: _State, sink: list):
    while state.conds:
        p = _normalize(state.conds.pop(0), state.assignments, state.relation)
        if p.is_zero():
            continue
        if p.is_constant():
            sink.append((state, p))
            return
        mono = p.monomial_vars()
        if mono is not None:
            cands = [v for v in mono if v not in state.nonzero]
            if not cands:
                sink.append((state, p))
                return
            # overlap-free fan-out: kth branch assumes earlier cands nonzero
            for pos, v in enumerate(cands[1:], start=1):
                side = state.fork()
                side.nonzero.extend(cands[:pos])
                side.assign(v, MultiPoly.zero())
                side.conds.insert(0, p)
                _run(side, sink)
            state.assign(cands[0], MultiPoly.zero())
            continue
        if _try_linear(state, p, sink):
            continue
        if _try_square(state, p):
            continue
        state.residuals.append(p)
    sink.append((state, None))


def _try_linear(state: _State, p: MultiPoly, sink: list) -> bool:
    # p is normalized, so every variable it uses is unassigned
    for x in PRECEDENCE:
        if x not in p.used_vars():
            continue
        if state.relation is not None and state.relation[0] == x:
            continue
        if p.degree_in(x) != 1:
            continue
        A = p.coefficient_of(x, 1)
        B = p.coefficient_of(x, 0)
        if A.is_constant():
            state.assign(x, B * (-1 / A.constant_value()))
            return True
        v = _single_var_monomial(A)
        if v is None:
            continue
        value = try_div(-B, A)
        if value is None:
            continue
        if v not in state.nonzero:
            # pivot coefficient may vanish: fork on v = 0
            side = state.fork()
            side.assign(v, MultiPoly.zero())
            side.conds.insert(0, p)
            _run(side, sink)
            state.nonzero.append(v)
        state.assign(x, value)
        return True
    return False


def _try_square(state: _State, p: MultiPoly) -> bool:
    if "c" in state.assignments or state.relation is not None:
        return False
    if p.degree_in("c") != 2 or not p.coefficient_of("c", 1).is_zero():
        return False
    A = p.coefficient_of("c", 2)
    if not A.is_constant():
        return False
    B = p.coefficient_of("c", 0)
    state.relation = ("c", B * (-1 / A.constant_value()))
    return True


def _verify(original, assignments, relation):
    for p in original:
        val = p.substitute(assignments)
        if relation is not None:
            val = _reduce_relation_poly(val, *relation)
        if not val.is_zero():
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
        cls = _classify(assignments, relation, universe)
    return LocusBranch(
        q, r, assignments, relation, free, state.nonzero, state.residuals, cls, witness
    )


def _classify(assignments, relation, universe) -> str:
    def zero(v):
        a = assignments.get(v)
        return a is not None and a.is_zero()

    czero = zero("c") or (relation is not None and relation[1].is_zero())
    if czero and zero("e"):
        return "cyclic-point"
    constraints = sum(1 for v in ("g2", "g3", "w") if v in universe and v in assignments)
    if relation is not None and not relation[1].is_zero():
        constraints += 1
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


def branch_quantity(branch: LocusBranch, quantity: str):
    """Evaluate a homogeneity-invariant ratio on a solved branch, exactly."""
    if quantity == "j":
        j = branch.j()
        if isinstance(j, str):
            raise ValueError(f"j is {j} on this branch")
        return j.constant_value()
    target, base = quantity.split("/")
    flip = False
    if target == "c2":  # the inverted spelling c^2 / g2
        target, base, flip = base, "c2", True
    if target == "c" and branch.relation is not None:
        raise ValueError("c is determined only up to sign on this branch")
    expr = branch.assignments.get(target)
    if expr is None:
        raise ValueError(f"{target} is not determined on this branch")
    # with c^2 = V the base is V: evaluate at c = 1, then divide by V
    relation = branch.relation if base == "c2" else None
    if relation is not None and relation[1].used_vars():
        raise ValueError("square relation is not constant")
    point = {base[0]: ONE}
    if not expr.used_vars() <= point.keys():
        # another variable stays free, so the ratio has no value
        raise ValueError(f"{quantity} is not determined on this branch")
    v = expr.evaluate_exact(point)
    if relation is not None:
        c2 = relation[1].constant_value()
        if c2 == 0:
            raise ValueError("zero square relation")
        v = v / c2
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

    @property
    def supports_conjecture(self) -> bool:
        return all(
            row.classification in ("cyclic-point", "inconsistent")
            for row in self.rows
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["r", "q", "branch", "classification", "c_over_e2",
                    "g2_relation", "g3_relation", "j"])
        for row in self.rows:
            w.writerow([row.r, row.q, row.branch, row.classification,
                        row.c_text, row.g2_text, row.g3_text, row.j_text])
        return buf.getvalue()


_CURVE_SUBS = {
    "generic": None,
    "cuspidal": {"g2": MultiPoly.zero(), "g3": MultiPoly.zero()},
    "nodal": {
        "g2": MultiPoly.var("w", 2, 3),
        "g3": MultiPoly.var("w", 3),
    },
}

_CURVE_UNIVERSE = {
    "generic": GENERIC_UNIVERSE,
    "cuspidal": ("c", "e"),
    "nodal": ("c", "e", "w"),
}


def valid_r(r: int) -> bool:
    return r >= 1 and r % 3 != 0


def scan_grid(r_values, q_offset: int = 9, curve: str = "generic") -> ScanReport:
    if curve not in _CURVE_SUBS:
        raise ValueError(f"unknown curve mode {curve!r}")
    report = ScanReport(curve)
    for r in sorted(r_values):
        if not valid_r(r):
            continue
        for q in range(r, r + q_offset + 1, 3):
            cs = constraints_for(q, r)
            _check_cyclic_point(cs)
            if _CURVE_SUBS[curve] is not None:
                cs = substitute_constraints(cs, _CURVE_SUBS[curve])
            for bid, b in enumerate(triangular_solve(cs, _CURVE_UNIVERSE[curve])):
                report.rows.append(ScanRow(
                    r, q, bid, b.classification,
                    _var_text(b, "c", curve), _var_text(b, "g2", curve),
                    _var_text(b, "g3", curve), _j_text(b, curve),
                ))
    return report


_CYCLIC_POINT = {"c": MultiPoly.zero(), "e": MultiPoly.zero(), "g2": MultiPoly.zero()}


def _check_cyclic_point(cs: ConstraintSet):
    """The cyclic point (c = e = g2 = 0) must annihilate every condition."""
    if substitute_constraints(cs, _CYCLIC_POINT).conditions:
        raise VerificationError("cyclic point fails the constraints")


def _var_text(b: LocusBranch, v: str, curve: str = "generic") -> str:
    if v == "c" and b.relation is not None:
        return f"c^2 = {b.relation[1].text()}"
    if v in ("g2", "g3") and curve != "generic":
        # w may itself have been forced to zero on this branch
        return _CURVE_SUBS[curve][v].substitute(b.assignments).text()
    a = b.assignments.get(v)
    if a is None:
        return "free"
    return a.text()


def _j_text(b: LocusBranch, curve: str = "generic") -> str:
    if b.classification == "inconsistent":
        return "none"
    if curve == "cuspidal":
        return "cusp"
    if curve == "nodal":
        return "infinite"
    j = b.j()
    if isinstance(j, str):
        return j
    if j.is_zero():
        return "0"
    return j.text()
