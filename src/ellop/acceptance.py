"""Verification suite: the published closed-form results the engine must
reproduce, plus internal cross-checks between the exact and numeric layers.

Each published closed form of a locus is stated once, in CLOSED_FORMS, and
evaluated by closed_form_value at an exact q or as a function of q; the
loci, j-invariant and reconstruction criteria all read it there.
ref_c_over_e2, ref_g2_over_e4_r5 and ref_j stay as one-line lookups into
the table because the benchmark workloads (perfbench/workloads.py) call
them by name.

Each criterion returns (name, passed, detail).  run_all executes every
criterion in order; the command line surface and the test suite both call
into this module so there is a single source of truth for what "verified"
means.
"""

from __future__ import annotations

import cmath
import math
import random

from .rationals import Rat, ZERO
from .poly import MultiPoly, RatFunc
from .series import LaurentSeries
from .elliptic import EllipticElement
from .operators import (
    GlobalEllipticOperator,
    IndexData,
    LocalOperator,
    cyclic_L0,
    find_commuting,
    op_commutator,
    third_order_from_gaps,
)
from .monodromy import (
    second_order_conditions,
    trivial_monodromy_constraints,
    two_gap_conditions,
)
from .locus3 import (
    _read_quantity,
    constraints_for,
    reconstruct_in_q,
    scan_grid,
    solved_branch,
    branch_quantity,
    substitute_constraints,
    triangular_solve,
)
from .lattice import HEX_TAU, make_lattice, reduce_to_cell, wp01, wp_eval
from .series import wp_series_numeric
from .oracle import (
    DEFAULT_LAMBDAS,
    elliptic_batch_evaluator,
    elliptic_evaluator,
    monodromy_matrices,
    monodromy_matrix,
)
from .cm import (
    CMConfig2,
    CMConfig3,
    Cryst3Config,
    cm3_F,
    cm3_H1,
    cm3_residuals,
    cryst3_grad_H,
    cryst3_residuals,
    finite_gap_residuals,
    hexagonal_fold_residual,
    newton_critical,
    pinned_cm3_system,
)


# -- reference closed forms ----------------------------------------------------
# Solved loci of the third order family as exact rational functions of the
# larger gap q (Etingof-Rains, arXiv 1011.6410): the values the engine must
# reproduce from scratch.  An entry is (scale, numerator, denominator); each
# factor list holds (integer coefficients in q, low to high, power) pairs,
# and the value is scale * prod(p(q)^k, numerator) / prod(p(q)^k, denominator).

_P8 = (7678355008, 16555419008, 15416669104, 8104425920, 2632855228,
       541706360, 68978821, 4972256, 155383)
_D8 = (277, 152, 19)
_P10 = (1071464, 941170, 301017, 41380, 2069)

CLOSED_FORMS = {
    (2, "c/e2"): (Rat(-3), (), (((1, 1), 2),)),
    (4, "c2/g2"): (Rat(1, 3), (((2, 1), 2),), ()),
    (5, "c/e2"): (Rat(-3, 16), (((46, 35, 7), 1),),
                  (((1, 1), 2), ((4, 1), 2))),
    (5, "g2/e4"): (Rat(27, 64), (((5, 2), 2),),
                   (((1, 1), 4), ((4, 1), 4))),
    (7, "c2/g2"): (Rat(25, 12), (((2, 1), 2), ((5, 1), 2)),
                   (((7, 2), 2),)),
    (8, "c/e2"): (Rat(-3, 686), (((38384, 42992, 17598, 3056, 191), 1),),
                  (((1, 1), 2), ((4, 1), 2), ((7, 1), 2))),
    (8, "g2/e4"): (Rat(27, 470596), ((_P8, 1),),
                   (((1, 1), 4), ((4, 1), 4), ((7, 1), 4), (_D8, 1))),
    (8, "j"): (Rat(-6912), ((_P8, 3), (_D8, 1)),
               (((7, 1), 1), ((6, 1), 1), ((2, 1), 1), ((1, 1), 1),
                ((898, 533, 67), 1), ((922, 539, 67), 1),
                ((1468, 1344, 399, 37), 1), ((2692, 2064, 489, 37), 1),
                ((34828, 23376, 5115, 367), 1), ((12724, 12000, 3693, 367), 1),
                ((239236, 242068, 89097, 14194, 829), 1),
                ((133156, 156028, 66777, 12334, 829), 1))),
    (10, "g2/c2"): (Rat(3, 4400), ((_P10, 1),),
                    (((2, 1), 2), ((5, 1), 2), ((8, 1), 2))),
    (10, "g3/c3"): (Rat(-1, 422400),
                    (((978817201, 1360455150, 764656215, 222299140, 35259207,
                       2897310, 96577), 1),),
                    (((2, 1), 3), ((5, 1), 2), ((8, 1), 3))),
    (10, "j"): (Rat(-995328), ((_P10, 3),),
                (((19, 5), 1), ((31, 5), 1), ((47, 13), 1), ((83, 13), 1),
                 ((73, 17), 1), ((97, 17), 1), ((59, 19), 1), ((131, 19), 1),
                 ((239, 110, 11), 1), ((317, 200, 23), 1),
                 ((617, 260, 23), 1))),
    (13, "j"): (Rat(-124416),
                (((2014, 871, 67), 2),
                 ((1155995968, 1258400208, 551142996, 124224139, 15225009,
                   964353, 24727), 3)),
                (((68, 13), 1), ((101, 13), 1),
                 ((796, 265, 19), 1), ((562, 229, 19), 1),
                 ((2936, 1094, 83), 1), ((2741, 1064, 83), 1),
                 ((9532, 5481, 924, 47), 1), ((8824, 5286, 909, 47), 1),
                 ((360056, 127758, 14649, 547), 1),
                 ((26876, 24213, 6684, 547), 1),
                 ((332, 143, 11), 1))),
}


def _horner(coeffs, x):
    v = ZERO
    for c in reversed(coeffs):
        v = v * x + c
    return v


def closed_form_value(form, q):
    """A CLOSED_FORMS entry at q: exact for a rational q, the rational
    function itself for q = RatFunc(MultiPoly.var("q"))."""
    scale, num, den = form

    def product(factors):
        return math.prod(_horner(coeffs, q) ** k for coeffs, k in factors)

    return scale * product(num) / product(den)


def ref_c_over_e2(r: int, q) -> Rat:
    return closed_form_value(CLOSED_FORMS[r, "c/e2"], q)


def ref_g2_over_e4_r5(q) -> Rat:
    return closed_form_value(CLOSED_FORMS[5, "g2/e4"], q)


def ref_j(r: int, q) -> Rat:
    return closed_form_value(CLOSED_FORMS[r, "j"], q)


# -- criteria -------------------------------------------------------------------


def criterion_closed_form_loci(seed=0):
    """Every solved locus matches its closed form, branch structure included."""
    expected_kinds = {
        1: ["one-parameter-family"],
        2: ["one-parameter-family"],
        4: ["finite-set"],
        5: ["cyclic-point", "finite-set"],
        7: ["finite-set"],
        8: ["cyclic-point", "exotic-j"],
        10: ["cyclic-point", "exotic-j"],
        11: ["cyclic-point", "inconsistent"],
        14: ["cyclic-point", "inconsistent"],
        16: ["cyclic-point", "inconsistent"],
    }
    checked = 0
    for r, kinds in expected_kinds.items():
        for q in (r, r + 3, r + 6):
            cs = constraints_for(q, r)
            branches = triangular_solve(cs)
            got = sorted(b.classification for b in branches)
            if got != sorted(kinds):
                return False, f"(q,r)=({q},{r}): branch structure {got}"
            if r == 1:
                if [c.poly.text() for c in cs.conditions] != ["e"]:
                    return False, f"(q,r)=({q},{r}): conditions not {{e}}"
            values = {quantity: closed_form_value(form, q)
                      for (rr, quantity), form in CLOSED_FORMS.items()
                      if rr == r and quantity != "j"}
            if values:
                b = solved_branch(q, r)
                for quantity, v in values.items():
                    if branch_quantity(b, quantity) != v:
                        return False, f"(q,r)=({q},{r}): {quantity} mismatch"
                # closed forms must annihilate the raw conditions
                sub = _annihilating_substitution(r, values, b)
                for cond in cs.conditions:
                    v = cond.poly.substitute(sub)
                    if not v.is_zero():
                        return False, f"(q,r)=({q},{r}): residual {v.text()}"
            checked += 1
    return True, f"{checked} (q,r) cells, exact match"


def _annihilating_substitution(r: int, values: dict, branch) -> dict:
    """The parameters that the closed-form values of r fix, which must kill
    every condition: c = v e^2, g2 = v e^4, g2 = c^2/v (from c2/g2),
    g2 = v c^2 and g3 = v c^3, with e = 0 when r = 1 mod 3.  The closed
    forms leave g3 free at r = 8, so it is read off the solved branch."""
    sub = {"e": MultiPoly.zero()} if r % 3 == 1 else {}
    for quantity, v in values.items():
        target, base, power, inverted = _read_quantity(quantity)
        sub[target] = MultiPoly.var(base, power, 1 / v if inverted else v)
    if r == 8:
        sub["g3"] = MultiPoly.var("e", 6, branch_quantity(branch, "g3/e6"))
    return sub


def criterion_j_invariants(seed=0):
    """Branch j-invariants equal the reference formulas, exactly.

    Also adjudicates the constant term of the degree-8 numerator: the value
    7678355008 is the consistent one (the truncated 767835508 fails)."""
    for r, qs in ((8, (8, 11, 14)), (10, (10, 13)), (13, (13, 16))):
        for q in qs:
            b = solved_branch(q, r)
            if branch_quantity(b, "j") != ref_j(r, q):
                return False, f"(q,r)=({q},{r}): j mismatch"
    # the corrupted constant must not reproduce the computed locus
    scale, ((p8, k),), den = CLOSED_FORMS[8, "g2/e4"]
    bad = (scale, (((767835508,) + p8[1:], k),), den)
    b = solved_branch(8, 8)
    if branch_quantity(b, "g2/e4") == closed_form_value(bad, 8):
        return False, "degree-8 constant adjudication failed"
    return True, "7 j-values exact; numerator constant 7678355008 confirmed"


#: the CLOSED_FORMS entries that rational-reconstruction recovers from samples
_RECONSTRUCTED = ((2, "c/e2"), (5, "c/e2"), (8, "c/e2"), (4, "c2/g2"),
                  (7, "c2/g2"), (10, "g2/c2"), (10, "g3/c3"))


def criterion_reconstruction(seed=0):
    """Interpolation in q recovers the _RECONSTRUCTED closed forms exactly."""
    qv = RatFunc(MultiPoly.var("q"))
    for r, name in _RECONSTRUCTED:
        got = reconstruct_in_q(r, name)
        if not (got - closed_form_value(CLOSED_FORMS[r, name], qv)).is_zero():
            return False, f"r={r} {name}: got {got.text()}"
    return True, f"{len(_RECONSTRUCTED)} rational functions recovered exactly"


#: the classes a branch may take at high r, the rule that high-r-scan and the
#: CLI pins of ``locus`` past r = 22 (tools/pins.py) both check
HIGH_R_CLASSES = ("cyclic-point", "inconsistent")


def criterion_high_r_scan(seed=0):
    """For 14 <= r <= 22 every branch is the cyclic point (or inconsistent)."""
    report = scan_grid(range(14, 23), q_offset=9, curve="generic")
    bad = [(row.r, row.q, row.classification) for row in report.rows
           if row.classification not in HIGH_R_CLASSES]
    if bad:
        return False, f"non-cyclic branches: {bad}"
    return True, f"{len(report.rows)} branches, all cyclic-point/inconsistent"


def criterion_leading_condition(seed=0):
    """Whenever r = 3s + 1, the top spectral coefficient is a multiple of e.

    Lemma: for every valid (q, r) with r = 3s + 1 the first condition of
    ``constraints_for(q, r)`` is e, at lambda degree s; this criterion
    checks 12 cells of it.

    Proof.  Run the x-form recursion from the middle index m = m1
    (``monodromy.algebraic_conditions``): g_k R_0(m + k) = -sum over kp of
    R_(k-kp)(m + kp) g_kp + lambda g_(k-3), where R_j has weight j in
    (c, e, g2, g3), e weighing 1 and lambda 3.  The coefficient of lambda^d
    in g_k has weight k - 3d (its co-weight), and the obstruction at k = r
    has weight r - 3d at degree d, so its top degree is s, of weight 1: it
    is C e.  Terms of co-weight <= 1 come only from terms of co-weight <= 1,
    that is from R_0, R_1 and lambda.  Write G_d for the constant lambda^d
    coefficient of g_(3d), so G_0 = 1 and G_d = G_(d-1) / R_0(m + 3d), and
    rho for the coefficient of e in R_1.  Then
        C = -sum over i = 0..s of rho(m + 3i) G_i
            prod over j = i..s-1 of 1 / R_0(m + 3j + 1).
    (1) rho = 1: the only weight-1 term of L is e P, and x phi_eps =
    phi_(eps-2).  (2) R_0(eps) = (c_eps / c_(eps-3)) P(eps), where the
    ratio is -2 or -1/2 and P is the monic indicial cubic with roots
    m0 < m1 < m2 = m1 + r; P < 0 on (m1, m2), so R_0(m + k) > 0 for
    0 < k < r.  Every index above is below r, so each G_i and every
    summand is positive, C < 0, and the top condition, made primitive, is
    e.  ``tests/test_acceptance.py`` checks (1), (2) and the first
    condition from the templates on every such cell with r <= 22 and
    q <= 31."""
    for r in (7, 10, 13, 16, 19, 22):
        for q in (r, r + 3):
            cs = constraints_for(q, r)
            lead = cs.conditions[0]
            if lead.poly.text() != "e":
                return False, f"(q,r)=({q},{r}): leading condition {lead.poly.text()}"
    return True, "12 cells, leading condition is e"


def _random_rat(rng, span=6):
    return Rat(rng.randint(-span, span), rng.randint(1, 4))


def criterion_engine_equivalences(seed=0):
    """The Frobenius engine agrees with the closed-form local conditions."""
    rng = random.Random(seed)
    # order 2, pole -m(m+1)/z^2: conditions are the odd coefficients.  The
    # operators of the first two blocks are numeric, so a set holds at its
    # point iff it has no condition
    for trial in range(20):
        m = 1 + trial % 4
        K = 2 * m + 2
        coeffs = {}
        for k in range(0, 2 * m + 1):
            coeffs[k] = _random_rat(rng)
        if trial % 2 == 0:
            for k in range(1, 2 * m, 2):
                coeffs[k] = ZERO
        u = LaurentSeries(-2, [-m * (m + 1), 0, *coeffs.values()], K)
        op = LocalOperator(2, {2: u})
        full = trivial_monodromy_constraints(op)
        closed = second_order_conditions(m, u)
        if bool(full.conditions) != bool(closed.conditions):
            return False, f"order-2 disagreement at trial {trial} (m={m})"
    # order 3, gaps (2,2): closed-form Laurent conditions
    for trial in range(20):
        a = [Rat(-3), _random_rat(rng), _random_rat(rng), _random_rat(rng),
             _random_rat(rng)]
        b = [Rat(3), _random_rat(rng), _random_rat(rng), _random_rat(rng),
             _random_rat(rng)]
        if trial % 2 == 0:
            a[1] = ZERO
            b[2] = ZERO
            a[2] = -b[1] * b[1] / 3
            b[4] = a[4] + b[1] * a[3] / 3
        K = 6
        op = LocalOperator(3, {2: LaurentSeries(-2, a, K), 3: LaurentSeries(-3, b, K)})
        full = trivial_monodromy_constraints(op)
        closed = two_gap_conditions(a, b)
        if bool(full.conditions) != bool(closed.conditions):
            return False, f"gaps-(2,2) disagreement at trial {trial}"
    # third order one-pole family: the middle-index run in x = P, y = P'
    # (constraints_for) vs the lowest-index run on the Laurent series, which
    # reads through z^(q+r-2).  The P expansion keeps g2 and g3 symbolic, so
    # both are read at the point; even trials at r = 1, 2, 4 are on the locus
    pairs = [(2, 2), (1, 1), (4, 4), (5, 2), (2, 5)]
    full = [trivial_monodromy_constraints(third_order_from_gaps(q, r).localize(q + r - 1))
            for q, r in pairs]
    for trial in range(10):
        q, r = pairs[trial % len(pairs)]
        if trial % 2 == 0:
            e = _random_rat(rng)
            vals = {"c": ref_c_over_e2(2, q) * e * e if r == 2 else _random_rat(rng),
                    "e": e, "g2": _random_rat(rng), "g3": _random_rat(rng)}
            if r in (1, 4):
                vals["e"] = ZERO
            if r == 4:
                vals["g2"] = vals["c"] ** 2 / closed_form_value(CLOSED_FORMS[4, "c2/g2"], q)
        else:
            vals = {v: _random_rat(rng) for v in ("c", "e", "g2", "g3")}
        point = {k: MultiPoly.const(v) for k, v in vals.items()}
        z_ok = not substitute_constraints(full[trial % len(pairs)], point).conditions
        x_ok = not substitute_constraints(constraints_for(q, r), point).conditions
        if z_ok != x_ok:
            return False, f"middle/full disagreement at (q,r)=({q},{r})"
    return True, "50 randomized equivalence samples agree"


def criterion_commuting_certificate(seed=0):
    """An explicit commuting partner exists at a = -2 and not at a = -5/2."""
    L = GlobalEllipticOperator(2, {2: EllipticElement([0, -2])})
    M = find_commuting(L, 3)
    if M is None:
        return False, "no order-3 partner found for a = -2"
    comm = op_commutator(L.as_opdict(), M)
    if any(not c.is_zero() for c in comm.values()):
        return False, "commutator does not vanish"
    L2 = GlobalEllipticOperator(2, {2: EllipticElement([0, Rat(-5, 2)])})
    if find_commuting(L2, 3) is not None:
        return False, "spurious partner found for a = -5/2"
    return True, "partner for a=-2 certified; none for a=-5/2"


def criterion_numerical_monodromy(seed=0):
    """Loop transport around the pole matches the exact classification."""
    rng = random.Random(seed)
    sq = make_lattice(1j)
    hx = make_lattice(HEX_TAU)
    L = GlobalEllipticOperator(2, {2: EllipticElement([0, -2])})
    ev = elliptic_evaluator(L, {}, sq)
    lams = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(5)]
    for rep in monodromy_matrices(ev, 2, 0, 0.1 * sq.shortest, lams):
        if rep.deviation > 1e-8:
            return False, f"integrable order-2 deviation {rep.deviation}"
        if abs(rep.determinant - 1) > 1e-8:
            return False, "determinant drift"
    L2 = GlobalEllipticOperator(2, {2: EllipticElement([0, Rat(-5, 2)])})
    rep = monodromy_matrix(elliptic_evaluator(L2, {}, sq), 2, 0,
                           0.1 * sq.shortest, 1.0)
    if rep.deviation < 1e-2:
        return False, f"a=-5/2 deviation only {rep.deviation}"
    cyclics = [
        (cyclic_L0(3, IndexData((Rat(-1), Rat(1), Rat(3))), "g2=0"), hx, 0.2),
        (cyclic_L0(4, IndexData((Rat(-1), Rat(1), Rat(2), Rat(4))), "g3=0"), sq, 0.2),
        (cyclic_L0(6, IndexData(tuple(Rat(k) for k in (-1, 0, 2, 3, 4, 7))),
                   "g2=0"), hx, 0.25),
    ]
    for op, lat, fac in cyclics:
        evc = elliptic_evaluator(op, {}, lat)
        reports = monodromy_matrices(evc, op.n, 0, fac * lat.shortest,
                                     DEFAULT_LAMBDAS)
        worst = max(rep.deviation for rep in reports)
        if worst > 1e-7:
            return False, f"cyclic order-{op.n} deviation {worst}"
    # exact locus membership vs loop transport, 10 randomized points on one
    # loop: the reports come operator-major, DEFAULT_LAMBDAS per point
    points, pairs = [], []
    for trial in range(10):
        q, r = [(1, 1), (2, 2), (4, 4), (5, 2), (5, 5)][trial % 5]
        on_locus = trial < 5
        vals = _locus_point(q, r, sq, rng)
        if not on_locus:
            if r == 1:
                vals["e"] = vals["e"] + 0.05   # c is free on this locus
            else:
                vals["c"] = vals["c"] * 1.01 + 0.01
        points.append((q, r, on_locus))
        pairs.append((third_order_from_gaps(q, r), vals))
    count = len(DEFAULT_LAMBDAS)
    reports = monodromy_matrices(elliptic_batch_evaluator(pairs, sq), 3, 0,
                                 0.2 * sq.shortest, DEFAULT_LAMBDAS)
    for i, (q, r, on_locus) in enumerate(points):
        worst = max(rep.deviation for rep in reports[i * count:(i + 1) * count])
        ok = (worst < 1e-8) if on_locus else (worst > 1e-6)
        if not ok:
            return False, f"(q,r)=({q},{r}) on={on_locus}: deviation {worst}"
    return True, f"5 integrable + 1 obstructed + 3 cyclic + {len(points)} locus points"


def _locus_point(q: int, r: int, lat, rng) -> dict:
    """Numeric (c, e) on the solved locus of (q, r) for the given curve."""
    g2 = lat.g2
    if r == 1:
        return {"e": 0.0, "c": complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))}
    if r == 2:
        e = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        return {"e": e, "c": complex(ref_c_over_e2(2, q)) * e * e}
    if r == 4:  # c^2 = v g2
        v = complex(closed_form_value(CLOSED_FORMS[4, "c2/g2"], q))
        return {"e": 0.0, "c": cmath.sqrt(v * g2)}
    if r == 5:
        ratio = complex(ref_g2_over_e4_r5(q))
        e = (g2 / ratio) ** 0.25
        return {"e": e, "c": complex(ref_c_over_e2(5, q)) * e * e}
    raise ValueError((q, r))


def criterion_many_body(seed=0):
    """The multi-pole layer agrees with the one-pole exact classification."""
    rng = random.Random(seed)
    lat = make_lattice(1j)
    # single pole: critical condition c = -3p^2 vs the (2,2) locus at e = 3p
    ratio = ref_c_over_e2(2, 2)     # c/e^2 on the (2,2) locus
    if ratio * 9 != Rat(-3):
        return False, "c = -3p^2 does not match the (2,2) locus under e = 3p"
    p = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
    res = cm3_residuals(CMConfig3([0.3 + 0.2j], [p], -3 * p * p), lat)
    if max(abs(v) for v in res) > 1e-12:
        return False, "single-pole critical residual too large"
    # two poles a half-period apart: residuals vanish, loop transport trivial
    z1, z2 = 0.13 + 0.21j, 0.63 + 0.21j
    fg = finite_gap_residuals(CMConfig2([z1, z2], [1, 1]), lat)
    if max(abs(v) for v in fg) > 1e-12:
        return False, f"half-period residual {max(abs(v) for v in fg)}"

    def pair_coeffs(z):
        return [-2 * wp_eval(z - z1, lat) - 2 * wp_eval(z - z2, lat), 0j]

    reports = monodromy_matrices(pair_coeffs, 2, z1, 0.15 * lat.shortest,
                                 DEFAULT_LAMBDAS)
    worst = max(rep.deviation for rep in reports)
    if worst > 1e-7:
        return False, f"half-period pair deviation {worst}"
    # gradient structure of the cubic system
    zs = [0.21 + 0.33j, 0.57 - 0.12j]
    ps = [0.4 - 0.2j, -0.3 + 0.5j]
    cval = 1.1 - 0.7j
    res = cm3_residuals(CMConfig3(zs, ps, cval), lat)
    h = 1e-5

    def action(zv, pv):
        cfg = CMConfig3(zv, pv, cval)
        return cm3_F(cfg, lat) + cval * cm3_H1(cfg)

    fd = []
    for i in range(2):
        up, dn = list(ps), list(ps)
        up[i] += h
        dn[i] -= h
        fd.append((action(zs, up) - action(zs, dn)) / (2 * h))
    for i in range(2):
        up, dn = list(zs), list(zs)
        up[i] += h
        dn[i] -= h
        fd.append(-(action(up, ps) - action(dn, ps)) / (2 * h))
    diff = max(abs(a - b) for a, b in zip(fd, res))
    if diff > 1e-6:
        return False, f"finite-difference gradient mismatch {diff}"
    # Newton locates a genuine two-pole critical point
    z1p = 0.17 + 0.05j
    guess = CMConfig3([z1p, z1p + 0.52], [0.9, -0.9], 3 * wp_eval(0.52, lat))
    out = newton_critical(*pinned_cm3_system(guess, lat))
    if not out.success or out.residual_norm > 1e-10:
        return False, f"Newton residual {out.residual_norm}"
    return True, "single/double pole cross-checks pass; Newton converged"


#: samples each check of criterion_symmetric_third_order takes
_SYMMETRIC_SAMPLES = 20
#: the most draws a sampled check spends per sample; a draw on a pole or an
#: orbit collision raises a ValueError or an ArithmeticError; only these are skipped
_DRAWS_PER_SAMPLE = 10


def _bounded_samples(attempt, samples):
    """samples results of attempt(), or None if that many do not evaluate
    within _DRAWS_PER_SAMPLE * samples attempts."""
    out = []
    for _ in range(_DRAWS_PER_SAMPLE * samples):
        try:
            out.append(attempt())
        except (ValueError, ArithmeticError):
            continue
        if len(out) == samples:
            return out
    return None


def _too_few(samples):
    return f"fewer than {samples} of {_DRAWS_PER_SAMPLE * samples} sampled points evaluate"


#: relative bound on each residual/gradient component.  Both sides sum up to
#: 12 products of wp, wp' or wp'' with O(1) factors, the interaction terms at
#: arguments related by the Z3 symmetry.  Rounding an argument moves it by
#: u|z| <= u = 2^-53, and wp^(k) ~ d^-(k+2) at distance d from a pole, so a
#: term errs by about 4u/d relative and a side by 4u/d + 12u relative to its
#: size while its terms do not cancel; the floor of 1 covers O(1) terms that
#: do.  1e-11 covers both sides' errors for d >= 1e-4: seeds 0-31 sample
#: d >= 4.8e-3 and read at most 1.05e-13 (seed 4, entries up to 5.2e7), and
#: a 1e-9 relative error in either side still fails
_GRADIENT_RTOL = 1e-11


def criterion_symmetric_third_order(seed=0):
    """The folded-orbit identity and the Hamiltonian gradient equivalence."""
    rng = random.Random(seed)

    def fold_residual():
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
        return abs(hexagonal_fold_residual(z))

    def gradient_gap():
        zs = [complex(rng.uniform(0.1, 0.45), rng.uniform(0.05, 0.3)),
              complex(rng.uniform(-0.45, -0.1), rng.uniform(0.3, 0.5))]
        ps = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
        alphas = [complex(rng.uniform(-2, 2)) for _ in range(3)]
        betas = [complex(rng.uniform(-2, 2)) for _ in range(3)]
        cfg = Cryst3Config(zs, ps, alphas, betas)
        pairs = list(zip(cryst3_residuals(cfg), cryst3_grad_H(cfg)))
        return (max(abs(a - b) for a, b in pairs),
                max(abs(a - b) / max(1, abs(a), abs(b)) for a, b in pairs))

    short = _too_few(_SYMMETRIC_SAMPLES)
    ids = _bounded_samples(fold_residual, _SYMMETRIC_SAMPLES)
    if ids is None:
        return False, f"fold identity: {short}"
    worst_id = max(ids)
    if worst_id > 1e-10:
        return False, f"fold identity residual {worst_id}"
    gaps = _bounded_samples(gradient_gap, _SYMMETRIC_SAMPLES)
    if gaps is None:
        return False, f"residual/gradient: {short}"
    worst = max(gap for gap, _ in gaps)
    if max(scaled for _, scaled in gaps) > _GRADIENT_RTOL:
        return False, f"residual/gradient mismatch {worst}"
    return True, f"identity {worst_id:.2e}, gradient agreement {worst:.2e}"


def criterion_elliptic_numerics(seed=0):
    """Defining relation, periodicity, and series/evaluator agreement."""
    rng = random.Random(seed)
    worst_rel = 0.0
    worst_per = 0.0
    for tau in (1j, HEX_TAU, 0.3 + 1.1j):
        lat = make_lattice(tau)

        def residuals():
            z = rng.uniform(0, 1) + rng.uniform(0, 1) * lat.tau
            if abs(reduce_to_cell(z, lat)) < 0.15 * lat.shortest:
                raise ValueError("near a lattice point")
            w, w1 = wp01(z, lat)
            return (abs(w1 * w1 - 4 * w**3 + lat.g2 * w + lat.g3),
                    abs(wp_eval(z + 1, lat) - w), abs(wp_eval(z + lat.tau, lat) - w))

        points = _bounded_samples(residuals, 100)
        if points is None:
            return False, f"relation/periodicity: {_too_few(100)}"
        for rel, *shifts in points:
            worst_rel = max(worst_rel, rel)
            worst_per = max(worst_per, *shifts)
        # independent check of the evaluator against the raw series
        coeffs = wp_series_numeric(40, lat.g2, lat.g3)
        for frac in (0.12, 0.2):
            z = frac * lat.shortest * cmath.exp(1j * rng.uniform(0, 6.28))
            direct = sum(c * z**k for k, c in coeffs.items())
            if abs(direct - wp_eval(z, lat)) > 1e-10:
                return False, f"series/evaluator gap at |z|={frac}*shortest"
    if worst_rel > 1e-9:
        return False, f"defining relation residual {worst_rel}"
    if worst_per > 1e-10:
        return False, f"periodicity residual {worst_per}"
    return True, f"relation {worst_rel:.2e}, periodicity {worst_per:.2e}"


#: (name, criterion) in run order; each criterion takes the acceptance seed,
#: and those that draw no random samples ignore it
CRITERIA = [
    ("closed-form-loci", criterion_closed_form_loci),
    ("j-invariants", criterion_j_invariants),
    ("rational-reconstruction", criterion_reconstruction),
    ("high-r-scan", criterion_high_r_scan),
    ("leading-condition", criterion_leading_condition),
    ("engine-equivalences", criterion_engine_equivalences),
    ("commuting-certificate", criterion_commuting_certificate),
    ("numerical-monodromy", criterion_numerical_monodromy),
    ("many-body-cross-checks", criterion_many_body),
    ("symmetric-third-order", criterion_symmetric_third_order),
    ("elliptic-numerics", criterion_elliptic_numerics),
]


def run_all(seed: int = 0):
    """[(name, passed, detail)] for every criterion, in a fixed order."""
    results = []
    for name, fn in CRITERIA:
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        results.append((name, ok, detail))
    return results
