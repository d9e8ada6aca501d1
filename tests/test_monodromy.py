"""Frobenius recursion, resonance obstructions, closed-form conditions."""

import dataclasses
import math
import tracemalloc

import pytest

from ellop.rationals import Rat
from ellop.poly import MultiPoly, sort_vars
from ellop.series import LaurentSeries, TruncationError
from ellop.elliptic import EllipticElement
from ellop.operators import (
    GlobalEllipticOperator,
    IndexData,
    LocalOperator,
    coefficients_from_indices,
    cyclic_L0,
    indicial_coefficients,
    third_order_from_gaps,
    third_order_indices,
)
from ellop import monodromy
from ellop.monodromy import (
    Condition,
    ConstraintSet,
    _template_rows,
    algebraic_conditions,
    frobenius_solve,
    obstruction_conditions,
    second_order_conditions,
    trivial_monodromy_constraints,
    two_gap_conditions,
)
from ellop.locus3 import constraints_for, curve_branches, solved_branch, triangular_solve
from ellop.acceptance import _horner

from reference import (LOW_CELLS, every_start, from_terms, psi, split_coefficients,
                       standing_conditions, with_coefficients, wp_series)


def lame_local(K):
    # D^2 - 2P, indices -1 and 2
    return GlobalEllipticOperator(2, {2: EllipticElement([0, -2])}).localize(K)


def test_frobenius_rejects_non_root():
    with pytest.raises(ValueError):
        frobenius_solve(lame_local(6), Rat(1), 5)


def test_frobenius_resonance_is_unobstructed_for_lame():
    sol = frobenius_solve(lame_local(6), Rat(-1), 5)
    # offset 3 hits the second index; the obstruction must vanish for all
    # spectral values, leaving one free parameter
    assert len(sol.free_parameters) == 1
    assert all(p.is_zero() for _, p in sol.obstructions)


def test_frobenius_upper_root_has_no_resonance():
    sol = frobenius_solve(lame_local(6), Rat(2), 5)
    assert not sol.free_parameters
    assert all(p.is_zero() for _, p in sol.obstructions)


def assert_solves_the_operator(op, m, K):
    # independent of the recursion: apply L - lambda to z^m * psi(sol)
    # with series arithmetic.  Offset k lands at z^(m+k-3); it must vanish
    # except at a resonance, where f_k is free and what is left is minus
    # the recorded obstruction
    lam = MultiPoly.var("lambda")
    sol = frobenius_solve(op, m, K)
    u = psi(sol).shift(int(m))
    d1 = u.differentiate()
    d3 = d1.differentiate().differentiate()
    out = d3 + op.coeffs[2] * d1 + op.coeffs[3] * u - u * lam
    assert out.order >= m + K - 2          # every offset k <= K is trusted
    obstruction = {int(m) + k - 3: p for k, p in sol.obstructions}
    for e in range(out.low, out.order):
        got = out.coefficient(e)
        if e in obstruction:
            assert (got + obstruction.pop(e)).is_zero(), (m, e)
        else:
            assert got.is_zero(), (m, e, got.text())
    assert not obstruction
    return sol


@pytest.mark.parametrize("q,r", [(1, 1), (2, 2), (5, 2)])
def test_frobenius_solution_solves_the_operator(q, r):
    K = 10
    op = third_order_from_gaps(q, r).localize(K)
    for m in op.indicial_roots():
        assert_solves_the_operator(op, m, K)


@pytest.mark.parametrize("q,r", [(1, 1), (2, 2), (5, 2), (2, 5), (4, 4)])
def test_frobenius_solution_with_a_resonance_at_the_last_step(q, r):
    # K is the deepest resonance offset, as constraints_for runs the middle
    # index and trivial_monodromy_constraints the lowest one: the last f_K
    # is a free parameter
    op = third_order_from_gaps(q, r).localize(q + r + 4)
    *starts, top = sorted(op.indicial_roots())
    for m in starts:
        K = int(top - m)
        sol = assert_solves_the_operator(op, m, K)
        assert sol.obstructions[-1][0] == K
        name = sol.free_parameters[-1]
        assert psi(sol).coefficient(K) == MultiPoly.var(name)
        assert name not in sol.obstructions[-1][1].used_vars()
        # a longer run goes on past K and agrees up to it
        longer = frobenius_solve(op, m, K + 3)
        assert longer.obstructions == sol.obstructions
        shorter, longer = psi(sol), psi(longer)
        for k in range(K + 1):
            assert longer.coefficient(k) == shorter.coefficient(k)


@pytest.mark.parametrize("m", [Rat(0), Rat(-7), Rat(5), Rat(-1, 3), Rat(7, 2), Rat(-22, 9)])
@pytest.mark.parametrize("coeffs", [
    [Rat(0), Rat(2), Rat(-3), Rat(1)],                       # m(m-1)(m-2)
    [Rat(-5, 6), Rat(3, 4), Rat(-3), Rat(1)],
    [Rat(7, 10), Rat(0), Rat(-1, 3), Rat(-6), Rat(11, 2), Rat(1)],
    [Rat(4)],
])
def test_integer_horner_indicial_values_are_the_fraction_horner(coeffs, m):
    # a template holding only R_0 = coeffs, cleared to integers: the rows
    # hold nothing but lambda, at k - kp = n
    K, n = 9, len(coeffs) - 1
    E = math.lcm(*(c.denominator for c in coeffs))
    values, rows = _template_rows([(E, {0: {0: [int(c * E) for c in coeffs]}})], n, m, K, -1)
    assert values == [_horner(coeffs, m + k) for k in range(K + 1)]
    assert all(type(v) is Rat for v in values)
    assert rows == [[(k - n, {}, 1, True)] if 0 < n <= k else [] for k in range(1, K + 1)]


def falling_factorial(s, k):
    """s(s-1)...(s-k+1), 1 for k = 0."""
    out = Rat(1)
    for j in range(k):
        out *= s - j
    return out


def reference_recursion(op, m, K):
    """The recursion one summand at a time in MultiPoly arithmetic: f_k and
    the obstructions, {k: MultiPoly} each."""
    n = op.n
    P = indicial_coefficients(n, {i: op.b(i).constant_value() for i in range(2, n + 1)})
    lam = MultiPoly.var("lambda")
    f = {0: MultiPoly.const(1)}
    obstructions = {}
    for k in range(1, K + 1):
        inhom = MultiPoly.zero()
        for i in range(2, n + 1):
            a_i = op.coeffs[i]
            for j in range(a_i.low, k - i + 1):
                if j == -i:
                    continue
                A = a_i.coefficient(j)
                if A.is_zero():
                    continue
                kp = k - i - j
                inhom = inhom - A * f[kp] * falling_factorial(m + kp, n - i)
        if k >= n:
            inhom = inhom + lam * f[k - n]
        c = _horner(P, m + k)
        if c != 0:
            f[k] = inhom * (1 / c)
        else:
            obstructions[k] = inhom
            f[k] = MultiPoly.var(f"u{len(obstructions)}")
    return f, obstructions


def assert_matches_reference(op, m, K):
    sol = frobenius_solve(op, m, K)
    f, obstructions = reference_recursion(op, m, K)
    series = psi(sol)
    for k in range(K + 1):
        got = series.coefficient(k)
        assert got == f[k] and got.text() == f[k].text(), (m, k)
    assert [k for k, _ in sol.obstructions] == list(obstructions)
    for k, p in sol.obstructions:
        assert p == obstructions[k] and p.text() == obstructions[k].text(), (m, k)
    return sol


# (1, 4), (2, 5) and (1, 7) have zero falling factorials among the products
@pytest.mark.parametrize("q,r", [(1, 1), (2, 2), (1, 4), (2, 5), (1, 7), (7, 4), (10, 10)])
def test_recursion_matches_the_summand_by_summand_reference(q, r):
    # from the middle index, to the truncation constraints_for uses: the
    # indicial value at m + k is k(k - r)(k + q), negative for 0 < k < r
    op = third_order_from_gaps(q, r).localize(r - 1)
    sol = assert_matches_reference(op, third_order_indices(q, r).indices[1], r)
    assert [k for k, _ in sol.obstructions] == [r]


@pytest.mark.parametrize("q,r", [(1, 1), (2, 2), (5, 2), (1, 4)])
def test_recursion_matches_the_reference_across_a_resonance(q, r):
    # from the lowest index: the free parameter u1 enters at the middle
    # index and the later f_k and the obstruction at the top use it
    op = third_order_from_gaps(q, r).localize(q + r + 4)
    low, mid, top = third_order_indices(q, r).indices
    sol = assert_matches_reference(op, low, int(top - low))
    assert sol.free_parameters == ["u1", "u2"]
    assert "u1" in psi(sol).coefficient(int(top - low) - 1).used_vars()


def third_order_with_indices(indices):
    # D^3 + (c + b2 P) D + (e P + b P') with b2, b3 = -2b from the indices
    bs = coefficients_from_indices(IndexData(indices))
    return GlobalEllipticOperator(3, {
        2: EllipticElement([MultiPoly.var("c"), bs[2]]),
        3: EllipticElement([0, MultiPoly.var("e")], [-bs[3] / 2]),
    })


@pytest.mark.parametrize("indices,m,K", [
    ((Rat(-1, 3), Rat(4, 3), Rat(2)), Rat(-1, 3), 7),   # no resonance
    ((Rat(-1, 3), Rat(4, 3), Rat(2)), Rat(4, 3), 6),
    ((Rat(-1, 3), Rat(2, 3), Rat(8, 3)), Rat(-1, 3), 5),  # resonances at 1 and 3
    ((Rat(-5, 2), Rat(5, 2), Rat(3)), Rat(-5, 2), 7),    # resonance at 5
])
def test_recursion_at_a_non_integer_index_matches_the_reference(indices, m, K):
    op = third_order_with_indices(indices).localize(K + 4)
    sol = assert_matches_reference(op, m, K)
    assert [k for k, _ in sol.obstructions] == [int(rt - m) for rt in sorted(indices)
                                                if rt > m and (rt - m).denominator == 1]


def third_order_with(indices, c):
    # D^3 + (c + b2 P) D + (e P + b P') with any coefficient c of D
    bs = coefficients_from_indices(IndexData(indices))
    return GlobalEllipticOperator(3, {
        2: EllipticElement([c, bs[2]]),
        3: EllipticElement([0, MultiPoly.var("e")], [-bs[3] / 2]),
    })


THIRDS = (Rat(-1, 3), Rat(2, 3), Rat(8, 3))  # resonances at offsets 1 and 3 from -1/3


@pytest.mark.parametrize("make,m,K,implicit,width", [
    # t weighs nothing in poly.WEIGHTS, so only lambda is packed
    (lambda: third_order_with(THIRDS, MultiPoly.var("t")).localize(9), Rat(-1, 3), 5, None, 2),
    # lambda weighs n = 2 and n = 4; g2 is the least-weight parameter
    (lambda: lame_local(12), Rat(-1), 10, "g2", 2),
    (lambda: cyclic_L0(4, IndexData((Rat(-1), Rat(1), Rat(2), Rat(4))), "g3=0").localize(9),
     Rat(-1), 5, "g2", 2),
    # from the lowest index across both resonances: u1 and u2 are in the keys
    (lambda: third_order_from_gaps(13, 13).localize(30), Rat(-12), 26, "e", 2),
    # a 200-digit rational coefficient makes the slots wider than its 665 bits
    (lambda: third_order_with(THIRDS, MultiPoly.var("c", coeff=Rat(10**200 + 1, 3**100)))
     .localize(9), Rat(-1, 3), 5, "e", 666),
], ids=["outside-weights", "lame", "lemniscatic-order-4", "lowest-index-13-13", "wide-slots"])
def test_every_packing_case_matches_the_reference(make, m, K, implicit, width):
    sol = assert_matches_reference(make(), m, K)
    assert sol.slots.implicit == implicit
    assert sol.free_parameters
    assert sol.slots.s >= width


@pytest.mark.parametrize("implicit", [None, "e"])
@pytest.mark.parametrize("s", [2, 9, 64])
def test_slots_unpack_at_the_widest_values_with_zero_slots_between(s, implicit):
    # lambda weighs 3 and e 1, so at weight 40 the term c^a lambda^d has
    # e^(40 - 2a - 3d); without an implicit variable e stays in the key
    universe = ("c", "e", "lambda")
    top = 2 ** (s - 1) - 1
    slots = {1: [top, 0, 0, -top, 0, 1], 3: [-top], 0: [0, 0, top]}
    numerators, expected = {}, {}
    for a, cs in slots.items():
        e = 0 if implicit else 1
        key = from_terms(universe, {(a, e, 0): 1}).terms.popitem()[0]
        numerators[key] = sum(c << (s * d) for d, c in enumerate(cs))
        for d, c in enumerate(cs):
            if c:
                expected[(a, 40 - 2 * a - 3 * d if implicit else 1, d)] = Rat(c, 7)
    layout = monodromy._LambdaSlots(universe, s, 3, implicit, {"c": 2, "e": 1, "lambda": 3})
    assert layout.unpack(numerators, 7, 40) == from_terms(universe, expected)


def test_the_x_recursion_holds_only_its_band():
    # each packed g_k is freed after the last row that reads it, so the
    # traced peak at (40, 40) is that of the band and the obstruction:
    # 1.10 MB on Python 3.11, where holding all 40 g_k to the end read
    # 1.68 MB
    L = third_order_from_gaps(40, 40)
    _, m1, m2 = third_order_indices(40, 40).indices
    algebraic_conditions(L, m1, m2)  # warm the caches
    tracemalloc.start()
    try:
        algebraic_conditions(L, m1, m2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_350_000


def test_constraints_for_unpacks_only_its_obstruction(monkeypatch, uncached_constraints):
    # one read of the slots, of the obstruction at offset r; no f_k is
    # unpacked per step, and the f_k stay packed until psi unpacks them
    seen = []
    read = monodromy._LambdaSlots._read

    def spy(self, numerators, weight):
        seen.append(weight)
        return read(self, numerators, weight)

    monkeypatch.setattr(monodromy._LambdaSlots, "_read", spy)
    constraints_for(10, 10)
    assert seen == [10]
    seen.clear()
    sol = frobenius_solve(third_order_from_gaps(10, 10).localize(9), Rat(1), 10)
    assert seen == [10]
    series = psi(sol)
    series.coefficient(3)
    series.coefficient(9)
    assert seen == [10] + list(range(11))


@pytest.mark.parametrize("q,r", [(1, 1), (2, 2), (5, 2), (1, 4), (10, 7), (13, 13)])
def test_constraints_for_localizes_to_the_least_truncation(monkeypatch, uncached_constraints,
                                                           q, r):
    # constraints_for runs in x = P, y = P' and localizes nothing; the z
    # recursion from the middle index to its resonance at offset r reads
    # a_2 through z^(r-2): r - 1 is enough and r - 2 is not
    seen = []
    localize = GlobalEllipticOperator.localize

    def spy(self, K):
        seen.append(K)
        return localize(self, K)

    monkeypatch.setattr(GlobalEllipticOperator, "localize", spy)
    constraints_for(q, r)
    assert seen == []
    m1 = third_order_indices(q, r).indices[1]
    with pytest.raises(TruncationError, match=f"exponent {r - 2} beyond trusted order {r - 2}"):
        frobenius_solve(localize(third_order_from_gaps(q, r), r - 2), m1, r)


def condition_list(conditions):
    return [(c.lambda_degree, c.poly.text()) for c in conditions]


def test_the_two_engines_agree_on_every_small_cell(uncached_constraints):
    # constraints_for runs in x = P, y = P'; the z recursion on the
    # operator localized to r - 1 must give the same conditions, in order,
    # on all 158 valid cells with q <= 31 and r <= 22
    assert len(LOW_CELLS) == 158
    for q, r in LOW_CELLS:
        _, m1, m2 = third_order_indices(q, r).indices
        z = obstruction_conditions(third_order_from_gaps(q, r).localize(r - 1), m1, m2)
        assert condition_list(constraints_for(q, r).conditions) == condition_list(z), (q, r)


def order_4_with_c_and_e():
    # the order-4 cyclic operator with indices -1, 1, 2, 4, plus c D^2 + e P D
    L = cyclic_L0(4, IndexData((Rat(-1), Rat(1), Rat(2), Rat(4))))
    return GlobalEllipticOperator(4, {2: L.coeffs[2] + MultiPoly.var("c"),
                                      3: L.coeffs[3] + EllipticElement([0, MultiPoly.var("e")]),
                                      4: L.coeffs[4]})


@pytest.mark.parametrize("make,m,top", [
    # the gap family's lowest index to its middle one, offset q
    (lambda: third_order_from_gaps(7, 4), -5, 2),
    (lambda: third_order_from_gaps(11, 17), -12, -1),
    # t weighs nothing in poly.WEIGHTS, so no variable is implicit
    (lambda: third_order_with((Rat(-1), Rat(1), Rat(3)), MultiPoly.var("t")), -1, 1),
    (lambda: third_order_with((Rat(-1), Rat(1), Rat(3)), MultiPoly.var("t")), 1, 3),
    # order 2 (Lame, no condition) and order 4, with and without conditions
    (lambda: GlobalEllipticOperator(2, {2: EllipticElement([0, -6])}), -2, 3),
    (lambda: cyclic_L0(4, IndexData((Rat(-1), Rat(1), Rat(2), Rat(4))), "g3=0"), 2, 4),
    (lambda: order_4_with_c_and_e(), -1, 1),
    (lambda: order_4_with_c_and_e(), 1, 2),
    (lambda: order_4_with_c_and_e(), 2, 4),
], ids=["7-4-lowest", "11-17-lowest", "outside-weights-lowest", "outside-weights-middle",
        "lame-6", "lemniscatic-order-4", "order-4-lowest", "order-4-second", "order-4-third"])
def test_algebraic_conditions_match_the_z_recursion(make, m, top):
    # the z recursion runs from m as far as its deepest resonance; the
    # conditions of its first obstruction, at offset top - m, are split and
    # kept as obstruction_conditions keeps them
    L = make()
    m = Rat(m)
    K = int(max(L.localize(0).indicial_roots()) - m)
    sol = frobenius_solve(L.localize(K - 1), m, K)
    offset, obs = sol.obstructions[0]
    assert offset == top - m
    pieces = split_coefficients(obs, ["lambda"] + sol.free_parameters)
    z = []
    for expo in sorted(pieces, reverse=True):
        p = pieces[expo].primitive()
        if not p.is_zero() and p not in [c for _, c in z]:
            z.append((expo[0], p))
    got = algebraic_conditions(L, m, top)
    assert condition_list(c for c, _ in got) == [(d, p.text()) for d, p in z]
    assert all(weights == c.poly.primitive_with_weights()[1] for c, weights in got)


def reference_conditions(op, starts, top):
    """The conditions of the runs from every index in starts to top, by the
    reference split of every unpacked obstruction, each value kept once
    over all starts."""
    conditions = []
    seen = set()
    for m in starts:
        sol = frobenius_solve(op, m, int(top - m))
        for _, obs in sol.obstructions:
            pieces = split_coefficients(obs, ["lambda"] + sol.free_parameters)
            for expo in sorted(pieces, reverse=True):
                p = pieces[expo].primitive()
                if p not in seen:
                    seen.add(p)
                    conditions.append(Condition(p, expo[0]))
    return conditions


def gap_run(q, r):
    return every_start(third_order_from_gaps(q, r).localize(q + r - 1))


def cyclic_order_4():
    # indices -1, 1, 2, 4
    return cyclic_L0(4, IndexData((Rat(-1), Rat(1), Rat(2), Rat(4)))).localize(4)


def perturbed_order_4():
    # its Laurent terms below the leading ones moved by t, s and t*s
    t, s = MultiPoly.var("t"), MultiPoly.var("s")
    moved = {(2, 0): t, (3, 1): s, (4, 0): t * s}
    return every_start(with_coefficients(cyclic_order_4(),
                                         lambda i, k, c: c + moved.get((i, k), 0)))


def on_solved_branch(q, r):
    # the branch's assignments substituted into the localized operator,
    # whose Laurent coefficients carry g2 and g3
    assignments = solved_branch(q, r).assignments
    op = third_order_from_gaps(q, r).localize(q + r - 1)
    return every_start(with_coefficients(op, lambda i, k, c: c.substitute(assignments)))


GAP_CELLS = [(q, r) for q in range(1, 8) for r in range(1, 8)
             if (q - r) % 3 == 0 and q % 3 and r % 3]
BRANCH_CELLS = [(4, 1), (5, 2), (4, 4), (10, 4), (8, 5), (11, 5), (10, 7), (8, 8), (10, 10)]


@pytest.mark.parametrize("make", [
    lambda: (order_4_with_c_and_e().localize(4), [Rat(-1)], 4),
    lambda: (third_order_from_gaps(2, 5).localize(6), [Rat(-2)], 5),
    *(lambda q=q, r=r: gap_run(q, r) for q, r in GAP_CELLS),
    lambda: every_start(cyclic_order_4()),
    lambda: every_start(cyclic_L0(6, IndexData((Rat(-1), Rat(0), Rat(2), Rat(3), Rat(4),
                                                Rat(7)))).localize(7)),
    perturbed_order_4,
    *(lambda q=q, r=r: on_solved_branch(q, r) for q, r in BRANCH_CELLS),
], ids=["order-4-lowest", "2-5-lowest", *(f"gaps-{q}-{r}" for q, r in GAP_CELLS),
        "cyclic-4", "cyclic-6", "perturbed-order-4",
        *(f"branch-{q}-{r}" for q, r in BRANCH_CELLS)])
def test_obstruction_conditions_match_the_reference_split(make):
    # the slots are read by lambda degree and free exponents, descending;
    # the reference unpacks each obstruction and splits it by repeated
    # coefficients_in, so both must keep the same values in the same order.
    # The reference runs from every start, the engine from the lowest
    # alone, whose free-parameter coefficients hold the higher starts' runs
    op, starts, top = make()
    got = obstruction_conditions(op, starts[0], top)
    want = reference_conditions(op, starts, top)
    assert got == tuple(want)
    assert [(c.poly.vars, list(c.poly.terms.items()), c.poly.text()) for c in got] == [
        (c.poly.vars, list(c.poly.terms.items()), c.poly.text()) for c in want]


def test_every_sampled_branch_has_trivial_monodromy_by_the_z_engine():
    # an independent certificate of the x engine's branches: one z run from
    # the lowest index, whose free-parameter coefficients hold every higher
    # index's obstructions, leaves no condition on the branch, and moving
    # one assignment (0 to 1, or else doubled) leaves one standing.  Every
    # ninth of the 158 valid cells with q <= 31 and r <= 22 holds 25 solved
    # branches of all four kinds
    branches = [b for q, r in LOW_CELLS[::9] for b in triangular_solve(constraints_for(q, r))
                if b.classification not in ("inconsistent", "unsolved")]
    assert len(branches) == 25
    assert {b.classification for b in branches} == {
        "cyclic-point", "finite-set", "exotic-j", "one-parameter-family"}
    for b in branches:
        assert standing_conditions(b, b.assignments) == [], (b.q, b.r)
        (v, value), *_ = b.assignments.items()
        moved = MultiPoly.const(1) if value.is_zero() else value * 2
        assert standing_conditions(b, {**b.assignments, v: moved}), (b.q, b.r, v)


def test_the_z_engine_certifies_the_c_squared_relations_of_nodal_branches():
    # on the nodal curve g2 = 3 w^2, g3 = w^3 the first solved branches with
    # a c^2 relation appear (c^2 = 36 w^2 at (4, 4)): 30 of them in the 158
    # valid cells with q <= 31 and r <= 22, at r = 4 and 7 or at q = 4 and
    # 7.  Every condition vanishes modulo the relation, and not without
    # it, nor with the relation's value doubled
    branches = [b for q, r in LOW_CELLS for b in curve_branches(q, r, "nodal")
                if b.relation is not None and b.classification != "unsolved"]
    assert len(branches) == 30
    assert {b.classification for b in branches} == {"finite-set"}
    for b in branches:
        var, square = b.relation
        assert standing_conditions(b, b.assignments, "nodal") == [], (b.q, b.r)
        for moved in (None, (var, square * 2)):
            off = dataclasses.replace(b, relation=moved)
            assert standing_conditions(off, b.assignments, "nodal"), (b.q, b.r, moved)


def test_split_groups_follow_the_order_of_the_free_parameters():
    # u10 sorts between u1 and u2 in the universe, but its coefficient
    # comes after u2's, as in the reference split over lambda, u1, u2, u10
    universe = sort_vars(("lambda", "c", "e", "u1", "u2", "u10"))
    free = ["u1", "u2", "u10"]
    c, e = MultiPoly.var("c"), MultiPoly.var("e")
    lam, u1, u2, u10 = (MultiPoly.var(v) for v in ("lambda", "u1", "u2", "u10"))
    # lambda c u2 + c^2 u10 + e u1 u10 + e^3 u2 + 5 c e - lambda e^2, each
    # lambda-polynomial in 8-bit slots
    s = 8
    numerators = {}
    for poly, slots in ((c * u2, 1 << s), (c * c * u10, 1), (e * u1 * u10, 1), (e ** 3 * u2, 1),
                        (c * e, 5), (e * e, -1 << s)):
        (key,) = poly.in_universe(universe).terms
        numerators[key] = slots
    layout = monodromy._LambdaSlots(universe, s, 3, None, {})
    obs = layout.unpack(numerators, 1, 0)
    assert obs == (lam * c * u2 + c * c * u10 + e * u1 * u10 + e ** 3 * u2 + c * e * 5
                   - lam * e * e)
    # one step of a run, at offset 4, whose obstruction is numerators over 1
    got = monodromy._split_coefficients(layout, [(4, {}, 1, (numerators, 1))], free)
    pieces = split_coefficients(obs, ["lambda"] + free)
    want = [(expo[0], pieces[expo].primitive().text()) for expo in sorted(pieces, reverse=True)]
    assert [(cond.lambda_degree, cond.poly.text()) for cond, _ in got] == want == [
        (1, "c"), (1, "e^2"), (0, "e"), (0, "e^3"), (0, "c^2"), (0, "c*e")]


@pytest.mark.parametrize("make,m,top,message", [
    (lambda: third_order_with(THIRDS, MultiPoly.var("t")), Rat(-1, 3), Rat(2, 3),
     "index -1/3 is not an integer"),
    (lambda: third_order_from_gaps(2, 2), 0, 3, "0 is not an indicial root"),
    (lambda: third_order_from_gaps(2, 2), -1, 3, "3 is not the first resonance above -1"),
    (lambda: third_order_from_gaps(2, 2), 1, 2, "2 is not the first resonance above 1"),
    (lambda: GlobalEllipticOperator(2, {2: EllipticElement([MultiPoly.var("lambda"), -2])}),
     -1, 2, "coefficients use the spectral parameter"),
    (lambda: GlobalEllipticOperator(2, {2: EllipticElement([0, 0, 1])}), -1, 2,
     "not Fuchsian at the pole"),
    (lambda: GlobalEllipticOperator(2, {2: EllipticElement([0, MultiPoly.var("a")])}), -1, 2,
     "indicial polynomial has symbolic coefficients"),
], ids=["non-integer-index", "not-a-root", "resonance-before-top", "top-not-a-resonance",
        "lambda-in-the-operator", "not-fuchsian", "symbolic-indicial"])
def test_algebraic_conditions_guards(make, m, top, message):
    with pytest.raises(ValueError, match=message):
        algebraic_conditions(make(), m, top)


def test_one_universe_holds_every_free_parameter_from_the_first_step():
    # from the lowest index of (2, 5) the run meets the middle index at
    # offset 2, before its last step at offset 7
    op = third_order_from_gaps(2, 5).localize(9)
    low = min(op.indicial_roots())
    sol = frobenius_solve(op, low, 7)
    assert [k for k, _ in sol.obstructions] == [2, 7]
    assert sol.free_parameters == ["u1", "u2"]
    series = psi(sol)
    universe = series.coefficient(0).vars
    assert {"lambda", "u1", "u2"} <= set(universe)
    assert all(series.coefficient(k).vars == universe for k in range(8))
    assert all(p.vars == universe for _, p in sol.obstructions)
    assert series.coefficient(2) == MultiPoly.var("u1")
    assert "u1" in series.coefficient(3).used_vars()


def test_constraint_sets_are_immutable():
    cs = constraints_for(5, 5)
    assert isinstance(cs.conditions, tuple) and (cs.q, cs.r) == (5, 5)
    for name, value in (("q", 7), ("conditions", ()), ("r", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cs, name, value)
    assert hash(cs) == hash(constraints_for(5, 5))


@pytest.mark.parametrize("q,r,expected", [
    (2, 2, [(0, "3*c + e^2")]),
    (4, 4, [(1, "e"), (0, "945*c^2 + 126*c*e^2 + e^4 - 11340*g2")]),
])
def test_full_mode_keeps_each_condition_once(q, r, expected):
    # the free-parameter coefficients of the lowest index's obstructions
    # repeat conditions of the middle index (3 nonzero pieces at (2, 2), 6
    # at (4, 4)); each value is kept once, at its first occurrence
    op = third_order_from_gaps(q, r).localize(q + r + 4)
    cs = trivial_monodromy_constraints(op)
    assert condition_list(cs.conditions) == expected


def test_trivial_monodromy_runs_the_recursion_once_from_the_lowest_index(monkeypatch):
    runs = []
    passes = monodromy._laurent_passes

    def spy(op, m, K):
        runs.append((m, K))
        return passes(op, m, K)

    monkeypatch.setattr(monodromy, "_laurent_passes", spy)
    for op, (low, *_, top) in ((third_order_from_gaps(4, 4).localize(7), (-3, 1, 5)),
                               (perturbed_order_4()[0], (-1, 1, 2, 4)),
                               (lame_local(6), (-1, 2))):
        runs.clear()
        trivial_monodromy_constraints(op)
        assert runs == [(low, top - low)]


def test_indices_in_one_residue_class_are_unsatisfiable():
    # indices 0, 0, 3, all 0 mod 3
    op = LocalOperator(3, {2: LaurentSeries(-2, [-2], 4), 3: LaurentSeries(-3, [0], 4)})
    assert sorted(op.indicial_roots()) == [0, 0, 3]
    with pytest.raises(ValueError) as err:
        trivial_monodromy_constraints(op)
    assert str(err.value) == "indices not integrable: indices repeat a residue class mod n"


def test_trivial_monodromy_detects_generic_failure():
    op = GlobalEllipticOperator(
        2, {2: EllipticElement([0, MultiPoly.var("a")])}
    ).localize(8)
    with pytest.raises(ValueError):
        # symbolic leading coefficient: indices are not determined
        trivial_monodromy_constraints(op)


def test_trivial_monodromy_full_vs_point():
    # a = -2 is integrable, a = -5/2 is not
    good = GlobalEllipticOperator(2, {2: EllipticElement([0, -2])})
    bad = GlobalEllipticOperator(2, {2: EllipticElement([0, Rat(-5, 2)])})
    assert trivial_monodromy_constraints(good.localize(8)).conditions == ()
    # the indices of a = -5/2 are (1 +- sqrt(11))/2
    with pytest.raises(ValueError) as err:
        trivial_monodromy_constraints(bad.localize(8))
    assert str(err.value) == "indices not integrable: non-rational indices"


def test_third_order_conditions_match_known_locus():
    cs = constraints_for(2, 2)
    assert [c.poly.text() for c in cs.conditions] == ["3*c + e^2"]
    on = {"c": MultiPoly.var("e", 2, Rat(-1, 3))}
    off = {"c": MultiPoly.var("e", 2)}
    assert all(c.poly.substitute(on).is_zero() for c in cs.conditions)
    assert not all(c.poly.substitute(off).is_zero() for c in cs.conditions)


def test_conditions_carry_lambda_degrees():
    cs = constraints_for(5, 5)
    degs = [c.lambda_degree for c in cs.conditions]
    assert degs == sorted(degs, reverse=True)
    assert all(len(c.poly.primitive_with_weights()[1]) == 1 for c in cs.conditions)


def test_second_order_lame_is_unconditional():
    for m in (1, 2, 3):
        u = wp_series(2 * m + 2) * Rat(-m * (m + 1))
        cs = second_order_conditions(m, u)
        assert not cs.conditions


def test_second_order_flags_odd_coefficient():
    u = wp_series(6) * Rat(-6)
    bumped = u + _monomial_series(1, MultiPoly.var("t"), 6)
    cs = second_order_conditions(2, bumped)
    assert [c.poly.text() for c in cs.conditions] == ["t"]


def _monomial_series(k, coeff, order):
    from ellop.series import LaurentSeries

    lo = min(k, -2)
    coeffs = [MultiPoly.zero()] * (order - lo)
    coeffs[k - lo] = coeff
    return LaurentSeries(lo, coeffs, order)


def test_second_order_validates_principal_part():
    u = wp_series(4) * Rat(-5)
    with pytest.raises(ValueError):
        second_order_conditions(1, u)
    with pytest.raises(ValueError):
        second_order_conditions(-1, wp_series(4))


def test_two_gap_conditions_known_form():
    a = [Rat(-3), MultiPoly.var("a1"), MultiPoly.var("a2"),
         MultiPoly.var("a3"), MultiPoly.var("a4")]
    b = [Rat(3), MultiPoly.var("b1"), MultiPoly.var("b2"),
         MultiPoly.var("b3"), MultiPoly.var("b4")]
    cs = two_gap_conditions(a, b)
    texts = {c.poly.text() for c in cs.conditions}
    assert "a1" in texts
    assert "b2" in texts
    assert any("b1^2" in t for t in texts)


def test_two_gap_conditions_validate_input():
    with pytest.raises(ValueError):
        two_gap_conditions([Rat(-3)] * 3, [Rat(3)] * 5)
    with pytest.raises(ValueError):
        two_gap_conditions([Rat(1)] + [Rat(0)] * 4, [Rat(3)] + [Rat(0)] * 4)


@pytest.mark.parametrize("call,error,message", [
    (lambda: second_order_conditions(1, wp_series(4) * Rat(-2) + LaurentSeries(-1, [1], 4)),
     ValueError, "1/z term must vanish"),
    (lambda: frobenius_solve(GlobalEllipticOperator(
        2, {2: EllipticElement([MultiPoly.var("lambda"), -2])}).localize(6), Rat(-1), 5),
     ValueError, "coefficients use the spectral parameter"),
    (lambda: obstruction_conditions(lame_local(6), Rat(1), 3), ValueError,
     "1 is not an indicial root"),
    (lambda: obstruction_conditions(GlobalEllipticOperator(
        2, {2: EllipticElement([0, MultiPoly.var("a")])}).localize(6), Rat(-1), 2),
     ValueError, "indicial polynomial has symbolic coefficients"),
], ids=["one_over_z", "lambda_in_the_operator", "not_an_indicial_root", "symbolic_indicial"])
def test_monodromy_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_a_constraint_set_refuses_a_zero_condition():
    # a zero condition holds everywhere; a set holds only nonzero ones, so
    # a point is on its locus iff substituting it leaves no condition
    one = Condition(MultiPoly.const(1), 0)
    with pytest.raises(ValueError, match="a condition of a constraint set is zero"):
        ConstraintSet(3, (one, Condition(MultiPoly.zero(), 0)))
    assert ConstraintSet(3, (one,)).to_json() == (
        '{"n": 3, "conditions": [{"lambda_degree": 0, "poly": "1"}]}')
