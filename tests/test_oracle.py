"""Loop-transport monodromy oracle."""

import hashlib
import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from ellop.rationals import Rat
from ellop.elliptic import EllipticElement
from ellop.operators import GlobalEllipticOperator
from ellop.lattice import HEX_TAU, make_lattice
from ellop.operators import IndexData, cyclic_L0, third_order_from_gaps
from ellop.oracle import (
    DEFAULT_LAMBDAS,
    elliptic_batch_evaluator,
    elliptic_evaluator,
    integrability_verdict,
    monodromy_matrices,
    monodromy_matrix,
)


SQ = make_lattice(1j)
LAME = GlobalEllipticOperator(2, {2: EllipticElement([0, -2])})
GENERIC = GlobalEllipticOperator(2, {2: EllipticElement([0, Rat(-5, 2)])})
LAME6 = GlobalEllipticOperator(2, {2: EllipticElement([0, -6])})     # n = 2
LAMS = (1.7 + 0.3j, -2 + 1j, 5j, -0.8j, 2.5 - 1.5j)


def test_trivial_monodromy_at_integrable_point():
    ev = elliptic_evaluator(LAME, {}, SQ)
    rep = monodromy_matrix(ev, 2, 0, 0.15 * SQ.shortest, 1.7 + 0.3j)
    assert rep.deviation < 1e-8
    assert abs(rep.determinant - 1) < 1e-8


def test_nontrivial_monodromy_at_generic_point():
    ev = elliptic_evaluator(GENERIC, {}, SQ)
    rep = monodromy_matrix(ev, 2, 0, 0.15 * SQ.shortest, 1.0)
    assert rep.deviation > 1e-2
    # transport conserves the Wronskian: the trace-free first order system
    # keeps determinant one even when the monodromy is far from the identity
    assert abs(rep.determinant - 1) < 1e-8


def test_loop_without_pole_is_trivial():
    ev = elliptic_evaluator(GENERIC, {}, SQ)
    rep = monodromy_matrix(ev, 2, 0.5 + 0.25j, 0.1, 2.0)
    assert rep.deviation < 1e-8


def test_radius_independence_on_locus():
    ev = elliptic_evaluator(LAME, {}, SQ)
    for radius in (0.1, 0.2, 0.3):
        rep = monodromy_matrix(ev, 2, 0, radius * SQ.shortest, -0.8j)
        assert rep.deviation < 1e-8


def test_verdict_thresholds():
    ev = elliptic_evaluator(LAME, {}, SQ)
    verdict, reports = integrability_verdict(ev, 2, 0.15 * SQ.shortest)
    assert verdict == "trivial"
    assert len(reports) == 3
    ev = elliptic_evaluator(GENERIC, {}, SQ)
    verdict, _ = integrability_verdict(ev, 2, 0.15 * SQ.shortest)
    assert verdict == "nontrivial"


@pytest.mark.parametrize("deviations,verdict", [
    ((5e-12, 5e-12, 5e-12), "trivial"),
    ((5e-12, 1e-11, 5e-12), "inconclusive"),
    ((5e-12, 1e-10, 1e-9), "inconclusive"),
    ((1e-11, 2e-9, 5e-12), "nontrivial"),
])
def test_verdict_reads_the_deviations_against_10_and_1000_tol(monkeypatch, deviations, verdict):
    # tol = 1e-12: between 1e-11 and 1e-9 the loop decides nothing
    import ellop.oracle as oracle

    reports = [SimpleNamespace(deviation=d) for d in deviations]
    monkeypatch.setattr(oracle, "monodromy_matrices", lambda *args: reports)
    assert integrability_verdict(None, 2, 0.2) == (verdict, reports)


def test_verdict_needs_three_samples():
    ev = elliptic_evaluator(LAME, {}, SQ)
    with pytest.raises(ValueError):
        integrability_verdict(ev, 2, 0.2, lambdas=[1.0, 2.0])


def test_report_serialization():
    ev = elliptic_evaluator(LAME, {}, SQ)
    rep = monodromy_matrix(ev, 2, 0, 0.15 * SQ.shortest, 1.0)
    doc = json.loads(rep.to_json())
    assert doc["lambda"] == [1.0, 0.0]
    assert doc["path"]["radius"] == pytest.approx(0.15 * SQ.shortest)
    M = np.array([[complex(*v) for v in row] for row in doc["matrix"]])
    assert np.max(np.abs(M - rep.matrix)) < 1e-12


def test_evaluator_is_minus_two_wp_on_both_sides_of_the_series_switch():
    # the coefficients come from the lattice's wp, whose Laurent series
    # takes over below 0.1 of the shortest period; both sides must give
    # -2 wp, also on rescaled (thin) lattices
    from ellop.lattice import wp_eval

    for lat in (SQ, make_lattice(0.2j), make_lattice(1e-5j)):
        ev = elliptic_evaluator(LAME, {}, lat)
        inner = 0.09 * lat.shortest * np.exp(0.4j)
        outer = 0.11 * lat.shortest * np.exp(0.4j)
        for z in (inner, outer):
            got = ev(complex(z))[0]
            want = -2 * wp_eval(complex(z), lat, 0)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_evaluator_symbolic_values():
    # c and e fixed numerically; g2/g3 default to the lattice invariants
    from ellop.operators import third_order_from_gaps

    L = third_order_from_gaps(2, 2)
    ev = elliptic_evaluator(L, {"c": 0.5, "e": 1.25}, SQ)
    from ellop.lattice import wp_eval

    z = 0.45 * SQ.shortest
    c1, c0 = ev(z)[1], ev(z)[0]
    w = wp_eval(z, SQ, 0)
    w1 = wp_eval(z, SQ, 1)
    assert abs(c1 - (-3 * w + 0.5)) < 1e-9 * abs(w)
    assert abs(c0 - (1.25 * w - 1.5 * w1)) < 1e-9 * abs(w1)


def _one_matrix_transport(evaluator, n, radius, lam, tol=1e-12):
    """Reference: the n x n companion system of one spectral value alone."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

    def rhs(theta, y):
        z = radius * np.exp(1j * theta)
        dz = 1j * radius * np.exp(1j * theta)
        Y = y.reshape(n, n)
        c = evaluator(z)
        dY = np.empty_like(Y)
        dY[:-1] = Y[1:]
        top = lam * Y[0]
        for k in range(n):
            if c[k]:
                top = top - c[k] * Y[k]
        dY[-1] = top
        return (dz * dY).reshape(-1)

    sol = solve_ivp(rhs, (0.0, 2 * np.pi), np.eye(n, dtype=complex).reshape(-1),
                    method="DOP853", rtol=tol, atol=tol)
    return sol.y[:, -1].reshape(n, n)


@pytest.mark.parametrize("op, vals", [
    (LAME, {}),
    (GENERIC, {}),
    (third_order_from_gaps(2, 2), {"c": 0.5, "e": 1.25}),
])
def test_one_value_is_a_batch_of_one(op, vals):
    # a batch of one runs the arithmetic of the one-matrix system unchanged
    ev = elliptic_evaluator(op, vals, SQ)
    for lam in (1.7 + 0.3j, -2 + 1j):
        solo = monodromy_matrix(ev, op.n, 0, 0.2 * SQ.shortest, lam)
        (batch,) = monodromy_matrices(ev, op.n, 0, 0.2 * SQ.shortest, [lam])
        assert np.array_equal(solo.matrix, batch.matrix)
        assert solo.deviation == batch.deviation
        assert solo.determinant == batch.determinant
        ref = _one_matrix_transport(ev, op.n, 0.2 * SQ.shortest, lam)
        assert np.array_equal(batch.matrix, ref)


def test_batch_keeps_every_value_trivial_on_the_locus():
    ev = elliptic_evaluator(LAME, {}, SQ)
    reports = monodromy_matrices(ev, 2, 0, 0.15 * SQ.shortest, LAMS)
    assert [rep.lam for rep in reports] == list(LAMS)
    assert all(rep.deviation < 1e-11 for rep in reports)


def test_batch_is_no_less_accurate_than_solo_runs():
    # the step tolerance shrinks by sqrt(len(lams)), so no value's error
    # control is looser than alone: on the locus the deviation is pure
    # integration error, and the worst batched one beats the best solo one
    ev = elliptic_evaluator(LAME, {}, SQ)
    for radius in (0.1 * SQ.shortest, 0.15 * SQ.shortest):
        batch = monodromy_matrices(ev, 2, 0, radius, LAMS)
        solo = [monodromy_matrix(ev, 2, 0, radius, lam) for lam in LAMS]
        assert (max(rep.deviation for rep in batch)
                < min(rep.deviation for rep in solo))


def test_batch_matches_solo_runs_off_the_locus():
    ev = elliptic_evaluator(GENERIC, {}, SQ)
    reports = monodromy_matrices(ev, 2, 0, 0.15 * SQ.shortest, LAMS)
    assert [rep.lam for rep in reports] == list(LAMS)
    for lam, rep in zip(LAMS, reports):
        solo = monodromy_matrix(ev, 2, 0, 0.15 * SQ.shortest, lam)
        assert np.max(np.abs(rep.matrix - solo.matrix)) <= 1e-9
        assert rep.deviation > 1e-2


def test_verdict_evaluates_the_coefficients_once_per_step_for_all_values():
    inner = elliptic_evaluator(GENERIC, {}, SQ)
    calls = [0]

    def counted(z):
        calls[0] += 1
        return inner(z)

    lams = LAMS + (3 + 3j,)
    integrability_verdict(counted, 2, 0.15 * SQ.shortest, lambdas=lams)
    batched, calls[0] = calls[0], 0
    for lam in lams:
        monodromy_matrix(counted, 2, 0, 0.15 * SQ.shortest, lam)
    assert 3 * batched <= calls[0]


# three third-order operators: (1, 1) on its locus, whose c_0 is 0 where the
# others' is not, then (2, 2) and (4, 4) off theirs
THIRD_BATCH = [
    (third_order_from_gaps(1, 1), {"c": 0.7, "e": 0.0}),
    (third_order_from_gaps(2, 2), {"c": 0.5, "e": 1.25}),
    (third_order_from_gaps(4, 4), {"c": 1.1 + 0.2j, "e": 0.3}),
]


@pytest.mark.parametrize("pairs, radius", [
    ([(LAME, {}), (GENERIC, {}), (LAME6, {})], 0.15),
    (THIRD_BATCH, 0.2),
])
def test_each_operator_of_a_batch_matches_its_solo_loop(pairs, radius):
    # the step tolerance shrinks by sqrt(operators * values), so every block
    # meets its solo error bound: the two runs agree within the tolerance's
    # global error, and the reports come operator-major
    n = pairs[0][0].n
    lams = LAMS[:3]
    tol = 1e-12
    batch = monodromy_matrices(elliptic_batch_evaluator(pairs, SQ), n, 0,
                               radius * SQ.shortest, lams, tol)
    assert len(batch) == len(pairs) * len(lams)
    assert [rep.lam for rep in batch] == list(lams) * len(pairs)
    for i, (op, vals) in enumerate(pairs):
        solo = monodromy_matrices(elliptic_evaluator(op, vals, SQ), n, 0,
                                  radius * SQ.shortest, lams, tol)
        for rep, ref in zip(batch[i * len(lams):(i + 1) * len(lams)], solo):
            scale = max(1.0, float(np.max(np.abs(ref.matrix))))
            assert np.max(np.abs(rep.matrix - ref.matrix)) <= 1e3 * tol * scale
            assert abs(rep.deviation - ref.deviation) <= 1e3 * tol * scale


def test_a_batch_reads_wp_once_per_coefficient_evaluation(monkeypatch):
    import ellop.oracle as oracle

    wp_calls, evaluations = [0], [0]
    wp01 = oracle.wp01

    def counted_wp01(z, lat):
        wp_calls[0] += 1
        return wp01(z, lat)

    monkeypatch.setattr(oracle, "wp01", counted_wp01)
    inner = elliptic_batch_evaluator(THIRD_BATCH, SQ)

    def counted(z):
        evaluations[0] += 1
        return inner(z)

    monodromy_matrices(counted, 3, 0, 0.2 * SQ.shortest, LAMS[:3])
    assert evaluations[0] > 0
    assert wp_calls[0] == evaluations[0]


def test_one_pair_batch_and_batch_rows_keep_the_evaluator_bits():
    # a batch of one is elliptic_evaluator; each operator's slice of a
    # larger batch is that operator's own evaluation, bit for bit
    one = elliptic_batch_evaluator([THIRD_BATCH[0]], SQ)
    ev = elliptic_evaluator(*THIRD_BATCH[0], SQ)
    batch = elliptic_batch_evaluator(THIRD_BATCH, SQ)
    solos = [elliptic_evaluator(op, vals, SQ) for op, vals in THIRD_BATCH]
    for frac in (0.05, 0.09, 0.11, 0.2, 0.45):
        z = complex(frac * SQ.shortest * np.exp(0.7j))
        want = ev(z)
        assert struct.pack("<6d", *_parts(one(z))) == struct.pack("<6d", *_parts(want))
        got = batch(z)
        assert len(got) == 3 * len(THIRD_BATCH)
        for i, solo in enumerate(solos):
            assert (struct.pack("<6d", *_parts(got[3 * i:3 * i + 3]))
                    == struct.pack("<6d", *_parts(solo(z))))


def _parts(values):
    return [x for v in values for x in (v.real, v.imag)]


def test_batches_that_cannot_share_a_loop_are_rejected():
    with pytest.raises(ValueError, match="order"):
        elliptic_batch_evaluator([(LAME, {}), THIRD_BATCH[0]], SQ)
    with pytest.raises(ValueError, match="at least one"):
        elliptic_batch_evaluator([], SQ)
    for size in (0, 3, 5):
        with pytest.raises(ValueError, match="multiple"):
            monodromy_matrices(lambda z, size=size: [0j] * size, 2, 0,
                               0.15 * SQ.shortest, LAMS[:3])


def test_verdict_of_a_batch_covers_every_operator():
    # one verdict for the whole batch: trivial iff every operator is
    radius = 0.15 * SQ.shortest
    both = elliptic_batch_evaluator([(LAME, {}), (LAME6, {})], SQ)
    verdict, reports = integrability_verdict(both, 2, radius)
    assert verdict == "trivial"
    assert len(reports) == 2 * 3
    mixed = elliptic_batch_evaluator([(LAME, {}), (GENERIC, {}), (LAME6, {})], SQ)
    verdict, reports = integrability_verdict(mixed, 2, radius)
    assert verdict == "nontrivial"
    devs = [rep.deviation for rep in reports]
    assert max(devs[:3] + devs[6:]) < 1e-11 < 1e-2 < min(devs[3:6])


@pytest.mark.parametrize("op, radius, tol, lams", [
    (LAME, 0.15, 1e-12, LAMS[:3]),     # smooth: every step accepted
    (GENERIC, 0.3, 1e-8, LAMS[:1]),    # a = -5/2: rejects steps
])
def test_each_loop_point_is_evaluated_once(monkeypatch, op, radius, tol, lams):
    # DOP853's last stage and its end-of-step call share a point: the
    # coefficients there are computed once, and nowhere else twice
    import ellop.oracle as oracle

    inner = elliptic_evaluator(op, {}, SQ)
    integrate = oracle.integrate
    points, thetas = [], []

    def counted(z):
        points.append(z)
        return inner(z)

    def recording(fun, *args):
        def rhs(theta, y):
            thetas.append(theta)
            return fun(theta, y)

        return integrate(rhs, *args)

    monkeypatch.setattr(oracle, "integrate", recording)
    monodromy_matrices(counted, 2, 0, radius * SQ.shortest, lams, tol)
    assert all(a != b for a, b in zip(points, points[1:]))
    assert len(points) == len(set(thetas)) < len(thetas)


@pytest.mark.parametrize("radius", [0.0, -0.1, float("nan"), float("inf")])
def test_degenerate_loop_is_rejected(radius):
    ev = elliptic_evaluator(LAME, {}, SQ)
    with pytest.raises(ValueError, match="radius"):
        monodromy_matrix(ev, 2, 0, radius, 1.0)


def test_empty_batch_is_rejected():
    ev = elliptic_evaluator(LAME, {}, SQ)
    with pytest.raises(ValueError):
        monodromy_matrices(ev, 2, 0, 0.15 * SQ.shortest, [])


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_invalid_tolerance_is_rejected(tol):
    ev = elliptic_evaluator(LAME, {}, SQ)
    with pytest.raises(ValueError, match="tolerance"):
        monodromy_matrix(ev, 2, 0, 0.15 * SQ.shortest, 1.0, tol)


def test_tolerance_below_the_integrator_floor_is_rejected():
    # the integrator's floor is scipy's, 100*eps (about 2.2e-14); a batch
    # of values tightens tol by sqrt(len(lams)), so 4e-14 fails for 4 values
    ev = elliptic_evaluator(LAME, {}, SQ)
    with pytest.raises(ValueError, match="tolerance"):
        monodromy_matrices(ev, 2, 0, 0.15 * SQ.shortest, LAMS[:4], 4e-14)
    with pytest.raises(ValueError, match="tolerance"):
        monodromy_matrix(ev, 2, 0, 0.15 * SQ.shortest, 1.0, 1e-14)
    # and by sqrt(operators * len(lams)) for a batch: 6e-14 holds for one
    # operator and 3 values, not for 3 operators and 3 values
    lame3 = elliptic_batch_evaluator([(LAME, {})] * 3, SQ)
    monodromy_matrices(ev, 2, 0, 0.15 * SQ.shortest, LAMS[:3], 6e-14)
    with pytest.raises(ValueError, match="tolerance 6e-14 over 9 spectral"):
        monodromy_matrices(lame3, 2, 0, 0.15 * SQ.shortest, LAMS[:3], 6e-14)


# SHA-256 over the matrix bytes, deviation and determinant of every report
# of pinned_loops: a change to a single bit of the loop transport fails.
# Recorded on x86-64 with glibc's libm and numpy 2.4, whose complex products
# are part of the bits.
TRANSPORT_DIGESTS = {
    "second": "6d13cce843ebbad70d6538a611cb39c654565fad94f030daf7af8be8fd0957b6",
    "third": "b001f385a302dffae1e76c0e66f145c2a86d4f0a519f154c1885ab76ea28b4ac",
    "cyclic": "167a4884a46aa009e0783bd14be59c93ba4dba7c8bbbbbb392f66e5a7688d35c",
}


def pinned_loops(name):
    """Loops of order 2 (a = -5/2, square lattice) or 3 (gaps (2, 2) off
    the locus, oblique lattice) on both sides of the 0.1 series switch, at
    tol 1e-12 and 1e-8, for batches of one and three spectral values; or
    the order-4 lemniscatic and order-6 equianharmonic cyclic loops of the
    numerical-monodromy criterion, whose coefficients come from
    derivative() chains and have several terms in g2 or g3."""
    if name == "cyclic":
        for op, lat, fac in (
            (cyclic_L0(4, IndexData((Rat(-1), Rat(1), Rat(2), Rat(4))), "g3=0"), SQ, 0.2),
            (cyclic_L0(6, IndexData(tuple(Rat(k) for k in (-1, 0, 2, 3, 4, 7))), "g2=0"),
             make_lattice(HEX_TAU), 0.25),
        ):
            yield from monodromy_matrices(elliptic_evaluator(op, {}, lat), op.n, 0,
                                          fac * lat.shortest, DEFAULT_LAMBDAS)
        return
    if name == "second":
        op, vals, lat = GENERIC, {}, SQ
    else:
        op, vals = third_order_from_gaps(2, 2), {"c": 0.5, "e": 1.25}
        lat = make_lattice(0.3 + 1.1j)
    ev = elliptic_evaluator(op, vals, lat)
    for radius in (0.08, 0.15):
        for tol in (1e-12, 1e-8):
            for lams in (LAMS[:1], LAMS[1:4]):
                yield from monodromy_matrices(ev, op.n, 0, radius * lat.shortest,
                                              lams, tol)


def transport_digest(name):
    h = hashlib.sha256()
    for rep in pinned_loops(name):
        h.update(rep.matrix.tobytes())
        h.update(struct.pack("<3d", rep.deviation, rep.determinant.real,
                             rep.determinant.imag))
    return h.hexdigest()


@pytest.mark.parametrize("name", list(TRANSPORT_DIGESTS))
def test_loop_transport_bits_are_pinned(name):
    assert transport_digest(name) == TRANSPORT_DIGESTS[name]
