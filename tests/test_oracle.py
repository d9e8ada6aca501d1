"""Loop-transport monodromy oracle."""

import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ellop.rationals import Rat
from ellop.elliptic import EllipticElement
from ellop.operators import GlobalEllipticOperator
from ellop.lattice import make_lattice
from ellop.operators import third_order_from_gaps
from ellop.oracle import (
    elliptic_evaluator,
    integrability_verdict,
    monodromy_matrices,
    monodromy_matrix,
)


SQ = make_lattice(1j)
LAME = GlobalEllipticOperator(2, {2: EllipticElement([0, -2])})
GENERIC = GlobalEllipticOperator(2, {2: EllipticElement([0, Rat(-5, 2)])})
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


def test_evaluator_series_matches_direct_path():
    # the precomputed Laurent series takes over inside the safe disk; both
    # paths must agree where they meet, also on a rescaled (thin) lattice
    from ellop.lattice import wp_eval

    for lat in (SQ, make_lattice(0.2j)):
        ev = elliptic_evaluator(LAME, {}, lat)
        inner = 0.3 * lat.shortest * np.exp(0.4j)
        outer = 0.4 * lat.shortest * np.exp(0.4j)
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
    # scipy raises a tolerance below 100*eps (about 2.2e-14) silently; the
    # batch tightens tol by sqrt(len(lams)), so 4e-14 fails for 4 values
    ev = elliptic_evaluator(LAME, {}, SQ)
    with pytest.raises(ValueError, match="tolerance"):
        monodromy_matrices(ev, 2, 0, 0.15 * SQ.shortest, LAMS[:4], 4e-14)
    with pytest.raises(ValueError, match="tolerance"):
        monodromy_matrix(ev, 2, 0, 0.15 * SQ.shortest, 1.0, 1e-14)
