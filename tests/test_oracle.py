"""Loop-transport monodromy oracle."""

import json

import numpy as np
import pytest

from ellop.rationals import Rat
from ellop.elliptic import EllipticElement
from ellop.operators import GlobalEllipticOperator
from ellop.lattice import make_lattice
from ellop.oracle import (
    elliptic_evaluator,
    integrability_verdict,
    monodromy_matrix,
    verdict_json,
)


SQ = make_lattice(1j)
LAME = GlobalEllipticOperator(2, {2: EllipticElement([0, -2])})
GENERIC = GlobalEllipticOperator(2, {2: EllipticElement([0, Rat(-5, 2)])})


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


def test_verdict_serialization():
    ev = elliptic_evaluator(LAME, {}, SQ)
    verdict, reports = integrability_verdict(ev, 2, 0.15 * SQ.shortest)
    doc = json.loads(verdict_json(verdict, reports))
    assert doc["verdict"] == "trivial"
    assert len(doc["reports"]) == 3


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
