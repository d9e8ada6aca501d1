"""The in-package DOP853 takes scipy's steps: same calls, same bits."""

import math

import numpy as np
import pytest

from ellop import dop853
from ellop.dop853 import integrate
from ellop.elliptic import EllipticElement
from ellop.lattice import make_lattice
from ellop.operators import GlobalEllipticOperator
from ellop.oracle import elliptic_evaluator
from ellop.rationals import Rat

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp


SQ = make_lattice(1j)
LAME = GlobalEllipticOperator(2, {2: EllipticElement([0, -2])})
GENERIC = GlobalEllipticOperator(2, {2: EllipticElement([0, Rat(-5, 2)])})
LAMS = (1.7 + 0.3j, -2 + 1j, 5j, -0.8j, 2.5 - 1.5j)


def loop_rhs(op, radius, lams):
    """The companion system of op - lambda around the pole at 0, for a
    batch of spectral values, as the monodromy oracle writes it."""
    ev = elliptic_evaluator(op, {}, SQ)
    lam_col = np.array(lams)[:, None]
    count = len(lams)

    def rhs(theta, y):
        turn = np.exp(1j * theta)
        z = radius * turn
        Y = y.reshape(count, 2, 2)
        c = ev(z)
        dY = np.empty_like(Y)
        dY[:, :-1] = Y[:, 1:]
        dY[:, -1] = lam_col * Y[:, 0] - c[0] * Y[:, 0] - c[1] * Y[:, 1]
        return (1j * radius * turn * dY).reshape(-1)

    y0 = np.tile(np.eye(2, dtype=complex), (count, 1, 1)).reshape(-1)
    return rhs, y0


def recorded(fun):
    """fun, and the list of (t, y bytes) of every call made to it."""
    calls = []

    def wrapped(t, y):
        calls.append((float(t), y.tobytes()))
        return fun(t, y)

    return wrapped, calls


def both(fun, y0, t_bound, tol):
    """(y, calls) of integrate and of scipy's solve_ivp on the same data."""
    ours, our_calls = recorded(fun)
    theirs, their_calls = recorded(fun)
    y = integrate(ours, y0, t_bound, tol)
    sol = solve_ivp(theirs, (0.0, t_bound), y0, method="DOP853", rtol=tol, atol=tol)
    return (y, our_calls), (sol, their_calls)


@pytest.mark.parametrize("op, radius, lams", [
    (LAME, 0.15, LAMS[:1]),            # smooth: every step accepted
    (GENERIC, 0.3, LAMS[:1]),          # a = -5/2: rejects steps at 1e-8
    (LAME, 0.15, LAMS),                # a batch of 5 spectral values
    (GENERIC, 0.3, LAMS),
])
@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_the_loop_calls_and_result_match_scipy(op, radius, lams, tol):
    rhs, y0 = loop_rhs(op, radius * SQ.shortest, lams)
    (y, ours), (sol, theirs) = both(rhs, y0, 2 * np.pi, tol)
    assert sol.status == 0
    assert len(ours) == len(theirs) == sol.nfev
    assert ours == theirs
    assert y.tobytes() == sol.y[:, -1].tobytes()


def test_the_rejected_steps_are_exercised():
    # the a = -5/2 loop at 0.3 shortest periods makes DOP853 reject steps
    # at tol 1e-8: 12 calls per accepted step, plus 2 to start, leave some
    # calls over
    rhs, y0 = loop_rhs(GENERIC, 0.3 * SQ.shortest, LAMS[:1])
    (_, ours), (sol, _) = both(rhs, y0, 2 * np.pi, 1e-8)
    accepted = len(sol.t) - 1
    assert len(ours) > 2 + 12 * accepted


def test_a_pole_on_the_path_collapses_the_step_as_in_scipy():
    # y' = y^2, y(0) = 1 on [0, 2]: y = 1/(1 - t) has a pole at t = 1
    def fun(t, y):
        return y * y

    (y, ours), (sol, theirs) = both(fun, np.array([1 + 0j]), 2.0, 1e-10)
    assert sol.status == -1
    assert sol.message == "Required step size is less than spacing between numbers."
    assert y is None
    assert ours == theirs
    assert math.isclose(theirs[-1][0], 1.0, abs_tol=1e-6)


def test_an_integration_past_max_steps_returns_none(monkeypatch):
    # y' = i y on [0, 2 pi]; a step makes 12 calls, and 2 calls come first
    def fun(t, y):
        return 1j * y

    y0 = np.array([1 + 0j])
    counted, calls = recorded(fun)
    y = integrate(counted, y0, 2 * np.pi, 1e-10)
    steps, rest = divmod(len(calls) - 2, 12)
    assert rest == 0 and steps > 1
    monkeypatch.setattr(dop853, "MAX_STEPS", steps)
    assert integrate(fun, y0, 2 * np.pi, 1e-10).tobytes() == y.tobytes()
    monkeypatch.setattr(dop853, "MAX_STEPS", steps - 1)
    assert integrate(fun, y0, 2 * np.pi, 1e-10) is None
