"""Numerical monodromy oracle.

Independent check of trivial monodromy: write (L - lambda) psi = 0 as a
first order companion system, integrate a fundamental matrix once around a
small circle enclosing the pole, and measure the distance of the result
from the identity.  The matrices of all spectral values on one loop are
integrated together, since the coefficients do not depend on lambda, and
the point of DOP853's last stage, which its end-of-step call repeats, is
evaluated once.
The coefficients are polynomials in (wp, wp'), which come from the
lattice's own wp path (lattice.wp01) once per point; the oracle keeps no
series of its own.  The loop is integrated by the package's own DOP853
(ellop.dop853), which takes scipy's steps, and so inherits scipy's floor
of 100 machine epsilons on the tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import dop853
from .dop853 import integrate
from .lattice import Lattice, wp01
from .operators import GlobalEllipticOperator

DEFAULT_LAMBDAS = (1 + 0j, -2 + 1j, 5j)

_VERDICT_TOL = 1e-12             # integration tolerance of integrability_verdict


class PathError(RuntimeError):
    """Integration failed along the loop (step-size collapse or step bound)."""


@dataclass
class MonodromyReport:
    matrix: np.ndarray
    deviation: float
    determinant: complex
    lam: complex
    path: tuple                  # (center, radius)

    def to_json(self) -> str:
        def f(x):
            return float(f"{x:.15g}")

        def pair(v):
            return [f(v.real), f(v.imag)]

        return json.dumps({
            "matrix": [[pair(v) for v in row] for row in self.matrix.tolist()],
            "deviation": f(self.deviation),
            "determinant": pair(self.determinant),
            "lambda": pair(self.lam),
            "path": {
                "center": pair(complex(self.path[0])),
                "radius": f(self.path[1]),
            },
        })


def elliptic_evaluator(op: GlobalEllipticOperator, values: dict, lat: Lattice):
    """Numeric coefficient evaluator z -> [c_0, ..., c_{n-1}] for the monic
    operator psi^(n) + sum c_k(z) psi^(k); symbolic parameters are fixed by
    the values mapping, g2/g3 default to the lattice invariants."""
    n = op.n
    vals = dict(values)
    vals.setdefault("g2", lat.g2)
    vals.setdefault("g3", lat.g3)
    data = {}
    for i, elem in op.coeffs.items():
        p0 = [c.evaluate(vals) for c in elem.part0]
        p1 = [c.evaluate(vals) for c in elem.part1]
        if p0 or p1:
            data[n - i] = (p0, p1)

    def coeffs(z: complex):
        w, w1 = wp01(z, lat)
        out = [0j] * n
        for k, (p0, p1) in data.items():
            v = 0j
            for a in reversed(p0):
                v = v * w + a
            u = 0j
            for a in reversed(p1):
                u = u * w + a
            out[k] = v + u * w1
        return out

    return coeffs


def monodromy_matrices(evaluator, n: int, center: complex, radius: float,
                       lams, tol: float = 1e-12) -> list:
    """Fundamental matrices around the circle |z - center| = radius, one
    MonodromyReport per spectral value in lams, in that order.

    Columns start as the identity at the base point center + radius; the
    loop runs counterclockwise once.  deviation is the max-norm distance of
    the result from the identity.  All spectral values share one
    integration, so each right-hand-side call evaluates the coefficients
    once.  Raises ValueError for a degenerate loop, an empty batch, or a tol
    that is not finite and positive or that the batch tightens below the
    integrator's floor (tol/sqrt(len(lams)) < 100 eps), and PathError when
    dop853.integrate gives up on the loop.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"loop radius must be finite and positive, "
                         f"got {radius}")
    lams = [complex(v) for v in lams]
    if not lams:
        raise ValueError("need at least one spectral value")
    center = complex(center)
    count = len(lams)
    # ellop.dop853 inherits scipy's floor: scipy raises an rtol below
    # 100*eps to it, so below it the two no longer take the same steps
    floor = 100 * np.finfo(float).eps
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if tol / math.sqrt(count) < floor:
        raise ValueError(f"tolerance {tol} over {count} spectral values is below "
                         f"the integrator floor: tol/sqrt({count}) < {floor:.3g}")
    lam_col = np.array(lams)[:, None]
    # DOP853's last stage and its end-of-step call share theta = t + h, so
    # the point, its dz and its coefficients are kept from the previous call
    last = [None, None, None]

    def rhs(theta, y):
        if theta != last[0]:
            turn = np.exp(1j * theta)
            last[:] = theta, 1j * radius * turn, evaluator(center + radius * turn)
        _, dz, c = last
        Y = y.reshape(count, n, n)
        dY = np.empty_like(Y)
        dY[:, :-1] = Y[:, 1:]
        top = lam_col * Y[:, 0]
        for k in range(n):
            ck = c[k]
            if ck:
                top -= ck * Y[:, k]
        dY[:, -1] = top
        return (dz * dY).reshape(-1)

    y0 = np.tile(np.eye(n, dtype=complex), (count, 1, 1)).reshape(-1)
    # a step is accepted when the RMS of error / (atol + rtol*|y|) over all
    # count*n*n components is <= 1; at tol/sqrt(count) its square is
    # sum_l e_l^2, e_l being spectral value l's own RMS at tol, so every
    # e_l <= 1, as a solo run at tol demands
    step_tol = tol / math.sqrt(count)
    # no numpy overflow warnings: a loop that overflows ends at the
    # step-size floor, and that is reported below
    with np.errstate(all="ignore"):
        y = integrate(rhs, y0, 2 * np.pi, step_tol)
    if y is None:
        raise PathError("loop integration failed: the step size fell below the "
                        "spacing of the floats, or the loop took more than "
                        f"{dop853.MAX_STEPS} steps")
    # rows of Y carry derivative orders, columns the transported solutions;
    # the start basis is the identity in those coordinates
    reports = []
    for lam, M in zip(lams, y.reshape(count, n, n)):
        dev = float(np.max(np.abs(M - np.eye(n))))
        det = complex(np.linalg.det(M))
        reports.append(MonodromyReport(M, dev, det, lam, (center, radius)))
    return reports


def monodromy_matrix(evaluator, n: int, center: complex, radius: float,
                     lam: complex, tol: float = 1e-12) -> MonodromyReport:
    """The MonodromyReport of one spectral value; see monodromy_matrices."""
    return monodromy_matrices(evaluator, n, center, radius, [lam], tol)[0]


def integrability_verdict(evaluator, n: int, radius: float, lambdas=None):
    """(verdict, reports) of the loop around the pole at 0, integrated at
    tol = 1e-12: trivial iff every deviation < 10*tol, nontrivial iff any
    deviation > 1e3*tol, inconclusive in between."""
    if lambdas is None:
        lambdas = DEFAULT_LAMBDAS
    lambdas = [complex(v) for v in lambdas]
    if len(lambdas) < 3:
        raise ValueError("need at least 3 spectral samples")
    tol = _VERDICT_TOL
    reports = monodromy_matrices(evaluator, n, 0j, radius, lambdas, tol)
    devs = [r.deviation for r in reports]
    if all(d < 10 * tol for d in devs):
        verdict = "trivial"
    elif any(d > 1e3 * tol for d in devs):
        verdict = "nontrivial"
    else:
        verdict = "inconclusive"
    return verdict, reports
