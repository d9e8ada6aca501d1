"""Numerical monodromy oracle.

Independent check of trivial monodromy: write (L - lambda) psi = 0 as a
first order companion system, integrate a fundamental matrix once around a
small circle enclosing the pole, and measure the distance of the result
from the identity.  The matrices of all spectral values on one loop are
integrated together, since the coefficients do not depend on lambda.
Coefficients come from the lattice evaluator, which switches to the
truncated Laurent series automatically inside its safe disk, so the circle
never sees evaluator blow-up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .lattice import _SERIES_TERMS, Lattice, wp_eval
from .operators import GlobalEllipticOperator

DEFAULT_LAMBDAS = (1 + 0j, -2 + 1j, 5j)

_SAFE_FACTOR = 0.35              # series truncation error ~ (0.35)^80 here
_VERDICT_TOL = 1e-12             # integration tolerance of integrability_verdict


class PathError(RuntimeError):
    """Integration failed along the loop (step-size collapse)."""


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

    safe = _SAFE_FACTOR * lat.shortest
    series = {k: _coeff_series(p0, p1, lat) for k, (p0, p1) in data.items()}

    def coeffs(z: complex):
        out = [0j] * n
        if abs(z) < safe:
            for k, (low, cs) in series.items():
                acc = 0j
                for a in reversed(cs):
                    acc = acc * z + a
                out[k] = acc * z**low
            return out
        w = wp_eval(z, lat, 0)
        w1 = wp_eval(z, lat, 1)
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


def _wp_numeric_series(lat: Lattice):
    """(low, coefficient list) Laurent data of wp around 0: the lattice's
    series in w = z/mu, rescaled to z."""
    m = 1 / lat.mu
    return -2, [c * m ** (k + 2) for k, c in enumerate(lat.wp_laurent, -2)]


def _ser_mul(a, b, cut: int):
    la, ca = a
    lb, cb = b
    low = la + lb
    out = [0j] * min(len(ca) + len(cb) - 1, cut - low)
    for i, x in enumerate(ca):
        if not x:
            continue
        for j, y in enumerate(cb):
            if i + j >= len(out):
                break
            out[i + j] += x * y
    return low, out


def _ser_axpy(acc, s, scale):
    low_s, cs = s
    low, out = acc
    if not out:
        return (low_s, [v * scale for v in cs])
    new_low = min(low, low_s)
    hi = max(low + len(out), low_s + len(cs))
    merged = [0j] * (hi - new_low)
    for i, v in enumerate(out):
        merged[low - new_low + i] += v
    for i, v in enumerate(cs):
        merged[low_s - new_low + i] += v * scale
    return new_low, merged


def _coeff_series(p0, p1, lat: Lattice):
    """Numeric Laurent series of sum p0[i] wp^i + sum p1[i] wp^i wp'."""
    cut = _SERIES_TERMS - 2
    wp = _wp_numeric_series(lat)
    lw, cw = wp
    wp1 = (lw - 1, [k * c for k, c in zip(range(lw, lw + len(cw)), cw)])
    acc = (0, [])
    power = (0, [1 + 0j])
    for i in range(max(len(p0), len(p1))):
        if i:
            power = _ser_mul(power, wp, cut)
        if i < len(p0) and p0[i]:
            acc = _ser_axpy(acc, power, p0[i])
        if i < len(p1) and p1[i]:
            acc = _ser_axpy(acc, _ser_mul(power, wp1, cut), p1[i])
    return acc


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
    integrator's floor (tol/sqrt(len(lams)) < 100 eps).
    """
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"loop radius must be finite and positive, "
                         f"got {radius}")
    lams = [complex(v) for v in lams]
    if not lams:
        raise ValueError("need at least one spectral value")
    center = complex(center)
    count = len(lams)
    # scipy raises an rtol below 100*eps to that floor with only a warning
    floor = 100 * np.finfo(float).eps
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if tol / math.sqrt(count) < floor:
        raise ValueError(f"tolerance {tol} over {count} spectral values is below "
                         f"the integrator floor: tol/sqrt({count}) < {floor:.3g}")
    lam_col = np.array(lams)[:, None]

    def rhs(theta, y):
        turn = np.exp(1j * theta)
        z = center + radius * turn
        dz = 1j * radius * turn
        Y = y.reshape(count, n, n)
        c = evaluator(z)
        dY = np.empty_like(Y)
        dY[:, :-1] = Y[:, 1:]
        top = lam_col * Y[:, 0]
        for k in range(n):
            ck = c[k]
            if ck:
                top = top - ck * Y[:, k]
        dY[:, -1] = top
        return (dz * dY).reshape(-1)

    y0 = np.tile(np.eye(n, dtype=complex), (count, 1, 1)).reshape(-1)
    # a step is accepted when the RMS of error / (atol + rtol*|y|) over all
    # count*n*n components is <= 1; at tol/sqrt(count) its square is
    # sum_l e_l^2, e_l being spectral value l's own RMS at tol, so every
    # e_l <= 1, as a solo run at tol demands
    step_tol = tol / math.sqrt(count)
    sol = solve_ivp(rhs, (0.0, 2 * np.pi), y0, method="DOP853",
                    rtol=step_tol, atol=step_tol)
    if not sol.success:
        raise PathError(f"loop integration failed: {sol.message}")
    # rows of Y carry derivative orders, columns the transported solutions;
    # the start basis is the identity in those coordinates
    reports = []
    for lam, M in zip(lams, sol.y[:, -1].reshape(count, n, n)):
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
