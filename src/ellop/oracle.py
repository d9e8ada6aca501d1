"""Numerical monodromy oracle.

Independent check of trivial monodromy: write (L - lambda) psi = 0 as a
first order companion system, integrate a fundamental matrix once around a
small circle enclosing the pole, and measure the distance of the result
from the identity.  One loop integrates a batch: every operator of one
order on one lattice that an evaluator returns, times every spectral
value, since the operators share the loop's points and the coefficients do
not depend on lambda.  The point of DOP853's last stage, which its
end-of-step call repeats, is evaluated once.
The coefficients are polynomials in (wp, wp'), which come from the
lattice's own wp path (lattice.wp01) once per point for the whole batch;
the oracle keeps no series of its own.  The loop is integrated by the
package's own DOP853 (ellop.dop853), which takes scipy's steps, and so
inherits scipy's floor of 100 machine epsilons on the tolerance.  numpy
and ellop.dop853 are imported by the first loop, not by this module, so a
process that integrates no loop never loads them.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .lattice import Lattice, wp01
from .operators import GlobalEllipticOperator

if TYPE_CHECKING:                # numpy loads at the first loop, not here
    import numpy as np

DEFAULT_LAMBDAS = (1 + 0j, -2 + 1j, 5j)

LOOP_TOL = 1e-12  # default loop tolerance: 45 times the integrator's floor of 100 eps


class PathError(RuntimeError):
    """Integration failed along the loop (step-size collapse or step bound)."""


def _sig15(x: float) -> float:
    """x rounded to 15 significant digits, as every numeric JSON output
    prints it."""
    return float(f"{x:.15g}")


def _pair(z: complex):
    return [_sig15(z.real), _sig15(z.imag)]


@dataclass
class MonodromyReport:
    matrix: np.ndarray
    deviation: float
    determinant: complex
    lam: complex
    path: tuple                  # (center, radius)

    def to_json(self) -> str:
        return json.dumps({
            "matrix": [[_pair(v) for v in row] for row in self.matrix.tolist()],
            "deviation": _sig15(self.deviation),
            "determinant": _pair(self.determinant),
            "lambda": _pair(self.lam),
            "path": {
                "center": _pair(complex(self.path[0])),
                "radius": _sig15(self.path[1]),
            },
        })


def elliptic_evaluator(op: GlobalEllipticOperator, values: dict, lat: Lattice):
    """Numeric coefficient evaluator z -> [c_0, ..., c_{n-1}] for the monic
    operator psi^(n) + sum c_k(z) psi^(k); symbolic parameters are fixed by
    the values mapping, g2/g3 default to the lattice invariants.  The batch
    of one pair; see elliptic_batch_evaluator."""
    return elliptic_batch_evaluator([(op, values)], lat)


def elliptic_batch_evaluator(pairs, lat: Lattice):
    """Numeric coefficient evaluator of a batch of (operator, values) pairs
    of one order n on one lattice: z -> the n coefficients of each pair in
    turn, as elliptic_evaluator gives them, concatenated.  (wp, wp') is read
    once per point for the whole batch.  Raises ValueError for an empty
    batch or operators of mixed orders."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one operator")
    n = pairs[0][0].n
    if any(op.n != n for op, _ in pairs):
        raise ValueError("the operators of a batch must share one order, got "
                         f"{sorted({op.n for op, _ in pairs})}")
    size = n * len(pairs)
    # (slot in the output, p0, p1) of every nonzero coefficient p0(P) +
    # p1(P)*P': each part as the values of its coefficients by ascending
    # power of P, 0 where a power is missing, for the Horner loops below
    data = []
    for row, (op, values) in enumerate(pairs):
        vals = dict(values)
        vals.setdefault("g2", lat.g2)
        vals.setdefault("g3", lat.g3)
        for i, elem in op.coeffs.items():
            p = ([], [])
            for a, prime, c in elem.parts():
                p[prime].extend([0] * (a + 1 - len(p[prime])))
                p[prime][a] = c.evaluate(vals)
            if p[0] or p[1]:
                data.append((row * n + n - i, *p))

    def coeffs(z: complex):
        w, w1 = wp01(z, lat)
        out = [0j] * size
        for k, p0, p1 in data:
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
                       lams, tol: float = LOOP_TOL, mu: complex = 1) -> list:
    """Fundamental matrices around the circle |z - center| = radius, one
    MonodromyReport per operator and spectral value in lams, operator-major:
    the reports of the evaluator's first operator, in the order of lams,
    then those of its second, and so on.

    The evaluator returns the n coefficients of each operator of a batch,
    concatenated (see elliptic_batch_evaluator); the number of operators,
    ops, is read from its value at the base point center + radius, which
    the first right-hand-side call reuses.  Columns start as the identity
    at the base point; the loop runs counterclockwise once.  deviation is
    the max-norm distance of the result from the identity.  mu, the
    Lattice.mu of the evaluator's lattice, sets the frame of the matrices:
    row and column k carry d^k/dw^k = mu^k d^k/dz^k in w = z/mu, so entry
    (i, j) is mu^(i-j) times its z-frame value.  The reduced lattice's
    shortest period is about 1 in w, so a thin lattice's deviation is read
    at the scale of any other.  All operators
    and spectral values share one integration, so each right-hand-side
    call evaluates the coefficients once.

    The step tolerance is tol/sqrt(ops*len(lams)).  A step is accepted when
    the RMS of error / (atol + rtol*|y|) over all components is <= 1; at
    that tolerance its square is the sum of every system's own squared RMS
    at tol, so each system meets the bound that a run of its own at tol
    demands.  Raises ValueError for a degenerate loop, an empty batch, an
    evaluator whose length is not a positive multiple of n, or a tol that
    is not finite and positive or that the batch tightens below the
    integrator's floor (tol/sqrt(ops*len(lams)) < 100 eps), and PathError
    when dop853.integrate gives up on the loop.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"loop radius must be finite and positive, "
                         f"got {radius}")
    lams = [complex(v) for v in lams]
    if not lams:
        raise ValueError("need at least one spectral value")
    center = complex(center)
    count = len(lams)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    import numpy as np

    from . import dop853

    def at(theta):
        turn = np.exp(1j * theta)
        return theta, 1j * radius * turn, evaluator(center + radius * turn)

    # DOP853's last stage and its end-of-step call share theta = t + h, so
    # the point, its dz and its coefficients are kept from the previous
    # call; the first call is at theta = 0, the base point
    last = list(at(0.0))
    ops, rest = divmod(len(last[2]), n)
    if rest or not ops:
        raise ValueError(f"the evaluator returns {len(last[2])} coefficients, "
                         f"not a positive multiple of the order {n}")
    # one block per operator and spectral value; the docstring derives
    # the step tolerance
    blocks = ops * count
    step_tol = tol / math.sqrt(blocks)
    # ellop.dop853 inherits scipy's floor: scipy raises an rtol below
    # 100*eps to it, so below it the two no longer take the same steps
    floor = 100 * sys.float_info.epsilon
    if step_tol < floor:
        raise ValueError(f"tolerance {tol} over {blocks} spectral values is below "
                         f"the integrator floor: tol/sqrt({blocks}) < {floor:.3g}")
    lam_col = np.array(lams)[:, None]
    # the right-hand side works in buffers made once, through views made
    # once: y is copied into Y, the derivative before the factor dz is
    # assembled in D, and operator o's coefficient C[o, k] multiplies its
    # count blocks by broadcasting.  With one operator this is the
    # arithmetic of the one-matrix system, operand for operand, because a
    # broadcast coefficient and a scalar one give numpy the same bits
    Y = np.empty((ops, count, n, n), dtype=complex)
    D = np.empty_like(Y)
    C = np.empty((ops, n, 1, 1), dtype=complex)
    y_flat, d_flat, c_flat = Y.reshape(-1), D.reshape(-1), C.reshape(-1)
    shift_to, shift_from = D[:, :, :-1], Y[:, :, 1:]
    top, first = D[:, :, -1], Y[:, :, 0]
    terms = [(k, C[:, k], Y[:, :, k]) for k in range(n)]

    def rhs(theta, y):
        nonlocal top                 # top -= ... works in place, in D
        if theta != last[0]:
            last[:] = at(theta)
        _, dz, c = last
        y_flat[:] = y
        shift_to[...] = shift_from
        np.multiply(lam_col, first, out=top)
        c_flat[:] = c
        for k, ck, Yk in terms:
            if any(c[k::n]):
                top -= ck * Yk
        # a new array: the integrator keeps earlier derivatives
        return dz * d_flat

    y0 = np.tile(np.eye(n, dtype=complex), (blocks, 1, 1)).reshape(-1)
    # no numpy overflow warnings: a loop that overflows ends at the
    # step-size floor, and that is reported below
    with np.errstate(all="ignore"):
        y = dop853.integrate(rhs, y0, 2 * np.pi, step_tol)
    if y is None:
        raise PathError("loop integration failed: the step size fell below the "
                        "spacing of the floats, or the loop took more than "
                        f"{dop853.MAX_STEPS} steps")
    # rows of each matrix carry derivative orders, columns the transported
    # solutions; the start basis is the identity in those coordinates, and
    # in the frame of mu too.  At mu = 1 they are reported as integrated
    k = np.arange(n)
    frame = complex(mu) ** (k[:, None] - k)
    reports = []
    for lam, M in zip(lams * ops, y.reshape(blocks, n, n)):
        if mu != 1:
            M = M * frame
        dev = float(np.max(np.abs(M - np.eye(n))))
        det = complex(np.linalg.det(M))
        reports.append(MonodromyReport(M, dev, det, lam, (center, radius)))
    return reports


def monodromy_matrix(evaluator, n: int, center: complex, radius: float,
                     lam: complex, tol: float = LOOP_TOL,
                     mu: complex = 1) -> MonodromyReport:
    """The MonodromyReport of one spectral value; see monodromy_matrices."""
    return monodromy_matrices(evaluator, n, center, radius, [lam], tol, mu)[0]


def integrability_verdict(evaluator, n: int, radius: float, lambdas=None):
    """(verdict, reports) of the loop around the pole at 0, integrated at
    LOOP_TOL: trivial iff every deviation < 10*LOOP_TOL, nontrivial iff any
    deviation > 1e3*LOOP_TOL, inconclusive in between.  For an evaluator of a
    batch of operators the one verdict covers every operator: trivial iff
    all of them read trivial, nontrivial iff any of them does; the reports
    are operator-major, as monodromy_matrices gives them."""
    if lambdas is None:
        lambdas = DEFAULT_LAMBDAS
    lambdas = [complex(v) for v in lambdas]
    if len(lambdas) < 3:
        raise ValueError("need at least 3 spectral samples")
    reports = monodromy_matrices(evaluator, n, 0j, radius, lambdas, LOOP_TOL)
    devs = [r.deviation for r in reports]
    if all(d < 10 * LOOP_TOL for d in devs):
        verdict = "trivial"
    elif any(d > 1e3 * LOOP_TOL for d in devs):
        verdict = "nontrivial"
    else:
        verdict = "inconclusive"
    return verdict, reports
