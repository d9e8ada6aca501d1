"""Many-body layer: pole configurations whose operators are finite-gap.

Second order multi-pole operators lead to the residual system of odd
derivative sums; third order ones to critical points of a cubic Hamiltonian
F + c*H1; the Z3-symmetric third order family to critical points of the
crystallographic Hamiltonian on the hexagonal lattice.  A damped Newton
solver locates critical points numerically; pinned_cm3_system holds z_1 of
the translation-invariant cubic system fixed and solves for z_2..z_n,
p_1..p_n and c, 2n unknowns for the 2n residuals.

Every evaluator works on a Lattice and reads (wp, wp') once per point from
lattice.wp01; the higher derivatives a sum needs at that point come from
lattice.wp_derivative.  A point, or a difference of two points, within 1e-8
shortest periods of a lattice point is rejected (lattice.near_pole, the rule
of wp01).
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    HEX_TAU,
    Lattice,
    make_lattice,
    near_pole,
    reduce_to_cell,
    wp01,
    wp_derivative,
)


class InvalidConfigurationError(ValueError):
    pass


def _on_pole(z: complex, lat: Lattice) -> bool:
    """Is z within 1e-8 shortest periods of a point of lat?"""
    return near_pole(reduce_to_cell(z, lat), lat)


class _Poles:
    """The validation shared by configurations of distinct poles."""

    def validate(self, lat: Lattice):
        zs = self.points
        for i in range(len(zs)):
            if _on_pole(zs[i], lat):
                raise InvalidConfigurationError(
                    f"points[{i}] sits on a pole of the kernel"
                )
            for j in range(i):
                if _on_pole(zs[i] - zs[j], lat):
                    raise InvalidConfigurationError(
                        f"points[{i}] and points[{j}] coincide modulo the lattice"
                    )


@dataclass(frozen=True)
class CMConfig2(_Poles):
    """Pole positions and multiplicities of a second order candidate."""

    points: tuple
    multiplicities: tuple

    def __init__(self, points, multiplicities):
        points = tuple(complex(z) for z in points)
        mult = tuple(int(m) for m in multiplicities)
        if len(points) != len(mult):
            raise InvalidConfigurationError("points and multiplicities differ in length")
        if any(m < 0 for m in mult):
            raise InvalidConfigurationError("multiplicities must be nonnegative")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "multiplicities", mult)


def finite_gap_residuals(cfg: CMConfig2, lat: Lattice) -> list:
    """Residuals sum_{j != i} m_j (m_j + 1) wp^(2s-1)(z_i - z_j), s = 1..m_i.

    All residuals vanish iff the configuration carries a finite-gap second
    order operator.  Flat list ordered by pole index, then s.  A multiplicity
    above 3 needs wp beyond wp^(5), and is rejected when a partner exists.
    """
    cfg.validate(lat)
    zs, ms = cfg.points, cfg.multiplicities
    for i, mi in enumerate(ms):
        if mi > 3 and len(zs) > 1:
            raise InvalidConfigurationError(
                f"points[{i}] has multiplicity {mi}; the residuals read wp "
                "only up to wp^(5), so at most 3"
            )
    out = []
    for i, mi in enumerate(ms):
        if not mi:
            continue
        terms = [(mj * (mj + 1), wp01(zs[i] - zs[j], lat))
                 for j, mj in enumerate(ms) if j != i]
        for s in range(1, mi + 1):
            acc = 0j
            for weight, (wp, wpp) in terms:
                acc += weight * wp_derivative(wp, wpp, lat.g2, 2 * s - 1)
            out.append(acc)
    return out


@dataclass(frozen=True)
class CMConfig3(_Poles):
    """Positions, momenta and the coupling constant of the cubic system."""

    points: tuple
    momenta: tuple
    c: complex

    def __init__(self, points, momenta, c):
        points = tuple(complex(z) for z in points)
        momenta = tuple(complex(p) for p in momenta)
        if len(points) != len(momenta):
            raise InvalidConfigurationError("points and momenta differ in length")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "momenta", momenta)
        object.__setattr__(self, "c", complex(c))


def cm3_residuals(cfg: CMConfig3, lat: Lattice) -> list:
    """Critical-point residuals of F + c*H1.

    First N entries: c + 3 p_i^2 - 3 sum_{j != i} wp(z_i - z_j), which is
    d(F + c*H1)/dp_i.  Last N entries: 3 sum_{j != i} (p_i + p_j)
    wp'(z_i - z_j), which is -d(F + c*H1)/dz_i.
    """
    cfg.validate(lat)
    zs, ps, c = cfg.points, cfg.momenta, cfg.c
    n = len(zs)
    fam_p = []
    fam_z = []
    for i in range(n):
        sp = 0j
        sz = 0j
        for j in range(n):
            if j == i:
                continue
            wp, wpp = wp01(zs[i] - zs[j], lat)
            sp += wp
            sz += (ps[i] + ps[j]) * wpp
        fam_p.append(c + 3 * ps[i] ** 2 - 3 * sp)
        fam_z.append(3 * sz)
    return fam_p + fam_z


def cm3_F(cfg: CMConfig3, lat: Lattice) -> complex:
    """F = sum p_i^3 - (3/2) sum_{i != j} (p_i + p_j) wp(z_i - z_j)."""
    cfg.validate(lat)
    zs, ps = cfg.points, cfg.momenta
    n = len(zs)
    val = sum(p**3 for p in ps)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            val -= 1.5 * (ps[i] + ps[j]) * wp01(zs[i] - zs[j], lat)[0]
    return val


def cm3_H1(cfg: CMConfig3) -> complex:
    return sum(cfg.momenta)


def pinned_cm3_system(cfg: CMConfig3, lat: Lattice):
    """(system, guess) for newton_critical: cm3_residuals with z_1 held fixed.

    The unknowns are z_2..z_n, p_1..p_n, c, and the guess is cfg's values.
    """
    n = len(cfg.points)
    if not n:
        raise InvalidConfigurationError("the pinned system needs at least one point")
    z1 = cfg.points[0]

    def system(x):
        return cm3_residuals(CMConfig3([z1, *x[: n - 1]], x[n - 1 : -1], x[-1]), lat)

    return system, [*cfg.points[1:], *cfg.momenta, cfg.c]


# -- crystallographic order 3 on the hexagonal lattice ------------------------

_EPS = cmath.exp(2j * cmath.pi / 3)
ETA = (0j, complex(0, 3 ** -0.5), complex(0, -(3 ** -0.5)))


@functools.cache
def hexagonal_lattice() -> Lattice:
    """The tau = e^{2 pi i/3} cell carrying the Z3 symmetry; g2 = 0."""
    return make_lattice(HEX_TAU)


def hexagonal_fold_residual(z: complex) -> complex:
    """wp((1-eps)z) + (1/(3 eps)) (wp(z) + wp(z-eta1) + wp(z-eta2)).

    Zero (to evaluator accuracy) for every z: the identity that folds the
    self-orbit interaction into the fixed-point terms.
    """
    lat = hexagonal_lattice()
    folded = wp01((1 - _EPS) * z, lat)[0]
    spread = sum(wp01(z - eta, lat)[0] for eta in ETA)
    return folded + spread / (3 * _EPS)


@dataclass(frozen=True)
class Cryst3Config:
    """Z3-symmetric third order data: orbit representatives z_i, momenta p_i,
    fixed-point parameters alpha_r, beta_r (r = 0, 1, 2)."""

    points: tuple
    momenta: tuple
    alphas: tuple
    betas: tuple

    def __init__(self, points, momenta, alphas, betas):
        points = tuple(complex(z) for z in points)
        momenta = tuple(complex(p) for p in momenta)
        alphas = tuple(complex(a) for a in alphas)
        betas = tuple(complex(b) for b in betas)
        if len(points) != len(momenta):
            raise InvalidConfigurationError("points and momenta differ in length")
        if len(alphas) != 3 or len(betas) != 3:
            raise InvalidConfigurationError("need alpha_r, beta_r for r = 0, 1, 2")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "momenta", momenta)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)

    @property
    def A(self):
        return tuple(a - 1 for a in self.alphas)

    @property
    def B(self):
        return tuple(a / 2 - b for a, b in zip(self.alphas, self.betas))

    def validate(self):
        lat = hexagonal_lattice()
        zs = self.points
        # (1 - eps^s) z is a period only at the fixed points, so a point
        # that meets its own Z3 image is rejected here already
        for i, z in enumerate(zs):
            if any(_on_pole(z - eta, lat) for eta in ETA):
                raise InvalidConfigurationError(
                    f"points[{i}] hits a fixed point of the Z3 action"
                )
        for i in range(len(zs)):
            for j in range(i):
                if any(_on_pole(zs[i] - _EPS**s * zs[j], lat) for s in (0, 1, 2)):
                    raise InvalidConfigurationError(
                        f"points[{i}] and points[{j}] share a Z3 orbit"
                    )


def _cryst3_input(cfg: Cryst3Config):
    """Validate cfg, then return (lattice, n, z, p, A, B)."""
    cfg.validate()
    return hexagonal_lattice(), len(cfg.points), cfg.points, cfg.momenta, cfg.A, cfg.B


def cryst3_residuals(cfg: Cryst3Config) -> list:
    """Integrability conditions of the Z3-symmetric third order operator.

    First N entries: 3 p_i^2 - 3 sum_{j != i, s} wp(z_i - eps^s z_j)
    + sum_r (alpha_r - 1) wp(z_i - eta_r).  Last N entries:
    sum_r ((alpha_r - 1) wp'(z_i - eta_r) p_i + (alpha_r/2 - beta_r)
    wp''(z_i - eta_r)) - 3 sum_{j != i, s} wp'(z_i - eps^s z_j)
    (p_i + eps^{-s} p_j).
    """
    lat, n, zs, ps, A, B = _cryst3_input(cfg)
    fam_p = []
    fam_z = []
    for i in range(n):
        orbit0 = 0j
        orbit1 = 0j
        for j in range(n):
            if j == i:
                continue
            for s in range(3):
                wp, wpp = wp01(zs[i] - _EPS**s * zs[j], lat)
                orbit0 += wp
                orbit1 += wpp * (ps[i] + _EPS ** (-s) * ps[j])
        fixed = [wp01(zs[i] - eta, lat) for eta in ETA]
        fixed0 = sum(A[r] * fixed[r][0] for r in range(3))
        fixed1 = sum(
            A[r] * fixed[r][1] * ps[i]
            + B[r] * wp_derivative(*fixed[r], lat.g2, 2)
            for r in range(3)
        )
        fam_p.append(3 * ps[i] ** 2 - 3 * orbit0 + fixed0)
        fam_z.append(fixed1 - 3 * orbit1)
    return fam_p + fam_z


def cryst3_H(cfg: Cryst3Config) -> complex:
    """H = sum p_i^3 + sum_{i,r} (A_r wp(z_i - eta_r) p_i + B_r wp'(z_i -
    eta_r)) - 3 sum_{i != j, s} wp(z_i - eps^s z_j) p_i."""
    lat, n, zs, ps, A, B = _cryst3_input(cfg)
    val = sum(p**3 for p in ps)
    for i in range(n):
        for r in range(3):
            wp, wpp = wp01(zs[i] - ETA[r], lat)
            val += A[r] * wp * ps[i]
            val += B[r] * wpp
        for j in range(n):
            if j == i:
                continue
            for s in range(3):
                val -= 3 * wp01(zs[i] - _EPS**s * zs[j], lat)[0] * ps[i]
    return val


def cryst3_grad_H(cfg: Cryst3Config) -> list:
    """(dH/dp_i, dH/dz_i), differentiating H termwise by the chain rule.

    The z_j - eps^s z_i interactions are differentiated in place (chain
    factor -eps^s), without folding them back through the lattice symmetry,
    so agreement with cryst3_residuals is a genuine numerical check of the
    Z3 homogeneity of wp on this cell.
    """
    lat, n, zs, ps, A, B = _cryst3_input(cfg)
    grad_p = []
    grad_z = []
    for i in range(n):
        gp = 3 * ps[i] ** 2
        gz = 0j
        for r in range(3):
            wp, wpp = wp01(zs[i] - ETA[r], lat)
            gp += A[r] * wp
            gz += A[r] * wpp * ps[i]
            gz += B[r] * wp_derivative(wp, wpp, lat.g2, 2)
        for j in range(n):
            if j == i:
                continue
            for s in range(3):
                wp, wpp = wp01(zs[i] - _EPS**s * zs[j], lat)
                gp -= 3 * wp
                gz -= 3 * wpp * ps[i]
                # term wp(z_j - eps^s z_i) p_j differentiated in z_i
                gz -= 3 * (-(_EPS**s)) * wp01(zs[j] - _EPS**s * zs[i], lat)[1] * ps[j]
        grad_p.append(gp)
        grad_z.append(gz)
    return grad_p + grad_z


# -- Inozemtsev potential ------------------------------------------------------


def _inozemtsev_input(points, ms, lat: Lattice):
    """(z_j, m_r, w_r) as complex values, w_r the half periods 0, 1/2, tau/2
    and (1 + tau)/2, after checking that no point sits on a pole of U."""
    zs = [complex(z) for z in points]
    ms = [complex(m) for m in ms]
    if len(ms) != 4:
        raise InvalidConfigurationError("need the four parameters m0..m3")
    ws = (0j, 0.5 + 0j, lat.tau / 2, (1 + lat.tau) / 2)
    # 2z is a period only at the half periods, so a point that meets its
    # own reflection -z is rejected by the first check
    for j, z in enumerate(zs):
        if any(_on_pole(z - w, lat) for w in ws):
            raise InvalidConfigurationError(f"points[{j}] hits a half-period point")
        for k in range(j):
            if _on_pole(z - zs[k], lat) or _on_pole(z + zs[k], lat):
                raise InvalidConfigurationError(
                    f"points[{j}] meets the reflection orbit of points[{k}]"
                )
    return zs, ms, ws


def inozemtsev_U(points, ms, lat: Lattice) -> complex:
    """U = sum_{i,j} (m_i + 1/2)^2 wp(z_j - w_i)
    + sum_{k != j} (wp(z_j - z_k) + wp(z_j + z_k))."""
    zs, ms, ws = _inozemtsev_input(points, ms, lat)
    val = 0j
    for z in zs:
        for mi, w in zip(ms, ws):
            val += (mi + 0.5) ** 2 * wp01(z - w, lat)[0]
    for j in range(len(zs)):
        for k in range(len(zs)):
            if k == j:
                continue
            val += wp01(zs[j] - zs[k], lat)[0] + wp01(zs[j] + zs[k], lat)[0]
    return val


def inozemtsev_gradient(points, ms, lat: Lattice) -> list:
    """dU/dz_j; critical points carry finite-gap even second order operators."""
    zs, ms, ws = _inozemtsev_input(points, ms, lat)
    out = []
    for j, z in enumerate(zs):
        g = 0j
        for mi, w in zip(ms, ws):
            g += (mi + 0.5) ** 2 * wp01(z - w, lat)[1]
        for k in range(len(zs)):
            if k == j:
                continue
            g += 2 * (wp01(z - zs[k], lat)[1] + wp01(z + zs[k], lat)[1])
        out.append(g)
    return out


# -- Newton solver -------------------------------------------------------------


@dataclass
class NewtonResult:
    success: bool
    solution: list
    residual_norm: float
    iterations: int
    jacobian_rank: int | None
    used_least_squares: bool
    trace: list = field(default_factory=list)


#: newton_critical's forward-difference step, success threshold on the
#: residual max-norm, iteration cap, and relative singular-value cut for rank
_NEWTON_STEP = 1e-7
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 100
_NEWTON_RANK_TOL = 1e-8


def newton_critical(func, guess) -> NewtonResult:
    """Damped complex Newton iteration on a square residual system.

    func maps a complex vector to a complex residual vector of equal length
    (gauge freedom must already be fixed by the caller).  The Jacobian is
    forward-differenced; singular Jacobians fall back to a least-squares
    step and set a flag.  Success means residual max-norm below
    _NEWTON_TOL within _NEWTON_MAX_ITER iterations.
    """
    x = np.asarray([complex(v) for v in guess], dtype=complex)
    m = len(x)
    used_lstsq = False
    trace = []

    def F(v):
        out = np.asarray(func(list(v)), dtype=complex)
        if out.shape != (m,):
            raise ValueError("residual system is not square after gauge fixing")
        return out

    def jacobian(v, fv):
        J = np.empty((m, m), dtype=complex)
        for k in range(m):
            vp = v.copy()
            vp[k] += _NEWTON_STEP
            J[:, k] = (F(vp) - fv) / _NEWTON_STEP
        return J

    fx = F(x)
    norm = float(np.max(np.abs(fx))) if m else 0.0
    trace.append(norm)
    it = 0
    rank = None
    while norm >= _NEWTON_TOL and it < _NEWTON_MAX_ITER:
        J = jacobian(x, fx)
        try:
            delta = np.linalg.solve(J, -fx)
            if not np.all(np.isfinite(delta)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(J, -fx, rcond=None)[0]
            used_lstsq = True
        # damp: halve until the residual drops; when no step of the 30
        # descends, the last (t = 2^-29) is taken all the same
        t = 1.0
        for _ in range(30):
            cand = x + t * delta
            fc = F(cand)
            cn = float(np.max(np.abs(fc)))
            if cn < norm:
                break
            t /= 2
        x, fx, norm = cand, fc, cn
        it += 1
        trace.append(norm)
    success = norm < _NEWTON_TOL
    if m:
        sv = np.linalg.svd(jacobian(x, fx), compute_uv=False)
        cut = _NEWTON_RANK_TOL * (sv[0] if sv[0] > 0 else 1.0)
        rank = int(np.sum(sv > cut))
    return NewtonResult(success, list(x), norm, it, rank, used_lstsq, trace)
