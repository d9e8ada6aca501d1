"""Many-body critical point systems and the Newton solver."""

import cmath

import pytest

from ellop.lattice import make_lattice, rational_kernel
from ellop.cm import (
    CMConfig2,
    CMConfig3,
    Cryst3Config,
    InvalidConfigurationError,
    cm3_F,
    cm3_H1,
    cm3_residuals,
    cryst3_H,
    cryst3_grad_H,
    cryst3_residuals,
    finite_gap_residuals,
    hexagonal_fold_residual,
    hexagonal_lattice,
    inozemtsev_U,
    inozemtsev_gradient,
    newton_critical,
)


SQ = make_lattice(1j)


def test_config2_validation():
    with pytest.raises(InvalidConfigurationError):
        CMConfig2([0.3], [1, 2])
    with pytest.raises(InvalidConfigurationError):
        CMConfig2([0.3], [-1])
    with pytest.raises(InvalidConfigurationError):
        CMConfig2([0.3, 0.3 + 1 + 1j], [1, 1]).validate(SQ)   # equal mod lattice
    with pytest.raises(InvalidConfigurationError):
        CMConfig2([1 + 1j], [1]).validate(SQ)                 # on a pole


def test_residuals_at_half_period_configuration():
    # two simple poles a half-period apart: wp' vanishes there
    cfg = CMConfig2([0.3 + 0.2j, 0.8 + 0.2j], [1, 1])
    res = finite_gap_residuals(cfg, SQ)
    assert len(res) == 2
    assert max(abs(v) for v in res) < 1e-10


def test_residuals_antisymmetry_for_equal_multiplicities():
    cfg = CMConfig2([0.12 + 0.31j, 0.55 + 0.11j], [1, 1])
    r1, r2 = finite_gap_residuals(cfg, SQ)
    assert abs(r1 + r2) < 1e-9 * max(1.0, abs(r1))


def test_rational_kernel_equilibrium():
    # three equally spaced points: sum of 1/(z_i - z_j)^3 cancels
    pts = [0.4 * cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    cfg = CMConfig2(pts, [1, 1, 1])
    res = finite_gap_residuals(cfg, rational_kernel)
    assert max(abs(v) for v in res) < 1e-10


def test_residual_count_follows_multiplicities():
    cfg = CMConfig2([0.3, 0.1 + 0.4j], [2, 3])
    assert len(finite_gap_residuals(cfg, SQ)) == 5


def test_cm3_residuals_are_a_gradient():
    cfg = CMConfig3([0.21 + 0.11j, 0.62 - 0.07j], [0.4 + 0.1j, -0.2j], 1.3)
    res = cm3_residuals(cfg, SQ)
    h = 1e-6

    def objective(points, momenta):
        c = CMConfig3(points, momenta, cfg.c)
        return cm3_F(c, SQ) + cfg.c * cm3_H1(c)

    for i in range(2):
        ps = list(cfg.momenta)
        ps[i] += h
        up = objective(cfg.points, ps)
        ps[i] -= 2 * h
        dn = objective(cfg.points, ps)
        assert abs((up - dn) / (2 * h) - res[i]) < 1e-5
        zs = list(cfg.points)
        zs[i] += h
        up = objective(zs, cfg.momenta)
        zs[i] -= 2 * h
        dn = objective(zs, cfg.momenta)
        assert abs(-(up - dn) / (2 * h) - res[2 + i]) < 1e-5


def test_hexagonal_fold_identity():
    for z in (0.23 + 0.11j, -0.31 + 0.41j, 0.52 - 0.17j):
        scale = abs(hexagonal_lattice().g3)
        assert abs(hexagonal_fold_residual(z)) < 1e-9 * scale


def test_cryst3_validation():
    with pytest.raises(InvalidConfigurationError):
        Cryst3Config([0.3], [0.1], (1, 1), (0, 0, 0))
    eta1 = complex(0, 3 ** -0.5)
    cfg = Cryst3Config([eta1], [0.1], (1, 1, 1), (0, 0, 0))
    with pytest.raises(InvalidConfigurationError):
        cfg.validate()


def test_cryst3_residuals_match_hamiltonian_gradient():
    cfg = Cryst3Config(
        [0.23 + 0.14j, -0.11 + 0.39j],
        [0.5, 0.2 - 0.1j],
        (1.2, 0.7, 1.1),
        (0.3, -0.2, 0.1),
    )
    res = cryst3_residuals(cfg)
    grad = cryst3_grad_H(cfg)
    n = len(cfg.points)
    scale = max(abs(v) for v in grad)
    for i in range(n):
        assert abs(res[i] - grad[i]) < 1e-8 * scale
        assert abs(res[n + i] - grad[n + i]) < 1e-8 * scale


def test_cryst3_hamiltonian_gradient_numerically():
    cfg = Cryst3Config([0.31 + 0.09j], [0.4 + 0.2j], (1.1, 0.9, 1.3), (0.2, 0.1, -0.4))
    grad = cryst3_grad_H(cfg)
    h = 1e-6
    up = cryst3_H(Cryst3Config([cfg.points[0]], [cfg.momenta[0] + h],
                               cfg.alphas, cfg.betas))
    dn = cryst3_H(Cryst3Config([cfg.points[0]], [cfg.momenta[0] - h],
                               cfg.alphas, cfg.betas))
    assert abs((up - dn) / (2 * h) - grad[0]) < 1e-4 * max(1.0, abs(grad[0]))


def test_inozemtsev_gradient_is_du_dz():
    pts = [0.21 + 0.13j, 0.37 - 0.22j]
    ms = [0.5, 1.0, -0.25, 2.0]
    grad = inozemtsev_gradient(pts, ms, SQ)
    h = 1e-6
    for j in range(2):
        zs = list(pts)
        zs[j] += h
        up = inozemtsev_U(zs, ms, SQ)
        zs[j] -= 2 * h
        dn = inozemtsev_U(zs, ms, SQ)
        assert abs((up - dn) / (2 * h) - grad[j]) < 1e-4 * max(1.0, abs(grad[j]))


def test_inozemtsev_validation():
    with pytest.raises(InvalidConfigurationError):
        inozemtsev_U([0.5], [1, 1, 1, 1], SQ)         # half-period point
    with pytest.raises(InvalidConfigurationError):
        inozemtsev_U([0.2, -0.2], [1, 1, 1, 1], SQ)   # reflection orbit
    with pytest.raises(InvalidConfigurationError):
        inozemtsev_U([0.2], [1, 1, 1], SQ)            # wrong parameter count


def test_newton_simple_root():
    res = newton_critical(lambda v: [v[0] ** 2 - 4], [3.0 + 0.1j])
    assert res.success
    assert abs(res.solution[0] - 2) < 1e-8
    assert res.jacobian_rank == 1
    assert not res.used_least_squares


def test_newton_singular_but_solvable():
    res = newton_critical(
        lambda v: [v[0] + v[1] - 1, 2 * v[0] + 2 * v[1] - 2], [5.0, -3.0]
    )
    assert res.success
    assert res.used_least_squares
    assert res.jacobian_rank == 1


def test_newton_infeasible_system():
    # no step descends on this system, so each line search ends by taking
    # its last, shortest step, and the iteration runs to its cap of 100
    res = newton_critical(lambda v: [v[0] - v[0], v[0] * 0 + 1], [1.0, 1.0])
    assert not res.success
    assert res.residual_norm >= 1.0
    assert res.iterations == 100
    assert res.trace == [1.0] * 101
    assert res.solution == [1.0, 1.0]
    assert res.used_least_squares
    assert res.jacobian_rank == 0


def test_newton_rejects_non_square_system():
    with pytest.raises(ValueError):
        newton_critical(lambda v: [v[0], v[0]], [1.0])
