"""Many-body critical point systems and the Newton solver."""

import cmath

import pytest

import ellop.cm as cm
from ellop import acceptance
from ellop.lattice import make_lattice, wp_eval
from ellop.cm import (
    CMConfig2,
    CMConfig3,
    Cryst3Config,
    InvalidConfigurationError,
    cm3_F,
    cm3_H1,
    cm3_residuals,
    cryst3_grad_H,
    cryst3_residuals,
    finite_gap_residuals,
    hexagonal_fold_residual,
    hexagonal_lattice,
    inozemtsev_gradient,
    newton_critical,
)

from reference import cryst3_H, inozemtsev_U


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


def test_the_pole_test_on_a_lattice_is_in_units_of_the_shortest_period():
    # on tau = 1e-9i every point lies within 1e-8 of a lattice point in
    # absolute units, yet wp evaluates there; within 1e-8 shortest periods
    # of a pole is still rejected
    lat = make_lattice(1e-9j)
    zs = (3e-10 + 1e-10j, 6e-10 + 3e-10j)
    res = finite_gap_residuals(CMConfig2(zs, (1, 1)), lat)
    assert res == [2 * wp_eval(zs[0] - zs[1], lat, 1), 2 * wp_eval(zs[1] - zs[0], lat, 1)]
    with pytest.raises(InvalidConfigurationError, match="sits on a pole"):
        CMConfig2([1e-18], [1]).validate(lat)
    with pytest.raises(InvalidConfigurationError, match="coincide"):
        CMConfig2([zs[0], zs[0] + 1e-18], [1, 1]).validate(lat)


def _count_wp01(monkeypatch):
    """Count cm's (wp, wp') reads; returns a one-entry list."""
    calls = [0]
    real = cm.wp01

    def counted(z, lat):
        calls[0] += 1
        return real(z, lat)

    monkeypatch.setattr(cm, "wp01", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_cm3_residuals_read_wp_once_per_pair(monkeypatch, n):
    calls = _count_wp01(monkeypatch)
    zs = [0.05 + 0.11 * k + 0.03j + 0.07j * k * k for k in range(n)]
    res = cm3_residuals(CMConfig3(zs, [0.3] * n, 1.0), SQ)
    assert len(res) == 2 * n
    assert calls[0] == n * (n - 1)


def test_many_body_criteria_read_wp_once_per_point(monkeypatch):
    # the two criteria that reach cm; reading (wp, wp') once per derivative
    # order made 1,482 reads at seed 0
    calls = _count_wp01(monkeypatch)
    assert acceptance.criterion_many_body(0)[0]
    assert acceptance.criterion_symmetric_third_order(0)[0]
    assert calls[0] <= 741


def test_a_multiplicity_above_3_needs_wp_beyond_its_fifth_derivative():
    msg = r"points\[{}\] has multiplicity 4; the residuals read wp only up to wp\^\(5\), so at most 3"
    with pytest.raises(InvalidConfigurationError, match=msg.format(0)):
        finite_gap_residuals(CMConfig2([0.3, 0.1 + 0.4j], [4, 1]), SQ)
    # a partner of multiplicity 0 still puts a wp^(7) term in the sum
    with pytest.raises(InvalidConfigurationError, match=msg.format(1)):
        finite_gap_residuals(CMConfig2([0.3, 0.1 + 0.4j], [0, 4]), SQ)
    # a single pole has no partner, so nothing is evaluated
    assert finite_gap_residuals(CMConfig2([0.3], [4]), SQ) == [0j] * 4


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
    # three points equally spaced on a circle about 0 of the hexagonal cell:
    # as for 1/z^2, the Z3 symmetry cancels the sum of wp'(z_i - z_j)
    pts = [0.2 * cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    cfg = CMConfig2(pts, [1, 1, 1])
    res = finite_gap_residuals(cfg, hexagonal_lattice())
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


def test_config_lengths_must_match():
    with pytest.raises(InvalidConfigurationError, match="points and momenta differ"):
        CMConfig3([0.3, 0.1j], [0.1], 1.0)
    with pytest.raises(InvalidConfigurationError, match="points and momenta differ"):
        Cryst3Config([0.3], [0.1, 0.2], (1, 1, 1), (0, 0, 0))


def test_points_on_one_z3_orbit_are_rejected():
    z = 0.23 + 0.14j
    eps = cmath.exp(2j * cmath.pi / 3)
    lat = hexagonal_lattice()
    for s in range(3):
        other = eps**s * z + 1 + lat.tau
        cfg = Cryst3Config([z, other], [0.1, 0.2], (1, 1, 1), (0, 0, 0))
        with pytest.raises(InvalidConfigurationError,
                           match=r"points\[1\] and points\[0\] share a Z3 orbit"):
            cryst3_residuals(cfg)


def test_a_point_on_its_own_z3_image_is_a_fixed_point():
    # (1 - eps) z is a period only where z is a fixed point: at lambda / (1 -
    # eps) for every period lambda, and at points as close to one as the
    # pole rule allows
    eps = cmath.exp(2j * cmath.pi / 3)
    tau = hexagonal_lattice().tau
    for lam in (1, tau, 2 - tau, 1 + tau):
        for dz in (0, 3e-9, 5e-9j):
            z = lam / (1 - eps) + dz
            cfg = Cryst3Config([z], [0.1], (1, 1, 1), (0, 0, 0))
            with pytest.raises(InvalidConfigurationError,
                               match="hits a fixed point of the Z3 action"):
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
    alphas, betas = (1.1, 0.9, 1.3), (0.2, 0.1, -0.4)
    h = 1e-6
    # one point, then two: with two, H's orbit interaction terms take part
    for zs, ps in (([0.31 + 0.09j], [0.4 + 0.2j]),
                   ([0.31 + 0.09j, -0.12 + 0.27j], [0.4 + 0.2j, -0.3 + 0.1j])):
        n = len(zs)
        grad = cryst3_grad_H(Cryst3Config(zs, ps, alphas, betas))
        for i in range(n):
            def H(dz, dp):
                return cryst3_H(Cryst3Config(
                    [z + (dz if j == i else 0) for j, z in enumerate(zs)],
                    [p + (dp if j == i else 0) for j, p in enumerate(ps)], alphas, betas))
            dp = (H(0, h) - H(0, -h)) / (2 * h)
            dz = (H(h, 0) - H(-h, 0)) / (2 * h)
            assert abs(dp - grad[i]) < 1e-4 * max(1.0, abs(grad[i])), (n, i)
            assert abs(dz - grad[n + i]) < 1e-4 * max(1.0, abs(grad[n + i])), (n, i)


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


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j, 0.2j])
def test_a_point_on_its_own_reflection_is_a_half_period(tau):
    # 2z is a period only where z is a half period, so the point that meets
    # its reflection -z is rejected as one, within the pole rule's reach
    lat = make_lattice(tau)
    for lam in (1, lat.tau, 1 + lat.tau, 3 - 2 * lat.tau):
        for dz in (0, 4e-9 * lat.shortest, 4e-9j * lat.shortest):
            with pytest.raises(InvalidConfigurationError,
                               match=r"points\[0\] hits a half-period point"):
                inozemtsev_gradient([lam / 2 + dz], [1, 1, 1, 1], lat)


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
