"""Manufactured solutions and refinement machinery."""

import math

import numpy as np
import pytest

import radgas.constitutive as constitutive
import radgas.verification as verification
from radgas.constitutive import GasParameters
from radgas.domain import ScenarioSpec, build_grid
from radgas.errors import ConfigError
from radgas.verification import (
    FIELDS,
    ManufacturedSolution,
    ManufacturedSources,
    _STORE_SIZE,
    _Profile,
    _cell_residuals,
    _momentum_residual,
    _orders,
    convergence_study,
    integrate_manufactured,
    oracle_compare,
    temporal_convergence_study,
)

PARAMS = GasParameters()


def _residuals(ms: ManufacturedSolution, params: GasParameters, t, x):
    """Residuals (S_v, S_u, S_e, S_z) of the governing equations at (t, x), and the e_v they used.

    Adding the residuals to the respective right-hand sides makes the
    manufactured fields an exact solution.  S_e is the residual of the energy
    equation; the split integrator's temperature substep consumes the
    temperature-form residual S_e - e_v*S_v, see ManufacturedSources.
    """
    f = _Profile(ms, x)
    tau = math.exp(-ms.rate * t)
    S_v, S_e, S_z, e_v = _cell_residuals(params, f, tau, math.exp(-ms.rate_z * t))
    return S_v, _momentum_residual(params, f, tau), S_e, S_z, e_v


def test_equilibrium_solution_has_zero_sources():
    ms = ManufacturedSolution(0.0, 0.0, 0.0, 0.0)
    x = np.linspace(-5, 5, 11)
    for s in _residuals(ms, PARAMS, 0.7, x)[:4]:
        assert np.array_equal(s, np.zeros_like(x))


def test_volume_only_solution_spot_value():
    """With u = 0, theta = 1, z = 0 the volume residual is just d/dt of v, the
    species residual vanishes, and the momentum residual is the pressure
    gradient of the tilted volume."""
    ms = ManufacturedSolution(amp_u=0.0, amp_theta=0.0, amp_z=0.0)
    t = 0.3
    x = np.array([-1.0, 0.0, 0.5, 2.0])
    v_t = -ms.rate * ms.amp_v * np.exp(-(x * x) / (ms.width * ms.width)) * math.exp(-ms.rate * t)
    S_v, S_u, S_e, S_z = _residuals(ms, PARAMS, t, x)[:4]
    assert np.array_equal(S_v, v_t)
    assert np.array_equal(S_z, np.zeros_like(x))
    assert np.all(S_u[x != 0.0] != 0.0)


def _finite_difference_sources(ms, params, t, x, h=1e-4):
    """Independent residual evaluation: compose central differences of the
    manufactured fields into the governing equations."""
    xa = np.asarray(x)
    v = ms.v(t, xa)
    th = ms.theta(t, xa)
    z = ms.z(t, xa)
    u_x = (ms.u(t, xa + h) - ms.u(t, xa - h)) / (2 * h)

    p = lambda tt, xx: constitutive.pressure(params, ms.v(tt, xx), ms.theta(tt, xx))
    p_x = (p(t, xa + h) - p(t, xa - h)) / (2 * h)
    visc = lambda tt, xx: params.mu * (ms.u(tt, xx + h) - ms.u(tt, xx - h)) / (2 * h) / ms.v(tt, xx)
    visc_x = (visc(t, xa + h) - visc(t, xa - h)) / (2 * h)
    S_v = (ms.v(t + h, xa) - ms.v(t - h, xa)) / (2 * h) - u_x
    S_u = (ms.u(t + h, xa) - ms.u(t - h, xa)) / (2 * h) + p_x - visc_x

    e = lambda tt, xx: constitutive.internal_energy(params, ms.v(tt, xx), ms.theta(tt, xx))
    e_t = (e(t + h, xa) - e(t - h, xa)) / (2 * h)
    cond = lambda tt, xx: (
        constitutive.conductivity(params, ms.v(tt, xx), ms.theta(tt, xx))
        * (ms.theta(tt, xx + h) - ms.theta(tt, xx - h)) / (2 * h) / ms.v(tt, xx)
    )
    cond_x = (cond(t, xa + h) - cond(t, xa - h)) / (2 * h)
    phi = constitutive.reaction_rate(params, th)
    S_e = e_t + p(t, xa) * u_x - params.mu * u_x**2 / v - cond_x - params.lam * phi * z

    diff = lambda tt, xx: params.d * (ms.z(tt, xx + h) - ms.z(tt, xx - h)) / (2 * h) / ms.v(tt, xx) ** 2
    diff_x = (diff(t, xa + h) - diff(t, xa - h)) / (2 * h)
    S_z = (ms.z(t + h, xa) - ms.z(t - h, xa)) / (2 * h) - diff_x + phi * z
    return S_v, S_u, S_e, S_z


def test_sources_match_finite_difference_oracle():
    ms = ManufacturedSolution()
    x = np.array([-2.0, -0.5, 0.0, 0.7, 1.8])
    analytic = _residuals(ms, PARAMS, 0.3, x)[:4]
    numeric = _finite_difference_sources(ms, PARAMS, 0.3, x)
    for a, f in zip(analytic, numeric):
        assert np.max(np.abs(a - f)) / max(1.0, np.max(np.abs(f))) < 1e-6


def test_temperature_substep_source_accounts_for_volume_residual():
    ms = ManufacturedSolution()
    grid = build_grid(8.0, 64)
    sources = ManufacturedSources(ms, PARAMS, grid)
    x = grid.cell_centers
    t = 0.4
    S_v, _, S_e, _ = _residuals(ms, PARAMS, t, x)[:4]
    e_v = constitutive.constitutive_partials(PARAMS, ms.v(t, x), ms.theta(t, x))[2]
    assert np.array_equal(sources.Stheta(t), S_e - e_v * S_v)


class PerComponentSources:
    """Each source evaluates the residuals on its own points; nothing is shared."""

    def __init__(self, ms, params, grid):
        self.ms, self.params = ms, params
        self.cells, self.nodes = grid.cell_centers, grid.node_positions[1:-1]

    def Sv(self, t):
        return _residuals(self.ms, self.params, t, self.cells)[0]

    def Su(self, t):
        return _residuals(self.ms, self.params, t, self.nodes)[1]

    def Stheta(self, t):
        x = self.cells
        S_v, _, S_e, _ = _residuals(self.ms, self.params, t, x)[:4]
        e_v = constitutive.constitutive_partials(self.params, self.ms.v(t, x), self.ms.theta(t, x))[2]
        return S_e - e_v * S_v

    def Sz(self, t):
        return _residuals(self.ms, self.params, t, self.cells)[3]


def test_shared_sources_match_per_component_evaluation():
    """Interleaved and repeated times, more distinct ones than the adapter keeps,
    on the cells (Sv, Stheta, Sz) and the interior nodes (Su)."""
    ms = ManufacturedSolution()
    grid = build_grid(8.0, 64)
    sources = ManufacturedSources(ms, PARAMS, grid)
    reference = PerComponentSources(ms, PARAMS, grid)
    distinct = [0.05 * k for k in range(1, _STORE_SIZE + 3)]
    times = distinct + distinct[::-1] + [0.1, 0.2, 0.1, 0.15, 0.2, 0.1, 0.3, 0.15]
    assert len(set(times)) > _STORE_SIZE
    for t in times:
        for name in ("Sv", "Su", "Stheta", "Sz"):
            assert np.array_equal(getattr(sources, name)(t), getattr(reference, name)(t)), (name, t)
    assert sources.Su(0.3).shape == (grid.N - 1,)
    assert sources.Sv(0.3).shape == (grid.N,)


@pytest.mark.parametrize("ms", [ManufacturedSolution(0.0, 0.0, 0.0, 0.0),
                                ManufacturedSolution(width=1.7, rate=0.3, rate_z=2.1)],
                         ids=["rest", "width_and_rates"])
def test_per_grid_factors_keep_every_bit_on_other_members(ms):
    """The rest state, whose sources hold -0.0 where a factor is -0.0, and a member
    with non-default width and rates, compared bit for bit, sign of zero included."""
    grid = build_grid(8.0, 64)
    sources = ManufacturedSources(ms, PARAMS, grid)
    reference = PerComponentSources(ms, PARAMS, grid)
    for t in (0.0, 0.05, 0.3, 0.05, 1.7):
        for name in ("Sv", "Su", "Stheta", "Sz"):
            got, want = getattr(sources, name)(t), getattr(reference, name)(t)
            assert np.array_equal(got, want), (name, t)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (name, t)


def test_shared_sources_are_read_only():
    sources = ManufacturedSources(ManufacturedSolution(), PARAMS, build_grid(8.0, 64))
    for name in ("Sv", "Stheta", "Sz"):
        with pytest.raises(ValueError):
            getattr(sources, name)(0.4)[0] = 0.0


def test_integration_with_shared_sources_is_bit_identical(monkeypatch):
    ms = ManufacturedSolution()
    shared = integrate_manufactured(ms, PARAMS, 8.0, 64, 0.2, 0.01)
    monkeypatch.setattr(verification, "ManufacturedSources", PerComponentSources)
    plain = integrate_manufactured(ms, PARAMS, 8.0, 64, 0.2, 0.01)
    assert shared.t == plain.t
    for f in FIELDS:
        assert np.array_equal(getattr(shared, f), getattr(plain, f))


@pytest.mark.parametrize("dt", [-0.01, 0.0, math.nan])
def test_manufactured_timestep_must_be_a_finite_positive_number(dt):
    with pytest.raises(ConfigError, match="timestep must be a finite number > 0"):
        integrate_manufactured(ManufacturedSolution(), PARAMS, 8.0, 64, 0.2, dt)


def test_temporal_study_names_a_negative_timestep():
    with pytest.raises(ConfigError, match="timestep must be a finite number > 0"):
        temporal_convergence_study(ManufacturedSolution(), PARAMS, 64, [-0.01, -0.005], T=0.1)


def test_manufactured_fields_stay_physical():
    ms = ManufacturedSolution()
    grid = build_grid(8.0, 256)
    for t in (0.0, 0.25, 1.0):
        state = ms.state(grid, t)
        assert np.min(state.v) > 0
        assert np.min(state.theta) > 0
        assert np.min(state.z) >= 0 and np.max(state.z) <= 1
        # far field clean at machine precision
        assert abs(state.u[0]) < 1e-20 and abs(state.u[-1]) < 1e-20


def test_convergence_study_equilibrium_is_exact():
    report = convergence_study(
        ManufacturedSolution(0.0, 0.0, 0.0, 0.0), PARAMS, [16, 32, 64], T=0.25, L=4.0
    )
    for f in ("v", "u", "theta", "z"):
        assert report.errors[-1][f]["L2"] < 1e-14


def test_orders_of_exact_levels():
    """An exact fine level is order inf, an exact coarse level is order -inf."""
    errors = [{f: {"L2": l2} for f in FIELDS} for l2 in (4.0, 1.0, 0.0, 0.0, 1e-16)]
    orders = _orders(errors)
    for f in FIELDS:
        assert orders[f] == [2.0, math.inf, math.inf, -math.inf]


def test_convergence_study_input_validation():
    ms = ManufacturedSolution()
    with pytest.raises(ConfigError):
        convergence_study(ms, PARAMS, [32, 64], T=0.1)
    with pytest.raises(ConfigError):
        convergence_study(ms, PARAMS, [32, 64, 96], T=0.1)
    with pytest.raises(ConfigError):
        temporal_convergence_study(ms, PARAMS, 64, [0.01, 0.006], T=0.1)


def test_error_sequence_strictly_decreasing_for_smooth_fields():
    ms = ManufacturedSolution()
    report = convergence_study(ms, PARAMS, [32, 64, 128], T=0.25)
    for f in ("v", "u", "theta", "z"):
        seq = [e[f]["L2"] for e in report.errors]
        assert seq[0] > seq[1] > seq[2]


def test_oracle_compare_equilibrium_zero_discrepancy():
    spec = ScenarioSpec(L=10.0, N=64, T_end=0.5)
    result = oracle_compare(spec, 64, 256)
    for f in ("v", "u", "theta", "z"):
        assert result[f]["Linf"] < 1e-12


def test_oracle_compare_requires_ratio_four():
    spec = ScenarioSpec(L=10.0, N=64, T_end=0.5)
    with pytest.raises(ConfigError):
        oracle_compare(spec, 64, 128)


def test_restriction_matches_shared_nodes_exactly():
    """Velocity restriction is injection at shared nodes, so comparing the
    restricted field equals comparing on shared nodes to round-off."""
    from radgas.verification import _restrict_to_coarse
    from radgas.domain import State

    rng = np.random.default_rng(53)
    fine = State(0.0, rng.uniform(0.5, 2, 256), rng.uniform(0.5, 2, 256),
                 rng.uniform(0, 1, 256), rng.uniform(-1, 1, 257))
    restricted = _restrict_to_coarse(fine, 4)
    assert np.array_equal(restricted["u"], fine.u[::4])
    assert restricted["v"].shape == (64,)
    assert restricted["v"][0] == pytest.approx(np.mean(fine.v[:4]), rel=1e-15)
