"""Grid construction, initial data, and validators."""

import math

import numpy as np
import pytest
from conftest import CONFIGS

from radgas.cli import load_run_config
from radgas.constitutive import GasParameters
from radgas.domain import (
    ScenarioSpec,
    build_grid,
    make_initial_data,
    validate_initial_data,
    validate_parameters,
)
from radgas.errors import ConfigError
from radgas.functionals import make_record
from radgas.integrator import DT_MIN, MAX_SUBCYCLES


def test_build_grid_small():
    grid = build_grid(1.0, 8)
    assert grid.dx == pytest.approx(0.25)
    assert grid.node_positions.shape == (9,)
    assert grid.node_positions[0] == -1.0 and grid.node_positions[-1] == 1.0
    assert np.allclose(np.diff(grid.node_positions), 0.25)
    assert np.allclose(grid.cell_centers, 0.5 * (grid.node_positions[:-1] + grid.node_positions[1:]))


def test_build_grid_large():
    grid = build_grid(50.0, 1000)
    assert grid.dx == pytest.approx(0.1)
    # total width reproduced to round-off
    assert grid.N * grid.dx == pytest.approx(100.0, rel=1e-12)


def test_build_grid_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        build_grid(1.0, 7)
    with pytest.raises(ConfigError):
        build_grid(1.0, 4)
    with pytest.raises(ConfigError):
        build_grid(-1.0, 8)


# Zero amplitudes: the rest state
REST = dict(amplitude_v=0.0, amplitude_u=0.0, amplitude_theta=0.0, amplitude_z=0.0)


def spec(**kw):
    base = dict(amplitude_v=0.1, amplitude_u=0.1,
                amplitude_theta=0.2, amplitude_z=0.5, width=1.0,
                params=GasParameters(), L=20.0, N=128, T_end=1.0)
    base.update(kw)
    return ScenarioSpec(**base)


def test_equilibrium_family_is_exact_rest_state():
    s = spec(**REST)
    grid = build_grid(s.L, s.N)
    state = make_initial_data(s, grid)
    assert np.all(state.v == 1.0)
    assert np.all(state.theta == 1.0)
    assert np.all(state.z == 0.0)
    assert np.all(state.u == 0.0)


def test_gaussian_family_profile():
    s = spec(amplitude_z=0.5, width=1.0, L=20.0, N=512)
    grid = build_grid(s.L, s.N)
    state = make_initial_data(s, grid)
    mid = np.argmin(np.abs(grid.cell_centers))
    # cell centers sit at +-dx/2 around the origin
    assert state.z[mid] == pytest.approx(0.5 * math.exp(-grid.cell_centers[mid] ** 2), rel=1e-12)
    assert state.z[mid] == pytest.approx(0.5, abs=1e-2)
    assert np.max(state.z[np.abs(grid.cell_centers) > 15]) < 1e-10
    assert state.u[0] == 0.0 and state.u[-1] == 0.0


def test_rejects_positivity_violating_amplitudes():
    grid = build_grid(20.0, 128)
    with pytest.raises(ConfigError):
        make_initial_data(spec(amplitude_theta=-1.5), grid)
    with pytest.raises(ConfigError):
        make_initial_data(spec(amplitude_v=-1.0), grid)
    with pytest.raises(ConfigError):
        make_initial_data(spec(amplitude_z=1.5), grid)


def test_validate_parameters_examples():
    assert validate_parameters(GasParameters(b=3, beta=2)).admissible
    assert not validate_parameters(GasParameters(b=12.0 / 7.0, beta=0)).admissible
    assert not validate_parameters(GasParameters(b=2, beta=11)).admissible


def test_validate_parameters_reports_regions():
    report = validate_parameters(GasParameters(b=2.5, beta=1.0))
    assert report.admissible
    assert report.regions["9/4 < b < 3, beta < 2b + 6"]
    assert not report.regions["b >= 3, beta < b + 9"]
    assert "admissible" in report.summary()


def test_validate_initial_data_equilibrium():
    s = spec(**REST)
    grid = build_grid(s.L, s.N)
    state = make_initial_data(s, grid)
    report = validate_initial_data(state, grid)
    assert report.passed
    assert report.far_field_deviation == 0.0
    assert make_record(state, grid, s.params).dev_L2 == 0.0


def test_validate_initial_data_gaussian_species_mass():
    """Discrete L1 mass of the reactant bump matches the exact integral to 1%."""
    s = spec(amplitude_v=0.0, amplitude_u=0.0, amplitude_theta=0.0,
             amplitude_z=0.5, width=1.0, L=20.0, N=512)
    grid = build_grid(s.L, s.N)
    state = make_initial_data(s, grid)
    report = validate_initial_data(state, grid)
    assert report.passed
    exact = 0.5 * s.width * math.sqrt(math.pi)
    assert make_record(state, grid, s.params).z_L1 == pytest.approx(exact, rel=0.01)


def test_validate_initial_data_flags_negative_volume():
    """A negative volume, a NaN in any field and a field whose squares or fourth
    powers overflow each fail that field's own test."""
    s = spec(**REST)
    grid = build_grid(s.L, s.N)
    for field, value, failure in (("v", -0.1, "v0 not strictly positive"),
                                  ("v", np.nan, "v0 not strictly positive"),
                                  ("theta", np.nan, "theta0 not strictly positive"),
                                  ("z", np.nan, "z0 leaves [0, 1]"),
                                  ("u", np.nan, "u0 not finite"),
                                  ("u", 1e200, "u0 sum of squares overflows"),
                                  ("u", 1e100, "u0 sum of fourth powers overflows")):
        state = make_initial_data(s, grid)
        getattr(state, field)[3] = value
        report = validate_initial_data(state, grid)
        assert not report.passed
        assert failure in report.failures, (field, value, report.failures)


@pytest.mark.parametrize("cells", [dict(v=63), dict(u=64), dict(theta=61, z=10), dict(z=10)],
                         ids=["v", "u", "theta-and-z", "z"])
def test_validate_initial_data_refuses_a_mis_shaped_field(cells):
    """The first field whose length does not fit the grid is named."""
    s = spec(**REST, N=64)
    grid = build_grid(s.L, s.N)
    state = make_initial_data(s, grid)
    for name, n in cells.items():
        setattr(state, name, getattr(state, name)[:n])
    with pytest.raises(ConfigError, match=f"^{next(iter(cells))}0 has shape"):
        validate_initial_data(state, grid)


def test_validate_initial_data_flags_far_field_violation():
    s = spec(**REST, L=5.0)
    grid = build_grid(s.L, s.N)
    state = make_initial_data(s, grid)
    state.theta[0] = 1.5
    report = validate_initial_data(state, grid)
    assert not report.passed


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_config_initial_data_validates(path):
    s = load_run_config(path).scenario
    grid = build_grid(s.L, s.N)
    report = validate_initial_data(make_initial_data(s, grid), grid)
    assert report.passed, f"{path.name} initial data failed: {report.failures}"


def test_far_field_clean_for_wide_domains():
    s = spec(width=1.0, L=12.0, N=256)
    grid = build_grid(s.L, s.N)
    report = validate_initial_data(make_initial_data(s, grid), grid)
    assert report.far_field_deviation < 1e-8


def test_scenario_spec_validation():
    with pytest.raises(ConfigError):
        spec(cfl=0.0)
    with pytest.raises(ConfigError):
        spec(T_end=0.0)
    with pytest.raises(ConfigError):
        spec(width=-1.0)
    # a width whose square underflows is refused before any profile is evaluated,
    # and so is one for which (L / width)**2 overflows
    with pytest.raises(ConfigError, match="width"):
        spec(width=1e-200)
    with pytest.raises(ConfigError, match="width"):
        spec(width=1e-160)
    for name, value in (("T_end", math.nan), ("T_end", math.inf),
                        ("picard_tol", math.nan), ("floor_v", math.nan)):
        with pytest.raises(ConfigError):
            spec(**{name: value})
    # the grid and the initial data are checked when the spec is built
    for kw in ({"N": 7}, {"L": 0.0}, {"L": 10.0, "width": 5.0}):
        with pytest.raises(ConfigError):
            spec(**kw)
    # and so are floors that the initial data already violate
    with pytest.raises(ConfigError, match="floor_v"):
        spec(amplitude_v=-0.2, floor_v=0.9)


def test_scenario_refuses_a_reaction_rate_no_timestep_can_run():
    """At rest the species update over DT_MIN / 2 needs about 0.25 * DT_MIN * K_react / e
    subcycles; past MAX_SUBCYCLES every attempt of the first step would be rejected."""
    cap = MAX_SUBCYCLES * math.e / (0.25 * DT_MIN)
    ScenarioSpec(N=64, params=GasParameters(K_react=0.5 * cap))
    with pytest.raises(ConfigError, match="subcycles"):
        ScenarioSpec(N=64, params=GasParameters(K_react=2.0 * cap))
