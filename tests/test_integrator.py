"""Substep contracts: fixed points, conservation, confinement, step control."""

import math
from dataclasses import replace

import numpy as np
import pytest

from radgas.constitutive import GasParameters, internal_energy, reaction_rate
from radgas.domain import ScenarioSpec, State, build_grid, make_initial_data
import radgas.integrator as integrator
from radgas.errors import (
    BlowUpError,
    ConfigError,
    ConvergenceError,
    PositivityError,
    SingularMatrixError,
)
from radgas.functionals import make_record
from radgas.integrator import (
    DT_MIN,
    MAX_STEP_REJECTIONS,
    _check_state_bounds,
    heat_step,
    hydro_step,
    run_simulation,
    select_timestep,
    species_step,
    strang_step,
)

PARAMS = GasParameters()
# The default solver settings; the steps read only these and the grid they are given
SPEC = ScenarioSpec(params=PARAMS, L=10.0, N=64)


def equilibrium_state(grid):
    return State(0.0, np.ones(grid.N), np.ones(grid.N), np.zeros(grid.N),
                 np.zeros(grid.N + 1))


def gaussian_state(grid, av=0.1, au=0.1, ath=0.2, az=0.5, width=1.0):
    xc = grid.cell_centers
    xn = grid.node_positions
    g = lambda x: np.exp(-(x / width) ** 2)
    u = au * g(xn)
    u[0] = u[-1] = 0.0
    return State(0.0, 1.0 + av * g(xc), 1.0 + ath * g(xc), az * g(xc), u)


def test_select_timestep_equilibrium_formula():
    """Matches an independent hand evaluation of the acoustic CFL formula."""
    grid = build_grid(10.0, 128)
    state = equilibrium_state(grid)
    dt = select_timestep(state, grid, SPEC)
    # at (v, theta) = (1, 1): -p_v = 1, p_theta = 7/3, e_theta = 5
    c = math.sqrt(1.0 + (7.0 / 3.0) ** 2 / 5.0)
    assert dt == pytest.approx(0.5 * grid.dx / c, rel=1e-12)


def test_select_timestep_decreases_with_velocity():
    grid = build_grid(10.0, 128)
    slow = gaussian_state(grid, au=0.1)
    fast = gaussian_state(grid, au=0.2)
    assert select_timestep(fast, grid, SPEC) < select_timestep(slow, grid, SPEC)


def test_select_timestep_clamps_to_dt_max():
    grid = build_grid(10.0, 128)
    dt = select_timestep(equilibrium_state(grid), grid, SPEC, dt_max=1e-4)
    assert dt == 1e-4


def test_hydro_equilibrium_fixed_point():
    grid = build_grid(10.0, 64)
    state = equilibrium_state(grid)
    out = hydro_step(state, grid, SPEC, 0.05)
    assert np.array_equal(out.v, state.v)
    assert np.array_equal(out.u, state.u)


def test_hydro_uniform_state_fixed_point():
    grid = build_grid(10.0, 64)
    state = State(0.0, np.full(64, 2.0), np.ones(64), np.zeros(64), np.zeros(65))
    out = hydro_step(state, grid, SPEC, 0.05)
    assert np.max(np.abs(out.v - 2.0)) == 0.0
    assert np.max(np.abs(out.u)) == 0.0


def test_hydro_conserves_mass_and_momentum_for_far_field_states():
    """Flux differences telescope: both invariants hold to round-off."""
    grid = build_grid(10.0, 128)
    state = gaussian_state(grid)
    dt = 0.02
    before = make_record(state, grid, PARAMS)
    after = make_record(hydro_step(state, grid, SPEC, dt), grid, PARAMS)
    mass0, mom0 = before.mass_dev, before.momentum
    assert abs(after.mass_dev - mass0) <= 1e-14 * max(1.0, abs(mass0))
    assert abs(after.momentum - mom0) <= 1e-13 * max(1.0, abs(mom0))


def test_hydro_positivity_error_on_tight_floor():
    grid = build_grid(10.0, 64)
    state = gaussian_state(grid, av=-0.3)
    with pytest.raises(PositivityError):
        hydro_step(state, grid, replace(SPEC, floor_v=0.9), 0.05)


def test_heat_equilibrium_unchanged_one_sweep():
    grid = build_grid(10.0, 64)
    state = equilibrium_state(grid)
    out, iters = heat_step(state, grid, SPEC, 0.05)
    assert iters == 1
    assert np.max(np.abs(out.theta - 1.0)) < 1e-14


def test_heat_uniform_temperature_unchanged():
    grid = build_grid(10.0, 64)
    state = State(0.0, np.ones(64), np.full(64, 2.0), np.zeros(64), np.zeros(65))
    out, _ = heat_step(state, grid, SPEC, 0.05)
    assert np.max(np.abs(out.theta - 2.0)) < 1e-13


def test_heat_pure_conduction_conserves_energy():
    """With u = 0 and z = 0 the implicit solve moves energy only between cells."""
    grid = build_grid(10.0, 128)
    xc = grid.cell_centers
    state = State(0.0, np.ones(128), 1.0 + 0.05 * np.exp(-(xc**2)), np.zeros(128),
                  np.zeros(129))
    e_before = np.sum(internal_energy(PARAMS, state.v, state.theta)) * grid.dx
    out, _ = heat_step(state, grid, SPEC, 0.01)
    e_after = np.sum(internal_energy(PARAMS, out.v, out.theta)) * grid.dx
    assert abs(e_after - e_before) <= 1e-10 * abs(e_before)


def test_heat_convergence_error_when_capped():
    grid = build_grid(10.0, 64)
    state = gaussian_state(grid, ath=0.5)
    capped = replace(SPEC, picard_tol=1e-12, picard_max_iters=1)
    with pytest.raises(ConvergenceError):
        heat_step(state, grid, capped, 0.1)


def test_species_zero_stays_zero():
    grid = build_grid(10.0, 64)
    state = equilibrium_state(grid)
    out = species_step(state, grid, SPEC, 0.1)
    assert np.array_equal(out.z, np.zeros(64))


def test_species_uniform_decay_closed_form():
    """A flat reactant field follows the scalar trapezoidal decay exactly."""
    grid = build_grid(10.0, 64)
    theta = 1.5
    state = State(0.0, np.ones(64), np.full(64, theta), np.ones(64), np.zeros(65))
    dt = 0.3
    phi = reaction_rate(PARAMS, theta)
    a_face = PARAMS.d / grid.dx**2  # uniform v = 1
    lam_max = 2.0 * a_face + phi
    n_sub = max(1, math.ceil(0.5 * dt * lam_max))
    delta = dt / n_sub
    expected = ((1.0 - 0.5 * delta * phi) / (1.0 + 0.5 * delta * phi)) ** n_sub
    out = species_step(state, grid, SPEC, dt)
    assert np.max(np.abs(out.z - expected)) < 1e-13
    assert expected < 1.0
    # trapezoidal subcycling tracks the exact exponential at second order
    assert abs(expected - math.exp(-phi * dt)) < 0.05 * phi * dt


def test_species_maximum_principle_on_randomized_states():
    """0 <= z' <= max(z) for arbitrary data, any dt: the update matrices keep
    nonnegative entries by construction."""
    grid = build_grid(10.0, 64)
    rng = np.random.default_rng(101)
    for _ in range(50):
        state = State(
            t=0.0,
            v=rng.uniform(0.3, 3.0, grid.N),
            theta=rng.uniform(0.3, 3.0, grid.N),
            z=rng.uniform(0.0, 1.0, grid.N),
            u=np.zeros(grid.N + 1),
        )
        zmax = float(np.max(state.z))
        out = species_step(state, grid, SPEC, dt=float(rng.uniform(0.001, 0.5)))
        assert np.min(out.z) >= -1e-13
        assert np.max(out.z) <= zmax + 1e-13


def test_strang_equilibrium_fixed_point():
    grid = build_grid(10.0, 64)
    state = equilibrium_state(grid)
    for _ in range(100):
        state = strang_step(state, grid, SPEC, 0.02).new_state
    drift = max(np.max(np.abs(state.v - 1)), np.max(np.abs(state.theta - 1)),
                np.max(np.abs(state.z)), np.max(np.abs(state.u)))
    assert drift <= 1e-12


def test_strang_step_second_order():
    """Self-convergence of the composed step under global dt halving."""
    spec = ScenarioSpec(amplitude_v=0.1, amplitude_u=0.1, amplitude_theta=0.2,
                        amplitude_z=0.5, L=10.0, N=128, T_end=0.5)
    grid = build_grid(spec.L, spec.N)
    finals = []
    for dt in (0.01, 0.005, 0.0025):
        state = make_initial_data(spec, grid)
        n = round(spec.T_end / dt)
        for _ in range(n):
            state = strang_step(state, grid, spec, dt).new_state
        finals.append(state)
    for f in ("v", "u", "theta", "z"):
        d1 = np.linalg.norm(getattr(finals[0], f) - getattr(finals[1], f))
        d2 = np.linalg.norm(getattr(finals[1], f) - getattr(finals[2], f))
        order = math.log2(d1 / d2)
        assert order >= 1.8, f"{f} order {order:.2f}"


def test_strang_rejects_then_succeeds_at_reduced_dt():
    """A floor placed inside the compression depth of the full step forces
    rejection; halving recovers a valid step."""
    grid = build_grid(10.0, 64)
    xn = grid.node_positions
    u = -0.2 * xn * np.exp(-(xn**2))
    u[0] = u[-1] = 0.0
    state = State(0.0, np.ones(64), np.ones(64), np.zeros(64), u)
    dt = 0.1
    u_x = np.diff(u) / grid.dx
    dip = 0.5 * dt * np.max(np.maximum(-u_x, 0.0))
    spec = replace(SPEC, floor_v=1.0 - 0.75 * dip)
    out = strang_step(state, grid, spec, dt)
    assert out.rejected_count >= 1
    assert out.dt_used < dt
    assert np.min(out.new_state.v) > spec.floor_v


def test_strang_blowup_after_repeated_rejection():
    grid = build_grid(10.0, 64)
    state = gaussian_state(grid, av=-0.3)
    with pytest.raises(BlowUpError):
        strang_step(state, grid, replace(SPEC, floor_v=0.9), 0.05)


def test_singular_solve_rejects_the_step(monkeypatch):
    """One tridiagonal matrix that is not positive definite, met by a solve or
    by factoring the species matrix, discards the attempt and halves dt."""
    grid = build_grid(10.0, 64)
    state = gaussian_state(grid)
    for name in ("tridiagonal_solve", "_factor_symmetric"):
        real = getattr(integrator, name)
        failures = [SingularMatrixError("zero pivot at row 3")]

        def fails_once(*args, **kwargs):
            if failures:
                raise failures.pop()
            return real(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(integrator, name, fails_once)
            out = strang_step(state, grid, SPEC, 0.01)
        assert not failures, name
        assert out.rejected_count == 1, name
        assert out.dt_used == 0.005, name


def test_singular_solve_every_time_blows_up(monkeypatch):
    def singular(*args, **kwargs):
        raise SingularMatrixError("zero pivot at row 3")

    monkeypatch.setattr(integrator, "tridiagonal_solve", singular)
    grid = build_grid(10.0, 64)
    with pytest.raises(BlowUpError, match=f"after {MAX_STEP_REJECTIONS + 1} rejections "
                                          ".*zero pivot at row 3"):
        strang_step(gaussian_state(grid), grid, SPEC, 0.01)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["v", "theta", "u", "z"])
def test_non_finite_state_raises_blowup_naming_the_field(field):
    """A NaN or inf in the input fails fast, before any timestep halving."""
    spec = ScenarioSpec(amplitude_v=0.1, amplitude_u=0.1, amplitude_theta=0.2,
                        amplitude_z=0.5, N=64)
    grid = build_grid(spec.L, spec.N)
    for bad in (np.nan, np.inf):
        state = make_initial_data(spec, grid)
        getattr(state, field)[10] = bad
        with pytest.raises(BlowUpError, match=rf"^non-finite {field} in the state"):
            strang_step(state, grid, spec, 0.01)
        for substep in (species_step, heat_step, hydro_step):
            with pytest.raises(BlowUpError, match=rf"^non-finite {field} in the state"):
                substep(state, grid, spec, 0.01)
        with pytest.raises(BlowUpError, match=rf"^non-finite {field} in the state"):
            select_timestep(state, grid, spec)


@pytest.mark.parametrize("field", ["v", "theta", "z", "u"])
@pytest.mark.parametrize("value", [1e200, -1e200, 1e-200, 0.0, -0.0, -1.0, np.nan, np.inf,
                                   -np.inf])
def test_entry_guard_raises_what_the_full_pair_raises(field, value):
    """The one entry check equals _check_finite then _check_quadrant, error and message,
    and a finite state whose squares overflow raises no warning."""

    def outcome(check):
        try:
            check()
        except (BlowUpError, ValueError) as exc:
            return type(exc), str(exc)
        return None

    grid = build_grid(10.0, 64)
    state = gaussian_state(grid)
    getattr(state, field)[10] = value
    full_pair = outcome(lambda: (integrator._check_finite(state),
                                 integrator._check_quadrant(state.v, state.theta)))
    assert outcome(lambda: integrator._check_state(state)) == full_pair


@pytest.mark.parametrize("field", ["v", "theta", "z"])
def test_nan_result_rejects_the_step(field, monkeypatch):
    """A NaN made inside a step rejects the attempt and halves dt.  It enters v
    through the hydro solve (N - 1 rows), theta through the first heat solve
    (N rows, unfactored) and z through the first species solve (N rows, factored)."""
    grid = build_grid(10.0, 64)
    state = gaussian_state(grid)
    rows = grid.N - 1 if field == "v" else grid.N
    factored = field == "z"
    real = integrator.tridiagonal_solve
    injected = []

    def nan_once(off, diag, rhs, *, factors=None):
        x = real(off, diag, rhs, factors=factors)
        if not injected and (factors is not None) == factored and x.shape == (rows,):
            injected.append(field)
            x[10] = np.nan
        return x

    monkeypatch.setattr(integrator, "tridiagonal_solve", nan_once)
    out = strang_step(state, grid, SPEC, 0.01)
    assert injected
    assert out.rejected_count == 1
    assert out.dt_used == 0.005
    if field == "z":
        # the end-of-step confinement test fails on a NaN too
        state.z[10] = np.nan
        with pytest.raises(PositivityError):
            _check_state_bounds(state)


@pytest.mark.parametrize("field, value", [("v", 0.0), ("v", -1.0), ("theta", 0.0),
                                          ("theta", -1.0)])
def test_steps_reject_states_outside_the_quadrant(field, value):
    grid = build_grid(10.0, 64)
    state = gaussian_state(grid)
    getattr(state, field)[10] = value
    for step in (hydro_step, heat_step, species_step, strang_step):
        with pytest.raises(ValueError, match="must be strictly positive"):
            step(state, grid, SPEC, 0.01)
    with pytest.raises(ValueError, match="must be strictly positive"):
        select_timestep(state, grid, SPEC)


def test_run_simulation_equilibrium_returns_initial():
    spec = ScenarioSpec(L=10.0, N=64, T_end=1.0)
    res = run_simulation(spec, sample_cadence=0.25)
    drift = max(
        np.max(np.abs(res.final_state.v - 1)),
        np.max(np.abs(res.final_state.theta - 1)),
        np.max(np.abs(res.final_state.z)),
        np.max(np.abs(res.final_state.u)),
    )
    assert drift <= 1e-12
    assert res.column("t")[-1] == pytest.approx(1.0)


def test_run_simulation_reactant_mass_decays(small_gaussian_spec):
    res = run_simulation(small_gaussian_spec, sample_cadence=0.1)
    z_l1 = res.column("z_L1")
    assert z_l1[-1] < z_l1[0]
    assert np.all(np.diff(z_l1) < 0)


def test_run_simulation_species_budget_identity(small_gaussian_spec):
    states = []
    res = run_simulation(small_gaussian_spec, sample_cadence=0.25, on_sample=states.append)
    dx = res.grid.dx
    z0 = np.sum(states[0].z) * dx
    zT = np.sum(res.final_state.z) * dx
    residual = abs(zT + res.species_consumed - z0)
    assert residual <= 1e-10 * z0


def test_run_simulation_grid_refinement_convergence(small_gaussian_spec):
    """Final-state differences shrink by at least 3.5x per grid doubling."""
    results = {
        N: run_simulation(replace(small_gaussian_spec, N=N), sample_cadence=1.0)
        for N in (64, 128, 256)
    }

    def restricted_diff(nc, nf):
        coarse, fine = results[nc], results[nf]
        r = nf // nc
        total = 0.0
        for f in ("v", "theta", "z"):
            rf = getattr(fine.final_state, f).reshape(-1, r).mean(axis=1)
            total += np.sum((getattr(coarse.final_state, f) - rf) ** 2) * coarse.grid.dx
        total += np.sum((coarse.final_state.u - fine.final_state.u[::r]) ** 2) * coarse.grid.dx
        return math.sqrt(total)

    d1 = restricted_diff(64, 128)
    d2 = restricted_diff(128, 256)
    assert d1 / d2 >= 3.5


def test_run_simulation_blows_up_on_hopeless_floor():
    """A floor the initial data already violate is rejected when the spec is built."""
    with pytest.raises(ConfigError, match="floor_v = 0.9 is not below the initial minimum 0.8"):
        ScenarioSpec(amplitude_v=-0.2, amplitude_u=0.0, amplitude_theta=0.0,
                     amplitude_z=0.0, L=10.0, N=64, T_end=1.0, floor_v=0.9)


def test_run_simulation_rejects_bad_cadence(small_gaussian_spec):
    for cadence in (0.0, math.nan):
        with pytest.raises(ConfigError):
            run_simulation(small_gaussian_spec, sample_cadence=cadence)


def test_step_controls_validation(small_gaussian_spec):
    with pytest.raises(ConfigError, match="cfl"):
        ScenarioSpec(cfl=1.5)
    with pytest.raises(ConfigError, match="dt_max"):
        run_simulation(small_gaussian_spec, dt_max=0.1 * DT_MIN)
    with pytest.raises(ConfigError, match="floors"):
        ScenarioSpec(floor_v=0.0)
