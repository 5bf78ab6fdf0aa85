"""Diagnostics functionals: hand values, analytic oracles, history probes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from radgas.cli import _NearestSamples
from radgas.constitutive import GasParameters, pressure
from radgas.domain import ScenarioSpec, State, _u_on_cells, build_grid, norms
from radgas.errors import ConfigError, InsufficientHistory, WindowOutOfDomain
from radgas.functionals import (
    WindowHistory,
    _Y_now,
    _cutoff,
    _strip_weights,
    _suffix_trapezoid,
    _window_cells,
    accumulate_XY_increment,
    dissipation_rate,
    interval_probe,
    make_record,
    oscillation_ratio,
    representation_check,
    temperature_envelope_check,
    theta_bound_from_Y,
)
from radgas.integrator import run_simulation

PARAMS = GasParameters()


def equilibrium_state(grid, t=0.0):
    return State(t, np.ones(grid.N), np.ones(grid.N), np.zeros(grid.N),
                 np.zeros(grid.N + 1))


def _record(state, grid):
    return make_record(state, grid, PARAMS)


def _streamed_record(states, grid):
    """The record of the last state, X and Y carried through every sample as a run does."""
    record = prev_state = None
    for state in states:
        record = make_record(state, grid, PARAMS, record, prev_state)
        prev_state = state
    return record


def accumulate_XY(states, params, grid):
    """(X, Y) over a sampled history: the reference for the streamed X/Y columns.

    X integrates (1 + theta^(b+3)) * theta_t^2 with backward differences
    between consecutive samples; Y is the running supremum of the weighted
    squared temperature gradient, including the initial sample.
    """
    X = 0.0
    Y = _Y_now(states[0], grid, params)
    for prev, cur in zip(states[:-1], states[1:]):
        X += accumulate_XY_increment(prev, cur, params, grid)
        Y = max(Y, _Y_now(cur, grid, params))
    return X, Y


def _history(states, grid, k):
    history = WindowHistory(grid, PARAMS, k)
    for state in states:
        history.append(state)
    return history


def _conserved(state, grid):
    r = _record(state, grid)
    return r.mass_dev, r.momentum, r.total_energy


def test_conserved_quantities_equilibrium():
    grid = build_grid(10.0, 64)
    assert _conserved(equilibrium_state(grid), grid) == (0.0, 0.0, 0.0)


def test_conserved_quantities_species_only_pulse():
    """A pure reactant bump carries only chemical energy, lam * integral of z."""
    grid = build_grid(20.0, 512)
    state = equilibrium_state(grid)
    state.z = 0.5 * np.exp(-grid.cell_centers**2)
    mass, mom, energy = _conserved(state, grid)
    assert mass == 0.0
    assert mom == 0.0
    assert energy == pytest.approx(PARAMS.lam * 0.5 * math.sqrt(math.pi), rel=0.01)


def test_conserved_quantities_momentum_parity():
    grid = build_grid(10.0, 64)
    state = equilibrium_state(grid)
    state.u = 0.1 * np.exp(-grid.node_positions**2)
    state.u[0] = state.u[-1] = 0.0
    _, mom_plus, e_plus = _conserved(state, grid)
    flipped = replace(state, u=-state.u)
    _, mom_minus, e_minus = _conserved(flipped, grid)
    assert mom_minus == -mom_plus
    assert e_minus == e_plus


def test_dissipation_zero_for_flat_states():
    grid = build_grid(10.0, 64)
    assert dissipation_rate(equilibrium_state(grid), grid, PARAMS) == 0.0
    state = State(0.0, np.full(64, 1.7), np.full(64, 2.2), np.zeros(64), np.zeros(65))
    assert dissipation_rate(state, grid, PARAMS) == 0.0


def test_dissipation_single_mode_matches_quadrature():
    """u = sin(pi x / L) on v = theta = 1 gives mu * pi^2 / L exactly."""
    L, N = 10.0, 4096
    grid = build_grid(L, N)
    state = equilibrium_state(grid)
    state.u = np.sin(math.pi * grid.node_positions / L)
    state.u[0] = state.u[-1] = 0.0
    expected = PARAMS.mu * math.pi**2 / L
    assert dissipation_rate(state, grid, PARAMS) == pytest.approx(expected, rel=1e-3)


def test_entropy_energy_equilibrium_zero():
    grid = build_grid(10.0, 64)
    assert _record(equilibrium_state(grid), grid).G == 0.0


def test_entropy_energy_single_cell_volume_bump():
    grid = build_grid(10.0, 64)
    state = equilibrium_state(grid)
    state.v[10] = math.e
    expected = PARAMS.R * (math.e - 2.0) * grid.dx
    assert _record(state, grid).G == pytest.approx(expected, rel=1e-12)


def test_entropy_energy_matches_direct_resum():
    from radgas.constitutive import entropy_eta

    grid = build_grid(10.0, 64)
    rng = np.random.default_rng(23)
    state = State(0.0, rng.uniform(0.5, 2.0, 64), rng.uniform(0.5, 2.0, 64),
                  rng.uniform(0.0, 1.0, 64), rng.uniform(-0.1, 0.1, 65))
    state.u[0] = state.u[-1] = 0.0
    masses = np.full(65, grid.dx)
    masses[0] = masses[-1] = 0.5 * grid.dx
    direct = np.sum(entropy_eta(PARAMS, state.v, state.theta)) * grid.dx
    direct += 0.5 * np.sum(masses * state.u**2)
    assert _record(state, grid).G == pytest.approx(direct, rel=1e-14)


def test_norms_equilibrium_all_zero():
    grid = build_grid(10.0, 64)
    result = norms(equilibrium_state(grid), grid)
    assert all(v == 0.0 for v in result.values())


def test_norms_single_hot_cell():
    grid = build_grid(10.0, 64)
    state = equilibrium_state(grid)
    state.theta[20] = 1.5
    result = norms(state, grid)
    assert result["Linf"] == pytest.approx(0.5)
    assert result["L2"] == pytest.approx(0.5 * math.sqrt(grid.dx), rel=1e-12)


def test_norms_gaussian_matches_analytic_value():
    grid = build_grid(20.0, 1024)
    state = equilibrium_state(grid)
    alpha, width = 0.2, 1.0
    state.theta = 1.0 + alpha * np.exp(-(grid.cell_centers / width) ** 2)
    expected = math.sqrt(alpha**2 * width * math.sqrt(math.pi / 2.0))
    assert norms(state, grid)["L2"] == pytest.approx(expected, rel=0.01)


def test_interval_probe_equilibrium():
    grid = build_grid(10.0, 64)
    probe = interval_probe(equilibrium_state(grid), grid, 2)
    assert probe.avg_v == 1.0 and probe.avg_theta == 1.0
    # tie-break picks the first window cell
    first = grid.cell_centers[np.nonzero(np.abs(grid.cell_centers) <= 3.0)[0][0]]
    assert probe.a_k == first and probe.b_k == first


def test_interval_probe_zero_mean_bump_cancels():
    grid = build_grid(10.0, 64)
    state = equilibrium_state(grid)
    idx = np.nonzero(np.abs(grid.cell_centers) <= 3.0)[0]
    bump = np.zeros(grid.N)
    half = idx.size // 2
    bump[idx[:half]] = 0.25
    bump[idx[half:2 * half]] = -0.25
    state.v = state.v + bump
    probe = interval_probe(state, grid, 2)
    assert probe.avg_v == pytest.approx(1.0, abs=1e-15)


def test_interval_probe_mean_between_extremes():
    grid = build_grid(10.0, 64)
    rng = np.random.default_rng(31)
    state = State(0.0, rng.uniform(0.5, 2.0, 64), rng.uniform(0.5, 2.0, 64),
                  np.zeros(64), np.zeros(65))
    idx = np.nonzero(np.abs(grid.cell_centers) <= 2.0)[0]
    probe = interval_probe(state, grid, 1)
    assert np.min(state.v[idx]) <= probe.avg_v <= np.max(state.v[idx])
    assert np.min(state.theta[idx]) <= probe.avg_theta <= np.max(state.theta[idx])


def test_oscillation_ratio_trivial_cases():
    grid = build_grid(10.0, 64)
    state = equilibrium_state(grid)
    assert oscillation_ratio(state, grid, PARAMS, 2.0, 1) == 0.0
    rng = np.random.default_rng(37)
    rough = State(0.0, np.ones(64), rng.uniform(0.5, 2.0, 64), np.zeros(64),
                  np.zeros(65))
    assert oscillation_ratio(rough, grid, PARAMS, 0.0, 1) == 0.0


def test_oscillation_ratio_exponent_range_enforced():
    grid = build_grid(10.0, 64)
    state = equilibrium_state(grid)
    limit = 0.5 * (PARAMS.b + 4.0)
    oscillation_ratio(state, grid, PARAMS, limit, 1)
    with pytest.raises(ConfigError):
        oscillation_ratio(state, grid, PARAMS, limit + 0.1, 1)
    with pytest.raises(ConfigError):
        oscillation_ratio(state, grid, PARAMS, -0.5, 1)


def test_accumulate_XY_trivial_histories():
    grid = build_grid(10.0, 64)
    states = [equilibrium_state(grid, t=0.1 * i) for i in range(5)]
    record = _streamed_record(states, grid)
    assert record.X == 0.0 and record.Y == 0.0


def test_accumulate_XY_identical_pair_contributes_nothing():
    grid = build_grid(10.0, 64)
    state = equilibrium_state(grid)
    state.theta = 1.0 + 0.1 * np.exp(-grid.cell_centers**2)
    record = _streamed_record([state, replace(state, t=1.0)], grid)
    assert record.X == 0.0
    assert record.Y > 0.0


def test_representation_equilibrium_reconstruction():
    """At rest the reconstruction collapses to a closed form equal to 1."""
    spec = ScenarioSpec(L=10.0, N=128, T_end=1.0)
    states = []
    res = run_simulation(spec, sample_cadence=0.005, on_sample=states.append)
    probe = representation_check(_history(states, res.grid, 2), 1.0)
    p_rest = PARAMS.R + PARAMS.a / 3.0
    assert probe.Q == pytest.approx(math.exp(-p_rest * 1.0 / PARAMS.mu), rel=1e-6)
    assert np.max(np.abs(probe.B - 1.0)) < 1e-14
    assert probe.max_rel_error < 1e-5


def test_representation_at_time_zero_returns_initial_volume():
    spec = ScenarioSpec(amplitude_v=0.1, amplitude_u=0.1, amplitude_theta=0.2,
                        amplitude_z=0.5, L=10.0, N=128, T_end=0.2)
    states = []
    res = run_simulation(spec, sample_cadence=0.1, on_sample=states.append)
    probe = representation_check(_history(states, res.grid, 2), 0.0)
    idx = np.nonzero(np.abs(res.grid.cell_centers) <= 3.0)[0]
    assert np.max(np.abs(probe.v_reconstructed - states[0].v[idx])) < 1e-14


def test_representation_window_and_history_guards():
    spec = ScenarioSpec(L=10.0, N=128, T_end=0.2)
    states = []
    res = run_simulation(spec, sample_cadence=0.1, on_sample=states.append)
    with pytest.raises(WindowOutOfDomain):
        representation_check(_history(states, res.grid, 9), 0.2)
    with pytest.raises(InsufficientHistory):
        representation_check(_history(states[:1], res.grid, 2), 0.2)
    with pytest.raises(InsufficientHistory):
        representation_check(_history(states, res.grid, 2), 5.0)


def test_temperature_envelope_trivial_histories():
    grid = build_grid(10.0, 64)
    records = [_record(equilibrium_state(grid, t=0.5 * i), grid) for i in range(4)]
    assert temperature_envelope_check(records) >= 1.0
    with pytest.raises(InsufficientHistory):
        temperature_envelope_check(records[:1])


def test_temperature_envelope_bounded_below_by_cold_floor():
    """For histories with theta_min <= theta <= 1 the certified constant
    cannot drop below the cold floor."""
    grid = build_grid(10.0, 64)
    theta_min = 0.4
    states = []
    for i in range(6):
        s = equilibrium_state(grid, t=0.3 * i)
        dip = (0.6 - 0.08 * i) * np.exp(-grid.cell_centers**2)
        s.theta = 1.0 - np.clip(dip, 0.0, 1.0 - theta_min)
        states.append(s)
    assert temperature_envelope_check([_record(s, grid) for s in states]) >= theta_min


def _envelope_from_states(states):
    """The lower-envelope scan over whole states, as a reference."""
    best = math.inf
    worst_ratio = math.inf
    for prev, s in zip(states[:-1], states[1:]):
        best = min(best, 1.0 / float(np.min(prev.theta)) - prev.t)
        worst_ratio = min(worst_ratio, float(np.min(s.theta)) * (s.t + best))
    return worst_ratio


def _representation_from_states(states, grid, params, k, t):
    """The volume representation computed from whole states, as a reference:
    (B, Q, v_reconstructed, max_rel_error)."""
    times = np.array([s.t for s in states])
    m_t = int(np.argmin(np.abs(times - t)))
    idx = _window_cells(grid, k)
    dx = grid.dx
    cut = _cutoff(grid.cell_centers, k)
    strip_w = _strip_weights(grid, k + 1.0, k + 2.0)
    u0_c = _u_on_cells(states[0].u)
    v0 = states[0].v
    n_hist = m_t + 1
    B = np.empty((n_hist, idx.size))
    stress_integral = np.empty(n_hist)
    for m in range(n_hist):
        s = states[m]
        w = (u0_c - _u_on_cells(s.u)) * cut
        B[m] = v0[idx] * np.exp(_suffix_trapezoid(w, dx)[idx] / params.mu)
        total_stress = params.mu * (np.diff(s.u) / dx) / s.v - pressure(params, s.v, s.theta)
        stress_integral[m] = float(np.sum(total_stress * strip_w))
    Q = np.empty(n_hist)
    Q[0] = 1.0
    acc = 0.0
    for m in range(1, n_hist):
        acc += 0.5 * (stress_integral[m - 1] + stress_integral[m]) * (times[m] - times[m - 1])
        Q[m] = math.exp(acc / params.mu)
    BQ_t = B[-1] * Q[-1]
    integrand = np.empty((n_hist, idx.size))
    for m in range(n_hist):
        s = states[m]
        integrand[m] = BQ_t * s.v[idx] * pressure(params, s.v[idx], s.theta[idx]) / (B[m] * Q[m])
    time_int = np.zeros(idx.size)
    for m in range(1, n_hist):
        time_int += 0.5 * (integrand[m - 1] + integrand[m]) * (times[m] - times[m - 1])
    v_rec = BQ_t + time_int / params.mu
    v_true = states[m_t].v[idx]
    return B[-1], float(Q[-1]), v_rec, float(np.max(np.abs(v_rec - v_true) / np.abs(v_true)))


def test_streamed_history_functionals_equal_the_whole_state_forms(small_gaussian_spec):
    """The envelope read from records, the representation folded from window
    rows as the run samples, and the nearest-sample snapshot choice are bit
    for bit what whole stored states give, at both cadences."""
    spec = small_gaussian_spec
    grid = build_grid(spec.L, spec.N)
    windows = {k: WindowHistory(grid, spec.params, k) for k in (0, 2)}
    requested = [0.0625, 0.3, 0.5, 5.0]
    nearest = _NearestSamples(requested)
    states = []

    def sample(state):
        states.append(state)
        nearest(state)
        for window in windows.values():
            window.append(state)

    res = run_simulation(spec, sample_cadence=0.125, on_sample=sample)
    assert len(states) == len(res.records) == 9

    for step in (1, 2):
        assert (temperature_envelope_check(res.records[::step])
                == _envelope_from_states(states[::step]))
        for k, window in windows.items():
            probe = representation_check(window.every(step), spec.T_end)
            B, Q, v_rec, max_rel = _representation_from_states(
                states[::step], grid, spec.params, k, spec.T_end)
            assert np.array_equal(probe.B, B)
            assert np.array_equal(probe.Q, Q)
            assert np.array_equal(probe.v_reconstructed, v_rec)
            assert np.array_equal(probe.max_rel_error, max_rel)

    times = res.column("t")
    assert abs(times[0] - 0.0625) == abs(times[1] - 0.0625)  # a tie
    assert requested[-1] > times[-1]  # past T_end
    for t, state in zip(requested, nearest.states):
        assert state is states[int(np.argmin(np.abs(times - t)))]


def test_theta_bound_from_Y_values():
    assert theta_bound_from_Y(PARAMS, 0.0) == 1.0
    assert theta_bound_from_Y(GasParameters(b=3.0), 4096.0) == pytest.approx(3.0)
    with pytest.raises(ConfigError):
        theta_bound_from_Y(PARAMS, -1.0)


def test_XY_nondecreasing_along_canonical_history(canonical_run):
    X = canonical_run.column("X")
    Y = canonical_run.column("Y")
    assert np.all(np.diff(X) >= 0.0)
    assert np.all(np.diff(Y) >= 0.0)


def test_XY_robust_under_cadence_doubling(canonical_run, canonical_states):
    """X and Y from every-sample and every-second-sample histories agree to 5%."""
    spec = canonical_run.spec
    X1, Y1 = accumulate_XY(canonical_states, spec.params, canonical_run.grid)
    X2, Y2 = accumulate_XY(canonical_states[::2], spec.params, canonical_run.grid)
    assert abs(X1 - X2) <= 0.05 * X1
    assert abs(Y1 - Y2) <= 0.05 * Y1


def test_record_history_matches_accumulate_XY(canonical_run, canonical_states):
    X_inc = canonical_run.column("X")[-1]
    Y_inc = canonical_run.column("Y")[-1]
    X_direct, Y_direct = accumulate_XY(
        canonical_states, canonical_run.spec.params, canonical_run.grid
    )
    assert X_inc == pytest.approx(X_direct, rel=1e-12)
    assert Y_inc == pytest.approx(Y_direct, rel=1e-12)


def test_boundary_deviation_guard_on_canonical_run(canonical_run):
    """Domain-truncation guard: no alarm while the walls exert no force.

    The outer 5% of the L = 20 box must stay at the rest state (deviation
    < 1e-6) for as long as the box stands for the Cauchy problem, that is on
    every sample before the momentum first moves by more than 1e-13
    (relative).  That window comes from the momentum series, not from the
    guard, and must hold at least 50 samples (t >= 1).  On the canonical run
    it reaches t = 2.64, where the guard is at most 1.6e-11.  Over the whole
    T_end = 20 horizon the guard is not kept: the diffusion-wave precursor
    lifts it past 1e-6 at t = 4.2 and to about 6e-2 in the end.
    """
    mom = canonical_run.column("momentum")
    bdry = canonical_run.column("boundary_dev")
    t = canonical_run.column("t")
    n = int(np.cumprod(np.abs(mom - mom[0]) <= 1e-13 * abs(mom[0])).sum())
    assert n >= 50, f"momentum moved after only {n} samples (t = {t[n]:.2f}); at least 50 required"
    worst = float(np.max(bdry[:n]))
    print(f"boundary deviation {worst:.2e} over {n} samples (t <= {t[n - 1]:.2f}); "
          f"full run {float(np.max(bdry)):.2e}")
    assert worst < 1e-6, (
        f"boundary deviation reached {worst:.3e} by t = {t[n - 1]:.2f}, "
        f"before the momentum moved"
    )
