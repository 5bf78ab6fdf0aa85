"""Every composed step either raises BlowUpError or keeps the paper's a priori bounds.

Drawn: admissible Gaussian initial data at N <= 64, admissible (b, beta),
floors up to just below the initial minima, and dt from a tenth of the CFL
step to several times it, so that some attempts are rejected.  A returned
state must keep v > floor_v, theta > floor_theta, u = 0 at both walls,
0 <= z <= 1 within Z_BOUND_TOL, mass telescoping to round-off and the
species balance identity.
"""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st

from radgas.constitutive import GasParameters
from radgas.domain import ScenarioSpec, build_grid, make_initial_data
from radgas.errors import BlowUpError
from radgas.integrator import Z_BOUND_TOL, select_timestep, strang_step

EPS = np.finfo(float).eps


@st.composite
def scenarios(draw):
    b = draw(st.floats(1.75, 6.0))
    params = GasParameters(b=b, beta=draw(st.floats(0.0, b + 8.99)))
    spec = ScenarioSpec(
        amplitude_v=draw(st.floats(-0.5, 1.0)),
        amplitude_u=draw(st.floats(-1.0, 1.0)),
        amplitude_theta=draw(st.floats(-0.5, 1.0)),
        amplitude_z=draw(st.floats(0.0, 1.0)),
        width=draw(st.floats(0.5, 1.5)),
        params=params, L=10.0, N=draw(st.sampled_from((16, 32, 64))),
    )
    grid = build_grid(spec.L, spec.N)
    state = make_initial_data(spec, grid)
    floor_v, floor_theta = (max(1e-6, draw(st.floats(0.0, 0.99)) * float(x.min()))
                            for x in (state.v, state.theta))
    spec = replace(spec, floor_v=floor_v, floor_theta=floor_theta)
    return spec, grid, state, draw(st.floats(0.1, 20.0))


@seed(27)
@settings(max_examples=150, deadline=None, database=None)
@given(scenarios())
def test_each_step_keeps_the_bounds_or_blows_up(drawn):
    spec, grid, state, cfl_multiple = drawn
    dt = cfl_multiple * select_timestep(state, grid, spec)
    try:
        out = strang_step(state, grid, spec, dt)
    except BlowUpError:
        return
    new, dx = out.new_state, grid.dx
    assert new.t == state.t + out.dt_used
    assert new.v.min() > spec.floor_v
    assert new.theta.min() > spec.floor_theta
    assert new.u[0] == 0.0 and new.u[-1] == 0.0
    assert new.z.min() >= -Z_BOUND_TOL and new.z.max() <= 1.0 + Z_BOUND_TOL
    # the volume update is a sum of node-velocity differences, so it telescopes
    mass_before, mass_after = state.v.sum() * dx, new.v.sum() * dx
    assert abs(mass_after - mass_before) <= 4 * spec.N * EPS * mass_before
    z_before = state.z.sum() * dx
    assert abs(new.z.sum() * dx + out.species_consumed - z_before) <= 1e-10 * z_before
