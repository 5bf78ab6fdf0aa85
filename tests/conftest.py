"""Shared fixtures and references; the expensive canonical-scenario runs are session scoped."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from radgas.cli import load_run_config
from radgas.constitutive import GasParameters, conductivity
from radgas.domain import Grid, State, _midpoints
from radgas.errors import ConfigError
from radgas.functionals import _squared_gradient, _window_cells, interval_probe
from radgas.integrator import run_simulation

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def dissipation_rate(state: State, grid: Grid, params: GasParameters) -> float:
    """Viscous plus conductive entropy production; zero only for flat states.

    The reference for the V column of ``make_record``, with the same
    expressions in the same order.
    """
    dx = grid.dx
    v, theta = state.v, state.theta
    v_f, th_f = _midpoints(v), _midpoints(theta)
    viscous = params.mu * _squared_gradient(state.u, dx) / (v * theta)
    conductive = conductivity(params, v_f, th_f) * _squared_gradient(theta, dx) / (v_f * th_f**2)
    return float((np.sum(viscous) + np.sum(conductive)) * dx)


def oscillation_ratio(state: State, grid: Grid, params: GasParameters, m: float, k: int) -> float:
    """Sup over the window of |theta^m - theta^m(b_k)| divided by sqrt(V).

    The exponent must satisfy 0 <= m <= (b+4)/2.  Returns 0 when both the
    oscillation and the dissipation vanish.
    """
    if not (0.0 <= m <= 0.5 * (params.b + 4.0)):
        raise ConfigError(f"oscillation exponent m = {m} outside [0, (b+4)/2]")
    idx = _window_cells(grid, k)
    probe = interval_probe(state, grid, k)
    ib = int(np.argmin(np.abs(grid.cell_centers - probe.b_k)))
    th_m = state.theta[idx] ** m
    osc = float(np.max(np.abs(th_m - state.theta[ib] ** m)))
    V = dissipation_rate(state, grid, params)
    return osc / max(math.sqrt(V), 1e-30)


@pytest.fixture(scope="session")
def canonical_spec():
    return load_run_config(CONFIGS / "canonical.cfg").scenario


@pytest.fixture(scope="session")
def _canonical_sampled(canonical_spec):
    """The full canonical run and every state it sampled, shared by many checks."""
    states = []
    return run_simulation(canonical_spec, sample_cadence=0.02, on_sample=states.append), states


@pytest.fixture(scope="session")
def canonical_run(_canonical_sampled):
    return _canonical_sampled[0]


@pytest.fixture(scope="session")
def canonical_states(_canonical_sampled):
    """The canonical run's sampled states, the initial one first."""
    return _canonical_sampled[1]


@pytest.fixture(scope="session")
def small_gaussian_spec(canonical_spec):
    """Desk-scale variant whose waves never reach the boundary."""
    return replace(canonical_spec, L=10.0, N=128, T_end=1.0)
