"""Shared fixtures; the expensive canonical-scenario runs are session scoped."""

from dataclasses import replace
from pathlib import Path

import pytest

from radgas.cli import load_run_config
from radgas.integrator import run_simulation

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="session")
def canonical_spec():
    return load_run_config(CONFIGS / "canonical.cfg").scenario


@pytest.fixture(scope="session")
def canonical_run(canonical_spec):
    """The full canonical run with stored states, shared by many checks."""
    return run_simulation(canonical_spec, sample_cadence=0.02, keep_states=True)


@pytest.fixture(scope="session")
def small_gaussian_spec(canonical_spec):
    """Desk-scale variant whose waves never reach the boundary."""
    return replace(canonical_spec, L=10.0, N=128, T_end=1.0)
