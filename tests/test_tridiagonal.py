"""Tridiagonal solvers against hand cases and a dense oracle.

Every case runs on ``tridiagonal_solve`` (LAPACK ``dgtsv`` where numpy's
BLAS exports it) and on the Thomas reference ``_thomas_solve``, its fallback.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import radgas
from radgas import integrator
from radgas.errors import ConfigError, SingularMatrixError
from radgas.integrator import _thomas_solve, tridiagonal_solve

SOLVERS = (tridiagonal_solve, _thomas_solve)
needs_dgtsv = pytest.mark.skipif(integrator._DGTSV is None, reason="numpy's BLAS has no dgtsv")


def _random_dominant_system(rng, n):
    lower = rng.uniform(-1, 1, n - 1)
    upper = rng.uniform(-1, 1, n - 1)
    diag = 3.0 + rng.uniform(0, 1, n)
    rhs = rng.uniform(-5, 5, n)
    return lower, diag, upper, rhs


def test_identity_system():
    rhs = np.array([3.0, -1.0, 4.0, 1.5])
    for solve in SOLVERS:
        x = solve(np.zeros(3), np.ones(4), np.zeros(3), rhs)
        assert np.array_equal(x, rhs), solve.__name__


def test_two_by_two_hand_solve():
    for solve in SOLVERS:
        x = solve([1.0], [2.0, 2.0], [1.0], [3.0, 3.0])
        assert x == pytest.approx([1.0, 1.0]), solve.__name__


def test_matches_dense_solver_on_random_dominant_systems():
    rng = np.random.default_rng(42)
    for _ in range(20):
        lower, diag, upper, rhs = _random_dominant_system(rng, 50)
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        expected = np.linalg.solve(dense, rhs)
        for solve in SOLVERS:
            got = solve(lower, diag, upper, rhs)
            assert np.max(np.abs(got - expected)) < 1e-10, solve.__name__


def test_lapack_agrees_with_thomas_at_n_511():
    rng = np.random.default_rng(511)
    system = _random_dominant_system(rng, 511)
    inputs = [a.copy() for a in system]
    got = tridiagonal_solve(*system)
    assert np.max(np.abs(got - _thomas_solve(*system))) <= 1e-13
    # dgtsv works on copies: the caller's arrays are untouched
    for before, after in zip(inputs, system):
        assert np.array_equal(before, after)


def test_single_row_system():
    for solve in SOLVERS:
        assert np.array_equal(solve([], [4.0], [], [2.0]), [0.5]), solve.__name__
        with pytest.raises(SingularMatrixError):
            solve([], [0.0], [], [1.0])


def test_solution_owns_its_memory():
    rng = np.random.default_rng(7)
    system = _random_dominant_system(rng, 64)
    for solve in SOLVERS:
        x = solve(*system)
        assert x.base is None and x.shape == (64,), solve.__name__
        assert not any(np.shares_memory(x, a) for a in system), solve.__name__


def test_singular_pivot_raises():
    for solve in SOLVERS:
        with pytest.raises(SingularMatrixError):
            solve([0.0], [0.0, 1.0], [0.0], [1.0, 1.0])
        # elimination produces an exactly zero second pivot
        with pytest.raises(SingularMatrixError):
            solve([1.0], [1.0, 1.0], [1.0], [1.0, 1.0])


@needs_dgtsv
def test_lapack_exchanges_rows_on_zero_diagonal():
    # [[0, 1], [1, 0]] x = [1, 2] is regular; only the Thomas loop stops on it
    assert np.array_equal(tridiagonal_solve([1.0], [0.0, 0.0], [1.0], [1.0, 2.0]), [2.0, 1.0])
    with pytest.raises(SingularMatrixError):
        _thomas_solve([1.0], [0.0, 0.0], [1.0], [1.0, 2.0])


def test_inconsistent_lengths_rejected():
    for solve in SOLVERS:
        with pytest.raises(ConfigError):
            solve([1.0, 2.0], [1.0, 1.0], [1.0], [1.0, 1.0])
        with pytest.raises(ConfigError):
            solve([1.0], [1.0, 1.0], [1.0], [1.0, 1.0, 1.0])


def test_reentrant_same_inputs_same_outputs():
    lower = [0.5, -0.25]
    diag = [2.0, 2.5, 3.0]
    upper = [-0.5, 0.75]
    rhs = [1.0, 2.0, 3.0]
    for solve in SOLVERS:
        first = solve(lower, diag, upper, rhs)
        second = solve(lower, diag, upper, rhs)
        assert np.array_equal(first, second), solve.__name__


def test_stepping_does_not_import_scipy():
    """The kernel comes from numpy's own BLAS; scipy would add ~26 MB per process."""
    code = (
        "import sys\n"
        "import radgas\n"
        "from radgas.domain import ScenarioSpec, build_grid, make_initial_data\n"
        "from radgas.integrator import strang_step\n"
        "spec = ScenarioSpec(L=10.0, N=64, T_end=0.1)\n"
        "grid = build_grid(spec.L, spec.N)\n"
        "strang_step(make_initial_data(spec, grid), grid, spec.params, 0.01)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(radgas.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
