"""The symmetric positive definite tridiagonal solvers against hand cases and a dense oracle.

Every case runs on ``tridiagonal_solve`` (LAPACK ``dptsv``, or ``dpttrs``
with factors from ``_factor_symmetric``, where numpy's BLAS exports them)
and on the Thomas reference ``_thomas_solve``, its fallback.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import radgas
from radgas import integrator
from radgas.errors import ConfigError, SingularMatrixError
from radgas.integrator import _thomas_solve, tridiagonal_solve

SOLVERS = (tridiagonal_solve, _thomas_solve)
needs_dptsv = pytest.mark.skipif(
    None in (integrator._DPTSV, integrator._DPTTRF, integrator._DPTTRS),
    reason="numpy's BLAS has no dptsv, dpttrf or dpttrs")


def _random_spd_system(rng, n):
    """Symmetric, strictly diagonally dominant with a positive diagonal, like the integrator's."""
    off = -rng.uniform(0, 1, n - 1)
    diag = 2.5 + rng.uniform(0, 1, n)
    rhs = rng.uniform(-5, 5, n)
    return off, diag, rhs


def _dense(off, diag):
    return np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)


def test_identity_system():
    rhs = np.array([3.0, -1.0, 4.0, 1.5])
    for solve in SOLVERS:
        x = solve(np.zeros(3), np.ones(4), rhs)
        assert np.array_equal(x, rhs), solve.__name__


def test_two_by_two_hand_solve():
    for solve in SOLVERS:
        x = solve([1.0], [2.0, 2.0], [3.0, 3.0])
        assert x == pytest.approx([1.0, 1.0]), solve.__name__


def test_matches_dense_solver_on_random_dominant_systems():
    rng = np.random.default_rng(42)
    for _ in range(20):
        off, diag, rhs = _random_spd_system(rng, 50)
        expected = np.linalg.solve(_dense(off, diag), rhs)
        for solve in SOLVERS:
            got = solve(off, diag, rhs)
            assert np.max(np.abs(got - expected)) < 1e-10, solve.__name__


def test_lapack_agrees_with_thomas_at_n_511():
    rng = np.random.default_rng(511)
    system = _random_spd_system(rng, 511)
    inputs = [a.copy() for a in system]
    got = tridiagonal_solve(*system)
    assert np.max(np.abs(got - _thomas_solve(*system))) <= 1e-13
    # the solve works on copies: the caller's arrays are untouched
    for before, after in zip(inputs, system):
        assert np.array_equal(before, after)


def test_single_row_system():
    for solve in SOLVERS:
        assert np.array_equal(solve([], [4.0], [2.0]), [0.5]), solve.__name__
        with pytest.raises(SingularMatrixError):
            solve([], [0.0], [1.0])


def test_solution_owns_its_memory():
    rng = np.random.default_rng(7)
    system = _random_spd_system(rng, 64)
    for solve in SOLVERS:
        x = solve(*system)
        assert x.base is None and x.shape == (64,), solve.__name__
        assert not any(np.shares_memory(x, a) for a in system), solve.__name__


def test_singular_pivot_raises():
    for solve in SOLVERS:
        with pytest.raises(SingularMatrixError):
            solve([0.0], [0.0, 1.0], [1.0, 1.0])
        # [[0, 1], [1, 0]] is regular, but its first pivot is 0
        with pytest.raises(SingularMatrixError):
            solve([1.0], [0.0, 0.0], [1.0, 2.0])
        # elimination produces an exactly zero second pivot
        with pytest.raises(SingularMatrixError):
            solve([1.0], [1.0, 1.0], [1.0, 1.0])


@needs_dptsv
def test_indefinite_system_raises_on_every_route():
    # [[1, 1], [1, -1]] is regular but not positive definite: its second pivot is -2
    off = np.array([1.0])
    diag = np.array([1.0, -1.0])
    rhs = np.array([3.0, 1.0])
    for solve in SOLVERS:
        with pytest.raises(SingularMatrixError, match="row 1"):
            solve(off, diag, rhs)
    with pytest.raises(SingularMatrixError, match="row 1"):
        integrator._factor_symmetric(off, diag)


def test_without_ldlt_routines_the_thomas_loop_solves(monkeypatch):
    rng = np.random.default_rng(9)
    off, diag, rhs = _random_spd_system(rng, 300)
    for name in ("_DPTSV", "_DPTTRF", "_DPTTRS"):
        monkeypatch.setattr(integrator, name, None)
    assert integrator._factor_symmetric(off, diag) is None
    assert np.array_equal(tridiagonal_solve(off, diag, rhs), _thomas_solve(off, diag, rhs))


def test_inconsistent_lengths_rejected():
    for solve in SOLVERS:
        with pytest.raises(ConfigError):
            solve([1.0, 2.0], [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ConfigError):
            solve([1.0], [1.0, 1.0], [1.0, 1.0, 1.0])
    # dpttrf writes the off-diagonal in place, so a short one is refused before the call
    with pytest.raises(ConfigError):
        integrator._factor_symmetric(np.array([-0.5]), np.full(4, 2.0))


def test_reentrant_same_inputs_same_outputs():
    off = [0.5, -0.25]
    diag = [2.0, 2.5, 3.0]
    rhs = [1.0, 2.0, 3.0]
    for solve in SOLVERS:
        first = solve(off, diag, rhs)
        second = solve(off, diag, rhs)
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
        "strang_step(make_initial_data(spec, grid), grid, spec, 0.01)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(radgas.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


@needs_dptsv
def test_symmetric_systems_match_dense_and_thomas():
    rng = np.random.default_rng(3)
    for n in (2, 50, 511):
        off, diag, rhs = _random_spd_system(rng, n)
        expected = np.linalg.solve(_dense(off, diag), rhs)
        got = tridiagonal_solve(off, diag, rhs)
        assert np.max(np.abs(got - expected)) <= 1e-13
        assert np.max(np.abs(got - _thomas_solve(off, diag, rhs))) <= 1e-13


@needs_dptsv
def test_factored_solve_is_bit_identical_to_unfactored():
    rng = np.random.default_rng(17)
    for n in (1, 64, 2048):
        off, diag, _ = _random_spd_system(rng, n)
        factors = integrator._factor_symmetric(off, diag)
        assert factors is not None
        for _ in range(50):
            rhs = rng.uniform(-5, 5, n)
            assert np.array_equal(tridiagonal_solve(off, diag, rhs, factors=factors),
                                  tridiagonal_solve(off, diag, rhs))


@needs_dptsv
def test_factors_must_match_the_system():
    rng = np.random.default_rng(5)
    off, diag, rhs = _random_spd_system(rng, 16)
    for factors in (integrator._factor_symmetric(off[:-1], diag[:-1]),
                    integrator._factor_symmetric(off, diag).astype(np.float32)):
        with pytest.raises(ConfigError):
            tridiagonal_solve(off, diag, rhs, factors=factors)


@needs_dptsv
def test_symmetric_paths_leave_inputs_alone_and_own_their_memory():
    rng = np.random.default_rng(11)
    off, diag, rhs = _random_spd_system(rng, 128)
    inputs = [a.copy() for a in (off, diag, rhs)]
    factors = integrator._factor_symmetric(off, diag)
    packed = factors.copy()
    for x in (tridiagonal_solve(off, diag, rhs),
              tridiagonal_solve(off, diag, rhs, factors=factors)):
        assert x.base is None and x.shape == (128,)
        assert not any(np.shares_memory(x, a) for a in (off, diag, rhs, factors))
    for before, after in zip(inputs, (off, diag, rhs)):
        assert np.array_equal(before, after)
    assert np.array_equal(packed, factors)


@needs_dptsv
def test_threads_solving_symmetric_systems_share_no_buffer():
    """The sweep runs cells in threads; concurrent solves must not see each other's data.

    Four threads, more than a two-CPU host has, each on its own system of the same n."""
    rng = np.random.default_rng(23)
    n = 1024
    systems = [_random_spd_system(rng, n) for _ in range(4)]
    serial = []
    for off, diag, rhs in systems:
        factors = integrator._factor_symmetric(off, diag)
        serial.append((tridiagonal_solve(off, diag, rhs),
                       tridiagonal_solve(off, diag, rhs, factors=factors)))
    mismatches = []
    start = threading.Barrier(len(systems))

    def solve_many(k):
        off, diag, rhs = systems[k]
        start.wait(timeout=30)
        for _ in range(150):
            factors = integrator._factor_symmetric(off, diag)
            got = (tridiagonal_solve(off, diag, rhs),
                   tridiagonal_solve(off, diag, rhs, factors=factors))
            if not all(np.array_equal(g, s) for g, s in zip(got, serial[k])):
                mismatches.append(k)

    threads = [threading.Thread(target=solve_many, args=(k,)) for k in range(len(systems))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a shared buffer would show
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_lapack_order_arguments_stay_few_over_many_orders():
    """The byref of each order is kept for reuse, in a cache of at most 64 orders."""
    for n in range(1, 3 * 64):
        rhs = np.arange(1.0, n + 1.0)
        assert np.array_equal(tridiagonal_solve(np.zeros(n - 1), np.ones(n), rhs), rhs)
        assert integrator._order_ref.cache_info().currsize <= 64
