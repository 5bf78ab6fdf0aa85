"""No mis-shaped input reaches LAPACK: every length check raises ConfigError first.

``dpttrf`` and ``dptsv`` write in place, and a short ``off`` once corrupted the
heap, so ``tridiagonal_solve`` and ``_factor_symmetric`` must refuse any
inconsistent lengths, 0-d or 2-D arrays and lists of the wrong length before
the call, and leave every input as it was.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st

from radgas import integrator
from radgas.errors import ConfigError
from radgas.integrator import tridiagonal_solve

# Each form gives an argument of the wanted length, or one of a wrong shape.
FORMS = ("array", "strided", "float32", "list", "wrong_length", "wrong_length_list",
         "scalar", "column", "row")


def _argument(form, length, value, delta):
    """One argument in ``form``; ``delta`` (never 0) moves a wrong length off ``length``."""
    if form in ("wrong_length", "wrong_length_list"):
        length = length + delta if length + delta >= 0 else length + abs(delta)
    data = np.full(length, value)
    if form in ("array", "wrong_length"):
        return data
    if form == "strided":
        return np.repeat(data, 2)[::2]
    if form == "float32":
        return data.astype(np.float32)
    if form in ("list", "wrong_length_list"):
        return data.tolist()
    if form == "scalar":
        return np.array(value)
    if form == "column":
        return data.reshape(-1, 1)
    return data.reshape(1, -1)


def _unchanged(arg, before):
    after = np.asarray(arg)
    return after.shape == before.shape and after.dtype == before.dtype and np.array_equal(
        after, before)


def _consistent(off, diag, rhs=None):
    diag_shape = np.shape(diag)
    if len(diag_shape) != 1:
        return None
    n = diag_shape[0]
    if np.shape(off) != (n - 1,) or (rhs is not None and np.shape(rhs) != (n,)):
        return None
    return n


system = st.tuples(
    st.integers(1, 12),
    st.sampled_from(FORMS), st.sampled_from(FORMS), st.sampled_from(FORMS),
    st.sampled_from((-2, -1, 1, 2)), st.sampled_from((-2, -1, 1, 2)),
    st.sampled_from((-2, -1, 1, 2)), st.booleans(),
)


@seed(24)
@settings(max_examples=400, deadline=None, database=None)
@given(system)
def test_mis_shaped_systems_raise_config_error_and_write_nothing(drawn):
    n, off_form, diag_form, rhs_form, d_off, d_diag, d_rhs, use_factors = drawn
    # symmetric and strictly dominant, so a consistent system always solves
    off = _argument(off_form, n - 1, -1.0, d_off)
    diag = _argument(diag_form, n, 4.0, d_diag)
    rhs = _argument(rhs_form, n, 1.0, d_rhs)
    inputs = (off, diag, rhs)
    before = [np.array(a, copy=True) for a in inputs]
    factors = integrator._factor_symmetric(np.full(n - 1, -1.0), np.full(n, 4.0))
    factors_before = None if factors is None else factors.copy()
    order = _consistent(off, diag, rhs)

    kwargs = {"factors": factors} if use_factors and factors is not None else {}
    if order is None or (kwargs and order != n):
        with pytest.raises(ConfigError):
            tridiagonal_solve(off, diag, rhs, **kwargs)
    else:
        assert tridiagonal_solve(off, diag, rhs, **kwargs).shape == (order,)

    if _consistent(off, diag) is None:
        with pytest.raises(ConfigError):
            integrator._factor_symmetric(off, diag)
    else:
        integrator._factor_symmetric(off, diag)

    for arg, snap in zip(inputs, before):
        assert _unchanged(arg, snap)
    if factors is not None:
        assert np.array_equal(factors, factors_before)
