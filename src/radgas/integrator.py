"""Time integration of the coupled system by symmetric operator splitting.

One composed step applies, in palindromic order,

    species(dt/2) -> heat(dt/2) -> hydro(dt) -> heat(dt/2) -> species(dt/2).

The hydro substep is a position-Verlet update of (v, u) with the viscous
force treated by a trapezoidal (Crank-Nicolson) tridiagonal solve; pressure
is explicit under an acoustic CFL condition.  The heat substep solves the
temperature equation with trapezoidal time weighting and Picard-frozen
coefficients, one tridiagonal solve per sweep.  The species substep is a
trapezoidal solve subcycled just enough that the update matrix keeps the
discrete maximum principle, so 0 <= z <= max(z) holds for arbitrary data.

Positivity failures and non-convergence reject the step and retry at dt/2;
repeated rejection raises BlowUpError.  Once per call, on entry, each public
substep, ``strang_step`` and ``select_timestep`` check their whole input
state with the one guard, ``_check_state``: a NaN or inf in any field raises
BlowUpError naming the field, and a state outside the open quadrant v > 0,
theta > 0 raises ValueError.  All of them then evaluate the unguarded
constitutive kernels.  Every tridiagonal solve goes through
``tridiagonal_solve``, which makes the read-only LAPACK arguments of an
order n once and reuses them.
"""

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .constitutive import (
    _check_quadrant,
    _conductivity,
    _e_theta,
    _energy_theta_chord,
    _p_theta,
    _p_v,
    _pressure,
    _reaction_rate,
)
from .domain import (
    Grid,
    ScenarioSpec,
    State,
    build_grid,
    make_initial_data,
)
from .errors import (
    BlowUpError,
    ConfigError,
    ConvergenceError,
    PositivityError,
    SingularMatrixError,
)

__all__ = [
    "StepOutcome",
    "RunResult",
    "tridiagonal_solve",
    "select_timestep",
    "hydro_step",
    "heat_step",
    "species_step",
    "strang_step",
    "run_simulation",
]

Z_BOUND_TOL = 1e-12
# Smallest timestep: select_timestep never returns less, and strang_step
# gives up once halving goes below it or past MAX_STEP_REJECTIONS rejections
DT_MIN = 1e-12
MAX_STEP_REJECTIONS = 30
# Most species subcycles one update may take; more rejects the step, which
# halves dt.  Tier-1 and the benchmark workloads need at most 34.
MAX_SUBCYCLES = 10_000


@dataclass
class StepOutcome:
    """Result of one accepted composed step."""

    new_state: State
    dt_used: float
    rejected_count: int
    species_consumed: float = 0.0


def _order(off, diag, *vectors):
    """The order n of the tridiagonal system, after checking every length against it.

    ``off`` must hold n - 1 entries; ``diag`` and each of ``vectors`` n.
    """
    n = np.size(diag)
    if np.shape(off) != (n - 1,) or any(np.shape(a) != (n,) for a in (diag, *vectors)):
        raise ConfigError("tridiagonal arrays have inconsistent lengths")
    return n


def _not_positive_definite(row):
    return SingularMatrixError(f"matrix not positive definite: pivot at row {row} is not > 0")


def _thomas_solve(off, diag, rhs):
    """Thomas algorithm for the symmetric system: forward elimination, back substitution.

    The reference for ``tridiagonal_solve`` and its fallback when numpy's
    BLAS lacks the LAPACK routines.  Its pivots are the D of L D L^T, so, as
    in ``dpttrf``, a pivot <= 0 raises SingularMatrixError.
    """
    n = _order(off, diag, rhs)
    d = np.asarray(diag, dtype=float).tolist()
    r = np.asarray(rhs, dtype=float).tolist()
    e = np.asarray(off, dtype=float).tolist()

    cp = [0.0] * n
    rp = [0.0] * n
    piv = d[0]
    if piv <= 0.0:
        raise _not_positive_definite(0)
    if n > 1:
        cp[0] = e[0] / piv
    rp[0] = r[0] / piv
    for i in range(1, n):
        piv = d[i] - e[i - 1] * cp[i - 1]
        if piv <= 0.0:
            raise _not_positive_definite(i)
        if i < n - 1:
            cp[i] = e[i] / piv
        rp[i] = (r[i] - e[i - 1] * rp[i - 1]) / piv
    x = [0.0] * n
    x[n - 1] = rp[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = rp[i] - cp[i] * x[i + 1]
    return np.array(x)


def _bind_lapack(name, *argtypes):
    """The ILP64 LAPACK routine ``name`` from the OpenBLAS numpy already loaded, or None.

    ``dlsym`` on numpy's linalg extension searches the libraries it links, so
    no library path is needed.  Every argument is declared in ``argtypes``,
    so addresses pass as 64-bit pointers.  ``PyDLL`` keeps the GIL held
    during the call: a solve takes microseconds, and releasing and re-taking
    the GIL around each one stalls the sweep's worker threads.
    """
    try:
        from numpy.linalg import _umath_linalg

        fn = getattr(ctypes.PyDLL(_umath_linalg.__file__), f"scipy_{name}_64_")
    except (ImportError, OSError, AttributeError):
        return None
    fn.argtypes = argtypes
    fn.restype = None
    return fn


_INT = ctypes.POINTER(ctypes.c_int64)
_PTR = ctypes.c_void_p
# (n, nrhs, d, e, b, ldb, info)
_DPTSV = _bind_lapack("dptsv", _INT, _INT, _PTR, _PTR, _PTR, _INT, _INT)
# (n, d, e, info)
_DPTTRF = _bind_lapack("dpttrf", _INT, _PTR, _PTR, _INT)
# (n, nrhs, d, e, b, ldb, info)
_DPTTRS = _bind_lapack("dpttrs", _INT, _INT, _PTR, _PTR, _PTR, _INT, _INT)
_ONE = ctypes.byref(ctypes.c_int64(1))
_FLOAT64 = np.dtype(np.float64)


# byref(c_int64(n)) per order n, made on first use.  LAPACK only reads it, so
# calls and threads share it; the info argument, which LAPACK writes, is per call.
# A run meets two orders per grid, so a small cache holds them.
@functools.lru_cache(maxsize=64)
def _order_ref(n):
    return ctypes.byref(ctypes.c_int64(n))


def _address(buf):
    """Base address of a writable contiguous array; a fifth of the cost of ``buf.ctypes.data``."""
    return ctypes.addressof(ctypes.c_char.from_buffer(buf))


def _factor_symmetric(off, diag):
    """LAPACK ``dpttrf`` factors of the symmetric positive definite tridiagonal matrix.

    The matrix has diagonal ``diag`` and ``off`` on both off-diagonals.  The
    factors L D L^T are packed as [d | e] in one array, for
    ``tridiagonal_solve(off, diag, rhs, factors=...)``.  A matrix that is not
    positive definite raises SingularMatrixError.  None when numpy's BLAS
    lacks ``dpttrf``/``dpttrs``; the solve then runs without factors.
    """
    n = _order(off, diag)
    if _DPTTRF is None or _DPTTRS is None:
        return None
    # dpttrf overwrites d and e, so they are copied into one buffer
    packed = np.concatenate((diag, off), dtype=np.float64)
    base = _address(packed)
    info = ctypes.c_int64(0)
    _DPTTRF(_order_ref(n), base, base + 8 * n, ctypes.byref(info))
    if info.value > 0:
        raise _not_positive_definite(info.value - 1)
    return packed


def tridiagonal_solve(off, diag, rhs, *, factors=None):
    """Solve a symmetric positive definite tridiagonal system with LAPACK.

    ``off`` holds the n-1 entries of both off-diagonals, ``diag`` and
    ``rhs`` the n diagonal/right-hand-side entries.  Every system the
    integrator builds is of this kind.  With ``factors`` from
    ``_factor_symmetric(off, diag)`` only ``dpttrs`` runs; without them
    ``dptsv`` (``dpttrf`` then ``dpttrs``, so both give the same bits).
    Without these routines in numpy's BLAS, the Thomas algorithm
    (``_thomas_solve``) is used instead.  A matrix that is not positive
    definite raises SingularMatrixError on every route.

    The caller's arrays are never written, and the solution owns its memory.
    Lengths are checked by plain shape compares when all three inputs are
    1-D float64 ndarrays, as the integrator's are, and by ``_order`` else.
    """
    if (type(off) is type(diag) is type(rhs) is np.ndarray
            and off.dtype is diag.dtype is rhs.dtype is _FLOAT64
            and diag.ndim == 1 and rhs.shape == diag.shape
            and off.shape == (diag.shape[0] - 1,)):
        n = diag.shape[0]
    else:
        n = _order(off, diag, rhs)
    n_ref = _order_ref(n)
    info = ctypes.c_int64(0)
    if factors is not None:
        if factors.shape != (2 * n - 1,) or factors.dtype != np.float64:
            raise ConfigError("tridiagonal factors do not match the system")
        fac = _address(factors)
        x = np.array(rhs, dtype=np.float64)
        _DPTTRS(n_ref, _ONE, fac, fac + 8 * n, _address(x), n_ref, ctypes.byref(info))
        return x
    if _DPTSV is None:
        return _thomas_solve(off, diag, rhs)
    # dptsv overwrites its inputs, so they are copied into one buffer [d | e | b]
    buf = np.concatenate((diag, off, rhs), dtype=np.float64)
    base = _address(buf)
    _DPTSV(n_ref, _ONE, base, base + 8 * n, base + 8 * (2 * n - 1), n_ref, ctypes.byref(info))
    if info.value > 0:
        raise _not_positive_definite(info.value - 1)
    # a compact copy, so the caller does not keep the whole buffer alive
    return buf[2 * n - 1:].copy()


def _check_finite(state):
    """BlowUpError naming the first field of the state that holds a NaN or inf."""
    for name in ("v", "theta", "z", "u"):
        if not np.isfinite(getattr(state, name)).all():
            raise BlowUpError(f"non-finite {name} in the state at t = {state.t:.6g}")


def _check_state(state):
    """The guard of all five step functions: ``_check_finite``, then ``_check_quadrant``.

    A sum of squares is finite only if every entry is, and a minimum that is
    > 0 holds no NaN, so the usual state passes on four dot products and two
    minima.  ``np.vdot`` raises no floating-point warning on overflow and
    keeps the GIL, where ``np.dot`` does neither in numpy 2.4.  Any other
    state, a finite one whose squares overflow included, goes through the
    full pair, which raises the exact error.
    """
    v, theta, z, u = state.v, state.theta, state.z, state.u
    squares = (float(np.vdot(v, v)) + float(np.vdot(theta, theta))
               + float(np.vdot(z, z)) + float(np.vdot(u, u)))
    if math.isfinite(squares) and v.min() > 0.0 and theta.min() > 0.0:
        return
    _check_finite(state)
    _check_quadrant(v, theta)


def select_timestep(state: State, grid: Grid, spec: ScenarioSpec, dt_max: float = math.inf) -> float:
    """Acoustic CFL timestep at the scenario's cfl, clamped to [DT_MIN, dt_max].

    The per-cell signal speed is v*sqrt(max(-p_v + p_theta^2*theta/e_theta, 0)/v)
    evaluated from the constitutive partials; the cell velocity scale is the
    larger of the two adjacent node speeds.  Diffusive terms place no
    restriction because they are integrated implicitly.  The whole state is
    checked on entry, as by the steps; a speed that then overflows raises
    BlowUpError.
    """
    params = spec.params
    _check_state(state)
    v, theta = state.v, state.theta
    # a finite state can still overflow theta**3; that is reported below as
    # BlowUpError, not as a numpy warning
    with np.errstate(invalid="ignore", over="ignore"):
        theta_cu = theta**3
        p_v = _p_v(params, v, theta)
        p_theta = _p_theta(params, v, theta_cu)
        e_theta = _e_theta(params, v, theta_cu)
        gamma2 = np.maximum(-p_v + p_theta**2 * theta / e_theta, 0.0)
        c = v * np.sqrt(gamma2 / v)
        abs_u = np.abs(state.u)
        u_cell = np.maximum(abs_u[:-1], abs_u[1:])
        speed = float((u_cell + c).max())
    if not math.isfinite(speed):
        raise BlowUpError(f"acoustic signal speed overflowed at t = {state.t:.6g}")
    if speed <= 0.0:
        return dt_max if math.isfinite(dt_max) else 1.0
    raw = spec.cfl * grid.dx / speed
    return min(max(raw, DT_MIN), dt_max)


def hydro_step(state, grid, spec, dt, sources=None):
    """Advance (v, u) by dt with theta frozen.

    Position-Verlet: half volume update, trapezoidal implicit solve for the
    new velocity (explicit pressure gradient, implicit viscous stress), half
    volume update with the new velocity.  Mass telescopes exactly because
    boundary nodes never move.  A NaN or inf in the state raises BlowUpError
    naming the field.
    """
    params = spec.params
    t0 = state.t
    dx = grid.dx
    h = dt
    u = state.u
    th = state.theta
    _check_state(state)

    sv1 = sources.Sv(t0 + 0.25 * h) if sources else 0.0
    v_half = state.v + 0.5 * h * ((u[1:] - u[:-1]) / dx + sv1)
    if not v_half.min() > spec.floor_v:
        raise PositivityError("specific volume fell below floor in half update")

    p = _pressure(params, v_half, th)
    w = params.mu / (dx * dx * v_half)
    grad_p = (p[1:] - p[:-1]) / dx
    su = sources.Su(t0 + 0.5 * h) if sources else 0.0

    # trapezoidal viscous solve on interior nodes; u = 0 pinned at both ends
    visc_old = w[1:] * (u[2:] - u[1:-1]) - w[:-1] * (u[1:-1] - u[:-2])
    rhs = u[1:-1] + 0.5 * h * visc_old + h * (-grad_p + su)
    diag = 1.0 + 0.5 * h * (w[:-1] + w[1:])
    off = -0.5 * h * w[1:-1]
    u_new = np.zeros_like(u)
    u_new[1:-1] = tridiagonal_solve(off, diag, rhs)

    sv2 = sources.Sv(t0 + 0.75 * h) if sources else 0.0
    v_new = v_half + 0.5 * h * ((u_new[1:] - u_new[:-1]) / dx + sv2)
    if not v_new.min() > spec.floor_v:
        raise PositivityError("specific volume fell below floor")

    return State(state.t, v_new, th, state.z, u_new)


def _face_coefficients(cell_values, dx):
    """Arithmetic face averages of a per-cell diffusivity, divided by dx^2.

    The two domain-end faces carry zero flux: perturbations are compactly
    supported away from the walls, so the far-field gradient vanishes and a
    closed end keeps every discrete balance (species mass, conducted energy)
    an exact telescoping identity.
    """
    n = cell_values.shape[0]
    a = np.zeros(n + 1)
    a[1:-1] = 0.5 * (cell_values[:-1] + cell_values[1:]) / (dx * dx)
    return a


def _flux_divergence(values, a):
    """a_{i+1}(f_{i+1}-f_i) - a_i(f_i-f_{i-1}) with zero-flux end faces."""
    jumps = a[1:-1] * (values[1:] - values[:-1])
    out = np.zeros_like(values)
    out[:-1] += jumps
    out[1:] -= jumps
    return out


# An iterate that overflows fails the loop's NaN-proof tests and rejects the
# step, without a numpy warning on the way
@np.errstate(over="ignore", invalid="ignore")
def heat_step(state, grid, spec, dt, sources=None):
    """Advance theta by dt with v, u, z frozen; returns (state, picard_iters).

    Trapezoidal in time: the implicit half uses conduction coefficients and
    sources frozen at the latest Picard iterate, so each sweep is one
    tridiagonal solve and the converged update is a genuine Crank-Nicolson
    step of the nonlinear equation.  The time derivative is weighted by the
    exact secant of internal energy in theta, which makes the per-step energy
    balance an identity rather than an approximation.  A NaN or inf in the
    state raises BlowUpError naming the field.
    """
    params = spec.params
    t0 = state.t
    dx = grid.dx
    h = dt
    v = state.v
    th_old = state.theta
    _check_state(state)
    z = state.z
    u_x = (state.u[1:] - state.u[:-1]) / dx
    viscous_heating = params.mu * u_x**2 / v
    th_old_sq = th_old**2
    th_old_cu = th_old**3

    def coefficients(th, th_cu):
        """Face conductances and volumetric sources at the iterate th (th_cu = th**3)."""
        a = _face_coefficients(_conductivity(params, v, th) / v, dx)
        p_theta = _p_theta(params, v, th_cu)
        vol = -th * p_theta * u_x + viscous_heating + params.lam * _reaction_rate(params, th) * z
        return a, vol

    a_old, vol_old = coefficients(th_old, th_old_cu)
    half_flux_old = 0.5 * _flux_divergence(th_old, a_old)
    src_old = vol_old + (sources.Stheta(t0) if sources else 0.0)
    stheta_new = sources.Stheta(t0 + h) if sources else 0.0

    # the first sweep starts from th_old, whose coefficients are already known
    th_star, th_star_cu = th_old, th_old_cu
    a_new, vol_new = a_old, vol_old
    iters = 0
    for iters in range(1, spec.picard_max_iters + 1):
        src_new = vol_new + stheta_new
        e_chord = _energy_theta_chord(params, v, th_old, th_star, th_old_sq, th_old_cu, th_star_cu)

        diag = e_chord / h + 0.5 * (a_new[:-1] + a_new[1:])
        off = -0.5 * a_new[1:-1]
        rhs = e_chord * th_old / h + half_flux_old + 0.5 * (src_old + src_new)

        th_next = tridiagonal_solve(off, diag, rhs)
        if not th_next.min() > 0.0:
            raise ConvergenceError("temperature iterate left the positive cone")
        change = float(np.abs(th_next - th_star).max())
        th_star = th_next
        if change < spec.picard_tol:
            break
        th_star_cu = th_star**3
        a_new, vol_new = coefficients(th_star, th_star_cu)
    else:
        raise ConvergenceError(
            f"heat solve did not reach {spec.picard_tol:g} in {spec.picard_max_iters} sweeps"
        )

    if not th_star.min() > spec.floor_theta:
        raise PositivityError("temperature fell below floor")
    return State(state.t, v, th_star, z, state.u), iters


def _species_rates(state, grid, params, dt):
    """Rates of the species update over dt: (phi, a, rate_scale, needed).

    ``phi`` is the reaction rate per cell, ``a`` the face coefficients of the
    diffusion, ``rate_scale`` each row's a_i + a_{i+1} + phi_i, and ``needed``
    the subcycle count, before rounding up, that keeps the explicit half of
    each trapezoidal subcycle nonnegative.
    """
    phi = _reaction_rate(params, state.theta)
    a = _face_coefficients(params.d / state.v**2, grid.dx)
    rate_scale = a[:-1] + a[1:] + phi
    return phi, a, rate_scale, 0.5 * dt * float(rate_scale.max())


def _species_update(state, grid, params, dt, sources=None):
    """Trapezoidal reactant update subcycled to keep the maximum principle.

    The subcycle length is chosen so the explicit half of each trapezoidal
    solve has nonnegative coefficients; combined with the M-matrix implicit
    half this guarantees 0 <= z' <= max(z) for arbitrary admissible data.
    Returns (z_new, consumed) where consumed integrates the reaction sink
    with the exact quadrature the scheme uses, making

        sum(z_new)*dx + consumed = sum(z_old)*dx + injected sources

    an identity up to solver round-off (end faces carry no flux).  An update
    that would need more than MAX_SUBCYCLES subcycles, or that makes a NaN or
    inf, raises ConvergenceError.
    """
    t0 = state.t
    dx = grid.dx
    phi, a, rate_scale, needed = _species_rates(state, grid, params, dt)
    if not needed <= MAX_SUBCYCLES:
        raise ConvergenceError(
            f"species update needs {needed:.3g} subcycles (at most {MAX_SUBCYCLES})")
    n_sub = max(1, math.ceil(needed))
    delta = dt / n_sub
    diag = 1.0 / delta + 0.5 * rate_scale
    off = -0.5 * a[1:-1]
    half_phi = 0.5 * phi
    # the matrix is the same in every subcycle, so it is factored once
    factors = _factor_symmetric(off, diag)

    z = state.z
    consumed = 0.0
    for k in range(n_sub):
        tau = t0 + k * delta
        src = 0.5 * (sources.Sz(tau) + sources.Sz(tau + delta)) if sources else 0.0
        flux_z = _flux_divergence(z, a)
        rhs = z / delta + 0.5 * flux_z - half_phi * z + src
        z_new = tridiagonal_solve(off, diag, rhs, factors=factors)
        consumed += delta * float((half_phi * (z + z_new)).sum()) * dx
        z = z_new
    # a NaN or inf anywhere in z, in any subcycle, makes the sum non-finite
    if not math.isfinite(consumed):
        raise ConvergenceError("species update produced a non-finite reactant fraction")
    return z, consumed


def species_step(state, grid, spec, dt, sources=None):
    """Advance z by dt with v, theta frozen; preserves 0 <= z <= max(z).

    A NaN or inf in the state raises BlowUpError naming the field.
    """
    _check_state(state)
    z_new, _ = _species_update(state, grid, spec.params, dt, sources=sources)
    return State(state.t, state.v, state.theta, z_new, state.u)


def _check_state_bounds(state):
    # written so that a NaN fails the test and rejects the step
    if not (state.z.min() >= -Z_BOUND_TOL and state.z.max() <= 1.0 + Z_BOUND_TOL):
        raise PositivityError("reactant fraction left [0, 1]")


def strang_step(state, grid, spec, dt, sources=None):
    """One composed step with rejection control; returns a StepOutcome.

    On PositivityError, ConvergenceError or SingularMatrixError the attempt
    is discarded and retried from the original state at half the timestep,
    up to MAX_STEP_REJECTIONS times and while the timestep stays at least
    DT_MIN; after that BlowUpError reports the suspected loss of the a priori
    bounds.  A NaN or inf in the input state raises BlowUpError before any
    attempt, naming the field.  Each substep starts at the time of the state
    it is given, so the second heat and species substeps start at t + dt/2.

    Each bound is checked, NaN-proof, where its field is made: v > floor_v
    and u = 0 at the walls by ``hydro_step``, theta > floor_theta by the
    second ``heat_step``, a finite z by each species substep, and, unforced,
    0 <= z <= 1 at the step's end.
    """
    params = spec.params
    _check_state(state)
    dt_try = dt
    rejected = 0
    while True:
        try:
            t0 = state.t
            half = 0.5 * dt_try
            z1, c1 = _species_update(state, grid, params, half, sources=sources)
            s1 = State(t0, state.v, state.theta, z1, state.u)
            s2, _ = heat_step(s1, grid, spec, half, sources=sources)
            s3 = hydro_step(s2, grid, spec, dt_try, sources=sources)
            s4, _ = heat_step(State(t0 + half, s3.v, s3.theta, s3.z, s3.u), grid, spec, half,
                              sources=sources)
            z5, c2 = _species_update(s4, grid, params, half, sources=sources)
            s5 = State(t0 + dt_try, s4.v, s4.theta, z5, s4.u)
            if sources is None:
                _check_state_bounds(s5)
            return StepOutcome(
                new_state=s5,
                dt_used=dt_try,
                rejected_count=rejected,
                species_consumed=c1 + c2,
            )
        except (PositivityError, ConvergenceError, SingularMatrixError) as exc:
            rejected += 1
            dt_try *= 0.5
            if rejected > MAX_STEP_REJECTIONS or dt_try < DT_MIN:
                raise BlowUpError(
                    f"step at t = {state.t:.6g} failed after {rejected} rejections "
                    f"(last dt = {2 * dt_try:.3e}): {exc}"
                ) from exc


@dataclass
class RunResult:
    """Output of a simulation: the diagnostics history and the final state."""

    spec: ScenarioSpec
    grid: Grid
    final_state: State
    records: list
    species_consumed: float

    def column(self, name: str) -> np.ndarray:
        """Time series of one DiagnosticsRecord field, that is one CSV column."""
        return np.array([getattr(r, name) for r in self.records])


def run_simulation(
    spec: ScenarioSpec,
    sample_cadence: float = 0.1,
    dt_max: float = math.inf,
    on_sample=None,
) -> RunResult:
    """Integrate the scenario from t = 0 to T_end, sampling diagnostics.

    Every accepted state satisfies the positivity floors and (for unforced
    runs) reactant confinement, otherwise BlowUpError propagates.  Sampling
    lands exactly on multiples of the cadence because the timestep is capped
    by the distance to the next sample time.  Each sample, the initial state
    first, appends ``make_record`` of the state and the previous sample to
    the records and then passes the state to ``on_sample``.  No state is
    changed after it is sampled, so a consumer may keep it without a copy.
    ``dt_max`` caps every timestep; it must be at least DT_MIN.
    """
    from .functionals import make_record

    if not sample_cadence > 0:
        raise ConfigError("sample_cadence must be > 0")
    if not dt_max >= DT_MIN:
        raise ConfigError(f"dt_max must be >= DT_MIN = {DT_MIN:g}, got {dt_max!r}")
    grid = build_grid(spec.L, spec.N)
    state = make_initial_data(spec, grid)

    records = []
    record = prev_sample = None
    consumed_total = 0.0
    k_sample = 0
    t_next = 0.0
    t_eps = 1e-12 * max(1.0, spec.T_end)
    while True:
        if state.t >= t_next - t_eps:
            record = make_record(state, grid, spec.params, record, prev_sample)
            records.append(record)
            if on_sample is not None:
                on_sample(state)
            prev_sample = state
            k_sample += 1
            t_next = min(k_sample * sample_cadence, spec.T_end)
        if state.t >= spec.T_end - t_eps:
            break
        dt = select_timestep(state, grid, spec, dt_max)
        dt = min(dt, t_next - state.t)
        try:
            outcome = strang_step(state, grid, spec, dt)
        except BlowUpError as exc:
            raise BlowUpError(f"run aborted at t = {state.t:.6g}: {exc}") from exc
        state = outcome.new_state
        consumed_total += outcome.species_consumed

    return RunResult(
        spec=spec,
        grid=grid,
        final_state=state,
        records=records,
        species_consumed=consumed_total,
    )
