"""Manufactured solutions, refinement studies, and fine-grid oracle comparisons.

Manufactured fields are Gaussian-envelope profiles times decaying
exponentials, chosen to vanish near the domain ends to machine precision so
the closed-end boundary treatment is exact and the studies measure interior
discretization error only.  The x-only factors of the fields are computed
once per grid (``_Profile``); each source call scales them by the decay
factors of its time and evaluates only the residuals it returns.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .constitutive import (
    GasParameters,
    _check_quadrant,
    _conductivity,
    _e_theta,
    _p_theta,
    _p_v,
    _pressure,
    _reaction_rate,
)
from .domain import Grid, ScenarioSpec, State, _gaussian_profile, build_grid
from .errors import ConfigError
from .integrator import run_simulation, strang_step

__all__ = [
    "ManufacturedSolution",
    "ConvergenceReport",
    "ManufacturedSources",
    "integrate_manufactured",
    "convergence_study",
    "temporal_convergence_study",
    "oracle_compare",
]

FIELDS = ("v", "u", "theta", "z")
# Half-width of the box the refinement studies run in, and the joint study's
# timestep per cell width
STUDY_L = 8.0
DT_OVER_DX = 0.25


@dataclass(frozen=True)
class ManufacturedSolution:
    """Gaussian bumps g(x) = exp(-x^2/width^2) decaying in time.

    v = 1 + amp_v*g*exp(-rate*t), theta = 1 + amp_theta*g*exp(-rate*t),
    z = amp_z*g*exp(-rate_z*t) and the odd u = amp_u*x*g*exp(-rate*t).  The
    amplitudes must keep v and theta positive and z inside [0, 1]; the
    defaults are those of the verify suite's refinement studies, and zero
    amplitudes give the rest state, where every source vanishes.
    """

    amp_v: float = 0.1
    amp_u: float = 0.1
    amp_theta: float = 0.15
    amp_z: float = 0.4
    width: float = 1.0
    rate: float = 1.0
    rate_z: float = 0.5

    def v(self, t, x):
        return 1.0 + self.amp_v * _gaussian_profile(x, self.width) * math.exp(-self.rate * t)

    def u(self, t, x):
        return self.amp_u * x * _gaussian_profile(x, self.width) * math.exp(-self.rate * t)

    def theta(self, t, x):
        return 1.0 + self.amp_theta * _gaussian_profile(x, self.width) * math.exp(-self.rate * t)

    def z(self, t, x):
        return self.amp_z * _gaussian_profile(x, self.width) * math.exp(-self.rate_z * t)

    def state(self, grid: Grid, t: float) -> State:
        return State(
            t=t,
            v=self.v(t, grid.cell_centers),
            theta=self.theta(t, grid.cell_centers),
            z=self.z(t, grid.cell_centers),
            u=self.u(t, grid.node_positions),
        )


class _Profile:
    """The x-only factors of the manufactured fields on one set of points.

    Every field is one of these arrays times tau = exp(-rate*t), or tau_z =
    exp(-rate_z*t) for z, plus 1 for v and theta.  Each product keeps its
    left-to-right operand order, so a field scaled from it holds the same
    bits as the whole product evaluated at t.
    """

    def __init__(self, ms: ManufacturedSolution, x):
        x = np.asarray(x, dtype=float)
        w2 = ms.width * ms.width
        g = _gaussian_profile(x, ms.width)
        g_x = -2.0 * x / w2 * g
        g_xx = (-2.0 / w2 + 4.0 * x * x / (w2 * w2)) * g
        self.v = ms.amp_v * g
        self.v_t = -ms.rate * ms.amp_v * g
        self.v_x = ms.amp_v * g_x
        self.u_t = -ms.rate * ms.amp_u * x * g
        self.u_x = ms.amp_u * (g + x * g_x)
        self.u_xx = ms.amp_u * (2.0 * g_x + x * g_xx)
        self.th = ms.amp_theta * g
        self.th_t = -ms.rate * ms.amp_theta * g
        self.th_x = ms.amp_theta * g_x
        self.th_xx = ms.amp_theta * g_xx
        self.z = ms.amp_z * g
        self.z_t = -ms.rate_z * ms.amp_z * g
        self.z_x = ms.amp_z * g_x
        self.z_xx = ms.amp_z * g_xx


def _shared_fields(f: _Profile, tau):
    """(v, v_x, u_x, theta, theta_x, theta**3) at tau: what every residual reads."""
    v = 1.0 + f.v * tau
    th = 1.0 + f.th * tau
    _check_quadrant(v, th)  # once; the kernels below skip it
    return v, f.v_x * tau, f.u_x * tau, th, f.th_x * tau, th**3


def _momentum_residual(params: GasParameters, f: _Profile, tau):
    """S_u, the residual of the momentum equation, at tau = exp(-rate*t)."""
    v, v_x, u_x, th, th_x, th_cu = _shared_fields(f, tau)
    u_t = f.u_t * tau
    u_xx = f.u_xx * tau
    p_v = _p_v(params, v, th)
    p_theta = _p_theta(params, v, th_cu)
    return u_t + p_v * v_x + p_theta * th_x - params.mu * (u_xx / v - u_x * v_x / v**2)


def _cell_residuals(params: GasParameters, f: _Profile, tau, tau_z):
    """(S_v, S_e, S_z, e_v): the volume, energy and species residuals and the e_v they used."""
    v, v_x, u_x, th, th_x, th_cu = _shared_fields(f, tau)
    v_t = f.v_t * tau
    th_t = f.th_t * tau
    th_xx = f.th_xx * tau
    z = f.z * tau_z
    z_t = f.z_t * tau_z
    z_x = f.z_x * tau_z
    z_xx = f.z_xx * tau_z

    e_v = params.a * th**4
    e_theta = _e_theta(params, v, th_cu)
    S_v = v_t - u_x
    kappa = _conductivity(params, v, th)
    kappa_v = params.kappa2 * th**params.b
    kappa_th = params.kappa2 * params.b * v * th ** (params.b - 1.0)
    flux_div = (
        (kappa_v * v_x + kappa_th * th_x) * th_x / v
        + kappa * th_xx / v
        - kappa * th_x * v_x / v**2
    )
    phi = _reaction_rate(params, th)
    p = _pressure(params, v, th)
    S_e = (
        e_theta * th_t
        + e_v * v_t
        + p * u_x
        - params.mu * u_x**2 / v
        - flux_div
        - params.lam * phi * z
    )
    S_z = z_t - params.d * (z_xx / v**2 - 2.0 * z_x * v_x / v**3) + phi * z
    return S_v, S_e, S_z, e_v


def _residuals(ms: ManufacturedSolution, params: GasParameters, t, x):
    """Residuals (S_v, S_u, S_e, S_z) of the governing equations at (t, x), and the e_v they used.

    Adding the residuals to the respective right-hand sides makes the
    manufactured fields an exact solution.  S_e is the residual of the energy
    equation; the split integrator's temperature substep consumes the
    temperature-form residual S_e - e_v*S_v, see ManufacturedSources.
    """
    f = _Profile(ms, x)
    tau = math.exp(-ms.rate * t)
    S_v, S_e, S_z, e_v = _cell_residuals(params, f, tau, math.exp(-ms.rate_z * t))
    return S_v, _momentum_residual(params, f, tau), S_e, S_z, e_v


# Times whose cell residuals a ManufacturedSources keeps.  A repeat comes a
# few times after the first: each species subcycle asks again for the time
# the one before it ended at, and each heat substep for the two ends of a
# species window.  Eight catch every repeat of the verify MMS studies, and a
# bounded store keeps memory flat over a long study.
_STORE_SIZE = 8


class ManufacturedSources:
    """The residuals the split integrator adds, asked by time on one grid.

    The x-only factors of the fields are built once, for the cell centres
    and for the interior nodes, so each call only scales them by the decay
    factors and evaluates the laws.  ``Sv(t)``, ``Stheta(t)`` and ``Sz(t)``
    are evaluated together on the cell centres and kept for the last few
    times, keyed by t, read-only since calls share them; ``Su(t)`` evaluates
    only the momentum residual, on the interior nodes.  The temperature
    substep evolves theta at frozen v, so it needs the temperature-form
    residual S_e - e_v*S_v; the two coincide whenever the manufactured
    volume satisfies its own equation exactly.
    """

    def __init__(self, ms: ManufacturedSolution, params: GasParameters, grid: Grid):
        self._ms = ms
        self._params = params
        self._cells = _Profile(ms, grid.cell_centers)
        self._nodes = _Profile(ms, grid.node_positions[1:-1])
        self._store = {}

    def _at_cells(self, t):
        """(S_v, S_theta, S_z) at time t, from the store when it holds them."""
        sources = self._store.get(t)
        if sources is None:
            ms = self._ms
            S_v, S_e, S_z, e_v = _cell_residuals(
                self._params, self._cells, math.exp(-ms.rate * t), math.exp(-ms.rate_z * t))
            sources = (S_v, S_e - e_v * S_v, S_z)
            for s in sources:
                s.flags.writeable = False
            self._store[t] = sources
            if len(self._store) > _STORE_SIZE:
                del self._store[next(iter(self._store))]
        return sources

    def Sv(self, t):
        return self._at_cells(t)[0]

    def Su(self, t):
        return _momentum_residual(self._params, self._nodes, math.exp(-self._ms.rate * t))

    def Stheta(self, t):
        return self._at_cells(t)[1]

    def Sz(self, t):
        return self._at_cells(t)[2]


def _check_timestep(dt):
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"timestep must be a finite number > 0, got {dt!r}")


def integrate_manufactured(
    ms: ManufacturedSolution,
    params: GasParameters,
    L: float,
    N: int,
    T: float,
    dt: float,
) -> State:
    """March the forced system from the manufactured initial state to time T.

    Uses a constant step (the last one trimmed to land exactly on T) so
    refinement studies control the timestep directly; a step that is not a
    finite number > 0 raises ConfigError.  The cfl, Picard and floor
    settings are ScenarioSpec's defaults.
    """
    _check_timestep(dt)
    spec = ScenarioSpec(params=params, L=L, N=N, T_end=T)
    grid = build_grid(L, N)
    sources = ManufacturedSources(ms, params, grid)
    state = ms.state(grid, 0.0)
    n_steps = max(1, math.ceil(T / dt - 1e-12))
    for k in range(n_steps):
        step = min(dt, T - state.t)
        if step <= 0:
            break
        state = strang_step(state, grid, spec, step, sources=sources).new_state
    return state


def _field_errors(state: State, reference: dict, dx: float) -> dict:
    """L2 and Linf norms of each field of ``state`` minus ``reference[field]``."""
    out = {}
    for f in FIELDS:
        diff = getattr(state, f) - reference[f]
        out[f] = {
            "L2": float(np.sqrt(np.sum(diff**2) * dx)),
            "Linf": float(np.max(np.abs(diff))),
        }
    return out


def _order(coarse: float, fine: float) -> float:
    """log2(coarse / fine); inf if the fine error is 0, -inf if only the coarse one is."""
    if not fine > 0:
        return math.inf
    return math.log2(coarse / fine) if coarse != 0 else -math.inf


def _orders(errors) -> dict:
    """Per-field log2 ratios of successive L2 errors."""
    return {
        f: [_order(coarse[f]["L2"], fine[f]["L2"]) for coarse, fine in zip(errors[:-1], errors[1:])]
        for f in FIELDS
    }


@dataclass
class ConvergenceReport:
    """Errors per resolution and the observed orders between levels."""

    errors: list
    orders: dict


def convergence_study(
    ms: ManufacturedSolution,
    params: GasParameters,
    resolutions,
    T: float,
    L: float = STUDY_L,
) -> ConvergenceReport:
    """Joint space-time refinement: each level doubles N and halves dt.

    Observed orders are log2 ratios of successive L2 errors against the
    manufactured fields at time T.
    """
    if len(resolutions) < 3:
        raise ConfigError("need at least 3 resolutions")
    for a, b in zip(resolutions[:-1], resolutions[1:]):
        if b != 2 * a:
            raise ConfigError("resolutions must double at each level")
    errors = []
    for N in resolutions:
        dx = 2.0 * L / N
        state = integrate_manufactured(ms, params, L, N, T, DT_OVER_DX * dx)
        grid = build_grid(L, N)
        errors.append(_field_errors(state, vars(ms.state(grid, T)), grid.dx))
    return ConvergenceReport(errors=errors, orders=_orders(errors))


def temporal_convergence_study(
    ms: ManufacturedSolution,
    params: GasParameters,
    N: int,
    dts,
    T: float,
) -> ConvergenceReport:
    """Pure timestep refinement at fixed N.

    Errors are measured against a reference run at one quarter of the finest
    step, which cancels the common spatial discretization error; orders are
    then clean estimates of the temporal order.
    """
    if len(dts) < 2:
        raise ConfigError("need at least 2 timesteps")
    for dt in dts:
        _check_timestep(dt)
    for a, b in zip(dts[:-1], dts[1:]):
        if abs(b - 0.5 * a) > 1e-12 * a:
            raise ConfigError("timesteps must halve at each level")
    grid = build_grid(STUDY_L, N)
    ref = integrate_manufactured(ms, params, STUDY_L, N, T, dts[-1] / 4.0)
    errors = [
        _field_errors(integrate_manufactured(ms, params, STUDY_L, N, T, dt), vars(ref), grid.dx)
        for dt in dts
    ]
    return ConvergenceReport(errors=errors, orders=_orders(errors))


def _restrict_to_coarse(fine: State, ratio: int) -> dict:
    """Cell averages for cell fields, shared nodes for the velocity."""
    out = {}
    for f in ("v", "theta", "z"):
        arr = getattr(fine, f)
        out[f] = arr.reshape(-1, ratio).mean(axis=1)
    out["u"] = fine.u[::ratio]
    return out


def oracle_compare(spec: ScenarioSpec, N_coarse: int, N_fine: int) -> dict:
    """Run the same scenario at two resolutions and compare the final states on the coarse grid.

    Requires N_fine to be a multiple of N_coarse with ratio at least 4.
    Returns {field: {"L2": ..., "Linf": ...}}.
    """
    if N_fine % N_coarse != 0 or N_fine < 4 * N_coarse:
        raise ConfigError("need N_fine a multiple of N_coarse with ratio >= 4")
    coarse = run_simulation(replace(spec, N=N_coarse), sample_cadence=spec.T_end)
    fine = run_simulation(replace(spec, N=N_fine), sample_cadence=spec.T_end)
    ratio = N_fine // N_coarse
    restricted = _restrict_to_coarse(fine.final_state, ratio)
    return _field_errors(coarse.final_state, restricted, coarse.grid.dx)
