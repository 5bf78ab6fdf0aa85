"""Analytic functionals and probes evaluated on discrete states and histories.

Spatial integrals use the midpoint rule on cells; gradient quantities live
on interior faces; time integrals over sampled histories use the trapezoid
rule.  All functions here are read-only.
"""

import copy
import math
from dataclasses import dataclass, fields

import numpy as np

from .constitutive import (
    GasParameters,
    conductivity,
    entropy_eta,
    internal_energy,
    pressure,
)
from .domain import Grid, State, boundary_deviation, norms
from .errors import ConfigError, InsufficientHistory, WindowOutOfDomain

__all__ = [
    "DiagnosticsRecord",
    "ProbeWindow",
    "RepresentationProbe",
    "WindowHistory",
    "dissipation_rate",
    "accumulate_XY_increment",
    "interval_probe",
    "oscillation_ratio",
    "representation_check",
    "temperature_envelope_check",
    "theta_bound_from_Y",
    "make_record",
    "CSV_COLUMNS",
]


@dataclass
class DiagnosticsRecord:
    """One sampled row of run diagnostics; its fields are the CSV columns."""

    t: float
    mass_dev: float
    momentum: float
    total_energy: float
    G: float
    V: float
    X: float
    Y: float
    min_v: float
    max_v: float
    min_theta: float
    max_theta: float
    max_z: float
    z_L1: float
    dev_L2: float
    dev_L4: float
    dev_Linf: float
    grad_L2: float
    boundary_dev: float

    def csv_row(self) -> str:
        # getattr, not dataclasses.astuple: astuple deep-copies every field
        # and triples the cost of a row
        return ",".join(f"{getattr(self, name):.17g}" for name in CSV_COLUMNS)


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


@dataclass(frozen=True)
class ProbeWindow:
    """Interval averages over the window [-k-1, k+1] and where they are attained."""

    k: int
    a_k: float
    b_k: float
    avg_v: float
    avg_theta: float

    def block(self) -> str:
        return (
            f"interval probe k = {self.k} (window [-{self.k + 1}, {self.k + 1}])\n"
            f"  avg v = {self.avg_v:.10g} attained nearest x = {self.a_k:.6g}\n"
            f"  avg theta = {self.avg_theta:.10g} attained nearest x = {self.b_k:.6g}"
        )


@dataclass
class RepresentationProbe:
    """Reconstruction of v on a probe window from velocity and stress history."""

    k: int
    B: np.ndarray
    Q: float
    v_reconstructed: np.ndarray
    max_rel_error: float

    def block(self) -> str:
        return (
            f"volume representation k = {self.k}\n"
            f"  Q = {self.Q:.10g}, B range = [{np.min(self.B):.10g}, {np.max(self.B):.10g}]\n"
            f"  max relative reconstruction error = {self.max_rel_error:.3e}"
        )


def _node_masses(grid: Grid) -> np.ndarray:
    m = np.full(grid.N + 1, grid.dx)
    m[0] = 0.5 * grid.dx
    m[-1] = 0.5 * grid.dx
    return m


def _u_on_cells(u: np.ndarray) -> np.ndarray:
    return 0.5 * (u[:-1] + u[1:])


def dissipation_rate(state: State, grid: Grid, params: GasParameters) -> float:
    """Viscous plus conductive entropy production; zero only for flat states."""
    dx = grid.dx
    u_x = np.diff(state.u) / dx
    viscous = params.mu * u_x**2 / (state.v * state.theta)
    th_f = 0.5 * (state.theta[:-1] + state.theta[1:])
    v_f = 0.5 * (state.v[:-1] + state.v[1:])
    th_x = np.diff(state.theta) / dx
    conductive = conductivity(params, v_f, th_f) * th_x**2 / (v_f * th_f**2)
    return float((np.sum(viscous) + np.sum(conductive)) * dx)


def _Y_now(state: State, grid: Grid, params: GasParameters) -> float:
    th_f = 0.5 * (state.theta[:-1] + state.theta[1:])
    th_x = np.diff(state.theta) / grid.dx
    return float(np.sum((1.0 + th_f ** (2.0 * params.b)) * th_x**2) * grid.dx)


def accumulate_XY_increment(prev: State, cur: State, params: GasParameters, grid: Grid) -> float:
    """Contribution to the time-integrated temperature-rate functional between two samples."""
    dt = cur.t - prev.t
    if dt <= 0:
        return 0.0
    th_t = (cur.theta - prev.theta) / dt
    weight = 1.0 + cur.theta ** (params.b + 3.0)
    return float(dt * np.sum(weight * th_t**2) * grid.dx)


def make_record(state: State, grid: Grid, params: GasParameters, prev=None, prev_state=None):
    """The DiagnosticsRecord of a sampled state; every column is computed here.

    Mass, momentum and kinetic energy weight nodes with half-cell lumped
    masses.  total_energy is measured relative to the rest state and includes
    the chemical reservoir lam*z; G is the entropy functional plus the kinetic
    energy, zero only at equilibrium.  X and Y carry on from ``prev``, the
    record of the previous sample ``prev_state``: X adds the increment between
    the two states and Y is the running maximum of the weighted squared
    temperature gradient.  The first sample passes neither, and its X is 0.
    """
    dx = grid.dx
    masses = _node_masses(grid)
    e_rest = internal_energy(params, 1.0, 1.0)
    internal = np.sum(internal_energy(params, state.v, state.theta) - e_rest) * dx
    kinetic = 0.5 * np.sum(masses * state.u**2)
    chemical = params.lam * np.sum(state.z) * dx
    eta = entropy_eta(params, state.v, state.theta)
    if prev is None:
        X, Y = 0.0, 0.0
    else:
        X = prev.X + accumulate_XY_increment(prev_state, state, params, grid)
        Y = prev.Y
    dev = norms(state, grid)
    return DiagnosticsRecord(
        t=state.t,
        mass_dev=float(np.sum(state.v - 1.0) * dx),
        momentum=float(np.sum(masses * state.u)),
        total_energy=float(internal + kinetic + chemical),
        G=float(np.sum(eta) * dx + kinetic),
        V=dissipation_rate(state, grid, params),
        X=X,
        Y=max(Y, _Y_now(state, grid, params)),
        min_v=float(np.min(state.v)),
        max_v=float(np.max(state.v)),
        min_theta=float(np.min(state.theta)),
        max_theta=float(np.max(state.theta)),
        max_z=float(np.max(state.z)),
        z_L1=float(np.sum(np.abs(state.z)) * dx),
        dev_L2=dev["L2"],
        dev_L4=dev["L4"],
        dev_Linf=dev["Linf"],
        grad_L2=dev["grad_L2"],
        boundary_dev=boundary_deviation(state, grid),
    )


def _window_cells(grid: Grid, k: int):
    if k < 0:
        raise WindowOutOfDomain(f"window index must be >= 0, got {k}")
    lo, hi = -(k + 1.0), k + 1.0
    mask = (grid.cell_centers >= lo) & (grid.cell_centers <= hi)
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        raise WindowOutOfDomain(f"window [{lo}, {hi}] contains no cells")
    return idx


def interval_probe(state: State, grid: Grid, k: int) -> ProbeWindow:
    """Window averages of v and theta and the cells attaining them.

    Ties in the distance to the average break toward the smallest cell index.
    """
    idx = _window_cells(grid, k)
    avg_v = float(np.mean(state.v[idx]))
    avg_th = float(np.mean(state.theta[idx]))
    ia = idx[int(np.argmin(np.abs(state.v[idx] - avg_v)))]
    ib = idx[int(np.argmin(np.abs(state.theta[idx] - avg_th)))]
    return ProbeWindow(
        k=k,
        a_k=float(grid.cell_centers[ia]),
        b_k=float(grid.cell_centers[ib]),
        avg_v=avg_v,
        avg_theta=avg_th,
    )


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


def _cutoff(y: np.ndarray, k: int) -> np.ndarray:
    """1 left of k+1, linear ramp down to 0 on [k+1, k+2], 0 beyond."""
    return np.clip(k + 2.0 - y, 0.0, 1.0)


def _suffix_trapezoid(w: np.ndarray, dx: float) -> np.ndarray:
    """T[i] = trapezoidal integral of w from point i to the last point."""
    seg = 0.5 * (w[:-1] + w[1:]) * dx
    out = np.zeros_like(w)
    out[:-1] = np.cumsum(seg[::-1])[::-1]
    return out


def _strip_weights(grid: Grid, lo: float, hi: float) -> np.ndarray:
    """Exact overlap of each cell with [lo, hi]; the interval edges rarely
    align with cell faces, so midpoint summation over selected cells would
    misstate the measure."""
    left = grid.cell_centers - 0.5 * grid.dx
    right = grid.cell_centers + 0.5 * grid.dx
    return np.clip(np.minimum(right, hi) - np.maximum(left, lo), 0.0, None)


class WindowHistory:
    """What the volume representation reads of each sample, for one probe window.

    ``append`` takes the sampled states in time order, the first being the
    initial one, and keeps of each only its time, its B row, the strip
    integral of its total stress, and v and theta on the window cells, so the
    history grows with the window and not with the grid.
    """

    def __init__(self, grid: Grid, params: GasParameters, k: int):
        self.grid = grid
        self.params = params
        self.k = k
        self.idx = _window_cells(grid, k)
        self._cut = _cutoff(grid.cell_centers, k)
        self._strip_w = _strip_weights(grid, k + 1.0, k + 2.0)
        self._u0_c = None
        self.t, self.B, self.stress, self.v, self.theta = [], [], [], [], []

    def append(self, s: State) -> None:
        idx, dx, params = self.idx, self.grid.dx, self.params
        if self._u0_c is None:
            self._u0_c = _u_on_cells(s.u)
        self.t.append(s.t)
        self.v.append(s.v[idx])
        self.theta.append(s.theta[idx])
        w = (self._u0_c - _u_on_cells(s.u)) * self._cut
        self.B.append(self.v[0] * np.exp(_suffix_trapezoid(w, dx)[idx] / params.mu))
        u_x = np.diff(s.u) / dx
        total_stress = params.mu * u_x / s.v - pressure(params, s.v, s.theta)
        self.stress.append(float(np.sum(total_stress * self._strip_w)))

    def every(self, step: int) -> "WindowHistory":
        """The history of every ``step``-th sample, from the first; its rows
        are those of the full history, since B is measured from the first."""
        sub = copy.copy(self)
        for name in ("t", "B", "stress", "v", "theta"):
            setattr(sub, name, getattr(self, name)[::step])
        return sub


def representation_check(history: WindowHistory, t: float) -> RepresentationProbe:
    """Reconstruct v on the window [-k-1, k+1] at time t from the history.

    B comes from the cut-off-weighted integral of the velocity change to the
    right of each point, Q from the time integral over the ramp strip
    [k+1, k+2] of the total stress, and the reconstruction discretizes the
    closed-form volume formula with trapezoids over the stored samples.
    """
    grid, params, k = history.grid, history.params, history.k
    if k + 2.0 > grid.L:
        raise WindowOutOfDomain(f"need k + 2 <= L, got k = {k}, L = {grid.L}")
    if len(history.t) < 2:
        raise InsufficientHistory("need at least 2 sampled states")
    times = np.array(history.t)
    if t > times[-1] + 1e-9:
        raise InsufficientHistory(f"history ends at t = {times[-1]:.6g} before requested {t:.6g}")
    m_t = int(np.argmin(np.abs(times - t)))
    n_hist = m_t + 1
    B = history.B
    stress_integral = np.array(history.stress)

    # Q(s) for every sample via a running trapezoid of the strip integral
    Q = np.empty(n_hist)
    Q[0] = 1.0
    acc = 0.0
    for m in range(1, n_hist):
        acc += 0.5 * (stress_integral[m - 1] + stress_integral[m]) * (times[m] - times[m - 1])
        Q[m] = math.exp(acc / params.mu)

    BQ_t = B[m_t] * Q[-1]
    integrand = np.empty((n_hist, history.idx.size))
    for m in range(n_hist):
        v, theta = history.v[m], history.theta[m]
        integrand[m] = BQ_t * v * pressure(params, v, theta) / (B[m] * Q[m])
    time_int = np.zeros(history.idx.size)
    for m in range(1, n_hist):
        time_int += 0.5 * (integrand[m - 1] + integrand[m]) * (times[m] - times[m - 1])

    v_rec = BQ_t + time_int / params.mu
    v_true = history.v[m_t]
    max_rel = float(np.max(np.abs(v_rec - v_true) / np.abs(v_true)))
    return RepresentationProbe(
        k=k,
        B=B[m_t],
        Q=float(Q[-1]),
        v_reconstructed=v_rec,
        max_rel_error=max_rel,
    )


def temperature_envelope_check(records) -> float:
    """Smallest certified constant for the temperature lower envelope.

    Reads the time ``t`` and the least temperature ``min_theta`` of each
    sampled DiagnosticsRecord and scans all sampled pairs s < t of the
    identity theta_min(t) * (1 + (t - s) * theta_min(s)) / theta_min(s) using
    a prefix minimum, so the cost is linear in the history length.  A
    strictly positive return certifies the discrete lower envelope for the run.
    """
    if len(records) < 2:
        raise InsufficientHistory("need at least 2 sampled states")
    best = math.inf
    worst_ratio = math.inf
    for prev, r in zip(records[:-1], records[1:]):
        best = min(best, 1.0 / prev.min_theta - prev.t)
        worst_ratio = min(worst_ratio, r.min_theta * (r.t + best))
    return worst_ratio


def theta_bound_from_Y(params: GasParameters, Y: float) -> float:
    """Temperature ceiling scale 1 + Y^(1/(2b+6)) implied by the gradient functional."""
    if Y < 0:
        raise ConfigError("Y must be nonnegative")
    return 1.0 + Y ** (1.0 / (2.0 * params.b + 6.0))
